"""The edge layout helpers and the one reader and writer of the file formats.

Round trips must be byte-identical, and a damaged file must give a
ValueError (UsageError for information rows) and CLI exit 1, never a
traceback.
"""

import json
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from graphcodes.cli import UsageError, main, parse_info_file
from graphcodes.double import decode_double, double_parity_code
from graphcodes.extreme import build_generator, decode_surviving_graph, encode_message
from graphcodes.field import field, parse_field
from graphcodes.framework import DecodeReport, oracle_decode, random_codeword
from graphcodes.graphs import (
    MAX_NODES,
    LabeledGraph,
    check_node_count,
    edge_at,
    edge_index,
    edge_indices,
    edge_name,
    edge_pairs,
    failed_nodes_of,
    failure_edges,
    neighborhood,
    normalize_edge,
    num_edges,
    read_edge_names,
    read_ints,
    read_rows,
    write_rows,
)
from graphcodes.single import decode_single, single_parity_code
from graphcodes.triple import decode_triple, triple_code

FIELDS = (2, 3, 5, 7, 11, 13, 4, 8, 9, 16, 25, 27, 32)


def test_edge_indices_match_edge_index_in_both_orders():
    i, j = np.meshgrid(np.arange(30), np.arange(30), indexing="ij")
    want = [[edge_index(a, b) for b in range(30)] for a in range(30)]
    assert edge_indices(i, j).tolist() == want
    assert edge_indices(j, i).tolist() == np.transpose(want).tolist()
    assert edge_indices(7, 3) == edge_index(7, 3)


def test_edge_pairs_exact_at_every_row_boundary_up_to_max_nodes():
    i = np.arange(MAX_NODES, dtype=np.int64)
    for k, want_j in ((num_edges(i), 0 * i), (num_edges(i) + i, i)):  # first and last of row i
        got_i, got_j = edge_pairs(k)
        assert np.array_equal(got_i, i) and np.array_equal(got_j, want_j)
    assert edge_pairs(num_edges(MAX_NODES) - 1)[0] == MAX_NODES - 1


def test_edge_pairs_inverts_edge_indices():
    rng = np.random.default_rng(5)
    k = rng.integers(0, num_edges(MAX_NODES), size=5000)
    i, j = edge_pairs(k)
    assert (i >= j).all() and (j >= 0).all()
    assert np.array_equal(edge_indices(i, j), k)
    assert [edge_at(int(v)) for v in k[:200]] == list(zip(i[:200].tolist(), j[:200].tolist()))


@pytest.mark.parametrize("n", (3, 4, 9, 16))
def test_array_forms_match_per_edge_loops(n):
    def at(k):  # the per-edge inverse of edge_index
        i = 0
        while (i + 1) * (i + 2) // 2 <= k:
            i += 1
        return i, k - i * (i + 1) // 2

    t = num_edges(n)
    rng = np.random.default_rng(n)
    g = LabeledGraph(n, field(7), rng.integers(0, 7, t))
    for m in range(n):
        assert neighborhood(n, m) == [(max(m, l), min(m, l)) for l in range(n)]
    failed = {0, n - 1}
    assert failure_edges(n, failed) == sorted({(max(m, l), min(m, l)) for m in failed for l in range(n)})
    mask = rng.random(t) < 0.3
    assert LabeledGraph(n, g.gf, erased=mask).erased_edges() == [at(k) for k in np.flatnonzero(mask)]


def test_rows_writer_and_reader_are_inverse():
    labels = np.arange(num_edges(5), dtype=np.int64)
    rows = write_rows(labels, 5)
    assert rows == [[0], [1, 2], [3, 4, 5], [6, 7, 8, 9], [10, 11, 12, 13, 14]]
    assert read_rows(rows, 5) == labels.tolist()
    assert write_rows(labels, 3) == rows[:3]  # the information rows of a longer vector


@pytest.mark.parametrize("rows,message", [
    ([[0], [0, 0]], "expected 3 label rows, got 2"),
    ([[0], [0], [0, 0, 0]], "row 1 must have 2 entries, got 1"),
    ([[0], 7, [0, 0, 0]], "row 1 must have 2 entries, got int"),
])
def test_rows_reader_messages(rows, message):
    with pytest.raises(ValueError, match=message):
        read_rows(rows, 3)


def test_edge_names():
    assert edge_name(4, 1) == "4:1"
    assert read_edge_names(["4:1", "0:3", "02:+1"]).tolist() == [[4, 1], [0, 3], [2, 1]]
    assert read_edge_names([]).shape == (0, 2)
    for bad in ("4", "4:1:0", "", "a:1", "1.0:0"):
        with pytest.raises(ValueError):
            read_edge_names([bad])


def test_token_rule():
    assert read_ints(["7", "+2", "-1", "0012"]).tolist() == [7, 2, -1, 12]
    for bad in ("0x1", "1.0", "1e2", "abc", "99999999999999999999", "-9223372036854775809"):
        with pytest.raises(ValueError):
            read_ints(["0", bad])


def _graph(data, n_max=12):
    n = data.draw(st.integers(3, n_max), label="n")
    q = data.draw(st.sampled_from(FIELDS), label="q")
    t = num_edges(n)
    labels = data.draw(st.lists(st.integers(0, q - 1), min_size=t, max_size=t), label="labels")
    erased = data.draw(st.lists(st.integers(0, t - 1), max_size=t, unique=True), label="erased")
    mask = np.zeros(t, dtype=bool)
    mask[erased] = True
    return LabeledGraph(n, field(q), labels, mask)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_round_trips_are_byte_identical(data):
    g = _graph(data)
    text = g.to_text()
    again = LabeledGraph.from_string(text)
    assert again == g and again.to_text() == text
    doc = json.dumps(g.to_json_obj())
    again = LabeledGraph.from_string(doc)
    assert again == g and json.dumps(again.to_json_obj()) == doc
    assert LabeledGraph.from_json_obj(json.loads(doc)).to_text() == text


def test_round_trip_of_a_mask_that_is_no_node_failure():
    g = LabeledGraph(6, field(9), [k % 9 for k in range(num_edges(6))], erased=[(3, 1), (5, 5)])
    assert failed_nodes_of(g) is None
    assert g.to_text().splitlines()[1] == "erased=3:1,5:5"
    assert LabeledGraph.from_text(g.to_text()) == g


def _mutate_text(data, g):
    lines = g.to_text().splitlines()
    head, body = lines[0], lines[1:]
    erased = body.pop(0) if g.has_erasures else None
    kind = data.draw(st.sampled_from(
        ["ragged", "extra_row", "duplicate", "field", "token", "huge", "name"]), label="kind")
    r = data.draw(st.integers(0, g.n - 1), label="row")
    if kind == "ragged":
        body[r] = " ".join(body[r].split()[:-1] if data.draw(st.booleans()) else body[r].split() + ["0"])
    elif kind == "extra_row":
        body.append(body[-1])
    elif kind == "duplicate":
        i, j = g.erased_edges()[0] if g.has_erasures else (r, 0)
        name = data.draw(st.sampled_from([edge_name(i, j), edge_name(j, i)]))
        erased = f"{erased or 'erased=' + edge_name(i, j)},{name}"
    elif kind == "field":
        bad = data.draw(st.sampled_from(["gf(6)", "gf(", "gf(x)", "zz", "gf(4):9", "gf(2):", "gf(1)"]))
        head = head.split(" field=")[0] + " field=" + bad
    elif kind in ("token", "huge"):
        bad = "99999999999999999999" if kind == "huge" else data.draw(
            st.sampled_from(["0x1", "1.0", "1e2", "a", "-", "²", "0b1", "1,0"]))
        toks = body[r].split()
        toks[data.draw(st.integers(0, len(toks) - 1))] = bad
        body[r] = " ".join(toks)
    else:
        bad = data.draw(st.sampled_from(["1", "1:0:0", "a:0", ":", "1:", "-1:0", f"{g.n}:0"]))
        erased = f"erased={bad}" if erased is None else f"{erased},{bad}"
    return "\n".join([head] + ([erased] if erased else []) + body) + "\n"


def _mutate_json(data, g):
    obj = g.to_json_obj()
    r = data.draw(st.integers(0, g.n - 1), label="row")
    kind = data.draw(st.sampled_from(["ragged", "value", "duplicate", "field", "name"]), label="kind")
    if kind == "ragged":
        obj["rows"][r] = obj["rows"][r][:-1] if data.draw(st.booleans()) else obj["rows"][r] + [0]
    elif kind == "value":
        bad = data.draw(st.sampled_from([True, False, 1.0, 0.5, "1", None, 99999999999999999999, [0]]))
        obj["rows"][r][data.draw(st.integers(0, r))] = bad
    elif kind == "duplicate":
        obj["erased"] += [edge_name(r, 0), edge_name(0, r)]
    elif kind == "field":
        obj["field"] = data.draw(st.sampled_from(["gf(6)", "gf(x)", "zz", "gf(2):"]))
    else:
        obj["erased"].append(data.draw(st.sampled_from(
            ["1", "1:0:0", "a:0", "-1:0", [1, True], [1.0, 0], [1, 0, 0], [99999999999999999999, 0]])))
    return json.dumps(obj)


def _cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.err


FIXTURES_OK = [HealthCheck.function_scoped_fixture]  # capsys is read out after every call


@settings(max_examples=150, deadline=None, suppress_health_check=FIXTURES_OK)
@given(data=st.data())
def test_mutated_graph_files_are_refused(tmp_path_factory, capsys, data):
    g = _graph(data, n_max=8)
    mutate = data.draw(st.sampled_from([_mutate_text, _mutate_json]), label="form")
    doc = mutate(data, g)
    with pytest.raises(ValueError):
        LabeledGraph.from_string(doc)
    path = tmp_path_factory.mktemp("bad") / "g.txt"
    path.write_text(doc)
    for argv in (("erase", "--fail", ""), ("decode", "--family", "single")):
        code, err = _cli(capsys, *argv, "--input", str(path))
        assert code == 1 and err.startswith("error:") and "Traceback" not in err


@settings(max_examples=60, deadline=None, suppress_health_check=FIXTURES_OK)
@given(data=st.data())
def test_mutated_information_files_are_refused(tmp_path_factory, capsys, data):
    k = data.draw(st.integers(2, 6))
    rows = [[(i + j) % 2 for j in range(i + 1)] for i in range(k)]
    r = data.draw(st.integers(0, k - 1))
    kind = data.draw(st.sampled_from(["ragged", "rows", "token", "huge", "key"]))
    if kind == "ragged":
        rows[r] = rows[r] + [0]
    elif kind == "rows":
        rows.append(rows[-1])
    elif kind in ("token", "huge"):
        rows[r][0] = "99999999999999999999" if kind == "huge" else data.draw(
            st.sampled_from(["0x1", "1.0", "x"]))
    text = "\n".join(" ".join(map(str, row)) for row in rows) + "\n"
    if kind == "key":
        bad = data.draw(st.sampled_from(["1", "1:0:0", "a:0", "-1:0", "0:9"]))
        text = json.dumps({**{f"{i}:{j}": 0 for i in range(k) for j in range(i + 1)}, bad: 1})
    if kind in ("ragged", "rows"):
        with pytest.raises(UsageError):
            parse_info_file(text, k)
    elif kind != "key":
        with pytest.raises(ValueError):
            parse_info_file(text, k)
    path = tmp_path_factory.mktemp("info") / "info.txt"
    path.write_text(text)
    code, err = _cli(capsys, "encode", "--family", "single", "--n", str(k + 1), "--info", str(path))
    assert code == 1 and err.startswith("error:") and "Traceback" not in err


def test_information_text_is_read_in_edge_order():
    assert parse_info_file("1\n0 1\n\n2 0 1\n", 3).tolist() == [1, 0, 1, 2, 0, 1]
    assert parse_info_file('{"1:0": 4, "0:0": 1}', 2) == {(1, 0): 4, (0, 0): 1}


@pytest.mark.parametrize("names,message", [
    ("1:0,-1:2", "negative node index in edge (-1, 2)"),
    ("0:-3", "negative node index in edge (0, -3)"),
    ("1:0,0:3", "node 3 out of range for n=3"),
    ("2:7,-1:0", "node 7 out of range for n=3"),
    ("2:1,1:0,1:1,0:1", "erased edge 0:1 is named twice"),
])
def test_erased_names_are_refused_with_the_first_bad_pair(names, message):
    text = f"graphcode-v1 n=3 field=gf(2)\nerased={names}\n0\n0 0\n0 0 0\n"
    with pytest.raises(ValueError) as err:
        LabeledGraph.from_text(text)
    assert str(err.value) == message


def test_duplicate_erased_edge_names_the_edge():
    text = "graphcode-v1 n=3 field=gf(2)\nerased=2:1,1:0,1:2\n0\n0 0\n0 0 0\n"
    with pytest.raises(ValueError, match="erased edge 1:2 is named twice"):
        LabeledGraph.from_text(text)


# -- differential tests: the one-pass reader and writer against the per-token rule


def reference_to_text(g):
    """The writer as it was: str() of every label, the erased edges in order."""
    lines = [f"graphcode-v1 n={g.n} field={g.gf.name}"]
    erased = [edge_at(int(k)) for k in np.flatnonzero(g.erased)]
    if erased:
        lines.append("erased=" + ",".join(f"{i}:{j}" for i, j in erased))
    flat = g.labels.tolist()
    lines += [" ".join(map(str, flat[num_edges(i):num_edges(i + 1)])) for i in range(g.n)]
    return "\n".join(lines) + "\n"


def reference_ints(tokens):
    """The per-token rule: every token as numpy converts a str to int64."""
    try:
        return np.array(tokens, dtype=np.int64)
    except OverflowError:
        raise ValueError("a number in the file is outside the int64 range") from None


def reference_rows(rows, count, rows_error, row_error, error=ValueError):
    if len(rows) != count:
        raise error(rows_error.format(count=count, got=len(rows)))
    for i, row in enumerate(rows):
        if len(row) != i + 1:
            raise error(row_error.format(i=i, size=i + 1, got=len(row)))
    return [tok for row in rows for tok in row]


def reference_from_text(text):
    """The reader as it was: non-blank lines, whitespace tokens, one int per
    token, then the graph's checks pair by pair.  Returns (n, gf, labels, mask)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if (len(head) != 3 or head[0] != "graphcode-v1" or not head[1].startswith("n=")
            or not head[2].startswith("field=")):
        raise ValueError(f"bad header {lines[0]!r}")
    n, gf = int(head[1][2:]), parse_field(head[2][6:])
    body, names = lines[1:], []
    if body and body[0].startswith("erased="):
        names = body[0][len("erased="):].split(",") if body[0] != "erased=" else []
        body = body[1:]
    parts = [name.split(":") for name in names]
    for name, part in zip(names, parts):
        if len(part) != 2:
            raise ValueError(f"edge name {name!r} is not of the form i:j")
    tokens = [tok for part in parts for tok in part]
    ints = reference_ints(tokens + reference_rows(
        [ln.split() for ln in body], n, "expected {count} label rows, got {got}",
        "row {i} must have {size} entries, got {got}"))
    check_node_count(n)
    labels = gf.validate_arr(ints[len(tokens):])
    seen = []
    for i, j in ints[:len(tokens)].reshape(-1, 2).tolist():
        a, b = normalize_edge(i, j)
        if a >= n:
            raise ValueError(f"node {a} out of range for n={n}")
        seen.append(edge_index(a, b))
    for k, (i, j) in enumerate(ints[:len(tokens)].reshape(-1, 2).tolist()):
        if seen[k] in seen[:k]:
            raise ValueError(f"erased edge {i}:{j} is named twice")
    mask = np.zeros(num_edges(n), dtype=bool)
    mask[seen] = True
    labels[mask] = 0
    return n, gf, labels, mask


def outcome(read, *args):
    """What a reader gives: its result, or its exception's type and message."""
    try:
        return "ok", read(*args)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)


DIFF_FIELDS = (2, 11, 32, 65536)


def _any_graph(data, n_max=9):
    n = data.draw(st.integers(3, n_max), label="n")
    q = data.draw(st.sampled_from(DIFF_FIELDS), label="q")
    t = num_edges(n)
    labels = data.draw(st.lists(st.integers(0, q - 1), min_size=t, max_size=t), label="labels")
    erased = data.draw(st.lists(st.integers(0, t - 1), max_size=t, unique=True), label="erased")
    mask = np.zeros(t, dtype=bool)
    mask[erased] = True
    return LabeledGraph(n, field(q), labels, mask)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_writer_equals_the_per_label_writer(data):
    g = _any_graph(data)
    assert g.to_text() == reference_to_text(g)


def _number_spans(text):
    """(start, end) of every run of ASCII digits after the first line."""
    return [m.span() for m in re.compile("[0-9]+").finditer(text, text.index("\n") + 1)]


# edits that keep a text plain (ASCII digits, spaces, newlines, and ':' ','
# in names), which the one-pass reader reads itself, and edits that do not
PLAIN_EDITS = ["zeros", "blank", "spaces", "digits18", "digits19", "duplicate", "out_of_range",
               "no_final_newline", "double_separator", "shift_row"]
OTHER_EDITS = ["sign", "crlf", "tab", "unicode", "comma"]


def _mutated(data, text, n):
    """A text with one to three edits that the one-pass reader must either
    read as the full rule does or hand to it."""
    kinds = PLAIN_EDITS if data.draw(st.booleans(), label="plain") else PLAIN_EDITS + OTHER_EDITS
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        kind = data.draw(st.sampled_from(kinds), label="kind")
        spans = _number_spans(text)
        a, b = data.draw(st.sampled_from(spans), label="number") if spans else (len(text), len(text))
        if kind == "sign":
            text = text[:a] + data.draw(st.sampled_from("+-")) + text[a:]
        elif kind == "zeros":
            text = text[:a] + "0" * data.draw(st.integers(1, 17)) + text[a:]
        elif kind == "crlf":
            text = text.replace("\n", "\r\n", data.draw(st.integers(1, 3)))
        elif kind == "blank":
            at = data.draw(st.sampled_from([k for k, c in enumerate(text) if c == "\n"]))
            text = text[:at] + data.draw(st.sampled_from(["\n", "\n  \n", "\n\n"])) + text[at:]
        elif kind == "tab":
            text = text.replace(" ", "\t", 1) if " " in text else text + "\t"
        elif kind == "spaces":
            text = text[:b] + "  " + text[b:]
        elif kind in ("digits18", "digits19"):
            width = 18 if kind == "digits18" else 19
            text = text[:a] + str(data.draw(st.integers(10 ** (width - 1), 10**width - 1))) + text[b:]
        elif kind == "unicode":
            text = text[:a] + "\u0663" + text[b:]
        elif kind == "comma":
            text = text[:a] + "," + text[b:]
        elif kind == "shift_row":  # a line break moves: as many rows, of other lengths
            first = text.index("\n")
            breaks = [k for k, c in enumerate(text) if c == "\n" and first < k < len(text) - 1]
            spaces = [k for k, c in enumerate(text) if c == " " and k > first]
            if breaks and spaces:
                k, m = data.draw(st.sampled_from(breaks)), data.draw(st.sampled_from(spaces))
                chars = list(text)
                chars[k], chars[m] = " ", "\n"
                text = "".join(chars)
        elif kind == "no_final_newline":
            text = text.rstrip("\n")
        elif kind == "double_separator":
            seps = [k for k, c in enumerate(text) if c in ":,"]
            if seps:
                at = data.draw(st.sampled_from(seps))
                text = text[:at] + text[at] + text[at:]
        else:
            i = data.draw(st.integers(0, n - 1))
            name = (f"{i}:{data.draw(st.integers(0, n - 1))}" if kind == "duplicate"
                    else f"{n + data.draw(st.integers(0, 2))}:{i}")
            lines = text.split("\n")
            if lines[1].startswith("erased="):
                lines[1] += ("," if lines[1] != "erased=" else "") + name
                if kind == "duplicate":  # the same edge again, in the other order
                    lines[1] += "," + ":".join(reversed(name.split(":")))
            else:
                lines.insert(1, f"erased={name}")
            text = "\n".join(lines)
    return text


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_reader_equals_the_per_token_rule_on_mutated_text(data):
    g = _any_graph(data, n_max=7)
    text = _mutated(data, g.to_text(), g.n)
    got = outcome(LabeledGraph.from_text, text)
    want = outcome(reference_from_text, text)
    if want[0] == "ok":
        n, gf, labels, mask = want[1]
        assert got[0] == "ok", got
        assert (got[1].n, got[1].gf) == (n, gf)
        assert np.array_equal(got[1].labels, labels) and np.array_equal(got[1].erased, mask)
    else:
        assert got == want


def reference_info(text, k_nodes):
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    return reference_ints(reference_rows(rows, k_nodes, "expected {count} triangular rows, got {got}",
                                         "information row {i} must have {size} entries", UsageError))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_information_reader_equals_the_per_token_rule(data):
    g = _any_graph(data, n_max=7)
    k = g.n - 1
    text = "\n".join(g.to_text().split("\n")[1 + g.has_erasures:][:k]) + "\n"
    text = "x\n" + text  # _mutated edits what follows its first line
    text = _mutated(data, text, g.n)[2:]
    got = outcome(parse_info_file, text, k)
    want = outcome(reference_info, text, k)
    if want[0] == "ok":
        assert got[0] == "ok" and got[1].dtype == np.int64 and np.array_equal(got[1], want[1])
    else:
        assert got == want


def _decodes(data):
    """Reports of every decoder kind on small codes, for the provenance writer."""
    kind = data.draw(st.sampled_from(["single", "double", "triple", "oracle", "extreme"]), label="kind")
    rng = random.Random(data.draw(st.integers(0, 2**16), label="seed"))
    if kind == "extreme":
        gen = build_generator(5, 3, 0)
        g = encode_message(gen, [rng.randrange(3) for _ in range(3)])
        keep = rng.sample(range(5), 2)
        return decode_surviving_graph(gen, g.erase_nodes(set(range(5)) - set(keep)))
    spec, decode, rho = {
        "single": (single_parity_code(7, field(5)), decode_single, 1),
        "double": (double_parity_code(11), decode_double, 2),
        "triple": (triple_code(8, field(9)), decode_triple, 3),
        "oracle": (double_parity_code(7), oracle_decode, 2),
    }[kind]
    g = random_codeword(spec, rng)
    if kind == "oracle" and rng.random() < 0.5:  # a mask that is no node failure
        mask = np.zeros(num_edges(spec.n), dtype=bool)
        mask[rng.sample(range(mask.size), 5)] = True
        return decode(spec, LabeledGraph(spec.n, spec.gf, g.labels, mask))
    return decode(spec, g.erase_nodes(rng.sample(range(spec.n), rho)))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_provenance_text_is_the_json_of_the_provenance(data):
    report = _decodes(data)
    assert report.provenance_text() == json.dumps(report.provenance_json(), indent=2)


def test_provenance_text_of_an_empty_report():
    assert DecodeReport("failed", None, reason="inconsistent").provenance_text() == "[]"
    g = LabeledGraph(5, field(2))
    assert oracle_decode(double_parity_code(5), g).provenance_text() == "[]"
