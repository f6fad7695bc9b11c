import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphcodes.errors import ErasedAccessError
from graphcodes.field import field
from graphcodes.graphs import (
    LabeledGraph,
    edge_at,
    edge_index,
    failed_nodes_of,
    failure_edges,
    neighborhood,
    neighborhood_indices,
    normalize_edge,
    num_edges,
)


def test_edge_index_examples():
    assert edge_index(0, 0) == 0
    assert edge_index(1, 0) == 1
    assert edge_index(1, 1) == 2
    assert edge_index(2, 0) == 3
    assert edge_index(10, 10) == num_edges(11) - 1 == 65


def test_edge_index_bijection():
    for n in range(1, 51):
        seen = set()
        for i in range(n):
            for j in range(i + 1):
                k = edge_index(i, j)
                assert edge_at(k) == (i, j)
                seen.add(k)
        assert seen == set(range(num_edges(n)))


def test_edge_normalization():
    assert normalize_edge(2, 5) == (5, 2)
    assert edge_index(2, 5) == edge_index(5, 2)


def test_edge_set_ordering_example():
    edges = [(1, 0), (6, 3), (6, 2), (5, 3)]
    ordered = sorted(normalize_edge(*e) for e in edges)
    assert ordered == [(1, 0), (5, 3), (6, 2), (6, 3)]


def test_neighborhood_examples():
    assert neighborhood(4, 2) == [(2, 0), (2, 1), (2, 2), (3, 2)]
    assert neighborhood(3, 0) == [(0, 0), (1, 0), (2, 0)]
    for n in (3, 5, 9):
        for m in range(n):
            assert len(neighborhood(n, m)) == n


def test_neighborhood_entry_joins_partner():
    for n in (4, 7, 12):
        for m in range(n):
            nb = neighborhood(n, m)
            for l, e in enumerate(nb):
                assert set(e) == {m, l} or (m == l and e == (m, m))


def test_neighborhood_double_count():
    for n in range(3, 21):
        counts = {}
        for m in range(n):
            for e in neighborhood(n, m):
                counts[e] = counts.get(e, 0) + 1
        for (i, j), c in counts.items():
            assert c == (1 if i == j else 2)
        assert len(counts) == num_edges(n)


def test_failure_edges_sizes():
    assert len(failure_edges(11, {3, 5})) == 21
    assert len(failure_edges(7, {1, 3, 5})) == 18
    assert len(failure_edges(5, set(range(5)))) == num_edges(5)


def test_failure_edges_count_formula_exhaustive():
    for n in range(3, 13):
        for r in range(n + 1):
            for failed in itertools.combinations(range(n), r):
                expect = r * n - r * (r - 1) // 2
                assert len(failure_edges(n, failed)) == expect


def test_three_failures_hit_each_survivor_three_times():
    for n in range(4, 13):
        for trip in itertools.combinations(range(n), 3):
            fset = set(failure_edges(n, trip))
            for m in range(n):
                if m not in trip:
                    assert len(fset & set(neighborhood(n, m))) == 3


def test_apply_erasure():
    gf = field(2)
    g = LabeledGraph(5, gf, [1] * num_edges(5))
    assert g.erase_nodes(set()) == g
    e = g.erase_nodes({0})
    assert len(e.erased_edges()) == 5
    two_step = g.erase_nodes({1}).erase_nodes({3})
    assert two_step == g.erase_nodes({1, 3})


def test_erased_access():
    gf = field(2)
    g = LabeledGraph(5, gf, [1] * num_edges(5)).erase_nodes({2})
    with pytest.raises(ErasedAccessError):
        g.label(2, 0)
    assert g.label(1, 0) == 1


def test_erased_labels_store_zero():
    gf = field(3)
    g = LabeledGraph(4, gf, [2] * num_edges(4)).erase_nodes({1})
    assert all(g.labels[edge_index(i, j)] == 0 for i, j in g.erased_edges())


def test_text_round_trip_bit_exact():
    gf = field(11)
    rng = random.Random(4)
    g = LabeledGraph(6, gf, [rng.randrange(11) for _ in range(num_edges(6))]).erase_nodes({1, 4})
    text = g.to_text()
    again = LabeledGraph.from_text(text)
    assert again == g
    assert again.to_text() == text
    assert text.startswith("graphcode-v1 n=6 field=gf(11)\nerased=")


def test_text_round_trip_extension_field():
    gf = field(8)
    g = LabeledGraph(4, gf, list(range(8)) + [0, 0])
    text = g.to_text()
    assert "field=gf(8):0b1011" in text.splitlines()[0]
    assert LabeledGraph.from_text(text) == g


def test_json_mirror():
    gf = field(2)
    g = LabeledGraph(4, gf, [1, 0, 1, 1, 0, 1, 0, 0, 1, 1]).erase_nodes({2})
    obj = g.to_json_obj()
    assert set(obj) == {"version", "n", "field", "erased", "rows"}
    again = LabeledGraph.from_json_obj(json.loads(json.dumps(obj)))
    assert again == g
    assert LabeledGraph.from_string(json.dumps(obj)) == g


def test_bad_files_rejected():
    with pytest.raises(ValueError):
        LabeledGraph.from_text("not-a-graph n=3 field=gf(2)\n0\n0 0\n0 0 0\n")
    with pytest.raises(ValueError):
        LabeledGraph.from_text("graphcode-v1 n=3 field=gf(2)\n0\n0 0\n")
    with pytest.raises(ValueError):
        LabeledGraph.from_text("graphcode-v1 n=3 field=gf(2)\n0\n0 0 1\n0 0 0\n")
    with pytest.raises(ValueError):
        LabeledGraph.from_text("graphcode-v1 n=3 field=gf(2)\n0\n0 7\n0 0 0\n")


def test_node_count_bounds():
    with pytest.raises(ValueError):
        LabeledGraph(2, field(2))
    g = LabeledGraph(3, field(2))
    assert g.n == 3


def test_failed_nodes_of():
    gf = field(2)
    g = LabeledGraph(6, gf)
    assert failed_nodes_of(g.erase_nodes({2, 4})) == {2, 4}
    assert failed_nodes_of(g) == set()
    partial = g.copy()
    partial.erased[edge_index(3, 1)] = True
    assert failed_nodes_of(partial) is None


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_failure_masks_match_failure_edges(data):
    n = data.draw(st.integers(3, 40))
    failed = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    want = np.zeros(num_edges(n), dtype=bool)
    want[[edge_index(*e) for e in failure_edges(n, failed)]] = True
    assert neighborhood_indices(n, failed).tolist() == [
        [edge_index(*e) for e in neighborhood(n, m)] for m in failed]
    g = LabeledGraph(n, field(2))
    assert np.array_equal(g.erase_nodes(failed).erased, want)
    # flipping a few edges mostly leaves no node-failure pattern
    flips = data.draw(st.lists(st.integers(0, num_edges(n) - 1), max_size=3))
    mask = want.copy()
    mask[flips] ^= True
    loops = {i for i in range(n) if mask[edge_index(i, i)]}
    pattern = {edge_index(*e) for e in failure_edges(n, loops)} == set(np.nonzero(mask)[0].tolist())
    assert failed_nodes_of(LabeledGraph(n, g.gf, erased=mask)) == (loops if pattern else None)
    bad = data.draw(st.sampled_from([-1, n, n + 7]))
    with pytest.raises(ValueError, match="out of range"):
        g.erase_nodes(failed + [bad])


@pytest.mark.parametrize("rows", [[[1.5], [0, 0], [0, 0, 0]], [[0], [0, 1], [0, True, 0]]])
def test_json_graph_refuses_fractional_and_boolean_labels(rows):
    obj = {"version": "graphcode-v1", "n": 3, "field": "gf(2)", "rows": rows}
    with pytest.raises(ValueError, match="not element codes"):
        LabeledGraph.from_json_obj(obj)


@pytest.mark.parametrize("change,key", [
    ({"n": None}, "'n'"),
    ({"n": "3"}, "'n'"),
    ({"field": None}, "'field'"),
    ({"rows": 5}, "'rows'"),
    ({"erased": 5}, "'erased'"),
    ({"erased": [[2, 1, 0]]}, "erased edge"),
    ({"erased": [[True, 0]]}, "erased edge"),
])
def test_malformed_json_graph_names_the_key(change, key):
    obj = {"version": "graphcode-v1", "n": 3, "field": "gf(2)", "erased": [],
           "rows": [[0], [0, 0], [0, 0, 0]], **change}
    obj = {k: v for k, v in obj.items() if v is not None}
    with pytest.raises(ValueError, match=key):
        LabeledGraph.from_json_obj(obj)
