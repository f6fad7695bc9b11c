import itertools
import random

import numpy as np
import pytest

from graphcodes import double
from graphcodes.double import (
    check_schedule_invariants,
    check_set_intersections,
    decode_double,
    double_parity_code,
    encode_double,
    zigzag_schedule,
)
from graphcodes.errors import NonPrimeNodeCountError, OutsideAlgorithmDomainError
from graphcodes.field import field
from graphcodes.framework import (
    CheckRows,
    GraphCodeSpec,
    encode_systematic,
    is_codeword,
    metrics,
    oracle_decode,
    random_codeword,
    syndrome,
)
from graphcodes.graphs import (
    LabeledGraph,
    edge_index,
    edge_indices,
    neighborhood_indices,
    normalize_edge,
    num_edges,
)

PRIMES_SMALL = (5, 7, 11, 13)
PRIMES_LARGE = (5, 7, 11, 13, 17, 19, 23)


def parity_sets(n):
    """The reference set form of the checks, edge by edge: the row sets
    S_0..S_{n-2} and the diagonal sets D_0..D_{n-1}, as tuples of edges."""
    rows = [tuple(sorted(normalize_edge(m, l) for l in range(n - 1))) for m in range(n - 2)]
    rows.append(tuple((l, l) for l in range(n - 1)))
    diags = []
    keep = [k for k in range(n) if k != n - 2]
    for m in range(n):
        edges = {(n - 1, n - 2)}
        for k in keep:
            l = (m - k) % n
            if l != n - 2:
                edges.add(normalize_edge(k, l))
        diags.append(tuple(sorted(edges)))
    return tuple(rows), tuple(diags)


def check_row(spec, r):
    """The edge columns of check row r."""
    checks = spec.checks
    return checks.cols[checks.indptr[r] : checks.indptr[r + 1]].tolist()


def test_set_sizes_n7():
    sizes = np.diff(double_parity_code(7).checks.indptr)
    assert (sizes[:6] == 6).all() and (sizes[6:] == 4).all()


def test_diagonal_set_example_n7():
    # D_0 is row n-1 = 6
    assert set(check_row(double_parity_code(7), 6)) == {
        edge_index(*e) for e in [(0, 0), (6, 1), (4, 3), (6, 5)]}


def test_self_loop_row_n7():
    # the self-loop row S_{n-2} is row 5
    assert check_row(double_parity_code(7), 5) == [edge_index(l, l) for l in range(6)]


def test_set_sizes_all_primes():
    for n in PRIMES_SMALL:
        spec = double_parity_code(n)
        sizes = np.diff(spec.checks.indptr)
        assert (sizes[: n - 1] == n - 1).all() and (sizes[n - 1 :] == (n + 1) // 2).all()
        assert all(edge_index(n - 1, n - 2) in check_row(spec, n - 1 + m) for m in range(n))


def test_non_prime_rejected():
    for bad in (4, 6, 9, 15):
        with pytest.raises(NonPrimeNodeCountError):
            double_parity_code(bad)


def test_build_spec_shape_and_rank():
    spec = double_parity_code(5)
    assert spec.h.rows == 9 and spec.h.cols == 15
    assert spec.rank == 9 and spec.dimension == 6
    for n in PRIMES_LARGE:
        spec = double_parity_code(n)
        assert spec.rank == 2 * n - 1
        assert spec.dimension == (n - 1) * (n - 2) // 2
        assert metrics(spec, 2).gap == 0


def test_check_rows_are_the_parity_sets():
    for n in PRIMES_LARGE:
        row_sets, diag_sets = parity_sets(n)
        dense = double_parity_code(n).h.a
        for r, edges in enumerate(row_sets + diag_sets):
            assert set(np.nonzero(dense[r])[0].tolist()) == {edge_index(*e) for e in edges}
        assert set(np.unique(dense).tolist()) == {0, 1}


def test_set_intersections_exhaustive():
    for n in PRIMES_LARGE:
        assert check_set_intersections(n) == []


@pytest.mark.parametrize("n,m", [(7, 0), (11, 4), (13, 12)])
def test_set_suite_names_a_moved_diagonal_column(monkeypatch, n, m):
    spec = double_parity_code(n)
    checks = spec.checks
    at = checks.indptr[n - 1 + m]  # the first edge of D_m, never the bridge
    cols = checks.cols.copy()
    free = sorted(set(range(num_edges(n))) - set(check_row(spec, n - 1 + m)))
    cols[at] = free[0]
    moved = GraphCodeSpec(n, spec.gf, CheckRows(checks.indptr, cols, checks.coefs),
                          family="double", k_info=n - 2)
    monkeypatch.setattr(double, "double_parity_code", lambda n: moved)
    bad = check_set_intersections(n)
    assert bad and all(v.startswith(f"diag[{m}] ") for v in bad)


def test_schedule_invariants_exhaustive():
    for n in PRIMES_LARGE:
        assert check_schedule_invariants(n) == []


def test_schedule_worked_example():
    s = zigzag_schedule(11, 3, 5)
    assert (s.d, s.x, s.y) == (2, 4, 5)
    assert s.s1[0] == 7 and s.s1[4] == 10
    assert s.s1b[0] == 0 and s.s1b[5] == 10


def test_schedule_equals_its_loop_form():
    for n in PRIMES_LARGE:
        for i, j in itertools.combinations(range(n - 2), 2):
            s = zigzag_schedule(n, i, j)
            s1 = [(-s.d * (t + 1) - 2) % n for t in range(s.x + 1)]
            s1b = [(s.d * (t + 1) - 2) % n for t in range(s.y + 1)]
            assert s.s1.tolist() == s1 and s.s2.tolist() == [(r + j) % n for r in s1]
            assert s.s1b.tolist() == s1b and s.s2b.tolist() == [(r + i) % n for r in s1b]


def test_schedule_lengths():
    for n in PRIMES_SMALL:
        for i, j in itertools.combinations(range(n - 2), 2):
            s = zigzag_schedule(n, i, j)
            assert s.x + s.y == n - 2


def test_schedule_domain():
    with pytest.raises(OutsideAlgorithmDomainError):
        zigzag_schedule(7, 2, 5)  # j = n-2
    with pytest.raises(OutsideAlgorithmDomainError):
        zigzag_schedule(7, 3, 3)


def test_encode_zero_info():
    spec = double_parity_code(7)
    assert encode_double(spec, [0] * num_edges(5)) == LabeledGraph(7, spec.gf)


def test_encode_matches_generic_and_systematic():
    rng = random.Random(0)
    for n in (5, 7, 11):
        spec = double_parity_code(n)
        info = [rng.randrange(2) for _ in range(num_edges(n - 2))]
        g = encode_double(spec, info)
        assert is_codeword(spec, g)
        assert g == encode_systematic(spec, info)
        for k, v in enumerate(info):
            from graphcodes.graphs import edge_at

            assert g.label(*edge_at(k)) == v


def test_syndromes_of_codeword_are_zero_before_erasure():
    spec = double_parity_code(7)
    g = random_codeword(spec, random.Random(1))
    assert not syndrome(spec, g).any()


def test_decode_zero_codeword_all_pairs():
    spec = double_parity_code(7)
    zero = LabeledGraph(7, spec.gf)
    for pair in itertools.combinations(range(7), 2):
        rep = decode_double(spec, zero.erase_nodes(pair))
        assert rep.ok and rep.graph == zero


def test_decode_trace_n11():
    spec = double_parity_code(11)
    g = random_codeword(spec, random.Random(2))
    rep = decode_double(spec, g.erase_nodes({3, 5}))
    assert rep.ok and rep.graph == g
    loop1 = [p for p in rep.provenance if p.loop == 1]
    loop2 = [p for p in rep.provenance if p.loop == 2]
    finish = [p for p in rep.provenance if p.loop == "finish"]
    assert loop1[0].edge == (7, 5) and loop1[0].constraint.startswith("D_")
    assert loop1[-1].edge == (10, 5)
    assert loop2[0].edge == (3, 0)
    assert loop2[-1].edge == (10, 3)
    assert sorted(p.edge for p in finish) == [(5, 3), (9, 3), (9, 5)]


def test_provenance_covers_erased_edges_once():
    spec = double_parity_code(11)
    g = random_codeword(spec, random.Random(3))
    for pair in [(0, 1), (3, 5), (2, 8)]:
        erased = g.erase_nodes(set(pair))
        rep = decode_double(spec, erased)
        edges = [p.edge for p in rep.provenance]
        assert len(edges) == len(set(edges)) == 2 * 11 - 1
        assert sorted(edges) == sorted(erased.erased_edges())


def test_decode_round_trip_all_pairs_matches_oracle():
    rng = random.Random(4)
    for n in (5, 7):
        spec = double_parity_code(n)
        for _ in range(10):
            g = random_codeword(spec, rng)
            for pair in itertools.combinations(range(n), 2):
                erased = g.erase_nodes(set(pair))
                rep = decode_double(spec, erased)
                orep = oracle_decode(spec, erased)
                assert rep.ok and orep.ok
                assert rep.graph == g and orep.graph == g


def test_pairs_touching_redundancy_nodes_use_oracle():
    spec = double_parity_code(7)
    g = random_codeword(spec, random.Random(5))
    for pair in [(0, 5), (0, 6), (5, 6)]:
        rep = decode_double(spec, g.erase_nodes(set(pair)))
        assert rep.ok and rep.graph == g
        assert all(p.loop == "oracle" for p in rep.provenance)


def test_wrong_pattern_counts_delegate():
    spec = double_parity_code(7)
    g = random_codeword(spec, random.Random(6))
    rep = decode_double(spec, g.erase_nodes({2}))
    assert rep.ok and rep.graph == g  # single failure still decodable via oracle
    rep = decode_double(spec, g.erase_nodes({0, 1, 2}))
    assert not rep.ok and rep.reason == "underdetermined"


def test_adjacent_pair_schedule():
    # d = 1 makes the second loop a single iteration ending at node n-1
    s = zigzag_schedule(7, 2, 3)
    assert s.y == 0 and s.s1b == (6,)
    spec = double_parity_code(7)
    g = random_codeword(spec, random.Random(7))
    rep = decode_double(spec, g.erase_nodes({2, 3}))
    assert rep.ok and rep.graph == g


def test_binary_field_enforced():
    spec = double_parity_code(5)
    assert spec.gf is field(2)


def test_encode_rejects_duplicate_edge():
    spec = double_parity_code(7)
    info = {(i, j): 0 for i in range(5) for j in range(i + 1) if (i, j) != (4, 4)}
    info[(0, 1)] = 1  # the edge (1, 0) a second time, in the other order
    with pytest.raises(ValueError, match="twice"):
        encode_double(spec, info)


def test_encode_rejects_fractional_and_boolean_labels():
    spec = double_parity_code(7)
    for bad in (1.7, True):
        with pytest.raises(ValueError, match="not element codes"):
            encode_double(spec, [bad] + [0] * (num_edges(5) - 1))


@pytest.mark.parametrize("n", (7, 13))
def test_finish_reads_check_rows_not_single_labels(monkeypatch, n):
    spec = double_parity_code(n)
    g = random_codeword(spec, random.Random(n))

    def no_label(*args):
        raise AssertionError("the decode read a label one edge at a time")

    monkeypatch.setattr(LabeledGraph, "label", no_label)
    for i, j in itertools.combinations(range(n - 2), 2):
        rep = decode_double(spec, g.erase_nodes({i, j}))
        assert rep.ok and rep.graph == g
        finish = [(p.edge, p.constraint, p.t) for p in rep.provenance if p.loop == "finish"]
        m = (i + j) % n
        assert finish == [((j, i), f"D_{m}", 0), ((n - 2, i), f"S_{i}", 1), ((n - 2, j), f"S_{j}", 2)]


def broadcast_rows(n):
    """The check rows as stacked broadcast blocks of (columns, mask)."""
    nodes = np.arange(n)
    k = nodes[None, :]
    l = (nodes[:, None] - k) % n
    on_diag = (k != n - 2) & (l != n - 2) & (k >= l)
    inner = neighborhood_indices(n, range(n - 1))[:, : n - 1]
    return CheckRows.stack(
        (inner[: n - 2], 1),
        (np.diagonal(inner)[None, :], 1),
        (np.hstack([edge_indices(k, l), np.full((n, 1), edge_index(n - 1, n - 2))]),
         np.hstack([on_diag, np.ones((n, 1), dtype=bool)])))


def test_check_rows_are_the_broadcast_blocks_byte_for_byte():
    for n in range(5, 318):
        if not all(n % r for r in range(2, n)):
            continue
        got, want = double_parity_code(n).checks, broadcast_rows(n)
        for name in ("indptr", "cols", "coefs"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (n, name)
