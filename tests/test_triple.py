import itertools
import random

import numpy as np
import pytest

from graphcodes import triple
from graphcodes.errors import FieldTooSmallError
from graphcodes.field import Matrix, field, vandermonde
from graphcodes.framework import (
    CheckRows,
    GraphCodeSpec,
    encode_systematic,
    is_codeword,
    metrics,
    oracle_decode,
    random_codeword,
)
from graphcodes.graphs import LabeledGraph, edge_at, edge_index, neighborhood_indices, num_edges
from graphcodes.triple import (
    check_cross_independence,
    check_neighborhood_overlap,
    decode_triple,
    encode_triple,
    smallest_field_order,
    triple_code,
)

ROW_CASES = [(5, 7), (7, 8), (8, 9), (10, 11), (13, 16), (24, 25), (26, 27), (31, 32)]


def reference_code(n, gf, points=None):
    """The dense construction, block by block: the points a_l (l+1 unless
    given), the 3 x n Vandermonde block of every neighborhood check N_m,
    m < n-2, and the cross block P over the pair edges among the first n-2
    nodes, in edge order, with columns (1, s, s^2), s = a_{(k+l) mod n},
    then the identity columns of the three appended edges; returns the
    3n-3 x C(n+1, 2) check matrix that stacks them, and the row names."""
    alphas = list(range(1, n + 1)) if points is None else list(points)
    h_nbhd = vandermonde(gf, alphas, 3)
    pairs = [(k, l) for k in range(n - 2) for l in range(k)]
    cross_edges = pairs + [(n - 2, n - 2), (n - 1, n - 2), (n - 1, n - 1)]
    h_cross = np.zeros((3, len(cross_edges)), dtype=np.int64)
    for c, (k, l) in enumerate(pairs):
        a = alphas[(k + l) % n]
        h_cross[:, c] = [1, a, gf.mul(a, a)]
    h_cross[:, len(pairs):] = np.eye(3, dtype=np.int64)
    dense = np.zeros((3 * n - 3, num_edges(n)), dtype=np.int64)
    for m in range(n - 2):
        for l in range(n):
            dense[3 * m : 3 * m + 3, edge_index(m, l)] = h_nbhd[:, l]
    for c, e in enumerate(cross_edges):
        dense[3 * n - 6 :, edge_index(*e)] = h_cross[:, c]
    names = [f"N_{m}[{t}]" for m in range(n - 2) for t in range(3)] + [f"P[{t}]" for t in range(3)]
    return dense, names


def reference_spec(n, gf, points=None):
    dense, names = reference_code(n, gf, points)
    return GraphCodeSpec(n, gf, CheckRows.from_dense(dense), family="triple", k_info=n - 3,
                         row_names=names, rank=3 * n - 3, family_plan=triple._plan)


def p_rows(spec):
    """The edge columns and coefficients of the cross rows P[0..2], one
    array row per check."""
    lo = spec.checks.indptr[3 * spec.n - 6]
    return spec.checks.cols[lo:].reshape(3, -1), spec.checks.coefs[lo:].reshape(3, -1)


def test_smallest_field_order():
    assert smallest_field_order(7) == 8
    assert smallest_field_order(10) == 11
    assert smallest_field_order(12) == 13
    assert smallest_field_order(15) == 16


@pytest.mark.parametrize("n,q", ROW_CASES)
def test_rows_are_the_reference_construction(n, q):
    gf = field(q)
    spec = triple_code(n, gf)
    dense, names = reference_code(n, gf)
    ref = CheckRows.from_dense(dense)
    for name in ("indptr", "cols", "coefs"):
        assert np.array_equal(getattr(spec.checks, name), getattr(ref, name)), name
    assert spec.row_names.tolist() == names


def test_params_points():
    spec = triple_code(10, field(11))
    indptr = spec.checks.indptr
    assert np.diff(indptr).tolist() == [10] * 24 + [num_edges(8) - 8 + 1] * 3
    assert spec.checks.coefs[10:20].tolist() == list(range(1, 11))  # N_0[1] holds the points
    for m in range(8):  # every N_m block is the 3 x 10 Vandermonde block of N_0
        assert np.array_equal(spec.checks.coefs[30 * m : 30 * m + 30], spec.checks.coefs[:30])
    assert np.unique(spec.checks.cols[indptr[24]:]).size == num_edges(8) - 8 + 3


def test_params_field_too_small():
    with pytest.raises(FieldTooSmallError):
        triple_code(10, field(7))


def test_neighborhood_check_any_three_columns_independent():
    spec = triple_code(10, field(11))
    for m in range(8):
        block = spec.checks.take(np.arange(3 * m, 3 * m + 3)).block(neighborhood_indices(10, [m])[0])
        assert block.shape == (3, 10)
        for cols in itertools.combinations(range(10), 3):
            assert Matrix(spec.gf, block[:, cols]).rank() == 3


def test_cross_check_structure():
    spec = triple_code(7, field(8))
    gf = spec.gf
    cols, coefs = p_rows(spec)
    assert [edge_at(int(c)) for c in cols[:, -1]] == [(5, 5), (6, 5), (6, 6)]
    assert (coefs[:, -1] == 1).all()
    cross = cols[0, :-1].tolist() + cols[:, -1].tolist()
    assert np.array_equal(spec.checks.take([15, 16, 17]).block(cross)[:, -3:], np.eye(3, dtype=np.int64))
    for c, e in enumerate(cols[0, :-1].tolist()):
        i, j = edge_at(e)
        a = (i + j) % 7 + 1
        assert coefs[0, c] == 1
        assert coefs[1, c] == a
        assert coefs[2, c] == gf.mul(a, a)


@pytest.mark.parametrize("n", [7, 8, 10, 11])
def test_cross_independence_exhaustive(n):
    assert check_cross_independence(n, field(smallest_field_order(n))) == []


def test_neighborhood_overlap_exhaustive():
    for n in range(5, 13):
        assert check_neighborhood_overlap(n) == []


def test_spec_shape_and_rank():
    spec = triple_code(7, field(8))
    assert spec.checks.rows == 18 and num_edges(spec.n) == 28
    assert spec.rank == 18 and spec.dimension == 10 == num_edges(4)
    assert metrics(spec, 3).gap == 0


def test_rank_full_for_range_of_n():
    for n in range(5, 17):
        spec = triple_code(n)
        assert spec.rank == 3 * n - 3


def test_zero_graph_is_codeword():
    spec = triple_code(7, field(8))
    assert is_codeword(spec, LabeledGraph(7, spec.gf))


def test_encode_zero_info():
    spec = triple_code(7, field(8))
    assert encode_triple(spec, [0] * num_edges(4)) == LabeledGraph(7, spec.gf)


@pytest.mark.parametrize("n,q", [(7, 8), (10, 11)])
def test_encode_matches_generic(n, q):
    rng = random.Random(0)
    spec = triple_code(n, field(q))
    for _ in range(5):
        info = [rng.randrange(q) for _ in range(num_edges(n - 3))]
        g = encode_triple(spec, info)
        assert is_codeword(spec, g)
        assert g == encode_systematic(spec, info)
        for k, v in enumerate(info):
            assert g.label(*edge_at(k)) == v


def test_decode_zero_codeword():
    spec = triple_code(7, field(8))
    zero = LabeledGraph(7, spec.gf)
    for trip in itertools.combinations(range(7), 3):
        rep = decode_triple(spec, zero.erase_nodes(set(trip)))
        assert rep.ok and rep.graph == zero


@pytest.mark.parametrize("n,q", [(7, 8), (10, 11)])
def test_decode_all_triples_matches_oracle(n, q):
    rng = random.Random(1)
    spec = triple_code(n, field(q))
    for _ in range(3):
        g = random_codeword(spec, rng)
        for trip in itertools.combinations(range(n), 3):
            erased = g.erase_nodes(set(trip))
            rep = decode_triple(spec, erased)
            orep = oracle_decode(spec, erased)
            assert rep.ok and orep.ok
            assert rep.graph == g and orep.graph == g


def test_decode_stage2_with_last_node_failed():
    spec = triple_code(7, field(8))
    g = random_codeword(spec, random.Random(2))
    rep = decode_triple(spec, g.erase_nodes({1, 2, 6}))
    assert rep.ok and rep.graph == g
    stage2 = sorted(p.edge for p in rep.provenance if p.loop == 2)
    assert stage2 == [(2, 1), (6, 5), (6, 6)]


def test_decode_provenance_stages():
    spec = triple_code(10, field(11))
    g = random_codeword(spec, random.Random(3))
    erased = g.erase_nodes({0, 4, 9})
    rep = decode_triple(spec, erased)
    assert rep.ok and rep.graph == g
    stages = {p.loop for p in rep.provenance}
    assert stages == {1, 2, 3}
    edges = [p.edge for p in rep.provenance]
    assert sorted(edges) == sorted(erased.erased_edges())
    assert len(edges) == len(set(edges))


def test_wrong_pattern_delegates():
    spec = triple_code(7, field(8))
    g = random_codeword(spec, random.Random(4))
    rep = decode_triple(spec, g.erase_nodes({1, 5}))
    assert rep.ok and rep.graph == g
    assert all(p.loop == "oracle" for p in rep.provenance)
    rep = decode_triple(spec, g.erase_nodes({0, 1, 2, 3}))
    assert not rep.ok and rep.reason == "underdetermined"


def test_neighborhood_vector_convention():
    # coordinate l of a neighborhood vector is the label of the edge to node l
    from graphcodes.graphs import neighborhood

    gf = field(13)
    n = 12
    g = LabeledGraph(n, gf, [k % 13 for k in range(num_edges(n))])
    for m in range(n):
        vec = [g.label(*e) for e in neighborhood(n, m)]
        assert vec == [g.label(m, l) for l in range(n)]


def test_extension_field_instance():
    # q = 8 = 2^3 exercises the table-based field end to end
    spec = triple_code(7, field(8))
    rng = random.Random(5)
    g = random_codeword(spec, rng)
    for trip in [(0, 1, 2), (2, 4, 6), (4, 5, 6)]:
        rep = decode_triple(spec, g.erase_nodes(set(trip)))
        assert rep.ok and rep.graph == g


def test_encode_rejects_duplicate_edge():
    spec = triple_code(7, field(8))
    info = {(i, j): 0 for i in range(4) for j in range(i + 1) if (i, j) != (3, 3)}
    info[(0, 1)] = 1  # the edge (1, 0) a second time, in the other order
    with pytest.raises(ValueError, match="twice"):
        encode_triple(spec, info)


@pytest.mark.parametrize("n,q", [(5, 7), (8, 9), (10, 11), (13, 16)])
def test_cross_check_tables_follow_the_pair_sums(n, q):
    gf = field(q)
    spec = triple_code(n, gf)
    cols, coefs = p_rows(spec)
    assert (cols[1:, :-1] == cols[0, :-1]).all()  # every P row holds the same pair edges
    cross_cols = cols[0, :-1].tolist() + cols[:, -1].tolist()
    cross_edges = tuple(edge_at(c) for c in cross_cols)
    pairs = [(k, l) for k in range(n - 2) for l in range(k)]
    assert cross_edges == tuple(pairs) + ((n - 2, n - 2), (n - 1, n - 2), (n - 1, n - 1))
    assert all(type(v) is int for e in cross_edges for v in e)
    assert cross_cols == [edge_at_inverse(n, e) for e in cross_edges]
    h_cross = spec.checks.take(np.arange(3 * n - 6, 3 * n - 3)).block(cross_cols)
    for c, (k, l) in enumerate(pairs):
        a = (k + l) % n + 1
        assert h_cross[:, c].tolist() == [1, a, gf.mul(a, a)]
    assert h_cross[:, len(pairs):].tolist() == np.eye(3, dtype=int).tolist()


def edge_at_inverse(n, e):
    return next(k for k in range(num_edges(n)) if edge_at(k) == e)


def test_permuted_points_round_trip():
    # the decoder reads the code from the spec's rows, not from (n, field)
    gf = field(8)
    spec = reference_spec(7, gf, [5, 3, 7, 1, 6, 2, 4])
    rng = random.Random(6)
    for trip in itertools.combinations(range(7), 3):
        info = [rng.randrange(8) for _ in range(num_edges(4))]
        g = encode_triple(spec, info)
        assert is_codeword(spec, g) and g == encode_systematic(spec, info)
        rep = decode_triple(spec, g.erase_nodes(set(trip)))
        assert rep.ok and rep.graph == g
        assert {p.loop for p in rep.provenance} <= {1, 2, 3}


def test_differing_neighborhood_blocks_decode_as_the_oracle():
    # N_1 takes other points than N_0, so no 3x3 block of N_0's coefficients
    # solves it: every node triple goes to the oracle, which recovers it
    gf = field(8)
    dense, names = reference_code(7, gf)
    dense[3:6] = reference_code(7, gf, [5, 3, 7, 1, 6, 2, 4])[0][3:6]
    spec = GraphCodeSpec(7, gf, CheckRows.from_dense(dense), family="triple", k_info=4,
                         row_names=names, rank=18, family_plan=triple._plan)
    rng = random.Random(8)
    for trip in itertools.combinations(range(7), 3):
        g = encode_systematic(spec, [rng.randrange(8) for _ in range(num_edges(4))])
        erased = g.erase_nodes(set(trip))
        rep, orep = decode_triple(spec, erased), oracle_decode(spec, erased)
        assert rep.ok and rep.graph == orep.graph == g, trip
        assert rep.provenance_json() == orep.provenance_json()


@pytest.mark.parametrize("n", [7, 8, 10])
def test_cross_suite_names_a_column_given_another_point(monkeypatch, n):
    spec = triple_code(n, field(smallest_field_order(n)))
    gf = spec.gf
    cols, coefs = p_rows(spec)
    pairs = [edge_at(int(c)) for c in cols[0, :-1]]
    c = len(pairs) - 1  # the last pair edge, (n-3, n-4), takes the point of (n-3, 0)
    coefs = coefs.copy()
    coefs[:, c] = coefs[:, pairs.index((n - 3, 0))]
    lo = spec.checks.indptr[3 * n - 6]
    moved = GraphCodeSpec(n, gf, CheckRows(spec.checks.indptr, spec.checks.cols,
                                           np.append(spec.checks.coefs[:lo], coefs)),
                          family="triple", k_info=n - 3)
    monkeypatch.setattr(triple, "triple_code", lambda n, gf: moved)
    point = {e: int(coefs[1, k]) for k, e in enumerate(pairs)}
    expected = []
    for i, j, k in itertools.combinations(range(n - 2), 3):
        pts = [point[(j, i)], point[(k, i)], point[(k, j)]]
        if pairs[c] in ((j, i), (k, i), (k, j)) and len(set(pts)) < 3:
            expected.append(f"dependent cross columns for ({i},{j},{k})")
    assert expected
    assert sorted(check_cross_independence(n, gf)) == sorted(expected)
