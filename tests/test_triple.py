import itertools
import random

import numpy as np
import pytest

from graphcodes.errors import FieldTooSmallError
from graphcodes.field import Matrix, field
from graphcodes.framework import (
    encode_systematic,
    is_codeword,
    metrics,
    oracle_decode,
    random_codeword,
)
from graphcodes.graphs import LabeledGraph, edge_at, num_edges
from graphcodes.triple import (
    check_cross_independence,
    check_neighborhood_overlap,
    decode_triple,
    encode_triple,
    smallest_field_order,
    triple_code,
    triple_code_params,
)


def test_smallest_field_order():
    assert smallest_field_order(7) == 8
    assert smallest_field_order(10) == 11
    assert smallest_field_order(12) == 13
    assert smallest_field_order(15) == 16


def test_params_points():
    params = triple_code_params(10, field(11))
    assert params.alphas == tuple(range(1, 11))
    assert params.h_nbhd.shape == (3, 10)
    assert params.h_cross.shape == (3, num_edges(8) - 8 + 3)


def test_params_field_too_small():
    with pytest.raises(FieldTooSmallError):
        triple_code_params(10, field(7))


def test_neighborhood_check_any_three_columns_independent():
    params = triple_code_params(10, field(11))
    for cols in itertools.combinations(range(10), 3):
        assert Matrix(params.gf, params.h_nbhd[:, cols]).rank() == 3


def test_cross_check_structure():
    params = triple_code_params(7, field(8))
    assert params.cross_edges[-3:] == ((5, 5), (6, 5), (6, 6))
    assert np.array_equal(params.h_cross[:, -3:], np.eye(3, dtype=np.int64))
    gf = params.gf
    for c, (i, j) in enumerate(params.cross_edges[:-3]):
        a = params.alphas[(i + j) % 7]
        assert params.h_cross[0, c] == 1
        assert params.h_cross[1, c] == a
        assert params.h_cross[2, c] == gf.mul(a, a)


@pytest.mark.parametrize("n", [7, 8, 10, 11])
def test_cross_independence_exhaustive(n):
    assert check_cross_independence(n, field(smallest_field_order(n))) == []


def test_neighborhood_overlap_exhaustive():
    for n in range(5, 13):
        assert check_neighborhood_overlap(n) == []


def test_spec_shape_and_rank():
    spec = triple_code(7, field(8))
    assert spec.h.rows == 18 and spec.h.cols == 28
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
    params = triple_code_params(n, gf)
    pairs = [(k, l) for k in range(n - 2) for l in range(k)]
    assert params.cross_edges == tuple(pairs) + ((n - 2, n - 2), (n - 1, n - 2), (n - 1, n - 1))
    assert all(type(v) is int for e in params.cross_edges for v in e)
    assert params.cross_cols.tolist() == [edge_at_inverse(n, e) for e in params.cross_edges]
    for c, (k, l) in enumerate(pairs):
        a = params.alphas[(k + l) % n]
        assert params.h_cross[:, c].tolist() == [1, a, gf.mul(a, a)]
    assert params.h_cross[:, len(pairs):].tolist() == np.eye(3, dtype=int).tolist()


def edge_at_inverse(n, e):
    return next(k for k in range(num_edges(n)) if edge_at(k) == e)
