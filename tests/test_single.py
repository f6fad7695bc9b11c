import random

import numpy as np
import pytest

from graphcodes.field import field
from graphcodes.framework import encode_systematic, metrics, oracle_decode, random_codeword
from graphcodes.graphs import LabeledGraph, edge_index, num_edges
from graphcodes.single import decode_single, single_parity_code


def test_build_examples():
    spec = single_parity_code(3)
    assert spec.checks.rows == 3 and num_edges(spec.n) == 6
    assert spec.dimension == 3
    with pytest.raises(ValueError):
        single_parity_code(2)


def test_rank_is_n():
    for n in range(3, 65):
        assert single_parity_code(n).rank == n


def test_redundancy_meets_single_failure_bound():
    for n in range(3, 21):
        m = metrics(single_parity_code(n), 1)
        assert m.redundancy == n and m.gap == 0


def test_row_sum_is_diagonal_indicator():
    for n in (3, 7, 12):
        spec = single_parity_code(n)
        total = spec.checks.block(np.arange(num_edges(n))).sum(axis=0) % 2
        want = np.zeros(num_edges(n), dtype=np.int64)
        for i in range(n):
            want[i * (i + 1) // 2 + i] = 1
        assert np.array_equal(total, want)


def test_decode_worked_example():
    spec = single_parity_code(3)
    g = encode_systematic(spec, {(0, 0): 1, (1, 0): 0, (1, 1): 1})
    rep = decode_single(spec, g.erase_nodes({2}))
    assert rep.ok and rep.graph == g
    assert rep.graph.label(2, 0) == 1
    assert rep.graph.label(2, 1) == 1
    assert rep.graph.label(2, 2) == 0


def test_decode_zero_codeword():
    spec = single_parity_code(6)
    zero = LabeledGraph(6, spec.gf)
    rep = decode_single(spec, zero.erase_nodes({3}))
    assert rep.ok and rep.graph == zero


def test_decode_matches_oracle_exhaustive():
    rng = random.Random(0)
    for n in range(3, 21):
        spec = single_parity_code(n)
        for _ in range(100):
            g = random_codeword(spec, rng)
            for i in range(n):
                erased = g.erase_nodes({i})
                rep = decode_single(spec, erased)
                orep = oracle_decode(spec, erased)
                assert rep.ok and orep.ok
                assert rep.graph == g and orep.graph == g


def test_decode_all_failures_all_nodes():
    rng = random.Random(1)
    for n in (5, 11):
        spec = single_parity_code(n)
        g = random_codeword(spec, rng)
        for i in range(n):
            rep = decode_single(spec, g.erase_nodes({i}))
            assert rep.ok and rep.graph == g


def test_field_generic_parity():
    rng = random.Random(2)
    spec = single_parity_code(6, field(11))
    g = random_codeword(spec, rng)
    for i in range(6):
        rep = decode_single(spec, g.erase_nodes({i}))
        assert rep.ok and rep.graph == g


def test_wrong_pattern_delegates_to_oracle():
    spec = single_parity_code(7)
    g = random_codeword(spec, random.Random(3))
    rep = decode_single(spec, g.erase_nodes({1, 4}))  # two failures: oracle path
    assert not rep.ok and rep.reason == "underdetermined"
    partial = LabeledGraph(g.n, g.gf, g.labels, erased=[(2, 0)])  # not a node pattern, but solvable
    rep = decode_single(spec, partial)
    assert rep.ok and rep.graph == g
    assert all(p.constraint == "oracle" for p in rep.provenance)


def test_recovery_order_offdiagonal_then_self_loop():
    spec = single_parity_code(5)
    g = random_codeword(spec, random.Random(4))
    rep = decode_single(spec, g.erase_nodes({2}))
    edges = [p.edge for p in rep.provenance]
    assert edges[-1] == (2, 2)
    assert set(edges[:-1]) == {(2, 0), (2, 1), (3, 2), (4, 2)}


def test_corruption_surfaces_on_partial_patterns():
    # a full node failure consumes all the redundancy, so corruption is only
    # detectable when fewer edges are erased: the oracle then sees an
    # overdetermined, inconsistent system
    spec = single_parity_code(4)
    labels = np.zeros(num_edges(4), dtype=np.int64)
    labels[edge_index(1, 0)] = 1  # violates the parities of rows 0 and 1
    rep = decode_single(spec, LabeledGraph(4, spec.gf, labels, erased=[(3, 3)]))
    assert not rep.ok and rep.reason == "inconsistent"
