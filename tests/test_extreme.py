import itertools
import random

import numpy as np
import pytest

from graphcodes.errors import NoSuchCodeError, SingularSystemError, TooLargeError
from graphcodes.extreme import (
    EXHAUSTIVE_BOUND,
    ExtremeGenerator,
    build_generator,
    check_generator,
    code_exists,
    count_distinct_codes,
    count_exhaustive,
    count_formula,
    decode_pair,
    decode_surviving_graph,
    encode_message,
    estimate_rate_montecarlo,
)
from graphcodes.field import field
from graphcodes.graphs import LabeledGraph, edge_index, num_edges


def test_check_examples():
    gf = field(2)
    g = np.zeros((3, 6), dtype=np.int64)
    g[:, edge_index(0, 0)] = (1, 0, 0)
    g[:, edge_index(1, 1)] = (0, 1, 0)
    g[:, edge_index(2, 2)] = (0, 0, 1)
    for e in [(1, 0), (2, 0), (2, 1)]:
        g[:, edge_index(*e)] = (1, 1, 1)
    gen = ExtremeGenerator(3, gf, g)
    assert check_generator(gen)

    dup = g.copy()
    dup[:, edge_index(1, 1)] = dup[:, edge_index(0, 0)]
    assert not check_generator(ExtremeGenerator(3, gf, dup))

    zero = g.copy()
    zero[:, edge_index(2, 2)] = 0
    assert not check_generator(ExtremeGenerator(3, gf, zero))


def test_existence_boundaries():
    assert all(code_exists(n, 2) for n in range(3, 8))
    assert not code_exists(8, 2)
    assert code_exists(13, 3)
    assert not code_exists(14, 3)
    with pytest.raises(ValueError):
        code_exists(5, 6)


def test_build_at_boundary():
    gen = build_generator(7, 2)
    assert check_generator(gen)
    with pytest.raises(NoSuchCodeError):
        build_generator(8, 2)


def test_build_deterministic_and_seeded():
    a = build_generator(5, 3, seed=0)
    b = build_generator(5, 3, seed=0)
    assert np.array_equal(a.g, b.g)
    assert check_generator(a)
    c = build_generator(5, 3, seed=9)
    assert check_generator(c)
    d = build_generator(5, 3, seed=9)
    assert np.array_equal(c.g, d.g)


@pytest.mark.parametrize("n,q", [(7, 2), (5, 3), (10, 4), (6, 3)])
def test_build_various_parameters(n, q):
    assert check_generator(build_generator(n, q, seed=1))


@pytest.mark.parametrize("n,q", [(7, 2), (10, 3), (10, 4)])
def test_decode_round_trip_all_pairs(n, q):
    gen = build_generator(n, q, seed=1 if q > 2 else 0)
    rng = random.Random(0)
    for i, j in itertools.combinations(range(n), 2):
        for _ in range(100):
            u = tuple(rng.randrange(q) for _ in range(3))
            g = encode_message(gen, u)
            got = decode_pair(gen, i, j, g.label(i, i), g.label(i, j), g.label(j, j))
            assert got == u


def test_decode_zero_message():
    gen = build_generator(5, 3)
    g = encode_message(gen, (0, 0, 0))
    assert decode_pair(gen, 1, 3, 0, 0, 0) == (0, 0, 0)
    assert not g.labels.any()


def test_decode_invalid_generator_raises():
    gen = build_generator(7, 2)
    bad = gen.g.copy()
    bad[:, edge_index(1, 0)] = bad[:, edge_index(0, 0)]
    bgen = ExtremeGenerator(7, gen.gf, bad)
    assert not check_generator(bgen)
    with pytest.raises(SingularSystemError):
        decode_pair(bgen, 1, 0, 0, 1, 0)


def test_validity_iff_all_pairs_decodable():
    rng = random.Random(1)
    gen = build_generator(5, 3, seed=2)

    def decodable_everywhere(candidate):
        for i, j in itertools.combinations(range(5), 2):
            try:
                for _ in range(5):
                    u = tuple(rng.randrange(3) for _ in range(3))
                    g = encode_message(candidate, u)
                    if decode_pair(candidate, i, j, g.label(i, i), g.label(i, j), g.label(j, j)) != u:
                        return False
            except SingularSystemError:
                return False
        return True

    assert check_generator(gen) and decodable_everywhere(gen)
    bad = gen.g.copy()
    bad[:, edge_index(3, 1)] = bad[:, edge_index(1, 1)]
    bgen = ExtremeGenerator(5, gen.gf, bad)
    assert not check_generator(bgen) and not decodable_everywhere(bgen)


def test_graph_decode_from_surviving_pair():
    gen = build_generator(6, 3, seed=3)
    rng = random.Random(2)
    for i, j in itertools.combinations(range(6), 2):
        u = tuple(rng.randrange(3) for _ in range(3))
        g = encode_message(gen, u)
        rep = decode_surviving_graph(gen, g.erase_nodes(set(range(6)) - {i, j}))
        assert rep.ok and rep.graph == g
        assert rep.spare_checks == 0  # the three readable labels are all solved from
    # three survivors leave six readable labels, three of them checked
    rep = decode_surviving_graph(gen, g.erase_nodes({0, 1, 2}))
    assert rep.ok and rep.graph == g and rep.spare_checks == 3


def test_graph_decode_failure_reports():
    gen = build_generator(5, 3, seed=4)
    g = encode_message(gen, (1, 2, 0))
    rep = decode_surviving_graph(gen, g.erase_nodes(set(range(5))))
    assert not rep.ok and rep.reason == "underdetermined"
    # with three survivors there is spare redundancy, so tampering shows up
    tampered = g.copy()
    tampered.labels[edge_index(0, 0)] = gen.gf.add(g.label(0, 0), 1)
    rep = decode_surviving_graph(gen, tampered.erase_nodes({3, 4}))
    assert not rep.ok and rep.reason == "inconsistent"


def test_graph_decode_refuses_another_field_or_size():
    gen = build_generator(5, 8, seed=1)
    g = encode_message(gen, (1, 2, 3)).erase_nodes({0, 1, 2})
    for bad in (LabeledGraph(5, field(8, 0b1101), g.labels, g.erased),
                LabeledGraph(6, gen.gf).erase_nodes({0, 1, 2})):
        with pytest.raises(ValueError, match="graph does not match code parameters"):
            decode_surviving_graph(gen, bad)


def test_count_formula_examples():
    assert count_formula(3, 2) == 13440
    assert count_formula(4, 2) == 3_440_640
    assert count_formula(3, 3) == 80_061_696
    with pytest.raises(NoSuchCodeError):
        count_formula(8, 2)


def test_count_distinct_codes():
    assert count_distinct_codes(3, 2) == 80  # 13440 / |GL3(GF(2))| = 13440/168


def test_count_exhaustive_is_the_oracle():
    assert count_exhaustive(3, 2) == 13440 == count_formula(3, 2)


def test_count_exhaustive_policy_bound():
    assert 2 ** (3 * num_edges(4)) > EXHAUSTIVE_BOUND
    with pytest.raises(TooLargeError):
        count_exhaustive(4, 2)


def test_montecarlo_small():
    mc = estimate_rate_montecarlo(3, 2, 100_000, seed=0)
    expected = 13440 / 2**18
    assert abs(mc["rate"] - expected) <= 4 * mc["stderr"]
    assert mc["samples"] == 100_000


def test_encode_message_refuses_fractional_and_boolean_symbols():
    gen = build_generator(5, 3, 1)
    for bad in ([1.5, 0, 2], [True, 0, 2]):
        with pytest.raises(ValueError, match="not element codes"):
            encode_message(gen, bad)
