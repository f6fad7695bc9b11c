"""Property tests of the family encoders and decoders at random sizes and labels."""

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphcodes.double import decode_double, double_parity_code, encode_double
from graphcodes.field import field
from graphcodes.framework import encode_systematic, is_codeword, oracle_decode, random_codeword
from graphcodes.graphs import LabeledGraph, edge_at, num_edges
from graphcodes.single import decode_single, single_parity_code
from graphcodes.triple import decode_triple, encode_triple, triple_code

CASES = ([("single", n) for n in range(3, 13)]
         + [("double", n) for n in (5, 7, 11, 13)]
         + [("triple", n) for n in range(5, 13)])  # smallest field for each n

ENCODERS = {"single": encode_systematic, "double": encode_double, "triple": encode_triple}


@functools.lru_cache(maxsize=None)
def build(family, n):
    return {"single": single_parity_code, "double": double_parity_code,
            "triple": triple_code}[family](n)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_family_encoder(case, data):
    family, n = case
    spec = build(family, n)
    count = num_edges(spec.k_info)
    info = data.draw(st.lists(st.integers(0, spec.gf.q - 1), min_size=count, max_size=count))
    flips = data.draw(st.lists(st.booleans(), min_size=count, max_size=count))
    encode = ENCODERS[family]
    g = encode(spec, info)
    assert is_codeword(spec, g)
    assert g.labels[:count].tolist() == info
    # the dict form names each edge in either order
    by_edge = {edge_at(k)[::-1] if flip else edge_at(k): v
               for k, (v, flip) in enumerate(zip(info, flips))}
    assert encode(spec, by_edge) == g
    if family == "triple":
        assert g == encode_systematic(spec, info)


# sizes beyond the exhaustive decoder tests, up to the benchmark's double
# n=101 and triple n=31 (GF(32)); triple n=8 and n=24 run over GF(9) and
# GF(25), extension fields
DECODE_CASES = ([("single", n) for n in range(21, 41)]
                + [("double", n) for n in (17, 19, 23, 29, 31, 101)]
                + [("triple", n) for n in (*range(13, 21), 8, 24, 31)])

DECODERS = {"single": (decode_single, 1), "double": (decode_double, 2),
            "triple": (decode_triple, 3)}


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(DECODE_CASES), data=st.data())
def test_structured_decode_equals_oracle(case, data):
    family, n = case
    spec = build(family, n)
    decode, rho = DECODERS[family]
    failed = data.draw(st.sets(st.integers(0, n - 1), min_size=rho, max_size=rho))
    original = random_codeword(spec, random.Random(data.draw(st.integers(0, 2**32))))
    erased = original.erase_nodes(failed)
    report = decode(spec, erased)
    assert report.ok and report.graph == original
    # with exactly rho failures no check is left over to verify the result
    assert report.spare_checks == 0
    assert oracle_decode(spec, erased).graph == original
    # provenance names each erased edge once
    assert sorted(p.edge for p in report.provenance) == erased.erased_edges()


# At exactly rho failures the family plan and the oracle solve the same
# square system, so they agree on any surviving labels, not only on those of
# a codeword, where a step that reads the wrong row can still come out right.


def _agree_on_noise(spec, decode, failed, rng):
    labels = rng.integers(0, spec.gf.q, num_edges(spec.n))
    g = LabeledGraph(spec.n, spec.gf, labels).erase_nodes(failed)
    report, oracle = decode(spec, g), oracle_decode(spec, g)
    assert report.ok and oracle.ok and report.graph == oracle.graph, failed


@pytest.mark.parametrize("family,n,q", [("single", 7, 2), ("single", 7, 8), ("double", 7, 2),
                                        ("double", 11, 2), ("triple", 7, 8), ("triple", 8, 9)])
def test_structured_decode_equals_oracle_on_any_labels_exhaustive(family, n, q):
    spec = {"single": lambda: single_parity_code(n, field(q)), "double": lambda: double_parity_code(n),
            "triple": lambda: triple_code(n, field(q))}[family]()
    decode, rho = DECODERS[family]
    rng = np.random.default_rng([n, q])
    for failed in itertools.combinations(range(n), rho):
        _agree_on_noise(spec, decode, failed, rng)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(DECODE_CASES), data=st.data())
def test_structured_decode_equals_oracle_on_any_labels(case, data):
    family, n = case
    decode, rho = DECODERS[family]
    failed = data.draw(st.sets(st.integers(0, n - 1), min_size=rho, max_size=rho))
    _agree_on_noise(build(family, n), decode, failed,
                    np.random.default_rng(data.draw(st.integers(0, 2**32))))
