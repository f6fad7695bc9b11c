"""Property tests of the family encoders over random information labels."""

import functools

from hypothesis import given, settings, strategies as st

from graphcodes.double import double_parity_code, encode_double
from graphcodes.framework import encode_systematic, is_codeword
from graphcodes.graphs import edge_at, num_edges
from graphcodes.single import single_parity_code
from graphcodes.triple import encode_triple, triple_code

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
