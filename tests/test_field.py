import random

import numpy as np
import pytest

from graphcodes.errors import (
    InconsistentSystemError,
    UnderdeterminedSystemError,
    ZeroInversionError,
)
from graphcodes.field import GF, Matrix, field, parse_field, vandermonde

FIELDS = [field(2), field(3), field(11), field(8), field(9), field(16), field(25), field(256),
          field(27), field(125), field(17161)]  # 17161 = 131^2: digit sums pass 255


def test_scalar_examples():
    assert field(2).add(1, 1) == 0
    assert field(11).add(7, 8) == 4
    assert field(11).mul(2, 6) == 1
    assert field(8).mul(2, 2) == 4  # x * x = x^2 under x^3 + x + 1
    assert field(11).inv(2) == 6
    assert field(2).inv(1) == 1
    assert field(7).inv(3) == 5


def test_identities_all_fields():
    rng = random.Random(0)
    for gf in FIELDS:
        for _ in range(50):
            a = rng.randrange(gf.q)
            assert gf.add(a, 0) == a
            assert gf.mul(a, 1) == a


def test_inverse_of_zero():
    with pytest.raises(ZeroInversionError):
        field(11).inv(0)


@pytest.mark.parametrize("gf", FIELDS, ids=lambda g: g.name)
def test_field_axioms_random(gf):
    rng = random.Random(gf.q)
    for _ in range(10_000):
        a, b, c = (rng.randrange(gf.q) for _ in range(3))
        assert gf.add(a, b) == gf.add(b, a)
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
        assert gf.add(a, gf.neg(a)) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9, 16, 25, 27, 64, 121, 256])
def test_multiplicative_group_is_cyclic(q):
    gf = field(q)
    orders = []
    for a in range(1, q):
        x, k = a, 1
        while x != 1:
            x = gf.mul(x, a)
            k += 1
        orders.append(k)
    assert all((q - 1) % k == 0 for k in orders)
    assert max(orders) == q - 1  # a generator exists


def test_array_kernels_match_scalars():
    # addition is checked against the digit-by-digit references below, which
    # share no code with the field's planes
    rng = random.Random(1)
    for gf in FIELDS:
        p = gf.p
        a = np.array([rng.randrange(gf.q) for _ in range(64)] + [gf.q - 1], dtype=np.int64)
        b = np.array([rng.randrange(gf.q) for _ in range(64)] + [gf.q - 1], dtype=np.int64)
        add = [_ref_digit_add(int(x), int(y), p) for x, y in zip(a, b)]
        sub = [_ref_digit_add(int(x), _ref_digit_neg(int(y), p), p) for x, y in zip(a, b)]
        neg = [_ref_digit_neg(int(x), p) for x in a]
        assert gf.add_arr(a, b).tolist() == add
        assert gf.sub_arr(a, b).tolist() == sub
        assert gf.neg_arr(a).tolist() == neg
        assert [gf.add(int(x), int(y)) for x, y in zip(a, b)] == add
        assert [gf.sub(int(x), int(y)) for x, y in zip(a, b)] == sub
        assert [gf.neg(int(x)) for x in a] == neg
        assert all(int(v) == gf.mul(int(x), int(y)) for v, x, y in zip(gf.mul_arr(a, b), a, b))
        want = 0
        for x, y in zip(a, b):
            want = _ref_digit_add(want, gf.mul(int(x), int(y)), p)
        assert int(gf.dot(a[None, :], b)[0]) == want


def test_rank_examples():
    gf = field(2)
    assert Matrix(gf, np.eye(3, dtype=int)).rank() == 3
    assert Matrix(gf, np.zeros((2, 5), dtype=int)).rank() == 0
    assert Matrix(gf, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]).rank() == 2


def test_solve_identity():
    gf = field(7)
    m = Matrix(gf, np.eye(4, dtype=np.int64))
    b = np.array([1, 6, 0, 3])
    assert np.array_equal(m.solve(b), b)


def test_solve_vandermonde_multiply_back():
    gf = field(11)
    m = Matrix(gf, [[1, 1, 1], [1, 2, 3], [1, 4, 9]])
    b = np.array([3, 6, 11 % 11])
    x = m.solve(b)
    assert np.array_equal(gf.dot(m.a, x), b)


def test_solve_underdetermined():
    gf = field(2)
    m = Matrix(gf, [[1, 1], [1, 1]])
    with pytest.raises(UnderdeterminedSystemError):
        m.solve(np.array([1, 1]))


def test_solve_inconsistent():
    gf = field(5)
    m = Matrix(gf, [[1, 0], [1, 0], [0, 1]])
    with pytest.raises(InconsistentSystemError):
        m.solve(np.array([1, 2, 0]))


def test_solve_roundtrip_random():
    rng = random.Random(9)
    for gf in (field(2), field(11), field(8), field(9)):
        for _ in range(25):
            rows = rng.randrange(3, 7)
            cols = rng.randrange(1, rows + 1)
            a = np.array([[rng.randrange(gf.q) for _ in range(cols)] for _ in range(rows)])
            m = Matrix(gf, a)
            if m.rank() < cols:
                continue
            x = np.array([rng.randrange(gf.q) for _ in range(cols)])
            assert np.array_equal(m.solve(gf.dot(m.a, x)), x)


def test_nullspace():
    gf = field(3)
    m = Matrix(gf, [[1, 2, 0, 1], [0, 0, 1, 2]])
    ns = m.nullspace()
    assert ns.shape[0] == 2
    for v in ns:
        assert not gf.dot(m.a, v).any()
    gf = field(27)
    rng = random.Random(27)
    m = Matrix(gf, [[rng.randrange(1, 27) for _ in range(7)] for _ in range(3)])
    ns = m.nullspace()
    assert ns.shape[0] == 7 - m.rank() == 4
    assert Matrix(gf, ns).rank() == 4
    for v in ns:
        assert not gf.dot(m.a, v).any()


def test_vandermonde_examples():
    gf = field(11)
    assert vandermonde(gf, [4, 7, 9], 1).a.tolist() == [[1, 1, 1]]
    v = vandermonde(gf, [1, 2, 3], 3)
    assert v.a.tolist() == [[1, 1, 1], [1, 2, 3], [1, 4, 9]]
    assert v.rank() == 3


def test_vandermonde_column_triples_full_rank():
    import itertools

    gf = field(11)
    v = vandermonde(gf, list(range(1, 9)), 3)
    for cols in itertools.combinations(range(8), 3):
        assert Matrix(gf, v.a[:, cols]).rank() == 3


def test_vandermonde_square_invertible():
    for gf in (field(7), field(8), field(13)):
        for d in (1, 2, 3, 4):
            pts = list(range(1, d + 1))
            assert vandermonde(gf, pts, d).rank() == d


def test_vandermonde_rejects_bad_points():
    gf = field(7)
    with pytest.raises(ValueError):
        vandermonde(gf, [0, 1], 2)
    with pytest.raises(ValueError):
        vandermonde(gf, [3, 3], 2)


def test_serialization():
    assert str(field(11)) == "gf(11)"
    assert str(field(8)) == "gf(8):0b1011"
    assert parse_field("gf(8):0b1011") is field(8)
    assert parse_field("gf(11)") is field(11)
    g9 = field(9)
    assert parse_field(str(g9)) is g9
    with pytest.raises(ValueError):
        parse_field("gf[7]")


def test_order_bounds():
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(2**17)
    assert GF(65536).q == 65536


def test_pickle_roundtrip():
    import pickle

    for gf in (field(11), field(8)):
        clone = pickle.loads(pickle.dumps(gf))
        assert clone is gf  # cached factory gives back the shared instance


def test_validation_refuses_fractional_and_boolean_codes():
    gf = field(3)
    for bad in (True, 1.0, 1.5):
        with pytest.raises(ValueError):
            gf.validate(bad)
    for bad in ([1.7, 0], [0, True, 0], [[1, 0], [False, 1]], np.array([1.0, 2.0]),
                np.array([True, False])):
        with pytest.raises(ValueError, match="not element codes"):
            gf.validate_arr(bad)
    assert gf.validate_arr([2, np.int64(1), 0]).tolist() == [2, 1, 0]
    assert gf.validate_arr([]).dtype == np.int64


@pytest.mark.parametrize("gf", FIELDS)
def test_segment_sum_matches_scalar_sums(gf):
    rng = random.Random(gf.q)
    starts = sorted(rng.choice([0, 3, 3, 5, 9, 9, 12]) for _ in range(8))
    # empty segments at both ends, and one of 300 codes starting with two
    # q - 1: over GF(131^2) its digit sums, even of two codes, pass 255
    starts = np.array([0] + starts + [12, 312, 312], dtype=np.int64)
    a = np.array([rng.randrange(gf.q) for _ in range(12)] + [gf.q - 1] * 2
                 + [rng.randrange(gf.q) for _ in range(298)], dtype=np.int64)
    want = []
    for s, e in zip(starts[:-1], starts[1:]):
        acc = 0
        for v in a[s:e]:
            acc = _ref_digit_add(acc, int(v), gf.p)
        want.append(acc)
    assert gf.segment_sum(a, starts).tolist() == want


# -- the default polynomial and tables: the order test against the stepwise search


def _ref_digit_add(a, b, p):
    out, mult = 0, 1
    while a or b:
        out += ((a + b) % p) * mult
        a, b, mult = a // p, b // p, mult * p
    return out


def _ref_digit_neg(a, p):
    out, mult = 0, 1
    while a:
        out += (-a % p) * mult
        a, mult = a // p, mult * p
    return out


def _ref_mul_by_x(a, poly, p, m):
    """x times a packed polynomial, reduced by the monic poly code, digit by digit."""
    a *= p
    lead = a // p**m
    if lead:
        low, out, mult = poly, 0, 1  # -lead * poly, digit by digit
        while low:
            out += ((p - (low % p) * lead % p) % p) * mult
            low, mult = low // p, mult * p
        a = _ref_digit_add(a, out, p)
    return a


def _ref_tables(p, m, poly):
    """The stepwise search: walk the powers of x, None as soon as one repeats
    or is 0, or when x^(q-1) is not 1."""
    q = p**m
    exp = np.zeros(2 * (q - 1), dtype=np.int64)
    log = np.full(q, -1, dtype=np.int64)
    x = 1
    for i in range(q - 1):
        if x == 0 or log[x] >= 0:
            return None
        exp[i] = x
        log[x] = i
        x = _ref_mul_by_x(x, poly, p, m)
    if x != 1:
        return None
    exp[q - 1:] = exp[: q - 1]
    log[0] = 0
    return exp, log


def _ref_default_poly(p, m):
    for code in range(p**m, 2 * p**m):
        if _ref_tables(p, m, code) is not None:
            return code
    raise AssertionError("no primitive polynomial")


EXTENSION_FIELDS = sorted((p**m, p, m) for p in range(2, 65) if all(p % r for r in range(2, p))
                          for m in range(2, 13) if p**m <= 4096)


def test_default_polynomials_and_tables_equal_the_stepwise_search():
    assert len(EXTENSION_FIELDS) == 40
    for q, p, m in EXTENSION_FIELDS:
        gf = field(q)
        assert gf.poly == _ref_default_poly(p, m), q
        exp, log = _ref_tables(p, m, gf.poly)
        assert gf._exp.dtype == gf._log.dtype == np.int64
        assert np.array_equal(gf._exp, exp) and np.array_equal(gf._log, log), q


def test_primitivity_test_agrees_with_the_stepwise_search_on_every_candidate():
    for q, p, m in EXTENSION_FIELDS:
        if q > 128:
            break
        for code in range(q, 2 * q):
            primitive = _ref_tables(p, m, code) is not None
            if primitive:
                assert GF(q, code) == field(q, code)
            else:
                with pytest.raises(ValueError, match="not primitive"):
                    GF(q, code)


def test_large_default_polynomials_are_pinned():
    for q, poly in ((65536, 65581), (59049, 59081), (32768, 32771), (15625, 15632)):
        gf = field(q)
        assert gf.poly == poly
        assert len(set(gf._exp[: q - 1].tolist())) == q - 1 and gf.mul(gf.inv(7), 7) == 1
