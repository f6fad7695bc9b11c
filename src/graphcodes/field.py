"""Finite fields GF(p^m) with integer-coded elements, plus small dense linear algebra.

Elements are carried as plain integer codes in [0, q).  Prime fields use the
residue itself; extension fields pack the polynomial coefficients in base p
(for p = 2 this is the usual bitmask), so code 0 is the additive identity and
code 1 the multiplicative identity in every field.  Addition is digit-wise
mod p: XOR of the codes when p = 2; for odd p, digit planes read from a q x m
table (a prime field's code is its one digit) are added mod p and packed back
by one product with the place values.  Extension-field products go through
precomputed exp/log tables built from a primitive reduction polynomial; the
default polynomial for each (p, m) is the one with the least integer code, so
codes are interchangeable between runs and implementations.

Matrices are numpy int64 arrays wrapped together with their field.  Gaussian
elimination picks the first nonzero pivot in column order (fields have no
magnitude, and a fixed rule keeps results deterministic).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    InconsistentSystemError,
    UnderdeterminedSystemError,
    ZeroInversionError,
)

MAX_ORDER = 65536


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p**m and p prime, or raise ValueError."""
    if q < 2 or q > MAX_ORDER:
        raise ValueError(f"field order must be in [2, {MAX_ORDER}], got {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            m = 0
            r = q
            while r % p == 0:
                r //= p
                m += 1
            if r != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, m
        p += 1
    return q, 1  # q itself is prime


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def is_prime_power(q: int) -> bool:
    try:
        _factor_prime_power(q)
    except ValueError:
        return False
    return True


def _companion(p: int, m: int, poly: int) -> np.ndarray:
    """The m x m matrix of multiplication by x on the base-p digit vectors of
    packed polynomials, modulo the monic polynomial code ``poly``: digit k
    moves to k+1, and the top digit c comes back as -c times poly's lower
    digits."""
    a = np.zeros((m, m), dtype=np.int64)
    a[np.arange(1, m), np.arange(m - 1)] = 1
    a[:, m - 1] = [-(poly // p**k) % p for k in range(m)]
    return a


def _prime_factors(n: int) -> list[int]:
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    return out + [n] if n > 1 else out


def _is_primitive(p: int, m: int, poly: int) -> bool:
    """Whether x has order q-1 = p^m - 1 modulo the polynomial code ``poly``:
    x^(q-1) = 1 and x^((q-1)/r) != 1 for every prime r dividing q-1, each
    power by square-and-multiply.  Then the powers of x are the q-1 nonzero
    residues, all units, so poly is irreducible as well as primitive."""
    order = p**m - 1
    squares = [_companion(p, m, poly)]  # x^(2^b) as matrices, b = 0, 1, ...
    while len(squares) < order.bit_length():
        squares.append(squares[-1] @ squares[-1] % p)

    def is_one(e: int) -> bool:
        v = np.zeros(m, dtype=np.int64)
        v[0] = 1
        for b, sq in enumerate(squares):
            if e >> b & 1:
                v = sq @ v % p
        return v[0] == 1 and not v[1:].any()

    return is_one(order) and not any(is_one(order // r) for r in _prime_factors(order))


def _build_tables(p: int, m: int, poly: int) -> tuple[np.ndarray, np.ndarray]:
    """Exp/log tables of GF(p^m) for a primitive polynomial code ``poly``:
    exp[i] is the code of x^i for i < 2(q-1), and log inverts it on the
    nonzero codes.  The digits of x^0..x^(2d-1) come from those of
    x^0..x^(d-1) by one product with the matrix of x^d, d = 1, 2, 4, ..."""
    q = p**m
    digits = np.zeros((m, q - 1), dtype=np.int64)
    digits[0, 0] = 1
    a, done = _companion(p, m, poly), 1
    while done < q - 1:
        step = min(done, q - 1 - done)
        digits[:, done : done + step] = a @ digits[:, :step] % p
        a = a @ a % p
        done += step
    powers = p ** np.arange(m) @ digits
    log = np.zeros(q, dtype=np.int64)  # log[0] is a dummy; zero operands are masked out
    log[powers] = np.arange(q - 1)
    return np.concatenate([powers, powers]), log


def _default_poly(p: int, m: int) -> int:
    """Primitive reduction polynomial with the least integer code."""
    for code in range(p**m, 2 * p**m):
        if _is_primitive(p, m, code):
            return code
    raise ValueError(f"no primitive polynomial found for GF({p}^{m})")


class GF:
    """The finite field GF(p^m), q = p^m <= 2^16, acting on integer codes.

    Scalar operations take and return ints; the *_arr variants operate
    elementwise on numpy int64 arrays (with broadcasting) for bulk work.
    Instances are immutable and safe to share across threads.
    """

    def __init__(self, q: int, poly: int | None = None):
        p, m = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.m = m
        if m == 1:
            if poly is not None:
                raise ValueError("prime fields take no reduction polynomial")
            self.poly = None
            self._exp = None
            self._log = None
        else:
            if poly is None:
                poly = _default_poly(p, m)
            if not p**m <= poly < 2 * p**m:
                raise ValueError(f"reduction polynomial code {poly} is not monic of degree {m}")
            if not _is_primitive(p, m, poly):
                raise ValueError(f"polynomial code {poly} is not primitive over GF({p})")
            self.poly = poly
            self._exp, self._log = _build_tables(p, m, poly)
        # odd p, m >= 2: the base-p digits of every code, one column per
        # place (p <= 251, as q <= 2^16), packed back by the place values
        self._digits = self._place = None
        if p != 2 and m > 1:
            self._place = p ** np.arange(m, dtype=np.int64)
            self._digits = (np.arange(q)[:, None] // self._place % p).astype(np.uint8)

    # -- identity / serialization ------------------------------------------

    @property
    def name(self) -> str:
        if self.m == 1:
            return f"gf({self.q})"
        mask = bin(self.poly) if self.p == 2 else str(self.poly)
        return f"gf({self.q}):{mask}"

    @functools.cached_property
    def code_strings(self) -> np.ndarray:
        """The decimal form of every element code, indexed by the code: ASCII
        bytes of one fixed width (numpy ``S``), shorter ones padded with NUL."""
        return np.array([str(v) for v in range(self.q)], dtype="S")

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"GF({self.q})" if self.m == 1 else f"GF({self.q}, poly={self.poly})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and (self.q, self.poly) == (other.q, other.poly)

    def __hash__(self) -> int:
        return hash((self.q, self.poly))

    def __reduce__(self):
        return (field, (self.q, self.poly))

    # -- scalar arithmetic on codes ----------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return int(self._pack(self._planes(a) + self._planes(b)))

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return int(self._pack(-self._planes(a)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return int(self._exp[int(self._log[a]) + int(self._log[b])])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInversionError(f"inverse of zero in {self.name}")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return int(self._exp[(self.q - 1) - int(self._log[a])])

    # -- elementwise array arithmetic (numpy int64) -------------------------

    def add_arr(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self._pack(self._planes(a) + self._planes(b))

    def neg_arr(self, a):
        if self.p == 2:
            return np.array(a, dtype=np.int64, copy=True)
        return self._pack(-self._planes(a))

    def sub_arr(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self._pack(self._planes(a) - self._planes(b))

    def mul_arr(self, a, b):
        if self.m == 1:
            return (a * b) % self.p
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        prod = self._exp[self._log[a] + self._log[b]]
        return np.where((a == 0) | (b == 0), 0, prod)

    def _planes(self, a) -> np.ndarray:
        """The base-p digits of the codes in ``a`` (odd p) along a new last
        axis, widened to int64 so that sums of digits cannot wrap; a prime
        field's code is its own single digit and gets no axis."""
        a = np.asarray(a, dtype=np.int64)
        return a if self._digits is None else self._digits[a].astype(np.int64)

    def _pack(self, planes) -> np.ndarray:
        """The codes whose digits are ``planes`` mod p."""
        planes = planes % self.p
        return planes if self._digits is None else planes @ self._place

    def _sum_axis(self, a, axis):
        """Field sum along an axis of an int64 array."""
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis)
        return self._pack(self._planes(a).sum(axis=axis))

    def segment_sum(self, a, starts):
        """Field sums of the segments a[starts[r]:starts[r+1]] of a 1-D int64
        array, one per r; an empty segment sums to 0."""
        out = np.zeros(len(starts) - 1, dtype=np.int64)
        full = starts[:-1] < starts[1:]
        at = starts[:-1][full]  # reduceat would give a[s] for an empty segment
        if at.size == 0:
            return out
        if self.p == 2:
            out[full] = np.bitwise_xor.reduceat(a, at)
        else:
            out[full] = self._pack(np.add.reduceat(self._planes(a), at))
        return out

    def dot(self, a, v):
        """Matrix-vector product over the field: a (r x c) @ v (c,)."""
        a = np.asarray(a, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if self.m == 1:
            return (a @ v) % self.p
        return self._sum_axis(self.mul_arr(a, v[None, :]), axis=1)

    # -- element codes -------------------------------------------------------

    def validate(self, code: int) -> int:
        if type(code) is bool or not isinstance(code, (int, np.integer)) or not 0 <= code < self.q:
            raise ValueError(f"{code!r} is not an element code of {self.name}")
        return int(code)

    def validate_arr(self, a) -> np.ndarray:
        """A new int64 array of the codes in ``a``; refuses fractions and bools."""
        arr = np.asarray(a)
        if arr.size and (arr.dtype.kind not in "iu" or _holds_bool(a)):
            raise ValueError(f"array contains entries that are not element codes of {self.name}")
        arr = arr.astype(np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.q):
            raise ValueError(f"array contains codes outside {self.name}")
        return arr


def _holds_bool(a) -> bool:
    """Whether a (nested) list or tuple holds a bool; numpy casts those to 0 or 1."""
    if not isinstance(a, (list, tuple)):
        return isinstance(a, bool)
    types = set(map(type, a))
    return bool in types or (bool(types & {list, tuple}) and any(map(_holds_bool, a)))


@functools.lru_cache(maxsize=None)
def _default_poly_cached(p: int, m: int) -> int:
    return _default_poly(p, m)


@functools.lru_cache(maxsize=None)
def _field_cached(q: int, poly: int | None) -> GF:
    return GF(q, poly)


def field(q: int, poly: int | None = None) -> GF:
    """Shared GF instance for the given order (tables built once)."""
    p, m = _factor_prime_power(q)
    if m > 1 and poly is None:
        poly = _default_poly_cached(p, m)
    return _field_cached(q, poly)


def parse_field(text: str) -> GF:
    """Parse 'gf(q)' or 'gf(q):<polycode>' (polycode decimal or 0b...)."""
    s = text.strip().lower()
    if not s.startswith("gf("):
        raise ValueError(f"bad field string {text!r}")
    body = s[3:]
    close = body.find(")")
    if close < 0:
        raise ValueError(f"bad field string {text!r}")
    q = int(body[:close])
    rest = body[close + 1 :]
    poly = None
    if rest:
        if not rest.startswith(":"):
            raise ValueError(f"bad field string {text!r}")
        poly = int(rest[1:], 0)
    return field(q, poly)


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Dense matrix over a GF, stored as a numpy int64 array of codes."""

    def __init__(self, gf: GF, rows):
        self.gf = gf
        self.a = gf.validate_arr(rows)
        if self.a.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.gf == other.gf
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __repr__(self):
        return f"Matrix({self.gf.name}, {self.rows}x{self.cols})"

    def rank(self) -> int:
        work = self.a.copy()
        return len(_rref(self.gf, work, work.shape[1]))

    def solve(self, b) -> np.ndarray:
        """Solve self @ x = b, for a vector b or column by column for a
        matrix b, in one elimination; requires a unique solution.

        Raises InconsistentSystemError when no x satisfies the system and
        UnderdeterminedSystemError when the column rank is deficient.
        """
        b = self.gf.validate_arr(b)
        if b.shape[0] != self.rows:
            raise ValueError("right-hand side has wrong number of rows")
        aug = np.concatenate([self.a, b.reshape(self.rows, -1)], axis=1)
        pivots = _rref(self.gf, aug, self.cols)
        r = len(pivots)
        if np.any(aug[r:, self.cols :]):
            raise InconsistentSystemError("no solution satisfies all constraints")
        if r < self.cols:
            raise UnderdeterminedSystemError(f"column rank {r} < {self.cols}")
        x = aug[: self.cols, self.cols :]
        return x[:, 0] if b.ndim == 1 else x

    def nullspace(self) -> np.ndarray:
        """Basis of the right null space, one vector per row of the result."""
        work = self.a.copy()
        pivots = _rref(self.gf, work, self.cols)
        free = np.ones(self.cols, dtype=bool)
        free[pivots] = False
        basis = np.zeros((int(free.sum()), self.cols), dtype=np.int64)
        basis[:, free] = np.eye(len(basis), dtype=np.int64)
        basis[:, pivots] = self.gf.neg_arr(work[: len(pivots), free]).T
        return basis


def _rref(gf: GF, m: np.ndarray, pivot_cols: int) -> list[int]:
    """In-place reduced row echelon form; pivots only in the first pivot_cols.

    Pivot choice is the first nonzero entry scanning down each column in
    order, so the result is deterministic for a given input.
    """
    rows = m.shape[0]
    r = 0
    pivots: list[int] = []
    for c in range(pivot_cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        pv = int(m[r, c])
        if pv != 1:
            m[r] = gf.mul_arr(m[r], np.int64(gf.inv(pv)))
        colvals = m[:, c].copy()
        colvals[r] = 0
        tofix = np.nonzero(colvals)[0]
        if tofix.size:
            m[tofix] = gf.sub_arr(m[tofix], gf.mul_arr(colvals[tofix][:, None], m[r][None, :]))
        pivots.append(c)
        r += 1
    return pivots


def vandermonde(gf: GF, points, nrows: int) -> Matrix:
    """nrows x len(points) matrix with entry (t, l) = points[l]**t.

    Points must be pairwise distinct and nonzero, which makes any nrows
    columns linearly independent.
    """
    pts = gf.validate_arr(points)
    if nrows < 1:
        raise ValueError("need at least one row")
    if np.any(pts == 0):
        raise ValueError("evaluation points must be nonzero")
    if len(set(pts.tolist())) != pts.size:
        raise ValueError("evaluation points must be distinct")
    rows = [np.ones(pts.size, dtype=np.int64)]
    for _ in range(1, nrows):
        rows.append(gf.mul_arr(rows[-1], pts))
    return Matrix(gf, np.stack(rows))
