"""Codes correcting n-2 node failures: dimension 3, generator-matrix form.

After n-2 failures only two nodes i < j survive, and only three labels remain
readable: the two self loops and the edge between them.  A 3 x C(n+1,2)
generator matrix supports this exactly when, for every pair, the columns of
those three edges are linearly independent.  Such matrices exist over GF(q)
iff q^2 + q + 1 > n - 1 (the diagonal columns must be distinct projective
points), and the number of admissible matrices has a closed form which the
exhaustive and Monte Carlo counters here cross-check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .framework import DecodeReport, Step, _check_graph
from .errors import NoSuchCodeError, SingularSystemError, TooLargeError
from .field import GF, field, is_prime_power
from .graphs import LabeledGraph, edge_index, edge_indices, num_edges

EXHAUSTIVE_BOUND = 2**24  # max candidate matrices for exact enumeration
_CHUNK = 1 << 17


@dataclass(frozen=True)
class ExtremeGenerator:
    """3 x C(n+1,2) generator matrix; column k encodes edge edge_at(k)."""

    n: int
    gf: GF
    g: np.ndarray

    def column(self, i: int, j: int) -> np.ndarray:
        return self.g[:, edge_index(i, j)]


def _det3(gf: GF, a, b, c):
    """Determinant of the 3x3 matrix with columns a, b, c (arrays broadcast)."""
    m01 = gf.sub_arr(gf.mul_arr(b[1], c[2]), gf.mul_arr(b[2], c[1]))
    m02 = gf.sub_arr(gf.mul_arr(b[0], c[2]), gf.mul_arr(b[2], c[0]))
    m03 = gf.sub_arr(gf.mul_arr(b[0], c[1]), gf.mul_arr(b[1], c[0]))
    t0 = gf.mul_arr(a[0], m01)
    t1 = gf.mul_arr(a[1], m02)
    t2 = gf.mul_arr(a[2], m03)
    return gf.add_arr(gf.sub_arr(t0, t1), t2)


def check_generator(gen: ExtremeGenerator) -> bool:
    """True iff every surviving pair leaves an invertible 3x3 system."""
    return bool(_accept_mask(gen.gf, gen.g[None], _pair_edge_triples(gen.n))[0])


def code_exists(n: int, q: int) -> bool:
    """Existence condition: the projective plane must have > n-1 points."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if not is_prime_power(q):
        raise ValueError(f"{q} is not a prime power")
    return q * q + q + 1 > n - 1


def _projective_points(gf: GF) -> list[tuple[int, int, int]]:
    """Canonical representatives (first nonzero coordinate 1), lex order."""
    q = gf.q
    pts = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                if (a, b, c) == (0, 0, 0):
                    continue
                first = a if a else (b if b else c)
                if first == 1:
                    pts.append((a, b, c))
    return pts


def build_generator(n: int, q: int, seed: int = 0) -> ExtremeGenerator:
    """Deterministic valid generator: distinct projective points on the
    diagonal columns, each off-diagonal column outside the span of its two
    endpoint diagonals.  seed=0 scans canonically; other seeds randomize."""
    if not code_exists(n, q):
        raise NoSuchCodeError(f"no such code for n={n}, q={q} (need q^2+q+1 > n-1)")
    gf = field(q)
    points = _projective_points(gf)
    rng = None if seed == 0 else random.Random(f"extreme|{n}|{q}|{seed}")
    diag = points[:n] if rng is None else rng.sample(points, n)
    g = np.zeros((3, num_edges(n)), dtype=np.int64)
    g[:, edge_indices(range(n), range(n))] = np.transpose(diag)

    def all_vectors():
        for code in range(1, q**3):
            yield (code // (q * q), (code // q) % q, code % q)

    for kjj, kij, kii in _pair_edge_triples(n):
        gii, gjj = g[:, kii], g[:, kjj]
        if rng is None:
            pick = next(v for v in all_vectors()
                        if int(_det3(gf, gjj, np.array(v, dtype=np.int64), gii)))
        else:
            while True:
                v = (rng.randrange(q), rng.randrange(q), rng.randrange(q))
                if int(_det3(gf, gjj, np.array(v, dtype=np.int64), gii)):
                    pick = v
                    break
        g[:, kij] = pick
    return ExtremeGenerator(n, gf, g)


def encode_message(gen: ExtremeGenerator, u) -> LabeledGraph:
    """Graph whose labels are the message (u0, u1, u2) times the generator."""
    gf = gen.gf
    u = gf.validate_arr(u)
    if u.shape != (3,):
        raise ValueError("message must have exactly three symbols")
    labels = gf.dot(gen.g.T.copy(), u)
    return LabeledGraph(gen.n, gf, labels)


def decode_pair(gen: ExtremeGenerator, i: int, j: int,
                c_ii: int, c_ij: int, c_jj: int) -> tuple[int, int, int]:
    """Recover the message from the three labels surviving on nodes i and j."""
    if i == j or not (0 <= i < gen.n and 0 <= j < gen.n):
        raise ValueError(f"need two distinct surviving nodes, got ({i},{j})")
    if i < j:
        i, j = j, i
        c_ii, c_jj = c_jj, c_ii
    gf = gen.gf
    cols = np.stack([gen.column(j, j), gen.column(i, j), gen.column(i, i)], axis=1)
    b = np.array([gf.validate(c_jj), gf.validate(c_ij), gf.validate(c_ii)], dtype=np.int64)
    det = int(_det3(gf, cols[:, 0], cols[:, 1], cols[:, 2]))
    if det == 0:
        raise SingularSystemError(f"generator columns for pair ({j},{i}) are dependent")
    # u @ cols = b, so by Cramer's rule u_k is the determinant of the rows of
    # cols with row k replaced by b, over det (the rows' determinant too)
    r0, r1, r2 = cols
    minors = _det3(gf, np.stack([b, r0, r0], axis=1), np.stack([r1, b, r1], axis=1),
                   np.stack([r2, r2, b], axis=1))
    u = gf.mul_arr(minors, gf.inv(det))
    return int(u[0]), int(u[1]), int(u[2])


def decode_surviving_graph(gen: ExtremeGenerator, g: LabeledGraph) -> DecodeReport:
    """Full-graph recovery from any erasure leaving two readable nodes.  A
    graph of another node count or field is refused with a ValueError."""
    _check_graph(gen, g)
    i, j = np.tril_indices(gen.n, -1)  # pairs j < i, in edge order
    lost = g.erased[edge_indices(i, j)] | g.erased[edge_indices(i, i)] | g.erased[edge_indices(j, j)]
    if lost.all():
        return DecodeReport("failed", None, reason="underdetermined")
    i, j = int(i[lost.argmin()]), int(j[lost.argmin()])  # the first readable pair
    u = decode_pair(gen, i, j, g.label(i, i), g.label(i, j), g.label(j, j))
    full = encode_message(gen, u)
    known = ~g.erased
    if not np.array_equal(full.labels[known], g.labels[known]):
        return DecodeReport("failed", None, reason="inconsistent")
    erased = np.flatnonzero(g.erased)
    # every readable label beyond the three solved from was checked
    return DecodeReport("ok", full, [Step(erased, f"pair_{j}_{i}", "solve", np.arange(erased.size))],
                        spare_checks=int(known.sum()) - 3)


# ---------------------------------------------------------------------------
# counting


def count_formula(n: int, q: int) -> int:
    """Closed-form count of admissible generator matrices (exact big int)."""
    if not code_exists(n, q):
        raise NoSuchCodeError(f"no such code for n={n}, q={q}")
    pts = q * q + q + 1
    pairs = n * (n - 1) // 2
    return q ** (2 * pairs) * (q - 1) ** num_edges(n) * math.factorial(pts) // math.factorial(pts - n)


def count_distinct_codes(n: int, q: int) -> int:
    """Matrices modulo change of basis: divide by |GL_3(GF(q))|."""
    gl3 = (q**3 - 1) * (q**3 - q) * (q**3 - q**2)
    total = count_formula(n, q)
    if total % gl3:
        raise ArithmeticError("matrix count is not a multiple of |GL3|")
    return total // gl3


def _pair_edge_triples(n: int) -> list[tuple[int, int, int]]:
    i, j = np.tril_indices(n, -1)  # pairs j < i, in edge order
    return list(zip(*(edge_indices(a, b).tolist() for a, b in ((j, j), (i, j), (i, i)))))


def _accept_mask(gf: GF, mats: np.ndarray, triples) -> np.ndarray:
    """Vectorized pair condition over a batch of 3 x T matrices."""
    ok = np.ones(mats.shape[0], dtype=bool)
    for kjj, kij, kii in triples:
        a = mats[:, :, kjj].T
        b = mats[:, :, kij].T
        c = mats[:, :, kii].T
        ok &= _det3(gf, a, b, c) != 0
    return ok


def count_exhaustive(n: int, q: int) -> int:
    """Exact count by enumerating every 3 x C(n+1,2) matrix over GF(q)."""
    t = num_edges(n)
    total = q ** (3 * t)
    if total > EXHAUSTIVE_BOUND:
        raise TooLargeError(f"{total} candidate matrices exceed the policy bound {EXHAUSTIVE_BOUND}")
    gf = field(q)
    triples = _pair_edge_triples(n)
    count = 0
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        digits = np.empty((hi - lo, 3 * t), dtype=np.int64)
        for d in range(3 * t):
            digits[:, d] = idx % q
            idx //= q
        mats = digits.reshape(-1, 3, t)
        count += int(_accept_mask(gf, mats, triples).sum())
    return count


def estimate_rate_montecarlo(n: int, q: int, samples: int, seed: int = 0) -> dict:
    """Acceptance-rate estimate with its standard error over random matrices."""
    t = num_edges(n)
    gf = field(q)
    triples = _pair_edge_triples(n)
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < samples:
        batch = min(_CHUNK, samples - done)
        mats = rng.integers(0, q, size=(batch, 3, t), dtype=np.int64)
        hits += int(_accept_mask(gf, mats, triples).sum())
        done += batch
    rate = hits / samples
    stderr = math.sqrt(max(rate * (1.0 - rate), 1e-30) / samples)
    return {"samples": samples, "hits": hits, "rate": rate, "stderr": stderr}
