"""Linear codes over graphs given by parity checks on edge coordinates.

A GraphCodeSpec holds its parity checks as sparse rows (``CheckRows``):
each check touches a few of the C(n+1, 2) edges, which are numbered in the
lexicographic edge order of the graph, so a syndrome costs one pass over the
nonzeros.  The dense check matrix ``spec.h`` is a view built on request.  The
oracle decoder solves the check system restricted to the erased columns and
is the ground truth every structured family decoder is compared against.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import (
    ErasedAccessError,
    InconsistentSystemError,
    NotSystematicError,
    OutsideAlgorithmDomainError,
    TooLargeError,
    UnderdeterminedSystemError,
)
from .field import GF, Matrix
from .graphs import (
    LabeledGraph,
    edge_index,
    edge_name,
    edges_at,
    neighborhood_indices,
    normalize_edge,
    num_edges,
)

REASON_UNDERDETERMINED = "underdetermined"
REASON_INCONSISTENT = "inconsistent"
REASON_MISMATCH = "mismatch"

MAX_CHECK_MATRIX_BYTES = 256 * 2**20


def check_matrix_size(n: int, rows: int) -> None:
    """Refuse, before any allocation, a code whose dense int64 rows x
    C(n+1, 2) check matrix would exceed MAX_CHECK_MATRIX_BYTES.

    Specs hold sparse rows, but the limit still bounds the dense ``spec.h``
    view and keeps the admitted sizes to those the builders finish quickly.
    """
    need = 8 * rows * num_edges(n)
    if need > MAX_CHECK_MATRIX_BYTES:
        raise TooLargeError(f"n={n} needs a dense {rows} x {num_edges(n)} check matrix of "
                            f"{need} bytes, over the limit of {MAX_CHECK_MATRIX_BYTES}")


@dataclass(frozen=True, eq=False)
class CheckRows:
    """Parity checks as sparse rows (CSR): row r has the nonzero coefficients
    ``coefs[indptr[r]:indptr[r+1]]`` on the edge columns ``cols[...]``."""

    indptr: np.ndarray
    cols: np.ndarray
    coefs: np.ndarray

    @classmethod
    def stack(cls, *blocks) -> "CheckRows":
        """Rows of 2-D blocks of (edge columns, coefficients), which broadcast
        together; zero coefficients are left out."""
        cols, coefs, counts = [], [], []
        for c, v in blocks:
            c, v = np.broadcast_arrays(np.asarray(c, dtype=np.int64), np.asarray(v, dtype=np.int64))
            keep = v != 0
            cols.append(c[keep])
            coefs.append(v[keep])
            counts.append(keep.sum(axis=1))
        indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
        return cls(indptr, np.concatenate(cols), np.concatenate(coefs))

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "CheckRows":
        return cls.stack((np.arange(a.shape[1]), a))

    @property
    def rows(self) -> int:
        return len(self.indptr) - 1

    def block(self, columns) -> np.ndarray:
        """Dense rows x len(columns) block of the given edge columns."""
        columns = np.asarray(columns, dtype=np.int64)
        where = np.full(max(self.cols.max(initial=-1), columns.max(initial=-1)) + 1, -1)
        where[columns] = np.arange(columns.size)
        pos = where[self.cols]
        hit = pos >= 0
        out = np.zeros((self.rows, columns.size), dtype=np.int64)
        out[np.repeat(np.arange(self.rows), np.diff(self.indptr))[hit], pos[hit]] = self.coefs[hit]
        return out

    def row(self, r: int) -> "CheckRows":
        """Row r alone, as a one-row CheckRows."""
        lo, hi = self.indptr[r], self.indptr[r + 1]
        return CheckRows(np.array([0, hi - lo]), self.cols[lo:hi], self.coefs[lo:hi])

    def sums(self, gf: GF, labels: np.ndarray) -> np.ndarray:
        """Check values of an edge-label vector: one field sum per row."""
        vals = labels[self.cols]
        if gf.q != 2:  # over GF(2) every nonzero coefficient is 1
            vals = gf.mul_arr(self.coefs, vals)
        return gf.segment_sum(vals, self.indptr)


class GraphCodeSpec:
    """A linear code over graphs: n, field, and sparse parity-check rows.

    ``h`` holds the checks: a ``CheckRows``, or a dense ``Matrix`` that is
    converted once.
    ``rank`` is the rank the construction proves, if it declares one;
    otherwise it is computed by elimination of the dense view ``h``.
    ``family`` tags the built-in constructions (single/double/triple) so the
    CLI can dispatch structured decoders; ``k_info`` is the declared number of
    information nodes for systematic families.  ``row_names`` labels the check
    rows for decode provenance.
    """

    def __init__(self, n: int, gf: GF, h: CheckRows | Matrix, family: str = "custom",
                 k_info: int | None = None, row_names: list[str] | None = None,
                 rank: int | None = None):
        checks = h
        if isinstance(h, Matrix):
            if h.gf != gf:
                raise ValueError("parity-check field does not match code field")
            if h.cols != num_edges(n):
                raise ValueError(f"parity check must have {num_edges(n)} columns, got {h.cols}")
            checks = CheckRows.from_dense(h.a)
        if row_names is not None and len(row_names) != checks.rows:
            raise ValueError("row_names length must match row count")
        self.n = n
        self.gf = gf
        self.checks = checks
        self.family = family
        self.k_info = k_info
        self.row_names = row_names
        self._rank = rank
        self._h: Matrix | None = None

    @property
    def h(self) -> Matrix:
        """Dense view of the check rows, built on first use."""
        if self._h is None:
            self._h = Matrix(self.gf, self.checks.block(np.arange(num_edges(self.n))))
        return self._h

    @property
    def rank(self) -> int:
        if self._rank is None:
            self._rank = self.h.rank()
        return self._rank

    @property
    def dimension(self) -> int:
        return num_edges(self.n) - self.rank

    @property
    def redundancy(self) -> int:
        return self.rank

    def info_edges(self) -> list[tuple[int, int]]:
        """Information edges: all edges among the first k_info nodes."""
        if self.k_info is None:
            raise NotSystematicError("code has no declared information nodes")
        return edges_at(np.arange(num_edges(self.k_info)))

    def __repr__(self):
        return f"GraphCodeSpec(family={self.family!r}, n={self.n}, {self.gf.name})"


@dataclass
class CodeMetrics:
    """Dimension/rate/redundancy report plus the failure-count lower bound."""

    n: int
    q: int
    rho: int
    dimension: int
    redundancy: int
    rate: Fraction
    bound: int
    gap: int

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "rho": self.rho,
            "dimension": self.dimension,
            "redundancy": self.redundancy,
            "rate": f"{self.rate.numerator}/{self.rate.denominator}",
            "bound": self.bound,
            "gap": self.gap,
        }


def erased_edge_bound(n: int, rho: int) -> int:
    """Edges erased by rho node failures: rho*n - C(rho, 2)."""
    return rho * n - rho * (rho - 1) // 2


def metrics(spec: GraphCodeSpec, rho: int) -> CodeMetrics:
    k = spec.dimension
    r = spec.redundancy
    return CodeMetrics(
        n=spec.n,
        q=spec.gf.q,
        rho=rho,
        dimension=k,
        redundancy=r,
        rate=Fraction(k, num_edges(spec.n)),
        bound=erased_edge_bound(spec.n, rho),
        gap=r - erased_edge_bound(spec.n, rho),
    )


@dataclass
class ProvenanceEntry:
    """Which constraint recovered which edge, and at which step."""

    edge: tuple[int, int]
    constraint: str
    loop: int | str
    t: int

    def as_dict(self) -> dict:
        return {
            "edge": edge_name(*self.edge),
            "constraint": self.constraint,
            "loop": self.loop,
            "t": self.t,
        }


@dataclass
class DecodeReport:
    """Outcome of an erasure decode."""

    status: str  # "ok" | "failed"
    graph: LabeledGraph | None
    provenance: list[ProvenanceEntry] = dc_field(default_factory=list)
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def provenance_json(self) -> list[dict]:
        return [p.as_dict() for p in self.provenance]


def syndrome(spec: GraphCodeSpec, g: LabeledGraph) -> np.ndarray:
    """Parity-check values of a fully known graph."""
    if g.has_erasures:
        raise ErasedAccessError("syndrome of an erased graph")
    _check_graph(spec, g)
    return spec.checks.sums(spec.gf, g.labels)


def survivor_syndrome(spec: GraphCodeSpec, g: LabeledGraph) -> np.ndarray:
    """Check sums over the surviving labels only (erased entries count as 0)."""
    _check_graph(spec, g)
    return spec.checks.sums(spec.gf, g.labels)


def is_codeword(spec: GraphCodeSpec, g: LabeledGraph) -> bool:
    return not syndrome(spec, g).any()


def _check_graph(spec: GraphCodeSpec, g: LabeledGraph) -> None:
    if g.n != spec.n or g.gf != spec.gf:
        raise ValueError("graph does not match code parameters")


def oracle_decode(spec: GraphCodeSpec, g: LabeledGraph) -> DecodeReport:
    """Solve the parity checks restricted to the erased columns.

    Succeeds exactly when the erased columns of the check matrix are linearly
    independent; in that case the recovered graph is the unique codeword
    agreeing with the surviving labels.
    """
    _check_graph(spec, g)
    erased = np.nonzero(g.erased)[0]
    if erased.size == 0:
        return DecodeReport("ok", g.copy())
    gf = spec.gf
    rhs = gf.neg_arr(survivor_syndrome(spec, g))
    sub = Matrix(gf, spec.checks.block(erased))
    try:
        x = sub.solve(rhs)
    except UnderdeterminedSystemError:
        return DecodeReport("failed", None, reason=REASON_UNDERDETERMINED)
    except InconsistentSystemError:
        return DecodeReport("failed", None, reason=REASON_INCONSISTENT)
    labels = g.labels.copy()
    labels[erased] = x
    prov = [ProvenanceEntry(e, "oracle", "oracle", t) for t, e in enumerate(edges_at(erased))]
    return DecodeReport("ok", LabeledGraph(g.n, gf, labels), prov)


def recover(spec: GraphCodeSpec, g: LabeledGraph, failed: set[int] | None, rho: int,
            order) -> DecodeReport:
    """Run a family's recovery ``order(spec, work, failed, fill)`` on a copy
    of a graph with ``rho`` failed nodes (sorted); ``fill(i, j, value,
    constraint, loop, t)`` recovers an edge and records its provenance.
    Other failure patterns, and an OutsideAlgorithmDomainError from the
    order, go to the oracle.  A data fault is a report, never an exception:
    an InconsistentSystemError or a violated check gives "inconsistent",
    edges left erased give "underdetermined"."""
    if failed is None or len(failed) != rho:
        return oracle_decode(spec, g)
    work = g.copy()
    prov: list[ProvenanceEntry] = []

    def fill(i, j, value, constraint, loop, t):
        e = normalize_edge(i, j)
        work.fill(*e, value)
        prov.append(ProvenanceEntry(e, constraint, loop, t))

    try:
        order(spec, work, tuple(sorted(failed)), fill)
    except OutsideAlgorithmDomainError:
        return oracle_decode(spec, g)
    except InconsistentSystemError:
        return DecodeReport("failed", None, reason=REASON_INCONSISTENT)
    if work.has_erasures:
        return DecodeReport("failed", None, reason=REASON_UNDERDETERMINED)
    if survivor_syndrome(spec, work).any():
        return DecodeReport("failed", None, reason=REASON_INCONSISTENT)
    return DecodeReport("ok", work, prov)


def erased_columns_independent(spec: GraphCodeSpec, failed) -> bool:
    """Rank predicate equivalent to oracle decodability of a failure set."""
    erased = np.unique(neighborhood_indices(spec.n, failed))
    return Matrix(spec.gf, spec.checks.block(erased)).rank() == erased.size


def systematic_erasure(spec: GraphCodeSpec, info) -> LabeledGraph:
    """The information labels in place, with the redundancy nodes failed.

    ``info`` is either a mapping {(i, j): value} covering exactly the edges
    among the first k_info nodes, or a sequence of values in lexicographic
    order of those edges.  Every other edge belongs to a node
    k_info..n-1, so the result is a codeword with those nodes erased, and
    recovering them is encoding.
    """
    if spec.k_info is None:
        raise NotSystematicError("code has no declared information nodes")
    gf = spec.gf
    count = num_edges(spec.k_info)
    labels = np.zeros(num_edges(spec.n), dtype=np.int64)
    if isinstance(info, dict):
        seen = set()
        for (i, j), value in info.items():
            k = edge_index(i, j)
            if k >= count:
                raise ValueError(f"edge ({i},{j}) is not an information edge")
            if k in seen:
                raise ValueError(f"edge ({i},{j}) is given twice")
            seen.add(k)
            labels[k] = gf.validate(value)
        if len(seen) != count:
            raise ValueError(f"expected {count} information labels, got {len(seen)}")
    else:
        arr = gf.validate_arr(info)
        if arr.shape != (count,):
            raise ValueError(f"expected {count} information labels, got {arr.shape}")
        labels[:count] = arr
    return LabeledGraph(spec.n, gf, labels).erase_nodes(range(spec.k_info, spec.n))


def systematic_codeword(report: DecodeReport) -> LabeledGraph:
    """The codeword of a decode of ``systematic_erasure``."""
    if not report.ok:
        raise NotSystematicError(f"redundancy edges are not determined: {report.reason}")
    return report.graph


def encode_systematic(spec: GraphCodeSpec, info) -> LabeledGraph:
    """Codeword carrying the given labels on the information edges (see
    ``systematic_erasure``), its redundancy nodes recovered by the oracle."""
    return systematic_codeword(oracle_decode(spec, systematic_erasure(spec, info)))


def random_codeword(spec: GraphCodeSpec, rng: random.Random) -> LabeledGraph:
    """Uniform random codeword (via the systematic map when available)."""
    if spec.k_info is not None:
        info = [rng.randrange(spec.gf.q) for _ in range(num_edges(spec.k_info))]
        return encode_systematic(spec, info)
    basis = spec.h.nullspace()
    coeffs = np.array([rng.randrange(spec.gf.q) for _ in range(basis.shape[0])], dtype=np.int64)
    labels = spec.gf.dot(basis.T.copy(), coeffs)
    return LabeledGraph(spec.n, spec.gf, labels)


def _pattern_rng(seed: int, pattern: tuple[int, ...], trial: int) -> random.Random:
    # string seeding is stable across runs and processes
    return random.Random(f"{seed}|{','.join(map(str, pattern))}|{trial}")


def _verify_pattern(spec: GraphCodeSpec, pattern: tuple[int, ...], trials: int,
                    seed: int, decoder) -> tuple[tuple[int, ...], str | None]:
    decode = decoder if decoder is not None else oracle_decode
    for trial in range(trials):
        rng = _pattern_rng(seed, pattern, trial)
        original = random_codeword(spec, rng)
        report = decode(spec, original.erase_nodes(pattern))
        if not report.ok:
            return pattern, report.reason or "failed"
        if report.graph != original:
            return pattern, REASON_MISMATCH
    return pattern, None


def verify_exhaustive(spec: GraphCodeSpec, rho: int, trials: int = 10, *,
                      seed: int = 0, decoder=None, jobs: int = 1) -> dict:
    """Erase-decode-compare over every rho-subset of nodes.

    Each (pattern, trial) pair gets its own deterministic RNG, so reports are
    reproducible regardless of scheduling.  Failures are data, not errors.
    The patterns run in min(jobs, patterns, CPUs) worker processes, or in
    this one when that is 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    start = time.perf_counter()
    patterns = list(itertools.combinations(range(spec.n), rho))
    failures = []
    run = functools.partial(_verify_pattern, spec, trials=trials, seed=seed, decoder=decoder)
    workers = min(jobs, len(patterns), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, patterns, chunksize=max(1, len(patterns) // (4 * workers))))
    else:
        results = list(map(run, patterns))
    for pattern, reason in results:
        if reason is not None:
            failures.append({"failed_nodes": list(pattern), "reason": reason})
    return {
        "family": spec.family,
        "n": spec.n,
        "q": spec.gf.q,
        "rho": rho,
        "trials": trials,
        "patterns_total": len(patterns),
        "patterns_ok": len(patterns) - len(failures),
        "failures": failures,
        "elapsed_ms": (time.perf_counter() - start) * 1000.0,
    }
