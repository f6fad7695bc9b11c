"""Linear codes over graphs given by parity checks on edge coordinates.

A GraphCodeSpec holds its parity checks as sparse rows (``CheckRows``):
each check touches a few of the C(n+1, 2) edges, which are numbered in the
lexicographic edge order of the graph, so a syndrome costs one pass over the
nonzeros.  The dense check matrix ``spec.h`` is a view built on request.  The
oracle decoder solves the check system restricted to the erased columns and
is the ground truth every structured family decoder is compared against.
Every decode runs a repair plan (``RepairPlan.run``): the oracle's plans come
from a peel search, worked out once per erasure mask and cached on the spec;
each structured family writes the plan of its recovery order per decode, and
``recover`` runs it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import time
from collections import OrderedDict
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ErasedAccessError,
    NotSystematicError,
    TooLargeError,
)
from .field import GF, Matrix, _rref
from .graphs import (
    LabeledGraph,
    edge_index,
    edge_name,
    edge_pairs,
    edges_at,
    neighborhood_indices,
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

    def take(self, rows) -> "CheckRows":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        lo = self.indptr[rows]
        cnt = self.indptr[rows + 1] - lo
        indptr = np.concatenate([[0], np.cumsum(cnt)])
        at = np.repeat(lo - indptr[:-1], cnt) + np.arange(indptr[-1])
        return CheckRows(indptr, self.cols[at], self.coefs[at])

    def sums(self, gf: GF, labels: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Check values of an edge-label vector: one field sum per row, for
        the rows lo..hi-1 (all rows by default)."""
        ptr = self.indptr[lo:(self.rows if hi is None else hi) + 1]
        a, b = ptr[0], ptr[-1]
        vals = labels[self.cols[a:b]]
        if gf.q != 2:  # over GF(2) every nonzero coefficient is 1
            vals = gf.mul_arr(self.coefs[a:b], vals)
        return gf.segment_sum(vals, ptr - a)


PLAN_CACHE_SIZE = 16  # repair plans kept per spec, least recently used dropped first

PEEL, CHAIN, SOLVE = "peel", "chain", "solve"


class Stage(NamedTuple):
    """A stage reads the check ``rows`` and solves the erased positions
    ``targets`` from the survivor syndrome and the values found before it:

    * peel: each row has one unknown left, its target: ``coefs`` (-1 over
      the row's coefficient on it) times the row's known sum;
    * chain: binary unit rows, each holding its target and the one before
      (the first only its own) and no other erased position; the targets
      are the prefix XOR of the rows' survivor sums;
    * solve: B blocks of r rows that share the r x k matrix ``coefs`` on
      their targets (B x k), reduced with all B right-hand sides at once.
    """

    kind: str
    rows: np.ndarray
    targets: np.ndarray
    coefs: np.ndarray | None


@dataclass(eq=False)
class RepairPlan:
    """How the checks recover one erased set: the stages run in order, then
    the ``spare`` rows, which no stage reads, are checked.  ``block`` holds
    the coefficients on the erased positions of the rows of every stage but
    the chains, then of the spare rows.  ``steps`` are the provenance.  The
    oracle's plans come from the peel search (``build``): peel stages, then
    the positions no check peels as one solve stage, its dense core.  A
    family writes the plan of its recovery order (``staged``).
    """

    gf: GF
    erased: np.ndarray  # erased edge indices, ascending; targets are positions in it
    stages: tuple[Stage, ...]
    spare: np.ndarray
    block: CheckRows
    steps: list[Step] | None = None  # default: one "oracle" step over every erased edge and row

    def __post_init__(self):
        if self.steps is None:
            rows = np.concatenate([s.rows for s in self.stages] + [self.spare])
            self.steps = [Step(self.erased, "oracle", "oracle", np.arange(self.erased.size), rows)]

    @classmethod
    def staged(cls, spec: "GraphCodeSpec", stages, steps: list[Step]) -> "RepairPlan":
        """The plan of ``stages``, each (kind, check rows, the erased edges it
        solves, coefficients).  Every erased edge is the target of one stage,
        so the erased set is their union; the rows no stage reads are spare."""
        checks = spec.checks
        erased = np.sort(np.concatenate([edges.ravel() for _, _, edges, _ in stages]))
        where = np.full(num_edges(spec.n), -1)
        where[erased] = np.arange(erased.size)
        stages = tuple(Stage(kind, rows, where[edges], coefs) for kind, rows, edges, coefs in stages)
        read = np.zeros(checks.rows, dtype=bool)
        read[np.concatenate([s.rows for s in stages])] = True
        spare = np.flatnonzero(~read)
        sub = checks.take(np.concatenate([s.rows for s in stages if s.kind != CHAIN] + [spare]))
        pos = where[sub.cols]
        hit = pos >= 0
        block = CheckRows(np.concatenate([[0], np.cumsum(hit)])[sub.indptr], pos[hit], sub.coefs[hit])
        return cls(spec.gf, erased, stages, spare, block, steps)

    @classmethod
    def build(cls, spec: "GraphCodeSpec", erased: np.ndarray) -> "RepairPlan":
        """The peel search's plan for the erased edges (ascending)."""
        gf, checks = spec.gf, spec.checks
        m, nrows = erased.size, checks.rows
        where = np.full(num_edges(spec.n), -1)
        where[erased] = np.arange(m)
        pos = where[checks.cols]
        hit = pos >= 0
        row = np.repeat(np.arange(nrows), np.diff(checks.indptr))[hit]
        pos, coef = pos[hit], checks.coefs[hit]  # the erased nonzeros, row by row
        count = np.bincount(row, minlength=nrows)

        # peel: each round takes, in row order, every unused check with one
        # open position; a check whose position an earlier one solved is spare
        col_rows = row[np.argsort(pos, kind="stable")].tolist()
        col_start = np.concatenate([[0], np.cumsum(np.bincount(pos, minlength=m))]).tolist()
        left = count.tolist()
        open_sum = np.bincount(row, weights=pos, minlength=nrows).astype(np.int64).tolist()
        peel, targets, stages = [], [], [0]
        frontier = [r for r, k in enumerate(left) if k == 1]
        while frontier:
            found = []
            for r in frontier:
                if left[r] != 1:
                    continue
                c = open_sum[r]  # the sum of one open position is that position
                peel.append(r)
                targets.append(c)
                for r2 in col_rows[col_start[c]:col_start[c + 1]]:
                    left[r2] -= 1
                    open_sum[r2] -= c
                    if left[r2] == 1:
                        found.append(r2)
            if len(peel) > stages[-1]:
                stages.append(len(peel))
            frontier = sorted(found)

        p = len(peel)
        peel = np.array(peel, dtype=np.int64)
        targets = np.array(targets, dtype=np.int64)
        peeled = np.zeros(m, dtype=bool)
        peeled[targets] = True
        core = np.flatnonzero(~peeled)
        unused = np.ones(nrows, dtype=bool)
        unused[peel] = False
        has_open = np.array(left) > 0
        core_rows, spare = np.flatnonzero(unused & has_open), np.flatnonzero(unused & ~has_open)
        rows = np.concatenate([peel, core_rows, spare])
        block = CheckRows(np.concatenate([[0], np.cumsum(count)]), pos, coef).take(rows)
        end = block.indptr[p]
        at_target = block.cols[:end] == np.repeat(targets, count[peel])
        tcoef = block.coefs[:end][at_target]  # one per peel check, no column repeats in a row
        values = np.flatnonzero(np.bincount(tcoef))  # the distinct ones, ascending
        neg_inv = np.array([gf.neg(gf.inv(int(v))) for v in values], dtype=np.int64)
        scale = neg_inv[np.searchsorted(values, tcoef)]

        plan = [Stage(PEEL, peel[lo:hi], targets[lo:hi], scale[lo:hi]) for lo, hi in zip(stages[:-1], stages[1:])]
        if core.size:
            core_checks = block.take(np.arange(p, p + core_rows.size)).block(core)
            plan.append(Stage(SOLVE, core_rows, core[None, :], core_checks))
        return cls(gf, erased, tuple(plan), spare, block)

    def decodable(self) -> bool:
        """Whether the solution is unique: every solve stage's matrix has
        full column rank."""
        return all(len(_rref(self.gf, s.coefs.copy(), s.coefs.shape[1])) == s.coefs.shape[1]
                   for s in self.stages if s.kind == SOLVE)

    def run(self, syn: np.ndarray) -> tuple[np.ndarray | None, str | None]:
        """Erased labels from the survivor syndrome ``syn``, or a failure
        reason; an inconsistent system is reported before a deficient one,
        whose free positions read 0."""
        gf = self.gf
        x = np.zeros(self.erased.size, dtype=np.int64)
        lo, deficient = 0, False
        for kind, rows, targets, coefs in self.stages:
            if kind == CHAIN:
                x[targets] = np.bitwise_xor.accumulate(syn[rows])
                continue
            acc = gf.add_arr(syn[rows], self.block.sums(gf, x, lo, lo + rows.size))
            lo += rows.size
            if kind == PEEL:
                x[targets] = gf.mul_arr(acc, coefs)
                continue
            r, k = coefs.shape
            aug = np.concatenate([coefs, gf.neg_arr(acc).reshape(len(targets), r).T], axis=1)
            pivots = _rref(gf, aug, k)
            if aug[len(pivots):, k:].any():
                return None, REASON_INCONSISTENT
            x[targets[:, pivots]] = aug[: len(pivots), k:].T
            deficient |= len(pivots) < k
        if self.spare.size and gf.add_arr(syn[self.spare], self.block.sums(gf, x, lo)).any():
            return None, REASON_INCONSISTENT
        if deficient:
            return None, REASON_UNDERDETERMINED
        return x, None


def _check_rows(checks: CheckRows, edges: int, q: int) -> None:
    """Refuse check rows whose pointers do not run from 0 to the nonzero count
    without decreasing, or that hold a column outside 0..edges-1, a
    coefficient outside 1..q-1, or one column twice in a row."""
    ptr, cols, coefs = map(np.asarray, (checks.indptr, checks.cols, checks.coefs))
    if (ptr.ndim != 1 or ptr.size == 0 or ptr[0] != 0 or ptr[-1] != cols.size
            or coefs.shape != cols.shape or np.diff(ptr).min(initial=0) < 0):
        raise ValueError("check row pointers must run from 0 to the nonzero count without decreasing")
    if cols.size and (cols.min() < 0 or cols.max() >= edges):
        raise ValueError(f"check columns must lie in 0..{edges - 1}")
    if coefs.size and (coefs.min() < 1 or coefs.max() >= q):
        raise ValueError(f"check coefficients must lie in 1..{q - 1}")
    # row * edges + column; builders emit these nearly in order, and numpy's
    # stable sort of int64 merges runs, so it costs about a third of a quicksort
    key = np.repeat(np.arange(0, (ptr.size - 1) * edges, edges), np.diff(ptr))
    key += cols
    key.sort(kind="stable")
    if np.any(key[1:] == key[:-1]):
        raise ValueError("a check row names an edge column twice")


class GraphCodeSpec:
    """A linear code over graphs: n, field, and sparse parity-check rows.

    ``h`` holds the checks: a ``CheckRows``, whose layout, columns and
    coefficients are checked, or a dense ``Matrix`` that is converted once.
    ``rank`` is the rank the construction proves, if it declares one;
    otherwise it is computed by elimination of the dense view ``h``.
    ``family`` labels reports (the CLI dispatches on its ``--family`` option,
    not on this tag); ``k_info`` is the declared number of information nodes
    for systematic families.  ``row_names`` labels the check rows for decode
    provenance; it is kept as an object array, so a recovery step names the
    rows it read with one gather.  The spec keeps the repair plans of its
    most recent erasure masks (``repair_plan``).  A family may pass
    ``plan_for(spec, erased_mask)``, a module-level function (so the spec
    still pickles) that writes the plan of the masks it knows in closed form
    and returns None for every other mask, which is left to the peel search.
    """

    def __init__(self, n: int, gf: GF, h: CheckRows | Matrix, family: str = "custom",
                 k_info: int | None = None, row_names: list[str] | None = None,
                 rank: int | None = None, plan_for=None):
        checks = h
        if isinstance(h, Matrix):
            if h.gf != gf:
                raise ValueError("parity-check field does not match code field")
            if h.cols != num_edges(n):
                raise ValueError(f"parity check must have {num_edges(n)} columns, got {h.cols}")
            checks = CheckRows.from_dense(h.a)
        else:
            _check_rows(checks, num_edges(n), gf.q)
        if row_names is not None and len(row_names) != checks.rows:
            raise ValueError("row_names length must match row count")
        self.n = n
        self.gf = gf
        self.checks = checks
        self.family = family
        self.k_info = k_info
        self.row_names = None if row_names is None else np.array(row_names, dtype=object)
        self._rank = rank
        self.plan_for = plan_for
        self._h: Matrix | None = None
        self._plans: OrderedDict[bytes, RepairPlan] = OrderedDict()

    @property
    def h(self) -> Matrix:
        """Dense view of the check rows, built on first use."""
        if self._h is None:
            self._h = Matrix(self.gf, self.checks.block(np.arange(num_edges(self.n))))
        return self._h

    def __getstate__(self):
        """A pickled spec, as sent to worker processes, leaves its plans behind."""
        return {**self.__dict__, "_plans": OrderedDict()}

    def repair_plan(self, erased: np.ndarray) -> RepairPlan:
        """The plan for a boolean erasure mask, from a cache of at most
        PLAN_CACHE_SIZE plans that lives and dies with the spec.  A miss asks
        the family's ``plan_for`` first, then builds the plan by the peel
        search.  Threads racing on one mask may each build its plan; all of
        them are equal."""
        key = np.packbits(erased).tobytes()
        plan = self._plans.pop(key, None)
        if plan is None and self.plan_for is not None:
            plan = self.plan_for(self, erased)
        if plan is None:
            plan = RepairPlan.build(self, np.flatnonzero(erased))
        if len(self._plans) >= PLAN_CACHE_SIZE:
            self._plans.popitem(last=False)
        self._plans[key] = plan
        return plan

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


class Step(NamedTuple):
    """One step of a recovery: the edges it recovered, by the constraint
    named (one name, or one per edge) at step ``t`` (one number, or one per
    edge) of ``loop``, and the check rows it read to do so."""

    edges: np.ndarray
    constraint: str | Sequence[str]
    loop: int | str
    t: int | np.ndarray
    rows: np.ndarray | tuple = ()


@dataclass
class DecodeReport:
    """Outcome of an erasure decode.

    ``steps`` records the recovery, the steps of the repair plan it ran.
    ``provenance`` lists the same as one ProvenanceEntry per edge, in step
    order, built the first time it is read.  ``spare_checks`` counts the
    checks the result was verified against beyond those its recovery
    needed: for every plan, the check count minus the erased count.  0
    means nothing about the surviving labels was checked, which holds for
    every optimal family at exactly rho failures.
    """

    status: str  # "ok" | "failed"
    graph: LabeledGraph | None
    steps: list[Step] = dc_field(default_factory=list, compare=False)
    reason: str | None = None
    spare_checks: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @functools.cached_property
    def provenance(self) -> list[ProvenanceEntry]:
        out = []
        for edges, constraint, loop, t, _ in self.steps:
            names = [constraint] * len(edges) if isinstance(constraint, str) else constraint
            ts = np.broadcast_to(t, len(edges)).tolist()
            out += map(ProvenanceEntry, edges_at(edges), names, itertools.repeat(loop), ts)
        return out

    def provenance_json(self) -> list[dict]:
        return [p.as_dict() for p in self.provenance]

    def provenance_text(self) -> str:
        """The bytes of ``json.dumps(self.provenance_json(), indent=2)``,
        written straight from ``steps`` without building the entries."""
        entries = []
        for edges, constraint, loop, t, _ in self.steps:
            i, j = edge_pairs(edges)
            names = ([_json_string(constraint)] * i.size if isinstance(constraint, str)
                     else list(map(_json_string, constraint)))
            rows = zip(i.tolist(), j.tolist(), names, itertools.repeat(json.dumps(loop)),
                       np.broadcast_to(t, i.size).tolist())
            entries += map(_PROVENANCE_ENTRY.__mod__, rows)
        return "[\n" + ",\n".join(entries) + "\n]" if entries else "[]"


# one entry of provenance_json() as json.dumps(..., indent=2) writes it
_PROVENANCE_ENTRY = '  {\n    "edge": "%d:%d",\n    "constraint": %s,\n    "loop": %s,\n    "t": %d\n  }'
_json_string = json.encoder.encode_basestring_ascii


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


def _check_graph(spec, g: LabeledGraph) -> None:
    """Refuse a graph whose node count or field differs from the code's
    (a spec, or anything else with ``n`` and ``gf``)."""
    if g.n != spec.n or g.gf != spec.gf:
        raise ValueError("graph does not match code parameters")


def oracle_decode(spec: GraphCodeSpec, g: LabeledGraph) -> DecodeReport:
    """Solve the parity checks restricted to the erased columns.

    Succeeds exactly when the erased columns of the check matrix are linearly
    independent; in that case the recovered graph is the unique codeword
    agreeing with the surviving labels.  The solve runs the spec's repair
    plan for the erasure mask.
    """
    _check_graph(spec, g)
    if not g.has_erasures:
        return DecodeReport("ok", g.copy())
    return _run_plan(spec, g, spec.repair_plan(g.erased))


def recover(spec: GraphCodeSpec, g: LabeledGraph, failed: set[int] | None, rho: int,
            plan) -> DecodeReport:
    """Decode a graph with ``rho`` failed nodes by the repair plan the family
    writes, ``plan(spec, failed)`` with the failed nodes sorted.  Other
    failure patterns, and a family that returns None, go to the oracle.  A
    graph of another node count or field is refused with a ValueError."""
    _check_graph(spec, g)
    repair = None if failed is None or len(failed) != rho else plan(spec, tuple(sorted(failed)))
    return oracle_decode(spec, g) if repair is None else _run_plan(spec, g, repair)


def _run_plan(spec: GraphCodeSpec, g: LabeledGraph, plan: RepairPlan) -> DecodeReport:
    """Recover the erased edges ``plan.erased`` of a graph by running the plan
    on its survivor syndrome.  A data fault is a report, never an exception."""
    x, reason = plan.run(survivor_syndrome(spec, g))
    if reason is not None:
        return DecodeReport("failed", None, reason=reason)
    out = g.copy()
    out.labels[plan.erased] = x
    out.erased[plan.erased] = False
    return DecodeReport("ok", out, list(plan.steps), spare_checks=spec.checks.rows - plan.erased.size)


def erased_columns_independent(spec: GraphCodeSpec, failed) -> bool:
    """Rank predicate equivalent to oracle decodability of a failure set:
    the repair plan of its erased edges has a core of full column rank.  The
    query builds its own plan and leaves the spec's plan cache alone."""
    return RepairPlan.build(spec, np.unique(neighborhood_indices(spec.n, failed))).decodable()


def erases_redundancy_nodes(spec: GraphCodeSpec, erased: np.ndarray) -> bool:
    """Whether a boolean mask erases exactly the redundancy nodes
    k_info..n-1.  In edge order their edges are every edge from position
    C(k_info+1, 2) on, the encode mask of ``systematic_erasure``."""
    start = num_edges(spec.k_info)
    return not erased[:start].any() and bool(erased[start:].all())


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
    g = LabeledGraph(spec.n, gf)
    if isinstance(info, dict):
        seen = set()
        for (i, j), value in info.items():
            k = edge_index(i, j)
            if k >= count:
                raise ValueError(f"edge ({i},{j}) is not an information edge")
            if k in seen:
                raise ValueError(f"edge ({i},{j}) is given twice")
            seen.add(k)
            g.labels[k] = gf.validate(value)
        if len(seen) != count:
            raise ValueError(f"expected {count} information labels, got {len(seen)}")
    else:
        arr = gf.validate_arr(info)
        if arr.shape != (count,):
            raise ValueError(f"expected {count} information labels, got {arr.shape}")
        g.labels[:count] = arr
    g.erased[count:] = True
    return g


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
