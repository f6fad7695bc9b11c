"""Optimal binary double-node-failure code for a prime number of nodes.

Checks come in two families over GF(2):

* row sets ``S_m``: for m < n-2 the edges joining node m to nodes 0..n-2
  (so the last node is left out), and ``S_{n-2}`` holding the self loops of
  nodes 0..n-2; n-1 checks of size n-1 each.
* diagonal sets ``D_m``: edges (k, l) with k, l != n-2 and k+l = m (mod n),
  plus the bridging edge (n-1, n-2) which belongs to every diagonal; n checks
  of size (n+1)/2 each.

Decoding a pair of failed nodes i < j < n-2 walks two zig-zag loops that
alternate a diagonal check (one new unknown, given the unknown resolved in
the previous step) with a row check (second unknown of the same row).  The
loop step is d = j - i (mod n); primality of n makes d invertible, which is
what guarantees the walk covers everything except a fixed three-edge
residual, finished off by one diagonal and two row checks.  The second loop
is the first with i and j swapped.  The spec's hook (``_plan``) writes this
walk as a repair plan, per decode, which ``framework.recover``
(``decode_double``) runs: each loop is one chain stage (over GF(2) each value
is its check's survivor sum plus the value before it), and the finish is two
peel stages.  The pair of redundancy nodes n-2 and n-1 gets a closed-form
plan (``_encode_plan``), which is also the encode plan the spec builds once.
The hook declines a pair with one of them and any other number of failed
nodes than two, which go to the oracle decoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPrimeNodeCountError, OutsideAlgorithmDomainError
from .field import field, is_prime
from .framework import (
    CHAIN,
    PEEL,
    CheckRows,
    GraphCodeSpec,
    RepairPlan,
    Stage,
    Step,
    check_matrix_size,
    encode_systematic,
    recover,
)
from .graphs import edge_index, edge_indices, neighborhood_indices, num_edges


def _check_prime(n: int) -> None:
    if n < 5 or not is_prime(n):
        raise NonPrimeNodeCountError(f"need a prime n >= 5, got {n}")


def double_parity_code(n: int) -> GraphCodeSpec:
    """The row and diagonal checks of the module docstring, written as sparse
    binary rows by edge-index arithmetic: row h < n-1 is S_h and row n-1+m
    is D_m, so n-1 rows of n-1 edges, then n rows of (n+1)/2 edges, 2n-1
    independent checks in all."""
    check_matrix_size(n, 2 * n - 1)
    _check_prime(n)
    nodes = np.arange(n)
    # row S_m, m < n-2: the edges (m, l), l = 0..n-2; S_{n-2}: the self loops
    rows = edge_indices(nodes[: n - 2, None], nodes[: n - 1])
    loops = num_edges(nodes[: n - 1]) + nodes[: n - 1]
    # diagonal D_m: the edges (k, l), k >= l, k + l = m (mod n), both != n-2,
    # in the order of k, then the bridge (n-1, n-2) at the row's end
    k = nodes[None, :]
    l = (nodes[:, None] - k) % n
    diags = np.empty((n, n + 1), dtype=np.int64)
    diags[:, :n] = num_edges(k) + l
    diags[:, n] = edge_index(n - 1, n - 2)
    keep = np.ones((n, n + 1), dtype=bool)
    keep[:, :n] = (k != n - 2) & (l != n - 2) & (k >= l)
    cols = np.concatenate([rows.ravel(), loops, diags[keep]])
    indptr = np.concatenate([nodes * (n - 1), (n - 1) ** 2 + (nodes + 1) * ((n + 1) // 2)])
    checks = CheckRows(indptr, cols, np.ones(cols.size, dtype=np.int64))
    names = [f"S_{m}" for m in range(n - 1)] + [f"D_{m}" for m in range(n)]
    return GraphCodeSpec(n, field(2), checks, family="double", k_info=n - 2,
                         row_names=names, rank=2 * n - 1, family_plan=_plan)


def _encode_plan(spec: GraphCodeSpec) -> RepairPlan:
    """The peel search's plan for nodes n-2 and n-1 failed, written by
    arithmetic.

    Erased position l is the edge (n-2, l) and position n-1+l the edge
    (n-1, l).  Stage 1: each row S_m holds one of them, (n-2, m), and
    D_{n-3} holds only the bridge (n-1, n-2), position 2n-3.  Stage 2: every
    other diagonal D_m then holds only (n-1, (m+1) mod n), which its row
    lists before the bridge.  No check is left over and every scale is 1.
    """
    n = spec.n
    bridge = 2 * n - 3
    d = np.arange(n)
    d = d[d != n - 3]
    rows = np.concatenate([np.arange(n - 1), [n - 1 + n - 3], n - 1 + d])
    targets = np.concatenate([np.arange(n - 1), [bridge], n - 1 + (d + 1) % n])
    cols = np.empty(3 * n - 2, dtype=np.int64)
    cols[:n] = targets[:n]
    cols[n::2] = targets[n:]
    cols[n + 1 :: 2] = bridge
    ones = np.ones(cols.size, dtype=np.int64)
    block = CheckRows(np.concatenate([np.arange(n), n + 2 * np.arange(n)]), cols, ones)
    return RepairPlan(spec.gf, np.arange(num_edges(n - 2), num_edges(n)),
                      (Stage(PEEL, rows[:n], targets[:n], ones[:n]),
                       Stage(PEEL, rows[n:], targets[n:], ones[n:2 * n - 1])),
                      np.zeros(0, dtype=np.int64), block)


encode_double = encode_systematic  # runs ``_encode_plan``, built once per spec


@dataclass(frozen=True, eq=False)
class ZigzagSchedule:
    """Visit order of the two decode loops for a failed pair i < j < n-2."""

    n: int
    i: int
    j: int
    d: int
    x: int
    y: int
    s1: np.ndarray  # first-loop row indices, t = 0..x
    s2: np.ndarray  # first-loop diagonal indices
    s1b: np.ndarray  # second-loop row indices, t = 0..y
    s2b: np.ndarray  # second-loop diagonal indices


def zigzag_schedule(n: int, i: int, j: int) -> ZigzagSchedule:
    _check_prime(n)
    if not (0 <= i < j <= n - 3):
        raise OutsideAlgorithmDomainError(f"pair ({i},{j}) not handled by the schedule")
    d = (j - i) % n
    dinv = pow(d, -1, n)
    x = (-1 - dinv) % n
    y = (-1 + dinv) % n
    s1 = (-d * np.arange(1, x + 2) - 2) % n
    s1b = (d * np.arange(1, y + 2) - 2) % n
    return ZigzagSchedule(n, i, j, d, x, y, s1, (s1 + j) % n, s1b, (s1b + i) % n)


decode_double = recover  # runs ``_plan`` for a failed pair, the oracle otherwise


def _plan(spec: GraphCodeSpec, failed: tuple[int, ...]) -> RepairPlan | None:
    """The zig-zag walk plus residual finish for a failed pair i < j < n-2,
    ``_encode_plan`` for the pair (n-2, n-1); None for any other pair and
    for any other number of failed nodes."""
    if len(failed) != 2:
        return None
    n = spec.n
    i, j = failed
    if j > n - 3:
        return _encode_plan(spec) if i == n - 2 else None
    sched = zigzag_schedule(n, i, j)
    stages, steps = [], []

    # step t of a loop: the diagonal D_d recovers the edge (r, b), then a row
    # check the edge (r, a), or (a, a) on the self-loop row S_{n-2} when
    # r == b.  A step with r == a has no unknown; the last (r == n-1) has no
    # row check.  Each check holds the edge before it and its own, so the
    # interleaved checks are one chain stage.
    for loop, rows, diags, a, b in ((1, sched.s1, sched.s2, i, j), (2, sched.s1b, sched.s2b, j, i)):
        keep = rows != a
        r, t, d = rows[keep], np.flatnonzero(keep), diags[keep]
        at_b = r[:-1] == b
        checks = np.empty(2 * r.size - 1, dtype=np.int64)
        edges = np.empty_like(checks)
        checks[0::2] = n - 1 + d
        checks[1::2] = np.where(at_b, n - 2, r[:-1])
        edges[0::2] = edge_indices(r, b)
        edges[1::2] = edge_indices(np.where(at_b, a, r[:-1]), a)
        stages.append((CHAIN, checks, edges, None))
        steps.append(Step(edges, spec.row_names[checks], loop, np.repeat(t, 2)[:-1], checks))

    # residual after both loops: (i, j) is the one erased edge left on
    # D_{(i+j) mod n}; then (n-2, i) and (n-2, j) on S_i and S_j
    checks = np.array([n - 1 + (i + j) % n, i, j])
    edges, ones = edge_indices([j, n - 2, n - 2], [i, i, j]), np.ones(3, dtype=np.int64)
    stages += [(PEEL, checks[:1], edges[:1], ones[:1]), (PEEL, checks[1:], edges[1:], ones[1:])]
    steps.append(Step(edges, spec.row_names[checks], "finish", np.arange(3), checks))
    return RepairPlan.staged(spec, stages, steps)


# ---------------------------------------------------------------------------
# property suites (used by tests and by the CLI verify command)


def check_set_intersections(n: int) -> list[str]:
    """Exhaustive identities on how the row and diagonal checks of
    ``double_parity_code(n)`` meet failure sets, in edge indices."""
    checks = double_parity_code(n).checks
    sets = [set(c.tolist()) for c in np.split(checks.cols, checks.indptr[1:-1])]
    rows, diags = sets[: n - 1], sets[n - 1 :]
    fail = [set(row) for row in neighborhood_indices(n, range(n)).tolist()]
    bad = []
    rng = range(n - 2)
    for i in rng:
        for j in rng:
            if i == j:
                continue
            fij = fail[i] | fail[j]
            for h in rng:
                if h in (i, j):
                    continue
                if rows[h] & fij != {edge_index(h, i), edge_index(h, j)}:
                    bad.append(f"row[{h}] vs failures ({i},{j})")
            if rows[n - 2] & fij != {edge_index(i, i), edge_index(j, j)}:
                bad.append(f"selfloop row vs failures ({i},{j})")
            m = (j - 2) % n
            if diags[m] & fij != {edge_index((j - i - 2) % n, i)}:
                bad.append(f"diag[{m}] vs failures ({i},{j})")
            m = (i + j) % n
            if diags[m] & fij != {edge_index(i, j)}:
                bad.append(f"diag[{m}] vs pair ({i},{j})")
    for i in rng:
        for s in range(n):
            if s == (i - 2) % n:
                continue
            if diags[s] & fail[i] != {edge_index((s - i) % n, i)}:
                bad.append(f"diag[{s}] vs failure {i}")
    return bad


def check_schedule_invariants(n: int) -> list[str]:
    """Exhaustive schedule sanity for every pair of information nodes."""
    _check_prime(n)
    bad = []
    for i in range(n - 2):
        for j in range(i + 1, n - 2):
            s = zigzag_schedule(n, i, j)
            a, b = set(s.s1.tolist()), set(s.s1b.tolist())
            if s.x == s.y or s.x + s.y != n - 2:
                bad.append(f"({i},{j}): loop lengths x={s.x} y={s.y}")
            if s.s1[-1] != n - 1 or s.s1b[-1] != n - 1:
                bad.append(f"({i},{j}): loops do not end at node {n - 1}")
            in_a = i in a and j in a
            in_b = i in b and j in b
            if in_a == in_b:
                bad.append(f"({i},{j}): failed pair not in exactly one loop")
            if n - 2 in a | b:
                bad.append(f"({i},{j}): schedule visits node {n - 2}")
            if len(a) != s.x + 1 or len(b) != s.y + 1 or a & b != {n - 1}:
                bad.append(f"({i},{j}): visit sets overlap incorrectly")
    return bad
