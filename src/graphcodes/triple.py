"""Optimal q-ary triple-node-failure code (q >= n+1) with a three-stage decoder.

The code is its 3n-3 check rows over GF(q), with the distinct nonzero
points a_l = l+1:

* rows 3m..3m+2, for m < n-2, are N_m[t]: coefficient a_l^t on edge (m, l),
  l = 0..n-1, a Vandermonde check of node m's neighborhood (any 3 erasures
  in a neighborhood are solvable);
* rows 3n-6..3n-4 are the cross check P[t]: coefficient s^t with
  s = a_{(k+l) mod n} on each pair edge (k, l), l < k < n-2, in edge order,
  then 1 on appended edge t, which is (n-2,n-2), (n-1,n-2) or (n-1,n-1).
  Distinct pair sums make any three pair columns a Vandermonde block, and
  appended columns are unit vectors, so every erasure pattern the decoder
  meets is solvable.

Decoding three failed nodes: (1) every surviving neighborhood has exactly
three erasures, solve them all; (2) the cross-edge vector now has exactly
three erasures (pair edges among failed nodes and/or appended edges), solve;
(3) each failed node's neighborhood has exactly three erasures left (its self
loop and its edges to the last two nodes), solve.  The same three stages
cover failures touching the last two nodes.  The stages are the solve stages
of a repair plan, which the spec's hook (``_plan``) writes per decode and
``framework.recover`` (``decode_triple``) runs; their 3x3 blocks are cut from
the check rows.  The hook declines any other number of failed nodes than
three, and a spec whose N_m blocks differ from N_0's; those go to the
oracle.  Encoding is the failure of the redundancy nodes n-3, n-2 and n-1,
whose plan the spec builds once.
"""

from __future__ import annotations

import numpy as np

from .errors import FieldTooSmallError
from .field import GF, Matrix, field, is_prime_power, vandermonde
from .framework import (
    SOLVE,
    CheckRows,
    GraphCodeSpec,
    RepairPlan,
    Step,
    check_matrix_size,
    encode_systematic,
    recover,
)
from .graphs import (
    edge_index,
    edge_indices,
    failure_edges,
    neighborhood,
    neighborhood_indices,
    num_edges,
)


def smallest_field_order(n: int) -> int:
    """Smallest prime power >= n + 1 (the minimal field for this family)."""
    q = n + 1
    while not is_prime_power(q):
        q += 1
    return q


def triple_code(n: int, gf: GF | None = None) -> GraphCodeSpec:
    """The code's rows for n >= 5 nodes over a field of order >= n+1 (the
    smallest one when none is given); the module docstring gives the layout."""
    check_matrix_size(n, 3 * n - 3)
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    gf = gf if gf is not None else field(smallest_field_order(n))
    if gf.q < n + 1:
        raise FieldTooSmallError(f"need field order >= {n + 1}, got {gf.q}")
    a = np.arange(1, n + 1, dtype=np.int64)
    k, l = np.tril_indices(n - 2, -1)  # pair edges among the first n-2 nodes, in edge order
    s = a[(k + l) % n]  # the point of each pair sum
    appended = edge_indices([n - 2, n - 1, n - 1], [n - 2, n - 2, n - 1])
    checks = CheckRows.stack(
        (np.repeat(neighborhood_indices(n, range(n - 2)), 3, axis=0),
         np.tile(vandermonde(gf, a, 3), (n - 2, 1))),
        (np.hstack([np.tile(edge_indices(k, l), (3, 1)), appended[:, None]]),
         np.hstack([[np.ones_like(s), s, gf.mul_arr(s, s)], np.ones((3, 1), dtype=np.int64)])))
    names = [f"N_{m}[{t}]" for m in range(n - 2) for t in range(3)] + [f"P[{t}]" for t in range(3)]
    return GraphCodeSpec(n, gf, checks, family="triple", k_info=n - 3,
                         row_names=names, rank=3 * n - 3, family_plan=_plan)


encode_triple = encode_systematic  # runs the three stages for nodes n-3..n-1, built once per spec


decode_triple = recover  # runs ``_plan`` for three failed nodes, the oracle otherwise


def _cross_block(spec: GraphCodeSpec):
    """The P rows as one dense block, cut from the rows by ``triple_code``'s
    layout: the cross edges (pair edges, then the three appended ones) and
    their 3 x len(edges) coefficients."""
    lo = 3 * spec.n * (spec.n - 2)
    cols, coefs = spec.checks.cols[lo:].reshape(3, -1), spec.checks.coefs[lo:].reshape(3, -1)
    return np.append(cols[0, :-1], cols[:, -1]), np.hstack([coefs[:, :-1], np.diag(coefs[:, -1])])


def _plan(spec: GraphCodeSpec, failed: tuple[int, ...]) -> RepairPlan | None:
    """The three stages as solve stages, their blocks cut from the rows as
    views; None for any other number of failed nodes than three, and when an
    N_m block does not carry N_0's coefficients, which the shared solves
    assume."""
    n = spec.n
    v = spec.checks.coefs[: 3 * n * (n - 2)].reshape(n - 2, 3, n)
    if len(failed) != 3 or (v != v[0]).any():
        return None
    v = v[0]
    nbhd = spec.checks.cols[: 3 * n * (n - 2)].reshape(n - 2, 3, n)[:, 0]  # edge (m, l) at column l
    cross, h_cross = _cross_block(spec)
    blocks = 3 * np.arange(n - 1)[:, None] + np.arange(3)  # the rows of N_m, m < n-2, then of P
    f = list(failed)
    erased = np.zeros(num_edges(n), dtype=bool)
    erased[neighborhood_indices(n, f)] = True

    # stage 1: surviving constrained neighborhoods, all with the same three
    # erased coordinates (the failed nodes); one shared 3x3 solve block
    survivors = np.array([m for m in range(n - 2) if m not in failed], dtype=np.int64)
    rows, targets = blocks[survivors].ravel(), nbhd[survivors][:, f]
    stages = [(SOLVE, rows, targets, v[:, f])]
    steps = [Step(targets.ravel(), [f"N_{m}" for m in survivors.tolist() for _ in f], 1,
                  np.repeat(np.arange(survivors.size), 3), rows)]

    # stage 2: the cross-edge vector has exactly three erasures left, the
    # pair edges among failed nodes and/or appended edges
    erased[targets] = False
    positions = np.flatnonzero(erased[cross])
    stages.append((SOLVE, blocks[n - 2], cross[positions][None, :], h_cross[:, positions]))
    steps.append(Step(cross[positions], "P", 2, np.arange(positions.size), blocks[n - 2]))

    # stage 3: each failed constrained neighborhood has exactly three
    # erasures left: its self loop and its edges to nodes n-2 and n-1
    for t, m in enumerate(m for m in f if m < n - 2):
        coords = np.array([m, n - 2, n - 1])
        stages.append((SOLVE, blocks[m], nbhd[m, coords][None, :], v[:, coords]))
        steps.append(Step(nbhd[m, coords], f"N_{m}", 3, t, blocks[m]))
    return RepairPlan.staged(spec, stages, steps)


# ---------------------------------------------------------------------------
# property suites


def check_cross_independence(n: int, gf: GF) -> list[str]:
    """Any three pair-edge columns of the cross check (the P rows of
    ``triple_code(n, gf)``) are independent, and the three pair sums behind
    them are pairwise distinct mod n."""
    cross, h_cross = _cross_block(triple_code(n, gf))
    by_edge = {e: c for c, e in enumerate(cross[:-3].tolist())}
    bad = []
    for k in range(n - 2):
        for j in range(k):
            for i in range(j):
                sums = {(i + j) % n, (i + k) % n, (j + k) % n}
                if len(sums) != 3:
                    bad.append(f"pair sums collide for ({i},{j},{k})")
                cols = [by_edge[edge_index(j, i)], by_edge[edge_index(k, i)], by_edge[edge_index(k, j)]]
                m = Matrix(gf, h_cross[:, cols])
                if m.rank() != 3:
                    bad.append(f"dependent cross columns for ({i},{j},{k})")
    return bad


def check_neighborhood_overlap(n: int) -> list[str]:
    """A surviving node's neighborhood meets three failed neighborhoods in
    exactly three edges."""
    import itertools

    bad = []
    for trip in itertools.combinations(range(n), 3):
        fset = set(failure_edges(n, trip))
        for m in range(n):
            if m in trip:
                continue
            hit = len(fset & set(neighborhood(n, m)))
            if hit != 3:
                bad.append(f"node {m} overlaps failures {trip} in {hit} edges")
    return bad
