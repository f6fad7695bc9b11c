"""Optimal q-ary triple-node-failure code (q >= n+1) with a three-stage decoder.

Two ingredients over GF(q) with distinct nonzero evaluation points
a_0..a_{n-1} (code l+1 for point l):

* a neighborhood code: the edge vector of every node m < n-2 must satisfy a
  3-row Vandermonde check (any 3 erasures in a neighborhood are solvable);
* a cross-edge code on the pair edges among the first n-2 nodes plus three
  appended edges touching the last two nodes ((n-2,n-2), (n-1,n-2),
  (n-1,n-1)).  The column of pair edge (i, j) is (1, a_s, a_s^2) with
  s = i+j mod n; the appended columns are the identity.  Distinct pair sums
  make any three pair columns a Vandermonde block, and appended columns are
  unit vectors, so every erasure pattern the decoder meets is solvable.

Decoding three failed nodes: (1) every surviving neighborhood has exactly
three erasures, solve them all; (2) the cross-edge vector now has exactly
three erasures (pair edges among failed nodes and/or appended edges), solve;
(3) each failed node's neighborhood has at most three erasures left (its self
loop and its edges to the last two nodes), solve.  The same three stages
cover failures touching the last two nodes; encoding is the failure of the
redundancy nodes n-3, n-2 and n-1.  The stages are the recovery order that
``framework.recover`` runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import FieldTooSmallError
from .field import GF, Matrix, field, is_prime_power, vandermonde
from .framework import (
    CheckRows,
    DecodeReport,
    GraphCodeSpec,
    check_matrix_size,
    recover,
    systematic_codeword,
    systematic_erasure,
)
from .graphs import (
    LabeledGraph,
    edge_indices,
    failed_nodes_of,
    failure_edges,
    neighborhood,
    neighborhood_indices,
)


@dataclass(frozen=True)
class TripleParams:
    """Evaluation points, check blocks, and index tables for one (n, field)."""

    n: int
    gf: GF
    alphas: tuple  # n distinct nonzero codes, alphas[l] = l+1
    h_nbhd: np.ndarray  # 3 x n Vandermonde check of the neighborhood code
    cross_edges: tuple  # pair edges among first n-2 nodes (lex) + 3 appended
    cross_cols: np.ndarray  # edge_index of each cross edge
    h_cross: np.ndarray  # 3 x len(cross_edges)
    nbhd_cols: np.ndarray  # n x n; [m, l] = edge_index of the edge joining m, l


def smallest_field_order(n: int) -> int:
    """Smallest prime power >= n + 1 (the minimal field for this family)."""
    q = n + 1
    while not is_prime_power(q):
        q += 1
    return q


@functools.lru_cache(maxsize=None)
def _params_cached(n: int, q: int, poly) -> TripleParams:
    gf = field(q, poly)
    alphas = np.arange(1, n + 1, dtype=np.int64)
    h_nbhd = vandermonde(gf, alphas, 3).a
    k, l = np.tril_indices(n - 2, -1)  # pair edges among the first n-2 nodes, in edge order
    pt = alphas[(k + l) % n]  # the point of each pair sum
    h_cross = np.hstack([[np.ones_like(pt), pt, gf.mul_arr(pt, pt)], np.eye(3, dtype=np.int64)])
    k = np.append(k, [n - 2, n - 1, n - 1])  # the three appended edges
    l = np.append(l, [n - 2, n - 2, n - 1])
    nbhd_cols = neighborhood_indices(n, range(n))
    return TripleParams(n, gf, tuple(int(a) for a in alphas), h_nbhd,
                        tuple(zip(k.tolist(), l.tolist())), edge_indices(k, l), h_cross, nbhd_cols)


def triple_code_params(n: int, gf: GF) -> TripleParams:
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    if gf.q < n + 1:
        raise FieldTooSmallError(f"need field order >= {n + 1}, got {gf.q}")
    return _params_cached(n, gf.q, gf.poly)


def triple_parity_code(params: TripleParams) -> GraphCodeSpec:
    """Stack 3 checks per constrained neighborhood plus the 3 cross checks,
    3n-3 independent checks in all."""
    n = params.n
    check_matrix_size(n, 3 * n - 3)
    checks = CheckRows.stack(
        (np.repeat(params.nbhd_cols[: n - 2], 3, axis=0), np.tile(params.h_nbhd, (n - 2, 1))),
        (params.cross_cols[None, :], params.h_cross))
    names = [f"N_{m}[{t}]" for m in range(n - 2) for t in range(3)] + [f"P[{t}]" for t in range(3)]
    return GraphCodeSpec(n, params.gf, checks, family="triple", k_info=n - 3,
                         row_names=names, rank=3 * n - 3)


def triple_code(n: int, gf: GF | None = None) -> GraphCodeSpec:
    """Convenience builder; picks the smallest valid field when none is given."""
    check_matrix_size(n, 3 * n - 3)
    gf = gf if gf is not None else field(smallest_field_order(n))
    return triple_parity_code(triple_code_params(n, gf))


def encode_triple(spec: GraphCodeSpec, info) -> LabeledGraph:
    """Systematic encode: ``decode_triple`` recovers the failed redundancy
    nodes n-3, n-2 and n-1."""
    return systematic_codeword(decode_triple(spec, systematic_erasure(spec, info)))


def decode_triple(spec: GraphCodeSpec, g: LabeledGraph) -> DecodeReport:
    """Three-stage recovery of a three-node failure with ``framework.recover``
    (other patterns: oracle)."""
    return recover(spec, g, failed_nodes_of(g), 3, _order)


def _order(spec, work, failed, fill):
    n = spec.n
    gf = spec.gf
    params = triple_code_params(n, gf)

    # stage 1: surviving constrained neighborhoods, all with the same three
    # erased coordinates (the failed nodes); one shared 3x3 solve block
    survivors = [m for m in range(n - 2) if m not in failed]
    cols = params.nbhd_cols[survivors]  # len(survivors) x n
    syn = gf.matmul(params.h_nbhd, work.labels[cols].T)  # 3 x len(survivors), erased are 0
    x = Matrix(gf, params.h_nbhd[:, list(failed)]).solve_many(gf.neg_arr(syn))
    fill(cols[:, list(failed)].ravel(), x.T.ravel(), [f"N_{m}" for m in survivors for _ in failed],
         1, np.repeat(np.arange(len(survivors)), 3), _rows(survivors))

    # stage 2: the cross-edge vector has exactly three erasures left, the
    # pair edges among failed nodes and/or appended edges
    positions = np.flatnonzero(work.erased[params.cross_cols])
    syn = gf.dot(params.h_cross, work.labels[params.cross_cols])
    x = Matrix(gf, params.h_cross[:, positions]).solve(gf.neg_arr(syn))
    fill(params.cross_cols[positions], x, "P", 2, np.arange(positions.size), _rows([n - 2]))

    # stage 3: each failed constrained neighborhood has <= 3 erasures left,
    # its self loop among them
    for t, m in enumerate(m for m in failed if m < n - 2):
        coords = np.flatnonzero(work.erased[params.nbhd_cols[m]])
        syn = gf.dot(params.h_nbhd, work.labels[params.nbhd_cols[m]])
        x = Matrix(gf, params.h_nbhd[:, coords]).solve(gf.neg_arr(syn))
        fill(params.nbhd_cols[m, coords], x, f"N_{m}", 3, t, _rows([m]))


def _rows(blocks) -> np.ndarray:
    """The check rows of the given 3-row blocks: N_m is block m < n-2, and P
    block n-2."""
    return (3 * np.asarray(blocks, dtype=np.int64)[:, None] + np.arange(3)).ravel()


# ---------------------------------------------------------------------------
# property suites


def check_cross_independence(n: int, gf: GF) -> list[str]:
    """Any three pair-edge columns of the cross check are independent, and the
    three pair sums behind them are pairwise distinct mod n."""
    params = triple_code_params(n, gf)
    npairs = len(params.cross_edges) - 3
    by_edge = {e: c for c, e in enumerate(params.cross_edges[:npairs])}
    bad = []
    for k in range(n - 2):
        for j in range(k):
            for i in range(j):
                sums = {(i + j) % n, (i + k) % n, (j + k) % n}
                if len(sums) != 3:
                    bad.append(f"pair sums collide for ({i},{j},{k})")
                cols = [by_edge[(j, i)], by_edge[(k, i)], by_edge[(k, j)]]
                m = Matrix(gf, params.h_cross[:, cols])
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
