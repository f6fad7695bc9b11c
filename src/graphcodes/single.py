"""Single-node-failure code: every neighborhood sums to zero.

One parity check per node over its n incident edges (self loop included).
The n checks are independent, so the redundancy is n, which meets the
erased-edge lower bound for one failure.  The same check matrix is valid
over any field; the classic instance is binary.

The decoder is a recovery order run by ``framework.recover``: each edge of
the failed node from its partner's parity, then the self loop.
"""

from __future__ import annotations

import numpy as np

from .field import GF, field
from .framework import (
    CheckRows,
    DecodeReport,
    GraphCodeSpec,
    check_matrix_size,
    recover,
    survivor_syndrome,
)
from .graphs import LabeledGraph, edge_index, edge_indices, failed_nodes_of, neighborhood_indices


def single_parity_code(n: int, gf: GF | None = None) -> GraphCodeSpec:
    """Code whose checks are the n neighborhood parities."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    check_matrix_size(n, n)
    gf = gf if gf is not None else field(2)
    checks = CheckRows.stack((neighborhood_indices(n, range(n)), 1))
    return GraphCodeSpec(n, gf, checks, family="single", k_info=n - 1,
                         row_names=[f"N_{m}" for m in range(n)], rank=n)


def decode_single(spec: GraphCodeSpec, g: LabeledGraph) -> DecodeReport:
    """Recover one failed node with ``framework.recover`` (any other erasure
    pattern goes to the oracle decoder)."""
    return recover(spec, g, failed_nodes_of(g), 1, _order)


def _order(spec, work, failed, fill):
    """Peel the failed node i: each cross edge (i, l) from the partner's
    parity N_l, then the self loop from i's own parity."""
    (i,) = failed
    gf = spec.gf
    others = np.delete(np.arange(spec.n), i)
    syn = survivor_syndrome(spec, work)
    fill(edge_indices(i, others), gf.neg_arr(syn[others]), spec.row_names[others], 1,
         np.arange(spec.n - 1), others)
    fill([edge_index(i, i)], [gf.neg(int(spec.checks.sums(gf, work.labels, i, i + 1)[0]))],
         spec.row_names[i], 1, spec.n - 1, [i])
