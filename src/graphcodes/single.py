"""Single-node-failure code: every neighborhood sums to zero.

One parity check per node over its n incident edges (self loop included).
The n checks are independent, so the redundancy is n, which meets the
erased-edge lower bound for one failure.  The same check matrix is valid
over any field; the classic instance is binary.

The spec's hook (``_plan``) writes the repair plan of a failed node, two
peel stages, which ``framework.recover`` (``decode_single``) runs: each edge
of the failed node from its partner's parity, then the self loop from the
node's own.  The hook declines two or more failed nodes, which go to the
oracle.  Encoding runs the plan of node n-1, which the spec builds once.
"""

from __future__ import annotations

import numpy as np

from .field import GF, field
from .framework import (
    PEEL,
    CheckRows,
    GraphCodeSpec,
    RepairPlan,
    Step,
    check_matrix_size,
    recover,
)
from .graphs import edge_index, edge_indices, neighborhood_indices


def single_parity_code(n: int, gf: GF | None = None) -> GraphCodeSpec:
    """Code whose checks are the n neighborhood parities."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    check_matrix_size(n, n)
    gf = gf if gf is not None else field(2)
    checks = CheckRows.stack((neighborhood_indices(n, range(n)), 1))
    return GraphCodeSpec(n, gf, checks, family="single", k_info=n - 1,
                         row_names=[f"N_{m}" for m in range(n)], rank=n, family_plan=_plan)


decode_single = recover  # runs ``_plan`` for one failed node, the oracle otherwise


def _plan(spec: GraphCodeSpec, failed: tuple[int, ...]) -> RepairPlan | None:
    """Peel the failed node i: each cross edge (i, l) from the partner's
    parity N_l, then the self loop from i's own parity; None for any other
    number of failed nodes."""
    if len(failed) != 1:
        return None
    (i,) = failed
    n = spec.n
    scale = np.full(n, spec.gf.neg(1))  # every coefficient is 1
    others, own = np.delete(np.arange(n), i), np.array([i])
    cross, loop = edge_indices(i, others), np.array([edge_index(i, i)])
    return RepairPlan.staged(spec, [(PEEL, others, cross, scale[1:]), (PEEL, own, loop, scale[:1])],
                             [Step(cross, spec.row_names[others], 1, np.arange(n - 1), others),
                              Step(loop, spec.row_names[i], 1, n - 1, own)])
