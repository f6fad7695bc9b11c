"""Erasure codes over edge-labeled complete graphs with self loops.

Codewords are labelings of the C(n+1,2) edges (self loops included) of the
complete graph on n nodes.  A node failure erases the node's whole
neighborhood; the families here recover one, two, three, or n-2 failed nodes
with small fields, and a generic oracle decoder doubles as ground truth.
"""

from .errors import (
    ErasedAccessError,
    FieldTooSmallError,
    GraphCodeError,
    InconsistentSystemError,
    NonPrimeNodeCountError,
    NoSuchCodeError,
    NotSystematicError,
    OutsideAlgorithmDomainError,
    SingularSystemError,
    TooLargeError,
    UnderdeterminedSystemError,
    ZeroInversionError,
)
from .field import GF, Matrix, field, parse_field, vandermonde
from .graphs import (
    LabeledGraph,
    edge_at,
    edge_index,
    failed_nodes_of,
    failure_edges,
    neighborhood,
    neighborhood_indices,
    normalize_edge,
    num_edges,
)
from .framework import (
    CheckRows,
    CodeMetrics,
    DecodeReport,
    GraphCodeSpec,
    ProvenanceEntry,
    Step,
    encode_systematic,
    erased_columns_independent,
    erased_edge_bound,
    is_codeword,
    metrics,
    oracle_decode,
    random_codeword,
    syndrome,
    verify_exhaustive,
)
from .single import decode_single, single_parity_code
from .double import (
    ZigzagSchedule,
    decode_double,
    double_parity_code,
    encode_double,
    zigzag_schedule,
)
from .triple import decode_triple, encode_triple, smallest_field_order, triple_code
from .extreme import (
    ExtremeGenerator,
    build_generator,
    check_generator,
    code_exists,
    count_distinct_codes,
    count_exhaustive,
    count_formula,
    decode_pair,
    decode_surviving_graph,
    encode_message,
    estimate_rate_montecarlo,
)

__version__ = "0.1.0"
