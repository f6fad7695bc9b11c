"""Complete edge-labeled graphs with self loops, stored as the lower triangle.

Edges are unordered pairs; the canonical name of an edge is (i, j) with
i >= j, and the lexicographic position of that pair in the full edge list is
``edge_index(i, j) = i*(i+1)//2 + j``.  A node failure erases the node's whole
neighborhood; erasure is tracked with a mask rather than a sentinel value
because 0 is a perfectly legal label.
"""

from __future__ import annotations

import itertools
import json
import math
import operator

import numpy as np

from .errors import ErasedAccessError
from .field import GF, parse_field

MIN_NODES = 3
MAX_NODES = 10_000

TEXT_MAGIC = "graphcode-v1"


def check_node_count(n: int) -> int:
    if not MIN_NODES <= n <= MAX_NODES:
        raise ValueError(f"node count must be in [{MIN_NODES}, {MAX_NODES}], got {n}")
    return n


def num_edges(n: int) -> int:
    """Number of edges of the complete graph with self loops: C(n+1, 2)."""
    return n * (n + 1) // 2


def normalize_edge(i: int, j: int) -> tuple[int, int]:
    """Canonical (i, j) with i >= j; (i, j) and (j, i) name the same edge."""
    if i < 0 or j < 0:
        raise ValueError(f"negative node index in edge ({i}, {j})")
    return (i, j) if i >= j else (j, i)


def edge_index(i: int, j: int) -> int:
    """Position of edge (i, j) in the lexicographic lower-triangle order."""
    i, j = normalize_edge(i, j)
    return num_edges(i) + j


def edge_at(k: int) -> tuple[int, int]:
    """Inverse of edge_index."""
    if k < 0:
        raise ValueError("edge index must be nonnegative")
    i = (math.isqrt(8 * k + 1) - 1) // 2
    return i, k - num_edges(i)


def edge_indices(i, j) -> np.ndarray:
    """Array form of edge_index: the positions of the edges (i, j), given in
    either order, elementwise with broadcasting (no range checks)."""
    i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
    return num_edges(np.maximum(i, j)) + np.minimum(i, j)


def edge_pairs(k) -> tuple[np.ndarray, np.ndarray]:
    """Array form of edge_at: the edges (i, j), i >= j, at the nonnegative
    positions k.  The float root is corrected by one where it rounds across
    a row boundary, so every k < num_edges(MAX_NODES) is exact."""
    k = np.asarray(k, dtype=np.int64)
    i = ((np.sqrt(8 * k + 1) - 1) // 2).astype(np.int64)
    i += num_edges(i + 1) <= k
    i -= num_edges(i) > k
    return i, k - num_edges(i)


def edges_at(k) -> list[tuple[int, int]]:
    """The edges at the positions k, as a list of (i, j) tuples."""
    i, j = edge_pairs(k)
    return list(zip(i.tolist(), j.tolist()))


def neighborhood(n: int, m: int) -> list[tuple[int, int]]:
    """The n edges incident to node m, in lexicographic order.

    Entry l of the result is the edge joining node m and node l.
    """
    check_node_count(n)
    return edges_at(neighborhood_indices(n, [m])[0])


def neighborhood_indices(n: int, nodes) -> np.ndarray:
    """Edge indices of the neighborhoods of ``nodes``, one row per node:
    entry [k, l] is edge_index(nodes[k], l), by arithmetic."""
    m = np.array([operator.index(v) for v in nodes], dtype=np.int64).reshape(-1, 1)
    bad = m[(m < 0) | (m >= n)]
    if bad.size:
        raise ValueError(f"node {bad[0]} out of range for n={n}")
    return edge_indices(m, np.arange(n))


def pair_indices(n: int, pairs) -> np.ndarray:
    """Edge indices of node pairs given in either order (an m x 2 array, or a
    list of pairs), in one pass; the first pair with a negative node, or a
    node outside range(n), is refused with ``normalize_edge``'s message or a
    range message."""
    pairs = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
    if not pairs.size:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be given as node pairs")
    i, j = np.maximum(pairs[:, 0], pairs[:, 1]), np.minimum(pairs[:, 0], pairs[:, 1])
    bad = (j < 0) | (i >= n)
    if bad.any():
        k = bad.argmax()
        if j[k] < 0:
            raise ValueError(f"negative node index in edge ({pairs[k, 0]}, {pairs[k, 1]})")
        raise ValueError(f"node {i[k]} out of range for n={n}")
    return num_edges(i) + j


def failure_edges(n: int, failed) -> list[tuple[int, int]]:
    """Union of the neighborhoods of the failed nodes, in lexicographic order."""
    check_node_count(n)
    return edges_at(np.unique(neighborhood_indices(n, set(failed))))


# -- the written forms: triangular rows of labels, "i:j" edge names --------------


def read_ints(tokens) -> np.ndarray:
    """The token rule of every file format: each token is a base-10 integer
    as Python's ``int`` reads it, within int64; all go through one numpy pass."""
    try:
        return np.array(tokens, dtype=np.int64)
    except OverflowError:
        raise ValueError("a number in the file is outside the int64 range") from None


def read_rows(rows: list, count: int, rows_error: str = "expected {count} label rows, got {got}",
              row_error: str = "row {i} must have {size} entries, got {got}",
              error: type = ValueError) -> list:
    """The entries of ``count`` triangular rows, row i a list of i+1 of them,
    in edge order; another row count, or a row of another length, raises
    ``error`` with the message ``rows_error`` or ``row_error``."""
    if len(rows) != count:
        raise error(rows_error.format(count=count, got=len(rows)))
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != i + 1:
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise error(row_error.format(i=i, size=i + 1, got=got))
    return list(itertools.chain.from_iterable(rows))


def write_rows(labels: np.ndarray, count: int) -> list[list[int]]:
    """Rows 0..count-1 of the lower triangle of a label vector, row i holding
    the labels of edges (i, 0)..(i, i), as lists of ints."""
    flat = labels.tolist()
    return [flat[num_edges(i) : num_edges(i + 1)] for i in range(count)]


def write_text_rows(labels: np.ndarray, count: int, codes: np.ndarray) -> str:
    """The same rows as text, in one pass: each label written as its entry of
    the code table ``codes`` (``GF.code_strings``), the labels of a row
    separated by spaces, and every row ending in a newline."""
    t, width = num_edges(count), codes.itemsize
    cells = np.empty((t, width + 1), dtype=np.uint8)
    cells[:, :width] = codes[labels[:t]].view(np.uint8).reshape(t, width)
    cells[:, width] = ord(" ")
    cells[num_edges(np.arange(1, count + 1)) - 1, width] = ord("\n")
    flat = cells.ravel()
    return flat[flat != 0].tobytes().decode("ascii")  # without the NUL padding


def _plain_tokens(text: str, seps: bytes):
    """The token rule on plain text, in one numpy pass over its bytes.

    When ``text`` holds only ASCII digits and the separator bytes ``seps``,
    and no token is longer than 18 digits (so every value fits in int64),
    returns the bytes, the start and end offsets of the tokens, and their
    values, which are what ``read_ints`` gives.  Returns None for any other
    text, which is left to the full rule."""
    if not text.isascii():
        return None
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    d = b - np.uint8(ord("0"))
    digit = d < 10
    plain = digit.copy()
    for sep in seps:
        plain |= b == sep
    if not plain.all():
        return None
    padded = np.zeros(b.size + 2, dtype=bool)
    padded[1:-1] = digit
    bounds = np.flatnonzero(padded[1:] != padded[:-1])  # where runs of digits start and end
    starts, ends = bounds[0::2], bounds[1::2]
    width = ends - starts
    longest = width.max(initial=0)
    if longest > 18:
        return None
    values = d[starts].astype(np.int64)
    for k in range(1, longest):  # Horner, one digit place of every longer token at a time
        at = np.flatnonzero(width > k)
        values[at] = values[at] * 10 + d[starts[at] + k]
    return b, starts, ends, values


def read_plain_rows(text: str, count: int) -> np.ndarray | None:
    """``read_ints(read_rows(...))`` of the non-blank lines of a plain text
    (digits, spaces and newlines): the entries of ``count`` triangular rows
    in edge order.  None for any other text, and for rows of other lengths,
    which the full rule reads and refuses with its messages."""
    scan = _plain_tokens(text, b" \n")
    if scan is None:
        return None
    b, starts, _, values = scan
    before = np.searchsorted(starts, np.flatnonzero(b == ord("\n")))  # tokens before each newline
    per_line = np.diff(np.concatenate(([0], before, [starts.size])))
    rows = per_line[per_line != 0]
    if rows.size != count or not (rows == np.arange(1, count + 1)).all():
        return None
    return values


def read_plain_names(text: str) -> np.ndarray | None:
    """``read_edge_names`` of a plain comma-separated name list "i:j,i:j":
    the node pairs, m x 2.  None for any other text."""
    scan = _plain_tokens(text, b":,")
    if scan is None:
        return None
    b, starts, ends, values = scan
    seps = b[ends[:-1]]
    # every separator byte sits between two tokens, and they go ':' ',' ':'
    if (b.size and (values.size % 2 or not values.size or starts[0] != 0 or ends[-1] != b.size
                    or not (starts[1:] == ends[:-1] + 1).all()
                    or not (seps[0::2] == ord(":")).all() or not (seps[1::2] == ord(",")).all())):
        return None
    return values.reshape(-1, 2)


def edge_name(i: int, j: int) -> str:
    """The written name of edge (i, j)."""
    return f"{i}:{j}"


def _edge_name_tokens(names: list[str]) -> list[str]:
    parts = [name.split(":") for name in names]
    for name, part in zip(names, parts):
        if len(part) != 2:
            raise ValueError(f"edge name {name!r} is not of the form i:j")
    return list(itertools.chain.from_iterable(parts))


def read_edge_names(names: list[str]) -> np.ndarray:
    """The node pairs of "i:j" edge names, an m x 2 int64 array in the order
    written (not normalized, not range-checked)."""
    return read_ints(_edge_name_tokens(names)).reshape(-1, 2)


class LabeledGraph:
    """A complete graph on n nodes with field-valued edge labels.

    Labels live in ``labels`` (numpy int64, length C(n+1,2), lexicographic
    edge order); ``erased`` is a boolean mask of the same length.  Masked
    positions always store 0 so equal graphs compare equal bit-for-bit.
    Public operations are pure; decoders mutate only their own copies.
    """

    __slots__ = ("n", "gf", "labels", "erased")

    def __init__(self, n: int, gf: GF, labels=None, erased=None):
        check_node_count(n)
        self.n = n
        self.gf = gf
        t = num_edges(n)
        if labels is None:
            self.labels = np.zeros(t, dtype=np.int64)
        else:
            arr = gf.validate_arr(labels)
            if arr.shape != (t,):
                raise ValueError(f"expected {t} labels, got {arr.shape}")
            self.labels = arr
        mask = np.zeros(t, dtype=bool)
        if erased is not None:
            if isinstance(erased, np.ndarray) and erased.dtype == bool:
                if erased.shape != (t,):
                    raise ValueError("bad erasure mask shape")
                mask |= erased
            else:
                mask[pair_indices(n, erased)] = True
        self.erased = mask
        self.labels[self.erased] = 0

    # -- access ---------------------------------------------------------------

    def _index(self, i: int, j: int) -> int:
        i, j = normalize_edge(i, j)
        if i >= self.n:
            raise ValueError(f"node {i} out of range for n={self.n}")
        return num_edges(i) + j

    def label(self, i: int, j: int) -> int:
        k = self._index(i, j)
        if self.erased[k]:
            raise ErasedAccessError(f"edge ({i},{j}) is erased")
        return int(self.labels[k])

    def erased_edges(self) -> list[tuple[int, int]]:
        return edges_at(np.flatnonzero(self.erased))

    @property
    def has_erasures(self) -> bool:
        return bool(self.erased.any())

    # -- pure operations --------------------------------------------------------

    def copy(self) -> "LabeledGraph":
        """A copy of the arrays; the labels were validated when they were set."""
        out = object.__new__(LabeledGraph)
        out.n, out.gf, out.labels, out.erased = self.n, self.gf, self.labels.copy(), self.erased.copy()
        return out

    def erase_nodes(self, failed) -> "LabeledGraph":
        """Copy of the graph with every edge of the failed nodes erased."""
        out = self.copy()
        out.erased[neighborhood_indices(self.n, failed)] = True
        out.labels[out.erased] = 0
        return out

    def __eq__(self, other):
        return (
            isinstance(other, LabeledGraph)
            and self.n == other.n
            and self.gf == other.gf
            and bool(np.array_equal(self.labels, other.labels))
            and bool(np.array_equal(self.erased, other.erased))
        )

    def __repr__(self):
        er = int(self.erased.sum())
        return f"LabeledGraph(n={self.n}, {self.gf.name}, erased={er})"

    # -- serialization ------------------------------------------------------------

    def to_text(self) -> str:
        head = f"{TEXT_MAGIC} n={self.n} field={self.gf.name}\n"
        if self.has_erasures:
            i, j = edge_pairs(np.flatnonzero(self.erased))
            head += "erased=" + ",".join(map(edge_name, i.tolist(), j.tolist())) + "\n"
        return head + write_text_rows(self.labels, self.n, self.gf.code_strings)

    @classmethod
    def from_text(cls, text: str) -> "LabeledGraph":
        """Read the text form.  A plain file, whose first line is the header
        and whose names and rows hold only digits and their separators, is
        read in one pass; any other text goes through the full token rule,
        which gives the same graph or the same error."""
        head, _, rest = text.partition("\n")
        if head.strip() and head.isprintable():  # the first line, as splitlines() cuts it
            n, gf = _read_header(head)
            names, body = "", rest
            if rest.startswith("erased="):
                names, _, body = rest[len("erased=") :].partition("\n")
            pairs, labels = read_plain_names(names), read_plain_rows(body, n)
            if pairs is not None and labels is not None:
                return cls._read(n, gf, labels, pairs)
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty graph file")
        n, gf = _read_header(lines[0])
        body = lines[1:]
        names = []
        if body and body[0].startswith("erased="):
            spec = body[0][len("erased=") :]
            names = spec.split(",") if spec else []
            body = body[1:]
        name_tokens = _edge_name_tokens(names)
        ints = read_ints(name_tokens + read_rows([ln.split() for ln in body], n))
        k = len(name_tokens)
        return cls._read(n, gf, ints[k:], ints[:k].reshape(-1, 2))

    def to_json_obj(self) -> dict:
        return {
            "version": TEXT_MAGIC,
            "n": self.n,
            "field": self.gf.name,
            "erased": [edge_name(*e) for e in self.erased_edges()],
            "rows": write_rows(self.labels, self.n),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LabeledGraph":
        if obj.get("version") != TEXT_MAGIC:
            raise ValueError(f"bad version {obj.get('version')!r}")
        n = _json_value(obj, "n", int)
        gf = parse_field(_json_value(obj, "field", str))
        items = _json_value(obj, "erased", list, default=[])
        named = iter(read_edge_names([v for v in items if isinstance(v, str)]).tolist())
        pairs = [next(named) if isinstance(v, str) else v for v in items]
        for item in pairs:
            if not (isinstance(item, list) and len(item) == 2
                    and all(type(v) is int for v in item)):
                raise ValueError(f"erased edge {item!r} is not a pair of nodes")
        values = read_rows(_json_value(obj, "rows", list), n, "expected {count} rows, got {got}",
                           "row {i} must be a list of {size} entries")
        return cls._read(n, gf, values, read_ints(pairs).reshape(-1, 2))

    @classmethod
    def _read(cls, n: int, gf: GF, labels, pairs: np.ndarray) -> "LabeledGraph":
        """The graph of a file: its labels, with the edges of the node pairs
        ``pairs`` erased; an edge named twice is refused."""
        g = cls(n, gf, labels, pairs)
        if np.count_nonzero(g.erased) != len(pairs):
            k = edge_indices(pairs[:, 0], pairs[:, 1])
            order = np.argsort(k, kind="stable")
            again = order[1:][k[order[1:]] == k[order[:-1]]]  # every naming after an edge's first
            i, j = pairs[again.min()]
            raise ValueError(f"erased edge {edge_name(i, j)} is named twice")
        return g

    @classmethod
    def from_string(cls, data: str) -> "LabeledGraph":
        """Parse either the text format or its JSON mirror."""
        if data.lstrip().startswith("{"):
            return cls.from_json_obj(json.loads(data))
        return cls.from_text(data)

    def save(self, path) -> None:
        """Write the text form to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def _read_header(line: str) -> tuple[int, GF]:
    """The node count and field of the header line of the text form."""
    head = line.split()
    if (len(head) != 3 or head[0] != TEXT_MAGIC or not head[1].startswith("n=")
            or not head[2].startswith("field=")):
        raise ValueError(f"bad header {line!r}")
    return int(head[1][2:]), parse_field(head[2][6:])


def _json_value(obj: dict, key: str, kind: type, default=None):
    """``obj[key]`` (``default`` when missing), refused unless of type ``kind``."""
    value = obj.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"graph key {key!r} must be of type {kind.__name__}, got {value!r}")
    return value


def failed_nodes_of(g: LabeledGraph) -> set[int] | None:
    """The failed-node set when the erasure mask is a union of neighborhoods.

    A node is failed exactly when its self loop is erased (self loops belong
    to a single neighborhood).  Returns None when the mask is not a node
    failure pattern.
    """
    nodes = np.arange(g.n)
    failed = np.flatnonzero(g.erased[num_edges(nodes + 1) - 1])  # self loop (i, i), last of row i
    f = failed.size
    # f neighborhoods hold f*n - C(f, 2) edges: the mask is their union
    # exactly when it has that many bits and every one of theirs is set
    if np.count_nonzero(g.erased) != f * g.n - f * (f - 1) // 2:
        return None
    if not g.erased[edge_indices(failed[:, None], nodes)].all():
        return None
    return set(failed.tolist())
