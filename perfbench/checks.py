"""Output checks written from the paper's check equations, not from the library.

Labels are read in the file format's lower-triangle row-major order: edge
{i, j} with i >= j sits at position i*(i+1)/2 + j.  Every check is a list of
(position, coefficient) pairs whose field sum must vanish on a codeword.  Field
addition in GF(2) and GF(2^m) is XOR, and products come from a table built
with this module's own carry-less multiply, so no library arithmetic is used.
"""

from __future__ import annotations

import json

import numpy as np

# x^5 + x^2 + 1: the primitive polynomial with the least code for GF(32).
GF32_POLY = 0b100101


class CheckFailed(Exception):
    pass


def eidx(i: int, j: int) -> int:
    if i < j:
        i, j = j, i
    return i * (i + 1) // 2 + j


def edges_of_nodes(n: int, failed) -> set[tuple[int, int]]:
    """Edges {i, j} (as i >= j) that touch a failed node."""
    out = set()
    for m in failed:
        for l in range(n):
            out.add((max(m, l), min(m, l)))
    return out


def gf2m_mul(a: int, b: int, poly: int, m: int) -> int:
    """Carry-less product of two m-bit codes reduced by poly."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> m) & 1:
            a ^= poly
    return r


class CheckSystem:
    """Sparse checks over GF(2^m); ``syndrome(labels)`` is zero on codewords."""

    def __init__(self, n: int, m: int, poly: int, checks: list[list[tuple[int, int]]]):
        self.n = n
        q = 1 << m
        self.table = np.array([[gf2m_mul(a, b, poly, m) for b in range(q)] for a in range(q)],
                              dtype=np.int64)
        self.pos = np.array([p for chk in checks for p, _ in chk], dtype=np.int64)
        self.coef = np.array([c for chk in checks for _, c in chk], dtype=np.int64)
        self.starts = np.cumsum([0] + [len(chk) for chk in checks[:-1]])

    def syndrome(self, labels: np.ndarray) -> np.ndarray:
        prods = self.table[self.coef, labels[self.pos]]
        return np.bitwise_xor.reduceat(prods, self.starts)

    def holds(self, labels: np.ndarray) -> bool:
        return not self.syndrome(labels).any()


def double_checks(n: int) -> CheckSystem:
    """Row sets S_0..S_{n-2} and diagonals D_0..D_{n-1} of the binary code."""
    checks = [[(eidx(m, l), 1) for l in range(n - 1)] for m in range(n - 2)]
    checks.append([(eidx(l, l), 1) for l in range(n - 1)])
    for m in range(n):
        diag = {eidx(n - 1, n - 2)}
        for k in range(n):
            l = (m - k) % n
            if k != n - 2 and l != n - 2:
                diag.add(eidx(k, l))
        checks.append([(p, 1) for p in sorted(diag)])
    return CheckSystem(n, 1, 0b11, checks)


def triple_checks(n: int, m: int = 5, poly: int = GF32_POLY) -> CheckSystem:
    """Neighbourhood Vandermonde checks of nodes 0..n-3 plus the 3 cross checks.

    Evaluation point of node l is the code l+1; pair edge {k, l} among the
    first n-2 nodes has the cross column (1, a_s, a_s^2) with s = k+l mod n,
    and (n-2,n-2), (n-1,n-2), (n-1,n-1) carry the unit columns.
    """
    mul = lambda a, b: gf2m_mul(a, b, poly, m)  # noqa: E731
    powers = [(1, a, mul(a, a)) for a in range(1, n + 1)]
    checks = []
    for node in range(n - 2):
        for t in range(3):
            checks.append([(eidx(node, l), powers[l][t]) for l in range(n)])
    pairs = [(k, l) for k in range(n - 2) for l in range(k)]
    tail = [(n - 2, n - 2), (n - 1, n - 2), (n - 1, n - 1)]
    for t in range(3):
        row = [(eidx(k, l), powers[(k + l) % n][t]) for k, l in pairs]
        row.append((eidx(*tail[t]), 1))
        checks.append(row)
    return CheckSystem(n, m, poly, checks)


def check_cycle(system: CheckSystem, info: np.ndarray, encoded: np.ndarray,
                failed, erased_mask: np.ndarray, decoded: np.ndarray,
                decoded_mask: np.ndarray, recovered: int, bound: int) -> None:
    """Raise CheckFailed unless one encode -> erase -> decode cycle is right."""
    if not system.holds(encoded):
        raise CheckFailed(f"encoded labels violate the checks (failed {sorted(failed)})")
    if not np.array_equal(encoded[: info.size], info):
        raise CheckFailed("information edges do not carry the given labels")
    expect = np.zeros(encoded.size, dtype=bool)
    expect[[eidx(i, j) for i, j in edges_of_nodes(system.n, failed)]] = True
    if not np.array_equal(erased_mask, expect):
        raise CheckFailed(f"erasure mask is not the neighbourhoods of {sorted(failed)}")
    if decoded_mask.any() or not np.array_equal(decoded, encoded):
        raise CheckFailed(f"decoded graph differs from the original (failed {sorted(failed)})")
    if int(expect.sum()) != bound or recovered != bound:
        raise CheckFailed(f"recovered {recovered} edges, erased {int(expect.sum())}, bound {bound}")


def parse_graph_text(text: str) -> tuple[int, str, list[str], np.ndarray]:
    """(n, field string, erased edge names, labels) of a graph file."""
    lines = text.splitlines()
    head = lines[0].split()
    if head[0] != "graphcode-v1" or not head[1].startswith("n=") or not head[2].startswith("field="):
        raise CheckFailed(f"bad graph header {lines[0]!r}")
    n = int(head[1][2:])
    erased: list[str] = []
    rows = lines[1:]
    if rows and rows[0].startswith("erased="):
        erased = rows[0][len("erased="):].split(",")
        rows = rows[1:]
    if len(rows) != n or any(len(r.split()) != i + 1 for i, r in enumerate(rows)):
        raise CheckFailed("graph file rows are not a lower triangle")
    labels = np.array(" ".join(rows).split(), dtype=np.int64)
    return n, head[2][len("field="):], erased, labels


def check_cli_cycle(system: CheckSystem, info: np.ndarray, failed, codes: list[int],
                    enc_bytes: bytes, erased_text: str, dec_bytes: bytes,
                    provenance_text: str, bound: int) -> None:
    """Raise CheckFailed unless one encode -> erase -> decode run of the CLI is right."""
    if any(codes):
        raise CheckFailed(f"exit codes {codes}")
    n, fld, _, labels = parse_graph_text(enc_bytes.decode("ascii"))
    if n != system.n or fld != "gf(2)":
        raise CheckFailed(f"encoded file has n={n} field={fld}")
    if not system.holds(labels):
        raise CheckFailed("encoded file violates the checks")
    if not np.array_equal(labels[: info.size], info):
        raise CheckFailed("information edges do not carry the given labels")
    names = {f"{i}:{j}" for i, j in edges_of_nodes(n, failed)}
    _, _, erased, _ = parse_graph_text(erased_text)
    if sorted(erased) != sorted(names):
        raise CheckFailed(f"erased file does not name the edges of {sorted(failed)}")
    if dec_bytes != enc_bytes:
        raise CheckFailed("decoded file differs from the encoded file")
    prov = [p["edge"] for p in json.loads(provenance_text)]
    if len(prov) != bound or set(prov) != names:
        raise CheckFailed(f"provenance names {len(prov)} edges, not the {bound} erased ones")


def self_test(system: CheckSystem, codeword: np.ndarray) -> None:
    """The checks accept the zero codeword and reject a codeword with one label flipped."""
    if not system.holds(np.zeros_like(codeword)):
        raise CheckFailed("self-test: zero codeword rejected")
    if not system.holds(codeword):
        raise CheckFailed("self-test: encoded codeword rejected")
    for pos in (0, codeword.size // 2, codeword.size - 1):
        bad = codeword.copy()
        bad[pos] ^= 1
        if system.holds(bad):
            raise CheckFailed(f"self-test: codeword with label {pos} flipped accepted")
