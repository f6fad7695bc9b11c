import itertools
import random
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphcodes.framework as framework
from graphcodes.double import decode_double, double_parity_code
from graphcodes.errors import NotSystematicError, TooLargeError
from graphcodes.field import Matrix, field
from graphcodes.framework import (
    SOLVE,
    CheckRows,
    GraphCodeSpec,
    RepairPlan,
    Step,
    check_matrix_size,
    encode_systematic,
    erased_columns_independent,
    is_codeword,
    metrics,
    oracle_decode,
    random_codeword,
    recover,
    survivor_syndrome,
    syndrome,
    verify_exhaustive,
)
from graphcodes.graphs import LabeledGraph, edge_at, edge_index, edge_indices, num_edges
from graphcodes.single import decode_single, single_parity_code
from graphcodes.triple import decode_triple, triple_code


def test_syndrome_zero_graph():
    spec = single_parity_code(4)
    assert not syndrome(spec, LabeledGraph(4, spec.gf)).any()
    assert is_codeword(spec, LabeledGraph(4, spec.gf))


def test_syndrome_single_edge_is_column():
    spec = double_parity_code(7)
    for e in [(0, 0), (4, 2), (6, 5)]:
        g = LabeledGraph(7, spec.gf)
        g.labels[edge_index(*e)] = 1
        assert np.array_equal(syndrome(spec, g), spec.h.a[:, edge_index(*e)])


def test_encoder_output_is_codeword():
    rng = random.Random(0)
    for spec in (single_parity_code(5), double_parity_code(7), triple_code(7)):
        g = random_codeword(spec, rng)
        assert is_codeword(spec, g)


def test_oracle_no_erasures_identity():
    spec = single_parity_code(5)
    g = LabeledGraph(5, spec.gf, [1, 0, 1, 0, 1, 0] + [0] * (num_edges(5) - 6))
    rep = oracle_decode(spec, g)
    assert rep.ok and rep.graph == g


def test_oracle_round_trip_double():
    spec = double_parity_code(7)
    rng = random.Random(1)
    for _ in range(5):
        g = random_codeword(spec, rng)
        for pair in itertools.combinations(range(7), 2):
            rep = oracle_decode(spec, g.erase_nodes(pair))
            assert rep.ok and rep.graph == g


def test_oracle_three_failures_underdetermined():
    spec = double_parity_code(7)
    g = random_codeword(spec, random.Random(2))
    rep = oracle_decode(spec, g.erase_nodes({0, 2, 5}))
    assert not rep.ok and rep.reason == "underdetermined"


def test_oracle_inconsistent():
    spec = single_parity_code(4)
    labels = np.zeros(num_edges(4), dtype=np.int64)
    labels[edge_index(0, 0)] = 1  # not a codeword; the erased column misses row 0
    rep = oracle_decode(spec, LabeledGraph(4, spec.gf, labels, erased=[(3, 3)]))
    assert not rep.ok and rep.reason == "inconsistent"


def test_encode_systematic_worked_example():
    spec = single_parity_code(3)
    g = encode_systematic(spec, {(0, 0): 1, (1, 0): 0, (1, 1): 1})
    assert g.label(2, 0) == 1 and g.label(2, 1) == 1 and g.label(2, 2) == 0
    assert is_codeword(spec, g)
    rep = oracle_decode(spec, g.erase_nodes({2}))
    assert rep.ok and rep.graph == g


def test_encode_systematic_zero_info():
    spec = double_parity_code(5)
    assert encode_systematic(spec, [0] * num_edges(3)) == LabeledGraph(5, spec.gf)


def test_encode_systematic_info_passthrough():
    rng = random.Random(3)
    spec = triple_code(7)
    info = [rng.randrange(spec.gf.q) for _ in range(num_edges(4))]
    g = encode_systematic(spec, info)
    for k, v in enumerate(info):
        assert g.label(*edge_at(k)) == v


def test_encode_systematic_validations():
    spec = single_parity_code(4)
    with pytest.raises(ValueError):
        encode_systematic(spec, [0, 0])
    with pytest.raises(ValueError):
        encode_systematic(spec, {(3, 0): 1})


def test_not_systematic():
    gf = field(2)
    n = 3
    h = np.zeros((2, num_edges(n)), dtype=np.int64)
    h[0, edge_index(2, 2)] = 1
    h[1, edge_index(2, 2)] = 1  # redundancy columns rank 1 < 2 rows of unknowns
    spec = GraphCodeSpec(n, gf, Matrix(gf, h), k_info=2)
    with pytest.raises(NotSystematicError):
        encode_systematic(spec, [0, 0, 0])


def test_metrics_examples():
    m = metrics(double_parity_code(11), 2)
    assert m.redundancy == 21 and m.gap == 0 and m.q == 2
    m = metrics(triple_code(10), 3)
    assert m.redundancy == 27 and m.gap == 0
    m = metrics(single_parity_code(5), 1)
    assert m.redundancy == 5 and m.gap == 0
    from fractions import Fraction

    assert m.rate == Fraction(10, 15)


def test_advertised_dimensions():
    for n in (5, 7, 11):
        assert double_parity_code(n).dimension == (n - 1) * (n - 2) // 2
        assert single_parity_code(n).dimension == num_edges(n - 1)
    for n, q in ((7, 8), (10, 11)):
        assert triple_code(n, field(q)).dimension == (n - 2) * (n - 3) // 2


def test_linearity_random_combinations():
    rng = random.Random(4)
    for spec in (single_parity_code(6), double_parity_code(7), triple_code(7)):
        for _ in range(40):
            g1 = random_codeword(spec, rng)
            g2 = random_codeword(spec, rng)
            gf = spec.gf
            a, b = rng.randrange(gf.q), rng.randrange(gf.q)
            combo = gf.add_arr(gf.mul_arr(g1.labels, np.int64(a)), gf.mul_arr(g2.labels, np.int64(b)))
            assert is_codeword(spec, LabeledGraph(spec.n, gf, combo))


def test_decode_matches_rank_predicate():
    cases = [
        (double_parity_code(7), 3),
        (double_parity_code(11), 3),
        (single_parity_code(6), 2),
        (triple_code(7), 3),
    ]
    rng = random.Random(5)
    for spec, max_f in cases:
        g = random_codeword(spec, rng)
        for r in range(1, max_f + 1):
            for failed in itertools.combinations(range(spec.n), r):
                pred = erased_columns_independent(spec, failed)
                rep = oracle_decode(spec, g.erase_nodes(failed))
                assert rep.ok == pred
                if rep.ok:
                    assert rep.graph == g


def test_verify_exhaustive_double_ok():
    rep = verify_exhaustive(double_parity_code(7), 2, trials=3, decoder=decode_double)
    assert rep["patterns_total"] == 21 and rep["patterns_ok"] == 21
    assert rep["failures"] == []
    assert set(rep) >= {"family", "n", "q", "rho", "patterns_total", "patterns_ok", "failures", "elapsed_ms"}


def test_verify_exhaustive_three_failures_all_fail():
    rep = verify_exhaustive(double_parity_code(7), 3, trials=1)
    assert rep["patterns_ok"] == 0
    assert all(f["reason"] == "underdetermined" for f in rep["failures"])


def test_verify_exhaustive_single():
    rep = verify_exhaustive(single_parity_code(6), 1, trials=3, decoder=decode_single)
    assert rep["patterns_ok"] == rep["patterns_total"] == 6


def test_verify_exhaustive_deterministic():
    a = verify_exhaustive(double_parity_code(5), 2, trials=3, seed=11)
    b = verify_exhaustive(double_parity_code(5), 2, trials=3, seed=11)
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_verify_exhaustive_parallel_matches_serial():
    serial = verify_exhaustive(double_parity_code(5), 2, trials=2, seed=7)
    parallel = verify_exhaustive(double_parity_code(5), 2, trials=2, seed=7, jobs=2)
    serial.pop("elapsed_ms")
    parallel.pop("elapsed_ms")
    assert serial == parallel


def test_random_codeword_nullspace_path():
    spec = double_parity_code(5)
    anon = GraphCodeSpec(spec.n, spec.gf, spec.h)  # no k_info: nullspace sampling
    g = random_codeword(anon, random.Random(8))
    assert is_codeword(anon, g)


def test_decode_report_graph_consistency():
    spec = double_parity_code(5)
    g = random_codeword(spec, random.Random(9))
    rep = oracle_decode(spec, g.erase_nodes({1, 2}))
    assert rep.ok
    assert not rep.graph.has_erasures
    assert not syndrome(spec, rep.graph).any()
    assert sorted(p.edge for p in rep.provenance) == sorted(g.erase_nodes({1, 2}).erased_edges())


def _recover_case():
    """Triple n=7 over GF(8) with node 0 failed: the codeword and its erasure."""
    spec = triple_code(7, field(8))
    g = random_codeword(spec, random.Random(10))
    return spec, g, g.erase_nodes({0})


def _same_report(a, b):
    return (a.status, a.reason, a.graph, a.provenance_json()) == \
        (b.status, b.reason, b.graph, b.provenance_json())


def _stub_plan(n0_rows=3):
    """A stub family plan for node 0 failed: one solve stage over the blocks
    N_1..N_4 (three rows each, one unknown, the edge (m, 0)), then one over
    the first ``n0_rows`` rows of N_0 for the edges (0, 0), (5, 0) and (6, 0);
    fewer than three rows leave that block deficient.  No stage reads the P
    rows."""
    def plan(spec, failed):
        assert failed == (0,)
        v = spec.checks.coefs[:21].reshape(3, 7)  # N_0's coefficients, column l on edge (0, l)
        first, last = edge_indices(np.arange(1, 5), 0)[:, None], edge_indices(0, [0, 5, 6])
        return RepairPlan.staged(
            spec, [(SOLVE, np.arange(3, 15), first, v[:, [0]]),
                   (SOLVE, np.arange(n0_rows), last[None, :], v[:n0_rows, [0, 5, 6]])],
            [Step(first.ravel(), "stub", 1, np.arange(4)), Step(last, "stub", 2, np.arange(3))])
    return plan


def test_recover_runs_the_order_and_records_provenance():
    spec, g, erased = _recover_case()
    rep = recover(spec, erased, {0}, 1, _stub_plan())
    assert rep.ok and rep.graph == g and rep.reason is None
    assert [p.edge for p in rep.provenance] == [(1, 0), (2, 0), (3, 0), (4, 0), (0, 0), (5, 0), (6, 0)]
    assert [p.loop for p in rep.provenance] == [1] * 4 + [2] * 3
    assert erased.has_erasures  # the input graph is left as it was


def test_recover_turns_data_faults_into_reports():
    spec, g, erased = _recover_case()
    wrong = erased.copy()
    wrong.labels[edge_index(2, 1)] ^= 1  # N_1 and N_2 now disagree on their unknowns
    zero = LabeledGraph(7, spec.gf).erase_nodes({0})
    for graph, plan, reason in ((wrong, _stub_plan(), "inconsistent"),
                                (zero, _stub_plan(1), "underdetermined"),
                                # the free edges read 0, which N_0[1] and N_0[2] refute
                                (erased, _stub_plan(1), "inconsistent")):
        rep = recover(spec, graph, {0}, 1, plan)
        assert (rep.status, rep.reason, rep.graph) == ("failed", reason, None)


def test_recover_hands_other_patterns_to_the_oracle():
    spec, g, erased = _recover_case()

    def never(spec, failed):
        raise AssertionError("no plan may be asked for")

    assert _same_report(recover(spec, erased, {0}, 1, lambda spec, failed: None),
                        oracle_decode(spec, erased))
    two = g.erase_nodes({0, 1})
    assert _same_report(recover(spec, two, {0, 1}, 1, never), oracle_decode(spec, two))
    loose = LabeledGraph(g.n, g.gf, g.labels, erased=[(3, 1)])  # not a node-failure pattern
    assert _same_report(recover(spec, loose, None, 1, never), oracle_decode(spec, loose))


def test_recover_checks_and_counts_the_rows_no_stage_reads():
    spec, g, erased = _recover_case()
    assert _stub_plan()(spec, (0,)).spare.tolist() == [15, 16, 17]  # the P rows
    rep = recover(spec, erased, {0}, 1, _stub_plan())
    assert rep.ok and rep.spare_checks == spec.checks.rows - 7 == 11
    wrong = erased.copy()
    wrong.labels[edge_index(6, 6)] ^= 1  # an appended edge: only P[2] reads it
    rep = recover(spec, wrong, {0}, 1, _stub_plan())
    assert (rep.status, rep.reason) == ("failed", "inconsistent")


@pytest.mark.parametrize("family", ["single", "double", "triple"])
def test_structured_decoders_refuse_another_field_or_size(family):
    spec, decode, failed, other = {
        "single": (single_parity_code(7, field(8)), decode_single, {2}, field(8, 0b1101)),
        "double": (double_parity_code(7), decode_double, {1, 3}, field(3)),
        "triple": (triple_code(7, field(8)), decode_triple, {0, 1, 2}, field(8, 0b1101)),
    }[family]
    g = random_codeword(spec, random.Random(12)).erase_nodes(failed)
    for bad in (LabeledGraph(spec.n, other, g.labels, g.erased),
                LabeledGraph(spec.n + 1, spec.gf).erase_nodes(failed)):
        with pytest.raises(ValueError, match="graph does not match code parameters"):
            decode(spec, bad)


@pytest.mark.parametrize("build,decode,rho", [(lambda: single_parity_code(7), decode_single, 1),
                                              (lambda: double_parity_code(11), decode_double, 2),
                                              (lambda: triple_code(8), decode_triple, 3)])
def test_family_steps_name_every_check_row_once(build, decode, rho):
    # at exactly rho failures the checks of an optimal code are all used to
    # recover, so none is left to verify the result
    spec = build()
    g = random_codeword(spec, random.Random(12))
    for failed in itertools.combinations(range(spec.n), rho):
        rep = decode(spec, g.erase_nodes(failed))
        assert rep.ok and rep.graph == g and rep.spare_checks == 0
        rows = np.concatenate([step.rows for step in rep.steps])
        assert np.sort(rows).tolist() == list(range(spec.checks.rows)), failed


def test_oracle_counts_the_checks_beyond_the_erased_edges():
    spec = double_parity_code(101)
    g = random_codeword(spec, random.Random(13))
    assert oracle_decode(spec, g.erase_nodes({99, 100})).spare_checks == 0  # the encode
    rep = oracle_decode(spec, g.erase_nodes({40}))
    assert rep.ok and rep.graph == g and rep.spare_checks == 201 - 101 == 100
    assert oracle_decode(spec, g).spare_checks == 0  # nothing erased, nothing checked


def test_provenance_is_built_when_first_read(monkeypatch):
    built = []

    class Counted(framework.ProvenanceEntry):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(framework, "ProvenanceEntry", Counted)
    spec = double_parity_code(101)
    g = random_codeword(spec, random.Random(11))
    rep = decode_double(spec, g.erase_nodes({3, 57}))
    assert rep.ok and rep.graph == g and not built
    assert len(rep.provenance) == 201 == len(built)
    assert rep.provenance is rep.provenance and len(built) == 201


def test_oversized_check_matrix_refused_up_front():
    gf = field(1009)
    builds = (lambda: single_parity_code(10_000), lambda: double_parity_code(1009),
              lambda: triple_code(1000, gf))
    for build in builds:
        tracemalloc.start()
        start = time.perf_counter()
        with pytest.raises(TooLargeError, match="bytes"):
            build()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert elapsed < 1.0 and peak < 20 * 2**20
    # the limit admits double n=317 (the largest prime under it) and not n=331
    check_matrix_size(317, 633)
    with pytest.raises(TooLargeError):
        check_matrix_size(331, 661)


SYNDROME_CASES = ([("single", n, q) for n in (3, 7, 12) for q in (2, 11, 32, 9, 25)]
                  + [("double", n, 2) for n in (5, 7, 13)]
                  + [("triple", n, q) for n, q in ((7, 9), (10, 11), (24, 25), (31, 32))]
                  + [("custom", n, q) for n in (3, 6) for q in (2, 11, 32, 9, 25)])


def _syndrome_spec(family, n, q, data):
    gf = field(q)
    if family == "single":
        return single_parity_code(n, gf)
    if family == "double":
        return double_parity_code(n)
    if family == "triple":
        return triple_code(n, gf)
    rows = data.draw(st.integers(1, 6))
    cells = st.lists(st.sampled_from([0, 0, 0, 1, q - 1, q // 2]), min_size=num_edges(n),
                     max_size=num_edges(n))
    h = np.array([data.draw(cells) for _ in range(rows)], dtype=np.int64)
    h[data.draw(st.integers(0, rows - 1))] = 0  # an all-zero check
    return GraphCodeSpec(n, gf, Matrix(gf, h))


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(SYNDROME_CASES), data=st.data())
def test_sparse_syndrome_matches_dense_product(case, data):
    spec = _syndrome_spec(*case, data)
    labels = data.draw(st.lists(st.integers(0, spec.gf.q - 1), min_size=num_edges(spec.n),
                                max_size=num_edges(spec.n)))
    g = LabeledGraph(spec.n, spec.gf, labels)
    want = spec.gf.dot(spec.h.a, g.labels)
    assert syndrome(spec, g).tolist() == want.tolist()
    failed = data.draw(st.sets(st.integers(0, spec.n - 1), max_size=3))
    erased = g.erase_nodes(failed)
    assert survivor_syndrome(spec, erased).tolist() == spec.gf.dot(spec.h.a, erased.labels).tolist()


@pytest.mark.parametrize("spec", [single_parity_code(n, field(q)) for n in (3, 4, 9) for q in (2, 11)]
                         + [double_parity_code(n) for n in (5, 7, 11, 13)]
                         + [triple_code(n) for n in (5, 6, 10, 13)] + [triple_code(8, field(9))])
def test_declared_rank_matches_elimination(spec):
    assert spec.rank == spec.h.rows == spec.h.rank()


def test_double_n101_setup_holds_no_dense_check_matrix():
    for name, mod in list(sys.modules.items()):  # cold caches, as in a fresh process
        if name.startswith("graphcodes"):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    tracemalloc.start()
    try:
        spec = double_parity_code(101)
        m = metrics(spec, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.redundancy == 201 and m.gap == 0
    assert peak < 4 * 2**20  # the dense 201 x 5151 int64 matrix alone is 8.3 MB


class _FakePool:
    """Stands in for ProcessPoolExecutor: records its size and maps serially."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        assert chunksize >= 1
        return map(fn, items)


@pytest.mark.parametrize("jobs,cpus,rho,size", [
    (5000, 3, 2, 3),     # capped by the CPUs
    (2, 3, 2, 2),        # as asked
    (5000, 64, 2, 10),   # capped by the 10 failure pairs of n=5
    (5000, None, 2, None),  # unknown CPU count: serial
    (5000, 8, 5, None),  # one pattern: serial
    (1, 8, 2, None),
])
def test_verify_exhaustive_sizes_its_pool(monkeypatch, jobs, cpus, rho, size):
    import concurrent.futures
    import os

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_FakePool, "sizes", [])
    spec = double_parity_code(5)
    rep = verify_exhaustive(spec, rho, trials=2, seed=3, jobs=jobs)
    assert _FakePool.sizes == ([] if size is None else [size])
    serial = verify_exhaustive(spec, rho, trials=2, seed=3)
    assert {**rep, "elapsed_ms": 0} == {**serial, "elapsed_ms": 0}


@pytest.mark.parametrize("jobs", [0, -1])
def test_verify_exhaustive_refuses_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs"):
        verify_exhaustive(double_parity_code(5), 2, trials=1, jobs=jobs)


def _rows_spec(indptr, cols, coefs):
    """A spec over GF(3) with n=3 (6 edges) from raw check rows."""
    rows = (np.array(a, dtype=np.int64) for a in (indptr, cols, coefs))
    return GraphCodeSpec(3, field(3), CheckRows(*rows))


@pytest.mark.parametrize("indptr", [[1, 2], [0, 1], [0, 3], [0, 2, 1, 2], []])
def test_check_rows_refuse_bad_row_pointers(indptr):
    with pytest.raises(ValueError, match="row pointers"):
        _rows_spec(indptr, [0, 1], [1, 1])


@pytest.mark.parametrize("col", [6, 10, -1])
def test_check_rows_refuse_a_column_outside_the_edges(col):
    with pytest.raises(ValueError, match="columns must lie in 0..5"):
        _rows_spec([0, 2], [0, col], [1, 1])


@pytest.mark.parametrize("coef", [0, 3, -1])
def test_check_rows_refuse_a_coefficient_outside_the_field(coef):
    with pytest.raises(ValueError, match="coefficients must lie in 1..2"):
        _rows_spec([0, 2], [0, 1], [coef, 2])


def test_check_rows_refuse_a_column_named_twice_in_a_row():
    # the sums would weigh edge 0 by 2 while spec.h keeps 1, so the codeword
    # [1, 1, 0, 0, 0, 0] would pass the syndrome and fail the oracle
    with pytest.raises(ValueError, match="twice"):
        _rows_spec([0, 3], [0, 0, 1], [1, 1, 1])
    with pytest.raises(ValueError, match="twice"):
        _rows_spec([0, 1, 3], [4, 2, 2], [1, 1, 2])
    spec = _rows_spec([0, 2, 4], [0, 1, 1, 5], [1, 2, 2, 1])  # one column in two rows is fine
    assert spec.h.a.tolist() == [[1, 2, 0, 0, 0, 0], [0, 2, 0, 0, 0, 1]]
