"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance here is exact.
"""

import itertools
import random
import time

import numpy as np

from graphcodes.double import (
    check_schedule_invariants,
    check_set_intersections,
    decode_double,
    double_parity_code,
    encode_double,
    zigzag_schedule,
)
from graphcodes.errors import NoSuchCodeError
from graphcodes.extreme import (
    build_generator,
    check_generator,
    count_exhaustive,
    count_formula,
    decode_pair,
    encode_message,
    estimate_rate_montecarlo,
)
from graphcodes.field import field
from graphcodes.framework import is_codeword, metrics, oracle_decode, random_codeword
from graphcodes.graphs import LabeledGraph, failure_edges, num_edges
from graphcodes.single import decode_single, single_parity_code
from graphcodes.triple import (
    check_cross_independence,
    check_neighborhood_overlap,
    decode_triple,
    encode_triple,
    triple_code,
)

DOUBLE_PRIMES = (5, 7, 11, 13)
CLAIM_PRIMES = (5, 7, 11, 13, 17, 19, 23)
TRIPLE_CASES = ((7, 8), (7, 11), (10, 11), (12, 13))


def report(num, ok, detail, start):
    elapsed = time.perf_counter() - start
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_double_redundancy_optimal():
    start = time.perf_counter()
    bad = []
    for n in DOUBLE_PRIMES:
        spec = double_parity_code(n)
        m = metrics(spec, 2)
        if spec.rank != 2 * n - 1 or m.gap != 0:
            bad.append((n, spec.rank, m.gap))
    report(1, not bad, f"rank=2n-1 and gap=0 for n in {DOUBLE_PRIMES} {bad or ''}", start)


def test_criterion_2_double_round_trips():
    start = time.perf_counter()
    rng = random.Random(20)
    checked = 0
    bad = []
    for n in DOUBLE_PRIMES:
        spec = double_parity_code(n)
        words = [encode_double(spec, [rng.randrange(2) for _ in range(num_edges(n - 2))])
                 for _ in range(100)]
        for pair in itertools.combinations(range(n), 2):
            for g in words:
                erased = g.erase_nodes(set(pair))
                rep = decode_double(spec, erased)
                orep = oracle_decode(spec, erased)
                checked += 1
                if not (rep.ok and orep.ok and rep.graph == g and orep.graph == g):
                    bad.append((n, pair))
                    break
    report(2, not bad, f"{checked} decode+oracle round trips bit-identical {bad or ''}", start)


def test_criterion_3_decode_trace_n11():
    start = time.perf_counter()
    sched = zigzag_schedule(11, 3, 5)
    ok = (sched.d, sched.x, sched.y) == (2, 4, 5)
    spec = double_parity_code(11)
    g = encode_double(spec, [random.Random(21).randrange(2) for _ in range(num_edges(9))])
    rep = decode_double(spec, g.erase_nodes({3, 5}))
    loop1 = [p.edge for p in rep.provenance if p.loop == 1]
    loop2 = [p.edge for p in rep.provenance if p.loop == 2]
    finish = sorted(p.edge for p in rep.provenance if p.loop == "finish")
    ok = ok and rep.ok and rep.graph == g
    ok = ok and loop1[0] == (7, 5) and loop1[-1] == (10, 5)
    ok = ok and loop2[0] == (3, 0) and loop2[-1] == (10, 3)
    ok = ok and finish == [(5, 3), (9, 3), (9, 5)]
    report(3, ok, "d=2 x=4 y=5; loop1 (7,5)->(10,5); loop2 (3,0)->(10,3); "
                  f"residual {finish}", start)


def test_criterion_4_intersection_and_schedule_suites():
    start = time.perf_counter()
    bad = {}
    for n in CLAIM_PRIMES:
        v = check_set_intersections(n) + check_schedule_invariants(n)
        if v:
            bad[n] = v[:3]
    report(4, not bad, f"set/schedule identities exhaustive for n in {CLAIM_PRIMES} {bad or ''}", start)


def test_criterion_5_triple_family():
    start = time.perf_counter()
    rng = random.Random(22)
    bad = []
    checked = 0
    for n, q in TRIPLE_CASES:
        spec = triple_code(n, field(q))
        if spec.rank != 3 * n - 3 or spec.dimension != (n - 2) * (n - 3) // 2:
            bad.append((n, q, "rank"))
            continue
        if check_cross_independence(n, spec.gf) or check_neighborhood_overlap(n):
            bad.append((n, q, "suites"))
            continue
        words = [encode_triple(spec, [rng.randrange(q) for _ in range(num_edges(n - 3))])
                 for _ in range(50)]
        for trip in itertools.combinations(range(n), 3):
            for g in words:
                erased = g.erase_nodes(set(trip))
                rep = decode_triple(spec, erased)
                orep = oracle_decode(spec, erased)
                checked += 1
                if not (rep.ok and orep.ok and rep.graph == g and orep.graph == g):
                    bad.append((n, q, trip))
                    break
    report(5, not bad, f"{checked} triple round trips + rank + suites for {TRIPLE_CASES} {bad or ''}", start)


def test_criterion_6_single_family():
    start = time.perf_counter()
    rng = random.Random(23)
    bad = []
    for n in range(3, 21):
        spec = single_parity_code(n)
        if metrics(spec, 1).redundancy != n or metrics(spec, 1).gap != 0:
            bad.append((n, "redundancy"))
            continue
        g = random_codeword(spec, rng)
        for i in range(n):
            rep = decode_single(spec, g.erase_nodes({i}))
            if not (rep.ok and rep.graph == g):
                bad.append((n, i))
    report(6, not bad, f"redundancy=n and all single failures round-trip for n in 3..20 {bad or ''}", start)


def test_criterion_7_counting():
    start = time.perf_counter()
    exact = count_exhaustive(3, 2)
    formula = count_formula(3, 2)
    ok = exact == formula == 13440
    detail = [f"exhaustive(3,2)={exact}"]
    for n, q, seed in ((4, 2, 101), (3, 3, 102)):
        mc = estimate_rate_montecarlo(n, q, 10**6, seed=seed)
        expected = count_formula(n, q) / q ** (3 * num_edges(n))
        sig = abs(mc["rate"] - expected) / mc["stderr"]
        detail.append(f"mc({n},{q}) {sig:.2f} sigma")
        ok = ok and sig <= 4.0
    report(7, ok, "; ".join(detail), start)


def test_criterion_8_existence_boundary():
    start = time.perf_counter()
    gen = build_generator(7, 2)
    ok = check_generator(gen)
    try:
        build_generator(8, 2)
        ok = False
    except NoSuchCodeError:
        pass
    rng = random.Random(24)
    trips = 0
    for i, j in itertools.combinations(range(7), 2):
        for _ in range(100):
            u = tuple(rng.randrange(2) for _ in range(3))
            g = encode_message(gen, u)
            got = decode_pair(gen, i, j, g.label(i, i), g.label(i, j), g.label(j, j))
            trips += 1
            if got != u:
                ok = False
    report(8, ok, f"(7,2) valid, (8,2) rejected, {trips} pair round trips", start)


def test_criterion_9_linearity_and_failure_counts():
    start = time.perf_counter()
    ok = True
    rng = random.Random(25)
    specs = [single_parity_code(6), double_parity_code(7), triple_code(7, field(8))]
    for spec in specs:
        q = spec.gf.q
        for _ in range(1000):
            g1 = random_codeword(spec, rng)
            g2 = random_codeword(spec, rng)
            a, b = rng.randrange(q), rng.randrange(q)
            combo = spec.gf.add_arr(spec.gf.mul_arr(g1.labels, np.int64(a)),
                                    spec.gf.mul_arr(g2.labels, np.int64(b)))
            if not is_codeword(spec, LabeledGraph(spec.n, spec.gf, combo)):
                ok = False
    gen = build_generator(6, 3, seed=1)
    gf = gen.gf
    for _ in range(1000):
        u1 = np.array([rng.randrange(3) for _ in range(3)], dtype=np.int64)
        u2 = np.array([rng.randrange(3) for _ in range(3)], dtype=np.int64)
        a, b = rng.randrange(3), rng.randrange(3)
        combo = LabeledGraph(gen.n, gf, gf.add_arr(gf.mul_arr(encode_message(gen, u1).labels, np.int64(a)),
                                                   gf.mul_arr(encode_message(gen, u2).labels, np.int64(b))))
        expect = encode_message(gen, gf.add_arr(gf.mul_arr(u1, np.int64(a)),
                                                gf.mul_arr(u2, np.int64(b))))
        if combo != expect:
            ok = False
    counts_ok = True
    for n in range(3, 13):
        for r in range(n + 1):
            for failed in itertools.combinations(range(n), r):
                if len(failure_edges(n, failed)) != r * n - r * (r - 1) // 2:
                    counts_ok = False
    ok = ok and counts_ok
    report(9, ok, "linearity x4 families (1000 samples each); erased-edge counts exhaustive n<=12", start)
