"""Repair plans: the oracle decode run from a cached plan equals a dense solve,
family plans agree with the oracle, and encoding builds one plan per spec."""

import functools
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphcodes.framework as framework
from graphcodes.cli import main as cli_main
from graphcodes.double import _encode_plan, decode_double, double_parity_code, encode_double
from graphcodes.errors import InconsistentSystemError, UnderdeterminedSystemError
from graphcodes.field import Matrix, field
from graphcodes.framework import (
    PLAN_CACHE_SIZE,
    CheckRows,
    GraphCodeSpec,
    ProvenanceEntry,
    RepairPlan,
    encode_systematic,
    erased_columns_independent,
    is_codeword,
    oracle_decode,
    random_codeword,
    survivor_syndrome,
    systematic_erasure,
)
from graphcodes.graphs import LabeledGraph, edges_at, failed_nodes_of, num_edges
from graphcodes.single import single_parity_code
from graphcodes.triple import decode_triple, smallest_field_order, triple_code


def dense_oracle(spec, g):
    """(status, reason, labels, provenance) of one dense solve on the erased columns."""
    erased = np.flatnonzero(g.erased)
    if erased.size == 0:
        return "ok", None, g.labels.tolist(), []
    rhs = spec.gf.neg_arr(survivor_syndrome(spec, g))
    try:
        x = Matrix(spec.gf, spec.checks.block(erased)).solve(rhs)
    except UnderdeterminedSystemError:
        return "failed", "underdetermined", None, []
    except InconsistentSystemError:
        return "failed", "inconsistent", None, []
    labels = g.labels.copy()
    labels[erased] = x
    prov = [ProvenanceEntry(e, "oracle", "oracle", t).as_dict() for t, e in enumerate(edges_at(erased))]
    return "ok", None, labels.tolist(), prov


def outcome(report):
    labels = None if report.graph is None else report.graph.labels.tolist()
    return report.status, report.reason, labels, report.provenance_json()


BUILDERS = {
    "single-gf2": lambda n: single_parity_code(n),
    "single-gf11": lambda n: single_parity_code(n, field(11)),
    "single-gf9": lambda n: single_parity_code(n, field(9)),
    "double": double_parity_code,
    "triple": triple_code,
    "triple-gf9": lambda n: triple_code(n, field(9)),
    "triple-gf11": lambda n: triple_code(n, field(11)),
}
CASES = ([("single-gf2", n) for n in (3, 5, 8)] + [("single-gf11", n) for n in (3, 6)]
         + [("single-gf9", 5)] + [("double", n) for n in (5, 7, 11)]
         + [("triple", n) for n in (5, 7)] + [("triple-gf9", 8), ("triple-gf11", 10)])


@functools.lru_cache(maxsize=None)
def build(name, n):
    return BUILDERS[name](n)


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_plan_equals_dense_oracle(case, data):
    spec = build(*case)
    n, t = spec.n, num_edges(spec.n)
    g = random_codeword(spec, random.Random(data.draw(st.integers(0, 2**32))))
    if data.draw(st.booleans()):
        failed = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        erased = g.erase_nodes(failed)
    else:
        mask = data.draw(st.lists(st.booleans(), min_size=t, max_size=t))
        erased = LabeledGraph(n, spec.gf, g.labels, np.array(mask))
    survivors = np.flatnonzero(~erased.erased)
    if survivors.size:  # one corrupted surviving label
        labels = erased.labels.copy()
        k = data.draw(st.sampled_from(survivors.tolist()))
        labels[k] = (labels[k] + data.draw(st.integers(1, spec.gf.q - 1))) % spec.gf.q
        erased = LabeledGraph(n, spec.gf, labels, erased.erased)
    for _ in range(2):  # a cold plan, then the cached one
        assert outcome(oracle_decode(spec, erased)) == dense_oracle(spec, erased)


def custom_spec(rows, q=3):
    gf = field(q)
    return GraphCodeSpec(3, gf, rows)


ERASE_01 = np.array([True, True, False, False, False, False])


def test_dependent_erased_columns_are_underdetermined():
    # both checks see the erased edges 0 and 1 alike
    spec = custom_spec([[1, 1, 0, 0, 0, 0], [2, 2, 1, 0, 0, 0]])
    g = LabeledGraph(3, spec.gf, [0, 0, 0, 0, 0, 0], ERASE_01)
    rep = oracle_decode(spec, g)
    assert (rep.status, rep.reason) == ("failed", "underdetermined")
    assert dense_oracle(spec, g)[:2] == ("failed", "underdetermined")


def test_deficient_and_inconsistent_reports_inconsistent():
    spec = custom_spec([[1, 1, 0, 0, 0, 0], [2, 2, 1, 0, 0, 0]])
    g = LabeledGraph(3, spec.gf, [0, 0, 1, 0, 0, 0], ERASE_01)
    rep = oracle_decode(spec, g)
    assert (rep.status, rep.reason) == ("failed", "inconsistent")
    assert dense_oracle(spec, g)[:2] == ("failed", "inconsistent")


def test_peeled_edges_feed_a_deficient_core():
    # n=3: six edges; check 0 peels edge 0, checks 1 and 2 leave edges 1, 2 dependent
    spec = custom_spec([[1, 0, 0, 0, 0, 1],
                        [1, 1, 1, 0, 0, 0],
                        [0, 2, 2, 0, 1, 0]])
    mask = np.array([True, True, True, False, False, False])
    plan = spec.repair_plan(mask)
    assert [(s.kind, s.rows.tolist(), s.targets.tolist()) for s in plan.stages] == \
        [("peel", [0], [0]), ("solve", [1, 2], [[1, 2]])]
    assert plan.decodable() is False
    for labels in ([0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 2, 1]):
        g = LabeledGraph(3, spec.gf, labels, mask)
        assert outcome(oracle_decode(spec, g)) == dense_oracle(spec, g)


def test_spare_check_of_a_shared_peel():
    # two checks peel edge 0 in the same stage: the first solves it, the second is checked
    spec = custom_spec([[1, 1, 0, 0, 0, 0], [2, 0, 1, 0, 0, 0]])
    mask = np.array([True, False, False, False, False, False])
    plan = spec.repair_plan(mask)
    assert [(s.kind, s.rows.tolist()) for s in plan.stages] == [("peel", [0])]
    assert plan.spare.tolist() == [1]
    for labels, status in (([0, 1, 2, 0, 0, 0], "ok"), ([0, 1, 1, 0, 0, 0], "failed")):
        g = LabeledGraph(3, spec.gf, labels, mask)
        assert oracle_decode(spec, g).status == status
        assert outcome(oracle_decode(spec, g)) == dense_oracle(spec, g)


def test_encode_plan_peels_and_solves_no_core(monkeypatch):
    spec = double_parity_code(101)
    info = np.random.default_rng(3).integers(0, 2, num_edges(99))
    plan = spec.repair_plan(systematic_erasure(spec, info).erased)
    assert [s.kind for s in plan.stages] == ["peel", "peel"] and plan.decodable()
    assert sum(s.targets.size for s in plan.stages) == plan.erased.size == 2 * 101 - 1

    def forbidden(*_):
        raise AssertionError("the plan runs no elimination")

    for name in ("rank", "solve"):
        monkeypatch.setattr(Matrix, name, forbidden)
    g = encode_double(spec, info)
    assert g.labels[: num_edges(99)].tolist() == info.tolist()
    assert erased_columns_independent(spec, [99, 100])


def count_builds(monkeypatch, spec):
    """The sizes of the plans the peel search and the spec's hook build,
    in order; a plan the family writes counts as a build too."""
    builds = []
    original = RepairPlan.build.__func__
    family = spec.family_plan

    def counting(cls, spec_, erased):
        builds.append(erased.size)
        return original(cls, spec_, erased)

    def counting_family(spec_, failed):
        plan = family(spec_, failed)
        if plan is not None:
            builds.append(plan.erased.size)
        return plan

    monkeypatch.setattr(RepairPlan, "build", classmethod(counting))
    if family is not None:
        monkeypatch.setattr(spec, "family_plan", counting_family)
    return builds


def test_cache_is_bounded_and_keeps_the_encode_plan(monkeypatch):
    spec = double_parity_code(11)
    builds = count_builds(monkeypatch, spec)
    rng = random.Random(2)
    info = [0] * num_edges(9)
    encode_double(spec, info)
    g = random_codeword(spec, rng)
    for i in range(9):
        for j in (9, 10):
            assert oracle_decode(spec, g.erase_nodes([i, j])).graph == g
            encode_double(spec, info)
            assert len(spec._plans) <= PLAN_CACHE_SIZE
    assert len(builds) == 1 + 18  # the encode plan was built once, outside the cache
    oracle_decode(spec, g.erase_nodes([0, 9]))  # dropped long ago: built again
    assert len(builds) == 20


def same_plan(plan, want):
    """Field by field, with dtypes: the family's plan is the peel search's."""
    def arrays(p):
        yield "erased", p.erased
        yield "spare", p.spare
        for name in ("indptr", "cols", "coefs"):
            yield f"block {name}", getattr(p.block, name)
        for k, stage in enumerate(p.stages):
            for name in ("rows", "targets", "coefs"):
                yield f"stage {k} {name}", getattr(stage, name)
        yield "step rows", p.steps[0].rows

    assert plan.gf == want.gf and [s.kind for s in plan.stages] == [s.kind for s in want.stages]
    for (name, got), (_, ref) in zip(arrays(plan), arrays(want), strict=True):
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert np.array_equal(got, ref), name


def encode_mask(spec):
    return LabeledGraph(spec.n, spec.gf).erase_nodes(range(spec.k_info, spec.n)).erased


PRIMES = [n for n in range(5, 318) if all(n % r for r in range(2, n))]


def test_double_encode_plan_is_the_peel_search_plan():
    assert len(PRIMES) == 64
    for n in PRIMES:
        spec = double_parity_code(n)
        want = RepairPlan.build(spec, np.flatnonzero(encode_mask(spec)))
        plan = _encode_plan(spec)
        same_plan(plan, want)
        same_plan(spec.encode_plan, want)
        assert [(s.kind, s.rows.size) for s in plan.stages] == [("peel", n), ("peel", n - 1)]


@pytest.mark.parametrize("n", [11, 13])
def test_double_plan_answers_only_the_encode_mask(n, monkeypatch):
    # of the pairs with a redundancy node, the hook answers (n-2, n-1) alone
    rng = random.Random(n)
    spec = double_parity_code(n)
    for nodes in itertools.combinations(range(n), 2):
        plan = spec.family_plan(spec, nodes)
        if nodes == (n - 2, n - 1):
            same_plan(plan, _encode_plan(spec))
        else:
            assert (plan is None) == (nodes[1] >= n - 2), nodes
    # a mask that is no node failure goes to the oracle without asking the hook
    g = random_codeword(spec, rng)
    monkeypatch.setattr(spec, "family_plan", never_asked)
    masks = 0
    while masks < 50:
        mask = encode_mask(spec) if rng.random() < 0.5 else np.zeros(num_edges(n), dtype=bool)
        flip = rng.sample(range(mask.size), rng.randint(1, 3))
        mask[flip] = ~mask[flip]
        erased = LabeledGraph(n, spec.gf, g.labels, mask)
        if failed_nodes_of(erased) is None:
            assert outcome(decode_double(spec, erased)) == outcome(oracle_decode(spec, erased))
            masks += 1


def never_asked(spec, failed):
    raise AssertionError("the oracle asks no family for a plan")


def test_oracle_is_independent_of_the_family_plans(monkeypatch):
    # every node pair of double n=11, the pair (9, 10) of the encode plan
    # included, and every node triple of triple n=8
    for spec, decode, rho in ((double_parity_code(11), decode_double, 2),
                              (triple_code(8, field(9)), decode_triple, 3)):
        g = random_codeword(spec, random.Random(spec.n))
        sets = list(itertools.combinations(range(spec.n), rho))
        family = [decode(spec, g.erase_nodes(failed)) for failed in sets]
        with monkeypatch.context() as m:
            m.setattr(spec, "family_plan", never_asked)
            for failed, rep in zip(sets, family, strict=True):
                orep = oracle_decode(spec, g.erase_nodes(failed))
                assert rep.ok and orep.ok and orep.graph == rep.graph == g, failed


def chained_spec():
    """n=4 over GF(3) with k_info=2 and no hook: check r holds the
    redundancy edges 3+r-1 and 3+r (from edge 3 on, nodes 2 and 3) and an
    information edge, so the peel search solves one edge per round."""
    r = np.arange(1, 7)[:, None]
    return GraphCodeSpec(4, field(3), CheckRows.stack(([[0, 3]], [[2, 1]]),
                                                      (np.hstack([r % 3, r + 2, r + 3]), [2, 1, 1])),
                         k_info=2)


ENCODE_CASES = {
    "single-n7-q2": lambda: single_parity_code(7),
    "single-n7-q5": lambda: single_parity_code(7, field(5)),
    "double-n11": lambda: double_parity_code(11),
    "triple-n8-q9": lambda: triple_code(8, field(9)),
    "triple-n31-q32": lambda: triple_code(31, field(32)),
    "custom-k_info": chained_spec,
}


@pytest.mark.parametrize("case", list(ENCODE_CASES))
def test_encode_builds_one_plan_per_spec(monkeypatch, case):
    spec = ENCODE_CASES[case]()
    builds = count_builds(monkeypatch, spec)
    rng = random.Random(5)
    for _ in range(10):
        info = [rng.randrange(spec.gf.q) for _ in range(num_edges(spec.k_info))]
        g = encode_systematic(spec, info)
        assert is_codeword(spec, g) and not g.has_erasures
        assert g.labels[: num_edges(spec.k_info)].tolist() == info
    assert builds == [num_edges(spec.n) - num_edges(spec.k_info)]  # one plan, of the redundancy nodes
    monkeypatch.undo()  # the counting hook does not pickle
    copy = pickle.loads(pickle.dumps(spec))
    assert "encode_plan" not in copy.__dict__
    assert encode_systematic(copy, info) == g


@pytest.mark.parametrize("larger", [False, True])
def test_triple_encode_plan_gives_the_peel_search_codeword(larger):
    for n in range(5, 14):
        q = smallest_field_order(n)
        q = smallest_field_order(q) if larger else q  # the next prime power up
        spec = triple_code(n, field(q))
        assert [s.kind for s in spec.encode_plan.stages] == ["solve"] * 3
        peel = GraphCodeSpec(n, spec.gf, spec.checks, k_info=n - 3)  # no hook: the peel search
        rng = random.Random(n * q)
        for _ in range(3):
            info = [rng.randrange(q) for _ in range(num_edges(n - 3))]
            g = encode_systematic(spec, info)
            assert g == encode_systematic(peel, info)
            assert encode_systematic(pickle.loads(pickle.dumps(spec)), info) == g


def test_cli_encode_runs_without_the_peel_search(tmp_path, monkeypatch):
    def forbidden(*_):
        raise AssertionError("each family writes its encode plan")

    rng = random.Random(101)
    for family, n, q, build in (("double", 101, 2, double_parity_code),
                                ("single", 9, 5, lambda n: single_parity_code(n, field(5))),
                                ("triple", 31, 32, lambda n: triple_code(n, field(32)))):
        spec = build(n)
        info = tmp_path / f"{family}-info.txt"
        info.write_text("".join(" ".join(str(rng.randrange(q)) for _ in range(i + 1)) + "\n"
                                for i in range(spec.k_info)))
        out = tmp_path / f"{family}-g.txt"
        with monkeypatch.context() as m:
            m.setattr(RepairPlan, "build", classmethod(forbidden))
            assert cli_main(["encode", "--family", family, "--n", str(n), "--q", str(q),
                             "--info", str(info), "--output", str(out)]) == 0
        g = LabeledGraph.from_string(out.read_text())
        assert is_codeword(spec, g), family
        assert g.labels[: num_edges(spec.k_info)].tolist() == [int(v) for v in info.read_text().split()]
        assert oracle_decode(spec, g.erase_nodes(range(spec.k_info, n))).graph == g


def test_returned_graph_and_provenance_are_the_callers():
    spec = triple_code(7)
    g = random_codeword(spec, random.Random(4)).erase_nodes([1, 3, 5])
    first = oracle_decode(spec, g)
    want = outcome(first)
    first.graph.labels[:] = 0
    first.provenance[0].t = 99
    first.provenance[1].edge = (0, 0)
    first.provenance.append(first.provenance[0])
    assert outcome(oracle_decode(spec, g)) == want


def count_eliminations(monkeypatch):
    shapes = []
    rref = framework._rref

    def counting(gf, m, pivot_cols):
        shapes.append(m.shape)
        return rref(gf, m, pivot_cols)

    monkeypatch.setattr(framework, "_rref", counting)
    return shapes


def test_triple_plan_solves_its_core_once_per_run(monkeypatch):
    spec = triple_code(7)
    g = random_codeword(spec, random.Random(6))
    erased = g.erase_nodes([1, 3, 5])
    plan = spec.repair_plan(erased.erased)
    assert [s.kind for s in plan.stages] == ["solve"]
    assert plan.stages[0].targets.size == plan.erased.size == 18
    eliminations = count_eliminations(monkeypatch)
    for _ in range(3):
        assert oracle_decode(spec, erased).graph == g
    # each run is one elimination of [core | rhs], as one dense solve
    assert eliminations == [(18, 19)] * 3


def test_rank_query_leaves_the_cache_and_the_next_decode_alone(monkeypatch):
    spec = triple_code(7)
    g = random_codeword(spec, random.Random(7))
    oracle_decode(spec, g.erase_nodes([0, 2, 4]))
    cached = list(spec._plans)
    eliminations = count_eliminations(monkeypatch)
    assert erased_columns_independent(spec, [1, 3, 5])
    assert list(spec._plans) == cached  # not stored, nothing moved or dropped
    assert erased_columns_independent(spec, [0, 2, 4])
    assert list(spec._plans) == cached
    assert oracle_decode(spec, g.erase_nodes([1, 3, 5])).graph == g
    assert eliminations == [(18, 18), (18, 18), (18, 19)]


def test_pickled_spec_carries_no_plans():
    spec = double_parity_code(11)
    g = encode_double(spec, [0] * num_edges(9))
    oracle_decode(spec, g.erase_nodes([0, 1]))
    assert len(spec._plans) == 1 and "encode_plan" in spec.__dict__
    copy = pickle.loads(pickle.dumps(spec))
    assert len(copy._plans) == 0 and len(spec._plans) == 1
    assert "encode_plan" not in copy.__dict__ and "encode_plan" in spec.__dict__
    assert copy.n == spec.n and copy.checks.cols.tolist() == spec.checks.cols.tolist()
    assert encode_double(copy, [1] * num_edges(9)) == encode_double(spec, [1] * num_edges(9))


@pytest.mark.parametrize("spec", [single_parity_code(6), double_parity_code(7), triple_code(7)])
def test_independence_predicate_matches_dense_rank(spec):
    for r in range(1, 4):
        for failed in itertools.combinations(range(spec.n), r):
            erased = np.flatnonzero(LabeledGraph(spec.n, spec.gf).erase_nodes(failed).erased)
            dense = Matrix(spec.gf, spec.checks.block(erased)).rank() == erased.size
            assert erased_columns_independent(spec, failed) == dense


def test_plans_leave_numpy_ma_unimported(tmp_path):
    # np.unique and np.setdiff1d import numpy.ma on first use, 13-18 ms and
    # about 1.5 MB that every encoding process would pay on its first plan;
    # nor may the first structured decode or triple encode import it, nor
    # the CLI's graph and information file readers and writers
    code = ("import os, random, sys\n"
            "from graphcodes.double import decode_double, double_parity_code, encode_double\n"
            "from graphcodes.framework import encode_systematic, oracle_decode\n"
            "from graphcodes.single import decode_single, single_parity_code\n"
            "from graphcodes.triple import decode_triple, encode_triple, triple_code\n"
            "rng = random.Random(1)\n"
            "spec = double_parity_code(11)\n"
            "g = encode_double(spec, [rng.randrange(2) for _ in range(45)])\n"
            "assert oracle_decode(spec, g.erase_nodes([1, 4])).graph == g\n"
            "assert decode_double(spec, g.erase_nodes([2, 6])).graph == g\n"
            "spec = single_parity_code(6)\n"
            "g = encode_systematic(spec, [rng.randrange(2) for _ in range(15)])\n"
            "assert decode_single(spec, g.erase_nodes([3])).graph == g\n"
            "spec = triple_code(8)\n"
            "g = encode_triple(spec, [rng.randrange(9) for _ in range(15)])\n"
            "assert decode_triple(spec, g.erase_nodes([0, 2, 5])).graph == g\n"
            "from graphcodes.cli import main\n"
            f"d = {str(tmp_path)!r}\n"
            "p = lambda name: os.path.join(d, name)\n"
            "with open(p('info.txt'), 'w') as fh:\n"
            "    fh.write(''.join(' '.join(str(rng.randrange(2)) for _ in range(i + 1)) + '\\n' for i in range(9)))\n"
            "assert main(['encode', '--family', 'double', '--n', '11', '--info', p('info.txt'),\n"
            "             '--output', p('g.txt')]) == 0\n"
            "for family, n in (('single', '10'), ('triple', '12')):  # nine information nodes too\n"
            "    assert main(['encode', '--family', family, '--n', n, '--info', p('info.txt'),\n"
            "                 '--output', p(family + '.txt')]) == 0\n"
            "assert main(['erase', '--input', p('g.txt'), '--fail', '2,6', '--output', p('e.txt')]) == 0\n"
            "assert main(['decode', '--family', 'double', '--input', p('e.txt'), '--output', p('d.txt'),\n"
            "             '--provenance', p('prov.json')]) == 0\n"
            "assert open(p('d.txt')).read() == open(p('g.txt')).read()\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(framework.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.split() == ["False"]
