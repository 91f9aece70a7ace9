"""Acceptance suite: the project's exit criteria, one test per criterion.

Each criterion prints a [PASS] line once all of its assertions hold. Batch
criteria run through the deterministic family runner, so any instance can be
reproduced from the seed recorded in its report.
"""

import time
from math import comb

import pytest

from pathideals.betti import GF2, QQ, betti_hochster, regularity
from pathideals.generators import random_graph
from pathideals.graphs import Graph, load_graph
from pathideals.harness import BatchSpec, reports_to_jsonl, run_batch
from pathideals.ideals import path_ideal
from pathideals.matching import nu3

from conftest import fixture_path
from oracles import betti_koszul_oracle, is_induced_3path_matching, nu3_brute

FIXTURES = {
    "caterpillar_7": (4, 2),
    "c5_pendant_6": (2, 1),
    "c6_pendant_7": (3, 1),
    "c7_tail_11": (6, 2),
}


def _passed(num: int, message: str) -> None:
    print(f"[PASS] criterion {num:2d}: {message}")


@pytest.fixture(scope="module")
def tree_batch():
    spec = BatchSpec(family="tree", n_lo=4, n_hi=13, count=300, seed=0)
    started = time.perf_counter()
    reports = run_batch(spec, jobs=1)
    return spec, reports, time.perf_counter() - started


def test_criterion_01_fixture_golden_values():
    expected = {"c5_pendant_6": (2, 1), "c6_pendant_7": (3, 1), "c7_tail_11": (6, 2)}
    for name, (want_reg, want_nu3) in expected.items():
        graph = load_graph(fixture_path(f"{name}.txt"))
        started = time.perf_counter()
        reg = regularity(path_ideal(graph, 3), GF2)
        elapsed = time.perf_counter() - started
        assert reg == want_reg, name
        assert nu3(graph)[0] == want_nu3, name
        assert elapsed < 30.0, f"{name} took {elapsed:.1f}s"
    _passed(1, "cycle-with-pendant fixtures: reg = 2, 3, 6 and nu3 = 1, 1, 2 over GF(2)")


def test_criterion_02_caterpillar_certificates(caterpillar):
    assert nu3(caterpillar)[0] == 2
    good = is_induced_3path_matching(caterpillar, [(0, 1, 6), (3, 4, 5)])
    assert good.ok
    bad = is_induced_3path_matching(caterpillar, [(0, 1, 2), (3, 4, 5)])
    assert not bad.ok and bad.witness == (2, 3)
    _passed(2, "caterpillar: nu3 = 2, leaf-routed certificate accepted, spine pair rejected")


def test_criterion_03_tree_equality_batch(tree_batch):
    _, reports, elapsed = tree_batch
    assert len(reports) == 300
    assert all(r.error is None for r in reports)
    assert all(r.defect == 0 and r.passed for r in reports)
    assert elapsed < 600.0
    _passed(3, f"300 random trees, n in [4,13], seeds 0..299: reg = 2*nu3 ({elapsed:.0f}s)")


def test_criterion_04_unicyclic_sandwich_batch():
    spec = BatchSpec(family="unicyclic", n_lo=4, n_hi=11, count=300, seed=0)
    reports = run_batch(spec, jobs=1)
    assert all(r.error is None for r in reports)
    assert all(r.passed and 0 <= r.defect <= 2 for r in reports)
    observed = {r.defect for r in reports}
    assert observed == {0, 1, 2}
    _passed(4, "300 non-cycle unicyclic graphs, n in [4,11]: 2*nu3 <= reg <= 2*nu3 + 2, all defects hit")


def test_criterion_05_lower_bound_batch():
    spec = BatchSpec(family="random", n_lo=4, n_hi=9, count=200, seed=0, which="lower")
    reports = run_batch(spec, jobs=1)
    assert all(r.error is None and r.passed for r in reports)
    _passed(5, "200 Bernoulli graphs, n <= 9, p in {0.2, 0.4}: reg >= 2*nu3")


def test_criterion_06_colon_identity_batch():
    spec = BatchSpec(family="random", n_lo=4, n_hi=10, count=500, seed=0, which="colon")
    reports = run_batch(spec, jobs=1)
    assert all(r.error is None and r.passed for r in reports)
    checked = sum(len(r.checks) for r in reports)
    assert checked == 3 * 500  # edge colon plus both vertex orientations
    _passed(6, "500 random (graph, edge) pairs, n <= 10: both colon identities exact")


def test_criterion_07_broom_drop_batch():
    spec = BatchSpec(family="tree", n_lo=3, n_hi=14, count=500, seed=0, which="broom")
    reports = run_batch(spec, jobs=1)
    assert all(r.error is None and r.passed for r in reports)
    _passed(7, "500 random trees, n <= 14: nu3 drops after deleting the broom edge neighborhood")


def test_criterion_08_betti_monotonicity_batch():
    spec = BatchSpec(family="random", n_lo=4, n_hi=8, count=200, seed=0, which="monotone")
    reports = run_batch(spec, jobs=1)
    assert all(r.error is None and r.passed for r in reports)
    _passed(8, "200 random (graph, induced subgraph) pairs, n <= 8: entrywise Betti monotonicity")


def test_criterion_09_oracle_equivalence():
    for k in range(300):
        graph = random_graph(3 + k % 7, (0.2, 0.4)[k % 2], seed=1000 + k)
        ideal = path_ideal(graph, 3)
        assert betti_hochster(ideal, GF2) == betti_koszul_oracle(ideal, GF2), k
    for name in FIXTURES:
        ideal = path_ideal(load_graph(fixture_path(f"{name}.txt")), 3)
        assert betti_hochster(ideal, GF2) == betti_hochster(ideal, QQ), name
    _passed(9, "300 random graphs, n <= 9: Hochster = Koszul oracle; fixtures agree over GF(2) and Q")


def test_criterion_10_complete_intersection_law():
    for s in range(1, 5):
        edges = []
        for k in range(s):
            edges += [(3 * k, 3 * k + 1), (3 * k + 1, 3 * k + 2)]
        table = betti_hochster(path_ideal(Graph(3 * s, tuple(edges)), 3))
        assert table.regularity() == 2 * s
        for i in range(s + 1):
            assert table.as_dict().get((i, 3 * i), 0) == comb(s, i)
    _passed(10, "s = 1..4 disjoint 3-paths: beta_{i,3i} = C(s,i) and reg = 2s")


def test_criterion_11_nu3_solver_vs_brute_force():
    for k in range(200):
        graph = random_graph(4 + k % 7, (0.2, 0.4)[k % 2], seed=2000 + k)
        value, cert = nu3(graph)
        assert value == nu3_brute(graph), k
        if cert.paths:
            assert is_induced_3path_matching(graph, cert.paths).ok
    _passed(11, "200 random graphs, n <= 10: solver agrees with the subset-enumeration oracle")


def test_criterion_12_parallel_determinism(tree_batch):
    spec, solo_reports, _ = tree_batch
    parallel_reports = run_batch(spec, jobs=8)
    assert reports_to_jsonl(solo_reports) == reports_to_jsonl(parallel_reports)
    _passed(12, "tree batch with 1 and 8 workers: byte-identical JSON-lines reports")
