import copy
import dataclasses
import hashlib
import json
import multiprocessing
import os
import signal
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from pathideals.betti import (
    DEFAULT_CAP, GF2, GF3, QQ, BettiTable, HochsterTerms, betti_hochster, sub_table,
)
from pathideals.cli import main
from pathideals.errors import CapacityError, InputError
from pathideals.generators import SplitMix64, graph_from_rng, tree_from_rng, unicyclic_from_rng
from pathideals.graphs import Graph, classify, graph_from_json_obj, load_graph
from pathideals import betti, cli, harness, ideals
from pathideals.harness import (
    CHECKS,
    WHICH_CHOICES,
    BatchSpec,
    CheckResult,
    GraphContext,
    VerificationReport,
    betti_monotonicity,
    colon_identities,
    generate_instance,
    reports_to_csv,
    reports_to_jsonl,
    run_batch,
    verify_graph,
)
from pathideals.ideals import MonomialIdeal, add_monomial, colon, path_ideal

from conftest import fixture_path
from oracles import add_vars, betti_koszul_oracle, edges_within, path_ideal_within

P5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
# The edges of c6_pendant_7 at which the ses check ranks I3(G) + uv: there
# reg(I : uv) + 2 = 2, and deleting u or v leaves reg 2, below reg(I) = 3.
C6_PENDANT_SUM_EDGES = ((0, 1), (0, 5), (1, 2), (4, 5))
FIXTURES = ("caterpillar_7", "c5_pendant_6", "c6_pendant_7", "c7_tail_11")


def test_lower_bound_report(caterpillar):
    (report,) = verify_graph(caterpillar, "lower", source="caterpillar")
    assert report.passed
    assert (report.reg, report.nu3, report.defect) == (4, 2, 0)
    assert report.classification == "tree"
    assert report.graph["n"] == 7


def test_tree_equality_report():
    (report,) = verify_graph(P5, "tree")
    assert report.passed and report.reg == 2 and report.nu3 == 1
    forest = Graph(6, ((0, 1), (1, 2), (3, 4), (4, 5)))
    (forest_report,) = verify_graph(forest, "tree")
    assert forest_report.passed and forest_report.reg == 4


def test_tree_equality_rejects_non_trees(c5_pendant):
    with pytest.raises(InputError):
        verify_graph(c5_pendant, "tree")


def test_unicyclic_sandwich_fixture_defects(c5_pendant, c6_pendant, c7_tail):
    assert verify_graph(c5_pendant, "unicyclic")[0].defect == 0
    assert verify_graph(c6_pendant, "unicyclic")[0].defect == 1
    (report,) = verify_graph(c7_tail, "unicyclic")
    assert report.defect == 2 and report.passed


def test_unicyclic_sandwich_rejects_cycles_and_trees():
    c7 = Graph(7, tuple((i, (i + 1) % 7) for i in range(7)))
    with pytest.raises(InputError):
        verify_graph(c7, "unicyclic")
    with pytest.raises(InputError):
        verify_graph(P5, "unicyclic")


def test_betti_monotonicity_full_subset_is_equality(caterpillar):
    report = betti_monotonicity(GraphContext(caterpillar), range(caterpillar.n))
    assert report.passed


def test_betti_monotonicity_cycle_inside_tail_fixture(c7_tail):
    cycle = (0, 1, 2, 3, 4, 5, 6)
    report = betti_monotonicity(GraphContext(c7_tail), cycle)
    assert report.passed


def padded(graph: Graph, isolated: int, edges: int, order: list[int]) -> Graph:
    """``graph`` plus isolated vertices and isolated edges, relabeled by ``order``.

    The added vertices lie in no 3-path, so the vertices I3 uses are not
    0..k-1 in general: a mask over them is not a mask over the labels.
    """
    n = graph.n + isolated + 2 * edges
    extra = tuple((graph.n + isolated + 2 * k, graph.n + isolated + 2 * k + 1) for k in range(edges))
    label = dict(zip(range(n), order))
    return Graph(n, tuple((label[u], label[v]) for u, v in graph.edges + extra))


@st.composite
def padded_graphs(draw, max_n=8):
    kind = draw(st.sampled_from(["tree", "unicyclic", "random"]))
    n = draw(st.integers(4 if kind == "unicyclic" else 1, max_n))
    rng = SplitMix64(draw(st.integers(0, 10**9)))
    if kind == "tree":
        base = tree_from_rng(n, rng)
    elif kind == "unicyclic":
        base = unicyclic_from_rng(n, rng)
    else:
        base = graph_from_rng(n, draw(st.sampled_from([0.2, 0.4])), rng)
    isolated, edges = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    order = draw(st.permutations(range(n + isolated + 2 * edges)))
    return padded(base, isolated, edges, order)


@given(padded_graphs(max_n=30))
@settings(max_examples=200)
def test_the_degree_count_is_the_number_of_variables_of_i3(graph):
    variables = frozenset().union(*path_ideal(graph, 3).gens)
    assert graph.three_path_vertices() == variables
    assert len(GraphContext(graph).used) == len(variables)


@st.composite
def forests_of_pieces(draw):
    """Disjoint unions of up to 12 small trees, cycles and unicyclic graphs, relabeled."""
    pieces = draw(st.lists(
        st.tuples(st.sampled_from(["tree", "cycle", "unicyclic"]), st.integers(1, 7), st.integers(0, 10**9)),
        max_size=12,
    ))
    n, edges = 0, []
    for kind, k, seed in pieces:
        if kind == "tree":
            piece = tree_from_rng(k, SplitMix64(seed))
        elif kind == "cycle":
            piece = Graph(k + 2, tuple((j, (j + 1) % (k + 2)) for j in range(k + 2)))
        else:
            piece = unicyclic_from_rng(k + 3, SplitMix64(seed))
        edges += [(u + n, v + n) for u, v in piece.edges]
        n += piece.n
    return padded(Graph(n, tuple(edges)), 0, 0, draw(st.permutations(range(n))))


def brute_classification(graph):
    """``classify``'s answer from each component's own edge list."""
    kinds = []
    for comp in graph.components():
        inside = edges_within(graph, comp)
        if len(inside) == len(comp) - 1:
            kinds.append("tree")
        elif len(inside) == len(comp):
            degree_2 = all(sum(v in e for e in inside) == 2 for v in comp)
            kinds.append("cycle" if degree_2 else "unicyclic")
        else:
            kinds.append("other")
    if len(kinds) == 1:
        return kinds[0], tuple(kinds)
    return ("forest" if set(kinds) <= {"tree"} else "other"), tuple(kinds)


@given(st.one_of(padded_graphs(max_n=14), forests_of_pieces()))
@settings(max_examples=200)
@example(Graph(0, ()))
def test_classify_and_neighborhood_edge_sets_match_their_definitions(graph):
    got = classify(graph)
    assert (got.kind, got.components) == brute_classification(graph)
    for x in range(graph.n):
        near = {e for e in graph.edges if x not in e and (graph.has_edge(x, e[0]) or graph.has_edge(x, e[1]))}
        assert graph.neighborhood_edge_set(x) == near, x


@given(padded_graphs())
@settings(max_examples=60)
def test_ses_takes_its_shortcuts_at_exactly_the_edges_on_a_3_path(graph):
    shortcut = []

    def recorded(ideal, mono):
        shortcut.append(tuple(sorted(mono)))
        return colon(ideal, mono)

    gens = path_ideal(graph, 3).gens
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "colon", recorded)
        harness.ses_edges(GraphContext(graph), graph.edges)
    assert shortcut == [(u, v) for u, v in graph.edges if any(u in g and v in g for g in gens)]


def assert_ses_reads_the_colon_checks_colons(graph):
    """``ses`` on a context the colon check ran on first builds no colon and gives the same bytes."""
    fresh, warm = GraphContext(graph), GraphContext(graph)
    CHECKS["colon"].on_graph(warm)
    assert set(warm.colons) == {frozenset(e) for e in graph.edges}
    built = []

    def recorded(ideal, mono):
        built.append(tuple(sorted(mono)))
        return colon(ideal, mono)

    expected = reports_to_jsonl(CHECKS["ses"].on_graph(fresh))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "colon", recorded)
        got = reports_to_jsonl(CHECKS["ses"].on_graph(warm))
    assert got == expected
    assert built == []


@given(padded_graphs())
@settings(max_examples=40)
def test_ses_after_the_colon_check_reads_its_colons_and_changes_no_byte(graph):
    assert_ses_reads_the_colon_checks_colons(graph)


@pytest.mark.parametrize("name", FIXTURES)
def test_ses_after_the_colon_check_changes_no_byte_on_the_fixtures(name):
    assert_ses_reads_the_colon_checks_colons(load_graph(fixture_path(f"{name}.txt")))


@pytest.mark.parametrize("graph, cap", [
    *((load_graph(fixture_path(f"{name}.txt")), 3) for name in FIXTURES),
    (tree_from_rng(30, SplitMix64(1)), 22),
], ids=[*FIXTURES, "tree30"])
def test_a_graph_over_the_cap_keeps_no_edge_colon(graph, cap):
    ctx = GraphContext(graph, cap=cap)
    assert len(ctx.used) > cap
    reports = CHECKS["colon"].on_graph(ctx)
    assert ctx.colons == {}
    # the colon check reads no table, so the cap changes none of its bytes
    assert reports_to_jsonl(reports) == reports_to_jsonl(CHECKS["colon"].on_graph(GraphContext(graph, cap=64)))


@pytest.mark.parametrize("graph", [
    *(load_graph(fixture_path(f"{name}.txt")) for name in FIXTURES),
    tree_from_rng(30, SplitMix64(1)),
], ids=[*FIXTURES, "tree30"])
def test_the_colon_check_and_the_tables_build_no_generator_supports(graph, monkeypatch):
    built = []
    real = ideals._supports
    monkeypatch.setattr(ideals, "_supports", lambda masks: built.append(masks) or real(masks))
    verify_graph(graph, "colon")
    if graph.n <= DEFAULT_CAP:
        # I3(G)'s table, a sub-sum's and the colon's set test in GraphContext.reg
        ctx = GraphContext(graph)
        ctx.table()
        ctx.table(range(1, graph.n))
        ctx.reg(ctx.edge_colon(*graph.edges[0]))
    assert built == []
    # reading gens goes through the patched _supports
    assert path_ideal(graph, 3).gens and len(built) == 1


def test_the_reports_on_one_graph_share_its_json_object(caterpillar):
    reports = verify_graph(caterpillar, "all")
    assert len(reports) > 1
    assert all(r.graph is reports[0].graph for r in reports)


def test_report_json_keys_are_every_field_but_elapsed():
    report = VerificationReport({"n": 0, "edges": []}, "graph", "forest", 0)
    assert list(report.to_json_obj()) == [f.name for f in dataclasses.fields(report) if f.name != "elapsed"]


def joined_json_lines(reports) -> str:
    return "".join(r.json_line() + "\n" for r in reports)


@pytest.mark.parametrize("name", FIXTURES)
def test_jsonl_of_one_graphs_reports_is_their_json_lines(name):
    # one graph dict shared by every report, its text spliced into each line
    reports = verify_graph(load_graph(fixture_path(f"{name}.txt")), "all", source=name)
    assert len(reports) > 1
    assert reports_to_jsonl(reports) == joined_json_lines(reports)


@pytest.mark.parametrize("family, which", [("tree", "all"), ("unicyclic", "monotone"), ("random", "ses")])
def test_jsonl_of_batch_reports_is_their_json_lines(family, which):
    # one graph per report, with family, seed and index set
    reports = run_batch(BatchSpec(family, 4, 9, 6, 11, which=which))
    assert all(r.index == k and r.family == family for k, r in enumerate(reports))
    assert reports_to_jsonl(reports) == joined_json_lines(reports)


def test_jsonl_of_errored_reports_is_their_json_lines():
    reports = run_batch(BatchSpec("random", 6, 9, 6, 2, cap=3))
    errored = [r for r in reports if r.error is not None]
    assert errored and all(r.reg is None for r in errored)
    assert reports_to_jsonl(reports) == joined_json_lines(reports)


def test_jsonl_splices_the_graph_at_its_key_not_inside_a_string():
    (r,) = verify_graph(P5, "lower", source='x,"index":1')
    r.checks.append(CheckResult("lower_bound", True, ',"index":2,"graph":{}'))
    assert reports_to_jsonl([r, r]) == joined_json_lines([r, r])


def test_jsonl_of_search_reports_is_their_json_lines(tmp_path, capsys):
    out = tmp_path / "search"
    argv = ["search", "--family", "random", "--n", "5..8", "--count", "8", "--seed", "4", "--out", str(out)]
    with mock.patch.object(cli, "reports_to_jsonl", wraps=reports_to_jsonl) as spy:
        assert main(argv) == 0
    (call,) = spy.call_args_list
    assert (out / "reports.jsonl").read_text() == joined_json_lines(call.args[0])
    capsys.readouterr()


def assert_subgraph_tables_are_fresh_tables(graph, field, subsets, reference=betti_hochster):
    ctx = GraphContext(graph, field)
    for keep in subsets:
        assert ctx.table(keep) == reference(path_ideal_within(graph, keep, 3), field), keep


@given(padded_graphs(), st.sampled_from([GF2, GF3, QQ]), st.data())
@settings(max_examples=50)
# vertex 0 is isolated and vertex 1 ends an isolated edge, so every used
# vertex's position is below its label
@example(padded(P5, 1, 1, [2, 3, 4, 5, 6, 0, 1, 7]), GF2, None)
def test_subgraph_tables_are_the_fresh_tables_of_induced_subgraphs(graph, field, data):
    every = set(range(graph.n))
    subsets = [every, set(), *(every - {v} for v in every)]
    if data is not None:
        subsets += [data.draw(st.sets(st.sampled_from(sorted(every)))) for _ in range(3)]
    assert_subgraph_tables_are_fresh_tables(graph, field, subsets)


def test_subgraph_tables_without_a_3_path_are_trivial():
    graph = padded(P5, 2, 1, [3, 4, 5, 6, 7, 0, 1, 8, 2])
    ctx = GraphContext(graph)
    trivial = BettiTable(((0, 0, 1),))
    # the empty set, an isolated edge with an isolated vertex, and the path
    # 3-4-5-6-7 with 4 and 7 deleted
    for keep in (set(), {0, 8, 2}, {0, 3, 5, 6}):
        assert ctx.table(keep) == trivial
    edgeless = GraphContext(Graph(3, ()))
    assert edgeless.table({0, 1}) == trivial
    # the zero ideal's sum lists no terms
    assert edgeless.table().terms == HochsterTerms((), ())


def fresh_calls(ctx, ideals):
    """``ctx.reg`` of each ideal, and the ideals it ran a Hochster sum of its own for."""
    ctx.table()
    with mock.patch.object(harness, "betti_hochster", wraps=betti_hochster) as spy:
        regs = [ctx.reg(j) for j in ideals]
    return regs, [call.args[0] for call in spy.call_args_list]


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=lambda f: f.token)
def test_subgraph_tables_match_the_koszul_oracle(field, caterpillar, c5_pendant):
    # n = 8 each: an isolated vertex 0, or an isolated edge {0, 6}
    graphs = (padded(caterpillar, 1, 0, [*range(1, 8), 0]), padded(c5_pendant, 0, 1, [*range(1, 6), 7, 0, 6]))
    for graph in graphs:
        every = set(range(graph.n))
        subsets = [every - {v} for v in every] + [{1, 2, 3, 4}]
        assert_subgraph_tables_are_fresh_tables(graph, field, subsets, betti_koszul_oracle)
        # and the colon regularities, those of sub-sums (a Koszul factor shifts i and j together)
        ctx = GraphContext(graph, field)
        cases = [colon(ctx.ideal, e) for e in graph.edges]
        cases.append(add_vars(path_ideal_within(graph, {1, 2, 3, 4}, 3), {0, 5, 7}))
        regs, fresh = fresh_calls(ctx, cases)
        assert fresh == []
        for j, reg in zip(cases, regs):
            table = betti_koszul_oracle(j, field)
            assert betti_hochster(j, field) == table and reg == table.regularity(), j


@given(padded_graphs(), st.sampled_from([GF2, GF3, QQ]), st.data())
@settings(max_examples=50)
@example(padded(P5, 1, 1, [2, 3, 4, 5, 6, 0, 1, 7]), GF2, None)
def test_colon_tables_are_the_fresh_tables(graph, field, data):
    ctx = GraphContext(graph, field)
    ideal = ctx.ideal
    # the form the context answers from I3(G)'s sum: every edge colon, and
    # I3(G[S]) plus variables outside S
    cases = [colon(ideal, e) for e in graph.edges]
    if data is not None:
        every = list(range(graph.n))
        for _ in range(3):
            keep = data.draw(st.sets(st.sampled_from(every)))
            rest = sorted(set(every) - keep)
            extra = data.draw(st.sets(st.sampled_from(rest))) if rest else set()
            cases.append(add_vars(path_ideal_within(graph, keep, 3), extra))
    regs, fresh = fresh_calls(ctx, cases)
    assert fresh == []
    for j, reg in zip(cases, regs):
        assert reg == betti_hochster(j, field).regularity(), j
    # I + uv, and the one-vertex colons of it and of I, are not of that form
    # when they keep a quadric generator, and get their own sums
    quadrics = [
        j
        for u, v in graph.edges[:3]
        for j in (add_monomial(ideal, (u, v)), colon(add_monomial(ideal, (u, v)), {u}), colon(ideal, {u}))
        if any(len(g) == 2 for g in j.gens)
    ]
    assert fresh_calls(ctx, quadrics)[1] == quadrics
    # I with a generator dropped is of that form only when the generator
    # leaves the union; either way its regularity is its own
    dropped = [MonomialIdeal(graph.n, ideal.gens - {g}) for g in sorted(ideal.gens, key=sorted)[:3]]
    for j, reg in zip(dropped, fresh_calls(ctx, dropped)[0]):
        assert reg == betti_hochster(j, field).regularity(), j


def test_colon_identities_every_edge(caterpillar):
    ctx = GraphContext(caterpillar)
    for edge in caterpillar.edges:
        report = colon_identities(ctx, edge)
        assert report.passed, edge
        assert len(report.checks) == 3
    with pytest.raises(InputError):
        colon_identities(ctx, (0, 5))


def test_ses_edges_report(caterpillar):
    (report,) = verify_graph(caterpillar, "ses")
    assert report.passed
    assert "6 edge(s) checked" in report.checks[0].details


def test_a_failing_ses_bound_names_its_first_failure(monkeypatch, c6_pendant):
    real = GraphContext.reg
    asked = []

    def lowered(self, ideal):
        # I3(G) + uv, and no other ideal the check asks for, has a quadric
        # generator; lowering its regularity by one breaks the bound exactly
        # where neither the colon side nor a vertex deletion settles it
        asked.append(ideal)
        return real(self, ideal) - any(len(g) == 2 for g in ideal.gens)

    monkeypatch.setattr(GraphContext, "reg", lowered)
    (report,) = verify_graph(c6_pendant, "ses")
    assert report.checks == [CheckResult(
        "ses_bound", False,
        "7 edge(s) checked; first failure at (0, 1): "
        "SesBoundReport(reg_quotient=3, reg_colon_shifted=2, reg_sum=2)",
    )]
    ideal = path_ideal(c6_pendant, 3)
    sums = [j for j in asked if any(len(g) == 2 for g in j.gens)]
    assert sums == [add_monomial(ideal, e) for e in C6_PENDANT_SUM_EDGES]


def assert_deletions_keep_the_sum_terms(graph, field):
    """Inside V - w, w in {u, v}, I + uv has exactly I3(G - w)'s generators, so its terms.

    The lemma behind the ses check's deletion certificate, refereed on fresh
    I + uv sums at every edge of a 3-path.
    """
    ctx = GraphContext(graph, field)
    every = set(range(graph.n))
    for u, v in graph.edges:
        if not any(u in g and v in g for g in ctx.ideal.gens):
            continue
        terms = betti_hochster(add_monomial(ctx.ideal, (u, v)), field).terms
        for w in (u, v):
            assert sub_table(terms, every - {w}) == ctx.table(every - {w}), (u, v, w)


@given(padded_graphs(), st.sampled_from([GF2, GF3, QQ]))
@settings(max_examples=40)
def test_deleting_an_end_of_uv_leaves_the_terms_of_i_plus_uv_those_of_i(graph, field):
    assert_deletions_keep_the_sum_terms(graph, field)


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=lambda f: f.token)
@pytest.mark.parametrize("name", FIXTURES)
def test_deleting_an_end_of_uv_leaves_the_terms_of_i_plus_uv_those_of_i_on_the_fixtures(name, field):
    assert_deletions_keep_the_sum_terms(load_graph(fixture_path(f"{name}.txt")), field)


def test_verify_graph_all_on_tree(caterpillar):
    reports = verify_graph(caterpillar, "all", source="caterpillar")
    names = [c.name for r in reports for c in r.checks]
    for expected in ("lower_bound", "tree_equality", "ses_bound",
                     "betti_monotone_deletions", "broom_edge_drop"):
        assert expected in names
    assert names.count("colon_by_edge") == len(caterpillar.edges)
    assert all(r.passed for r in reports)


def test_verify_graph_all_on_single_vertex():
    reports = verify_graph(Graph(1, ()), "all")
    assert all(r.passed for r in reports)
    names = [c.name for r in reports for c in r.checks]
    assert "broom_edge_drop" not in names  # K1 has no broom vertex
    # a tree has a vertex of degree >= 2 exactly when it has 3 or more vertices
    k2 = [c.name for r in verify_graph(Graph(2, ((0, 1),)), "all") for c in r.checks]
    assert "broom_edge_drop" not in k2
    p3 = [c.name for r in verify_graph(Graph(3, ((0, 1), (1, 2))), "all") for c in r.checks]
    assert "broom_edge_drop" in p3


def test_verify_graph_all_on_unicyclic(c5_pendant):
    reports = verify_graph(c5_pendant, "all")
    names = [c.name for r in reports for c in r.checks]
    assert "sandwich_upper" in names and "tree_equality" not in names


def test_ses_bound_batch_100_graphs():
    spec = BatchSpec(family="random", n_lo=4, n_hi=8, count=100, seed=7, which="ses")
    reports = run_batch(spec, jobs=2)
    assert all(r.error is None and r.passed for r in reports)


def test_batch_spec_validation():
    with pytest.raises(InputError):
        BatchSpec(family="unicyclic", n_lo=3, n_hi=5, count=1, seed=0)
    with pytest.raises(InputError):
        BatchSpec(family="nonsense", n_lo=3, n_hi=5, count=1, seed=0)
    with pytest.raises(InputError):
        BatchSpec(family="tree", n_lo=5, n_hi=4, count=1, seed=0)
    with pytest.raises(InputError):
        BatchSpec(family="tree", n_lo=4, n_hi=5, count=-1, seed=0)
    assert run_batch(BatchSpec(family="tree", n_lo=4, n_hi=5, count=0, seed=0), jobs=4) == []
    with pytest.raises(InputError, match="jobs must be at least 1"):
        run_batch(BatchSpec(family="tree", n_lo=4, n_hi=5, count=0, seed=0), jobs=0)
    with pytest.raises(InputError, match="unknown batch check 'bogus'"):
        BatchSpec("tree", 4, 4, 3, 0, which="bogus")
    with pytest.raises(InputError):
        BatchSpec("tree", 4, 4, 3, 0, which="family")


def test_generate_instance_is_deterministic_and_cycles_n():
    spec = BatchSpec(family="tree", n_lo=4, n_hi=6, count=9, seed=11)
    sizes = [generate_instance(spec, k)[0].n for k in range(9)]
    assert sizes == [4, 5, 6, 4, 5, 6, 4, 5, 6]
    again = [generate_instance(spec, k)[0] for k in range(9)]
    assert [generate_instance(spec, k)[0] for k in range(9)] == again


def test_generate_instance_unicyclic_never_a_cycle():
    spec = BatchSpec(family="unicyclic", n_lo=4, n_hi=5, count=30, seed=2)
    for k in range(30):
        graph, _ = generate_instance(spec, k)
        assert classify(graph).kind == "unicyclic"


def test_run_batch_parallel_reports_are_byte_identical():
    spec = BatchSpec(family="tree", n_lo=4, n_hi=7, count=8, seed=3)
    solo = run_batch(spec, jobs=1)
    duo = run_batch(spec, jobs=2)
    assert reports_to_jsonl(solo) == reports_to_jsonl(duo)
    assert all(r.passed for r in solo)


def test_run_batch_starts_no_more_workers_than_instances(monkeypatch):
    sizes = []

    def in_process(spec, workers):
        """Records the worker count and runs the batch in this process, so no worker starts."""
        sizes.append(workers)
        return [harness.run_instance(spec, k) for k in range(spec.count)]

    monkeypatch.setattr(harness, "_run_workers", in_process)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 8)
    spec = BatchSpec(family="unicyclic", n_lo=5, n_hi=6, count=3, seed=4)
    pooled = run_batch(spec, jobs=8)
    assert sizes == [3]
    assert reports_to_jsonl(pooled) == reports_to_jsonl(run_batch(spec, jobs=1))
    single = BatchSpec(family="tree", n_lo=5, n_hi=5, count=1, seed=4)
    assert reports_to_jsonl(run_batch(single, jobs=8)) == reports_to_jsonl(run_batch(single))
    assert sizes == [3]
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    assert reports_to_jsonl(run_batch(spec, jobs=8)) == reports_to_jsonl(pooled)
    assert sizes == [3, 2]


def test_usable_cpus_counts_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert harness._usable_cpus() == 2
    # where the OS has no affinity mask, every CPU counts
    monkeypatch.delattr(os, "sched_getaffinity")
    assert harness._usable_cpus() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._usable_cpus() == 1


@pytest.fixture
def hang_guard():
    """Fails a test whose batch hangs within seconds, not at the CI job's timeout."""

    def hung(signum, frame):
        raise TimeoutError("the batch hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def instance_3_does(monkeypatch, act):
    """Makes ``act`` run in place of instance 3 in every worker, on at least two workers."""
    real = harness.run_instance

    def patched(spec, k):
        return act() if k == 3 else real(spec, k)

    monkeypatch.setattr(harness, "run_instance", patched)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)


def exit_9():
    os._exit(9)


def test_a_dead_worker_ends_the_batch_with_a_capacity_error(monkeypatch, hang_guard):
    instance_3_does(monkeypatch, exit_9)
    with pytest.raises(CapacityError, match=r"exit code 9\b"):
        run_batch(BatchSpec("tree", 8, 11, 6, 1), jobs=2)
    assert multiprocessing.active_children() == []


def test_verify_exits_3_when_a_batch_worker_dies(monkeypatch, capsys, hang_guard):
    instance_3_does(monkeypatch, exit_9)
    argv = ["verify", "--family", "tree", "--n", "8..11", "--count", "6", "--seed", "1", "--jobs", "2"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("capacity error: ") and "exit code 9" in err
    assert multiprocessing.active_children() == []


def test_verify_exits_3_when_a_batch_worker_cannot_start(monkeypatch, capsys, hang_guard):
    # the first worker starts and the second cannot, as when fork hits a process limit
    fork_process = multiprocessing.get_context("fork").Process
    real_start, starts = fork_process.start, []

    def start(self):
        starts.append(self)
        if len(starts) > 1:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        real_start(self)

    monkeypatch.setattr(fork_process, "start", start)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    argv = ["verify", "--family", "tree", "--n", "8..11", "--count", "6", "--seed", "1", "--jobs", "2"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert (out, len(starts)) == ("", 2)
    assert err == "capacity error: could not start a batch worker: [Errno 11] Resource temporarily unavailable\n"
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_holding_the_counter_lock_strands_no_other(monkeypatch, hang_guard):
    def die_holding_the_lock(spec, counter, conn):
        counter.get_lock().acquire()
        os._exit(9)

    # the first worker to take the lock dies with it, and the other waits on it for good
    monkeypatch.setattr(harness, "_claim_instances", die_holding_the_lock)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    with pytest.raises(CapacityError, match=r"exit code 9\b"):
        run_batch(BatchSpec("tree", 8, 11, 6, 1), jobs=2)
    assert multiprocessing.active_children() == []


def test_an_exception_in_a_worker_reaches_the_caller(monkeypatch, hang_guard):
    def fail():
        raise RuntimeError("instance 3 failed")

    instance_3_does(monkeypatch, fail)
    spec = BatchSpec("tree", 8, 11, 6, 1)
    with pytest.raises(RuntimeError, match="instance 3 failed"):
        run_batch(spec, jobs=2)
    assert multiprocessing.active_children() == []
    monkeypatch.undo()
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    reports = run_batch(spec, jobs=2)
    assert [r.index for r in reports] == list(range(6))
    assert all(r.passed and r.elapsed is not None for r in reports)
    assert multiprocessing.active_children() == []


def test_workers_claim_every_instance_exactly_once(monkeypatch, tmp_path, hang_guard):
    # instant instances on more workers than cores, so claims contend for the
    # counter's lock; a lost update would run some index twice
    claims = tmp_path / "claims"

    def record(spec, k):
        with open(claims, "a") as fh:
            fh.write(f"{k}\n")
        return k

    monkeypatch.setattr(harness, "run_instance", record)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 6)
    assert run_batch(BatchSpec("tree", 4, 4, 3000, 1), jobs=6) == list(range(3000))
    assert sorted(map(int, claims.read_text().split())) == list(range(3000))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("which", ["all", "colon", "ses", "monotone"])
@pytest.mark.parametrize("family", harness.FAMILIES)
def test_batch_output_bytes_do_not_depend_on_jobs(monkeypatch, capsys, family, which):
    # three usable CPUs, so that --jobs 3 runs three workers on any host
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    for count in ("5", "2"):
        argv = ["verify", "--family", family, "--which", which, "--n", "8..11", "--count", count, "--seed", "2"]
        runs = []
        for jobs in ("1", "2", "3"):
            code = main([*argv, "--jobs", jobs])
            runs.append((code, *capsys.readouterr()))
        assert runs[0][1].count("\n") == int(count)
        assert runs[1] == runs[0] and runs[2] == runs[0], (count, [r[0] for r in runs])
    assert multiprocessing.active_children() == []


def test_search_output_files_do_not_depend_on_jobs(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    argv = ["search", "--family", "random", "--n", "8..11", "--count", "7", "--seed", "3"]
    runs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        code = main([*argv, "--jobs", jobs, "--out", str(out)])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((code, *capsys.readouterr(), files))
    assert "histogram.csv" in runs[0][3] and len(runs[0][3]) > 3
    assert runs[1] == runs[0]


def test_report_serialization_shapes():
    spec = BatchSpec(family="random", n_lo=4, n_hi=6, count=3, seed=9)
    reports = run_batch(spec)
    line = reports[0].json_line()
    obj = json.loads(line)
    assert obj["index"] == 0 and obj["family"] == "random"
    assert "elapsed" not in obj  # timings stay out of the serialized report
    assert graph_from_json_obj(obj["graph"]).n == obj["n"]
    csv = reports_to_csv(reports)
    assert csv.splitlines()[0] == "n,family,seed,reg,nu3,defect,pass"
    assert len(csv.splitlines()) == 4


def test_errors_are_recorded_not_raised():
    spec = BatchSpec(family="tree", n_lo=6, n_hi=6, count=2, seed=0, cap=3)
    reports = run_batch(spec)
    assert all(r.error is not None and "CapacityError" in r.error for r in reports)
    assert all(r.passed for r in reports)  # no failed checks, only errors


def test_search_defect_histogram_and_exemplars(tmp_path):
    argv = ["search", "--family", "tree", "--n", "4..7", "--count", "12", "--seed", "5"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "histogram.csv").read_text() == "defect,count\n0,12\n"
    assert sorted(p.name for p in tmp_path.glob("tree_n*_defect*.json")) == [
        "tree_n4_defect0.json",
        "tree_n5_defect0.json",
        "tree_n6_defect0.json",
        "tree_n7_defect0.json",
    ]
    graph = json.loads((tmp_path / "tree_n4_defect0.json").read_text())
    assert graph["n"] == 4 and len(graph["edges"]) == 3  # a 4-vertex tree has 3 edges


def test_verify_graph_all_computes_each_betti_table_once(monkeypatch, c7_tail):
    from pathideals import harness

    calls = []
    real = harness.betti_hochster

    def counting(ideal, field, *args, **kwargs):
        calls.append((ideal, field))
        return real(ideal, field, *args, **kwargs)

    monkeypatch.setattr(harness, "betti_hochster", counting)
    verify_graph(c7_tail, "all")
    # I3(G) alone: at x1x8 and x8x9, where reg(I : uv) + 2 = 4 < reg(I) = 6,
    # deleting x8 leaves reg 6, and at the other nine edges the colon side
    # settles the bound. The 11 edge colons and the 11 vertex deletions are
    # sub-sums of I3(G)'s sum.
    ideal = path_ideal(c7_tail, 3)
    assert calls == [(ideal, GF2)]
    verify_graph(c7_tail, "all")  # nothing is kept between calls
    assert len(calls) == 2
    calls.clear()
    verify_graph(c7_tail, "monotone")
    assert calls == [(ideal, GF2)]
    calls.clear()
    verify_graph(c7_tail, "ses")
    assert calls == [(ideal, GF2)]


@pytest.mark.parametrize("name", ["caterpillar_7", "c6_pendant_7", "G12"])
def test_verify_graph_all_leaves_the_memo_as_the_sum_filled_it(monkeypatch, name):
    # the memo stays inside the sum; what reaches the checks is the list of
    # its terms on I3(G)'s table, shared by every sub-sum, so any check that
    # wrote to it would change the sub-sums after it
    graph = graph_from_rng(12, 0.3, SplitMix64(1)) if name == "G12" else load_graph(fixture_path(f"{name}.txt"))
    listed = []
    real = harness.betti_hochster

    def snapshot(ideal, *args, **kwargs):
        table = real(ideal, *args, **kwargs)
        listed.append((ideal, table.terms, copy.deepcopy(table.terms)))
        return table

    monkeypatch.setattr(harness, "betti_hochster", snapshot)
    verify_graph(graph, "all")
    assert listed[0][0] == path_ideal(graph, 3)
    for _, terms, copied in listed:
        assert terms == copied


def sums_of_verify_all(graph) -> list[MonomialIdeal]:
    """The ideals ``verify_graph(graph, "all")`` runs Hochster sums of, once no vertex set's sub-sum repeats."""
    with mock.patch.object(harness, "sub_table", wraps=sub_table) as subs, \
            mock.patch.object(harness, "betti_hochster", wraps=betti_hochster) as sums:
        verify_graph(graph, "all")
    keeps = [frozenset(call.args[1]) for call in subs.call_args_list]
    assert len(keeps) == len(set(keeps)), keeps
    return [call.args[0] for call in sums.call_args_list]


@pytest.mark.parametrize("name", FIXTURES)
def test_verify_graph_all_sums_i_plus_uv_only_where_no_sub_sum_settles_the_bound(name):
    graph = load_graph(fixture_path(f"{name}.txt"))
    ideal = path_ideal(graph, 3)
    edges = C6_PENDANT_SUM_EDGES if name == "c6_pendant_7" else ()
    assert sums_of_verify_all(graph) == [ideal, *(add_monomial(ideal, e) for e in edges)]


@given(padded_graphs())
@settings(max_examples=40)
def test_verify_graph_all_sums_each_vertex_set_once_on_padded_graphs(graph):
    ideal = path_ideal(graph, 3)
    first, *rest = sums_of_verify_all(graph)
    assert first == ideal
    assert set(rest) <= {add_monomial(ideal, e) for e in graph.edges}


# The path 0-1-2-3 plus the edge 4-5, which lies on no 3-path. The digests
# pin the report bytes, which the keying of the tables must not change.
P4_PLUS_EDGE = Graph(6, ((0, 1), (1, 2), (2, 3), (4, 5)))
P4_PLUS_EDGE_REPORTS = {
    "ses": "fe73edae1c48f6b33c63dc3da6f1dd11167530b307d889e9fbd342ce2036d9a5",
    "all": "631eea5bcfcc81e6c05852d55e1aa64bf3b69ae918382e9e72b3dea0edb618f9",
}


@pytest.mark.parametrize("which, keeps", [
    # the path's edge colons are variables only, the sub-sum over no vertex;
    # the colon at 4-5 is I3(G) itself, whose table is not a sub-sum
    ("ses", [[]]),
    # and the four deletions on the path; deleting 4 or 5 is I3(G)'s table
    ("all", [[], [1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]),
])
def test_vertex_sets_are_keyed_by_the_vertices_on_3_paths(which, keeps):
    with mock.patch.object(harness, "sub_table", wraps=sub_table) as subs:
        text = reports_to_jsonl(verify_graph(P4_PLUS_EDGE, which))
    assert [sorted(call.args[1]) for call in subs.call_args_list] == keeps
    assert hashlib.sha256(text.encode()).hexdigest() == P4_PLUS_EDGE_REPORTS[which]


def terms_listed(run) -> tuple[list[int], list[int]]:
    """Run ``run()``: how often ``hochster_terms`` ran inside each Hochster sum, and inside each sub-sum."""
    per_sum, per_sub = [], []
    with mock.patch.object(betti, "hochster_terms", wraps=betti.hochster_terms) as listed:
        def counted(real, into):
            def call(*args, **kwargs):
                before = listed.call_count
                got = real(*args, **kwargs)
                into.append(listed.call_count - before)
                return got
            return call

        with mock.patch.object(harness, "betti_hochster", counted(harness.betti_hochster, per_sum)), \
                mock.patch.object(harness, "sub_table", counted(harness.sub_table, per_sub)):
            run()
    # no terms are listed outside a sum
    assert listed.call_count == sum(per_sum)
    return per_sum, per_sub


@pytest.mark.parametrize("command, name", [
    ("reg", "c7_tail_11"),
    *((which, "c6_pendant_7" if which == "unicyclic" else "caterpillar_7") for which in CHECKS),
    *(("all", name) for name in [*FIXTURES, "P4_PLUS_EDGE", "two_edges"]),
])
def test_each_sum_lists_its_terms_once_and_no_sub_sum_lists_any(command, name, capsys):
    graph = {
        "P4_PLUS_EDGE": P4_PLUS_EDGE,
        # no 3-path, so every vertex set's table is I3(G)'s and no sub-sum runs
        "two_edges": Graph(4, ((0, 1), (2, 3))),
    }.get(name) or load_graph(fixture_path(f"{name}.txt"))
    if command == "reg":
        per_sum, per_sub = terms_listed(lambda: main(["reg", fixture_path(f"{name}.txt"), "--format", "json"]))
        capsys.readouterr()
    else:
        per_sum, per_sub = terms_listed(lambda: verify_graph(graph, command))
    assert per_sum == [1] * len(per_sum) and not any(per_sub)
    # every command but colon and broom reads I3(G)'s table
    assert bool(per_sum) == (command not in ("colon", "broom"))
    assert bool(per_sub) == (command in ("ses", "monotone", "all") and name != "two_edges")


def test_verify_graph_all_computes_nu3_of_the_graph_once(monkeypatch, caterpillar):
    from pathideals import harness, matching

    graphs = []
    real = matching.nu3

    def counting(graph):
        graphs.append(graph)
        return real(graph)

    monkeypatch.setattr(harness, "nu3", counting)
    monkeypatch.setattr(matching, "nu3", counting)
    reports = verify_graph(caterpillar, "all")
    assert reports[-1].checks[0].name == "broom_edge_drop" and reports[-1].passed
    # the broom check takes nu3(G) from the context; it computes only the remainder's
    assert graphs.count(caterpillar) == 1
    assert len(graphs) == 2


def test_registry_order_is_the_report_order(caterpillar):
    assert WHICH_CHOICES == ("all", *CHECKS)
    reports = verify_graph(caterpillar, "all")
    first = [r.checks[0].name for r in reports]
    m = len(caterpillar.edges)
    assert first == ["lower_bound", "tree_equality"] + ["colon_by_edge"] * m + [
        "ses_bound", "betti_monotone_deletions", "broom_edge_drop"]

