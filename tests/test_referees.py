"""Theorem-backed referees: closed forms for paths, cycles, disjoint unions and forests.

Each closed form in ``oracles`` is first pinned against ``reduced_homology_dims``,
which is independent code, at sizes it reaches; it then checks
``betti_hochster`` at sizes no homology oracle reaches, and the paper's
tree equality reg = 2 nu3 on paths past any sum's reach.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from pathideals.betti import GF2, GF3, QQ, betti_hochster
from pathideals.generators import random_graph, random_tree
from pathideals.ideals import path_ideal
from pathideals.matching import nu3

from oracles import (
    betti_product,
    cycle_graph,
    cycle_series,
    disjoint_union,
    induced_matching_number,
    memo_of,
    path_betti_table,
    path_graph,
    path_run_series,
    reduced_homology_dims,
)

FIELDS = [GF2, GF3, QQ]


def whole_set_series(graph, field):
    """Series {d + 1: dim H~_d} of the 3-path complex on all of the graph's vertices."""
    dims = reduced_homology_dims(path_ideal(graph, 3), range(graph.n), field)
    return {k: h for k, h in enumerate(dims) if h}


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.token)
@pytest.mark.parametrize("length", range(1, 15))
def test_path_run_series_matches_the_homology_oracle(length, field):
    assert whole_set_series(path_graph(length), field) == path_run_series(length)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.token)
@pytest.mark.parametrize("length", range(3, 15))
def test_cycle_series_matches_the_homology_oracle(length, field):
    assert whole_set_series(cycle_graph(length), field) == cycle_series(length)


@pytest.mark.parametrize("length", range(3, 19))
def test_cycle_series_matches_the_sums_memo(length):
    memo = memo_of(betti_hochster(path_ideal(cycle_graph(length), 3), GF2).terms)
    assert memo[(1 << length) - 1] == cycle_series(length)


def test_path_tables_from_run_compositions_match_the_sum():
    for n in range(23):
        assert path_betti_table(n) == betti_hochster(path_ideal(path_graph(n), 3), GF2), n
    for n in range(13):
        for field in (GF3, QQ):
            assert path_betti_table(n) == betti_hochster(path_ideal(path_graph(n), 3), field), (n, field)


def test_paths_satisfy_the_tree_equality_past_the_sums_reach():
    for n in range(33):
        assert path_betti_table(n).regularity() == 2 * nu3(path_graph(n))[0] == 2 * ((n + 1) // 4), n
    # nu3 takes seconds on P_60; the formula it matched above stands in for it
    assert path_betti_table(60).regularity() == 2 * ((60 + 1) // 4) == 30


graph_keys = st.tuples(st.integers(1, 6), st.sampled_from([0.3, 0.5, 0.7]), st.integers(0, 10**9))


@given(graph_keys, graph_keys, st.sampled_from(FIELDS))
@settings(max_examples=30)
def test_a_disjoint_unions_table_is_the_product_of_its_parts(key_g, key_h, field):
    g, h = (random_graph(n, p, seed) for n, p, seed in (key_g, key_h))
    table = betti_hochster(path_ideal(disjoint_union(g, h), 3), field)
    parts = (betti_hochster(path_ideal(x, 3), field) for x in (g, h))
    assert table == betti_product(*parts)


@given(st.lists(st.tuples(st.integers(1, 8), st.integers(0, 10**9)), min_size=1, max_size=4))
@settings(max_examples=40)
@example([(16, 1)])
@example([(8, 1), (8, 2)])
def test_edge_ideal_regularity_of_a_forest_is_its_induced_matching_number(pieces):
    forest = random_tree(*pieces[0])
    for n, seed in pieces[1:]:
        if forest.n + n <= 16:
            forest = disjoint_union(forest, random_tree(n, seed))
    expected = induced_matching_number(forest)
    assert betti_hochster(path_ideal(forest, 2), GF2).regularity() == expected
