import pytest
from hypothesis import given, strategies as st

from pathideals.errors import InputError
from pathideals.generators import random_graph
from pathideals.graphs import Graph
from pathideals.ideals import (
    MonomialIdeal,
    add_monomial,
    colon,
    edge_colon_closed_form,
    minimalize,
    path_ideal,
    vertex_colon_closed_form,
)

from oracles import add_vars, path_ideal_within

P3 = Graph(3, ((0, 1), (1, 2)))
P4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))


def ideal(n, *gens):
    return MonomialIdeal(n, frozenset(frozenset(g) for g in gens))


graphs_with_edges = st.builds(
    lambda n, p, s: random_graph(n, p, s),
    st.integers(2, 8),
    st.sampled_from([0.3, 0.5, 0.8]),
    st.integers(0, 10**9),
).filter(lambda g: g.edges)

supports = st.sets(st.integers(0, 6), max_size=4).map(frozenset)
gen_sets = st.sets(supports, min_size=0, max_size=6)


def test_minimalize_examples():
    assert minimalize([{0, 1}, {0, 1, 2}]) == {frozenset({0, 1})}
    assert minimalize([]) == frozenset()
    assert minimalize([{0}, {1}, {0, 1}]) == {frozenset({0}), frozenset({1})}


@given(gen_sets)
def test_minimalize_idempotent_and_antichain(gens):
    once = minimalize(gens)
    assert minimalize(once) == once
    assert all(not (a < b) for a in once for b in once)


@given(gen_sets, st.randoms())
def test_minimalize_order_independent(gens, rnd):
    shuffled = list(gens)
    rnd.shuffle(shuffled)
    assert minimalize(shuffled) == minimalize(gens)


def test_ideal_normalizes_on_construction():
    i = ideal(3, (0,), (0, 1))
    assert i.gens == {frozenset({0})}
    assert ideal(2, ()).is_unit
    assert ideal(2).is_zero
    with pytest.raises(InputError):
        ideal(2, (5,))


@pytest.mark.parametrize(
    "gens, bad",
    [(((5,),), 5), (((0, 1), (-1, 2)), -1), (((0,), (1, 2, 9)), 9)],
    ids=["one", "same-size", "mixed-size"],
)
def test_ideal_names_its_variable_out_of_range(gens, bad):
    with pytest.raises(InputError, match=rf"^variable {bad} out of ambient range n=3$"):
        ideal(3, *gens)


def test_path_ideal_examples():
    assert path_ideal(P3, 3) == ideal(3, (0, 1, 2))
    assert path_ideal(P4, 3) == ideal(4, (0, 1, 2), (1, 2, 3))
    # K3 has three 3-paths but they share one support
    assert path_ideal(K3, 3) == ideal(3, (0, 1, 2))
    assert path_ideal(P4, 2) == ideal(4, (0, 1), (1, 2), (2, 3))
    with pytest.raises(InputError):
        path_ideal(P4, 4)


def test_colon_examples():
    i3 = path_ideal(P4, 3)
    assert colon(i3, {1, 2}) == ideal(4, (0,), (3,))
    assert colon(i3, ()) == i3
    single = ideal(4, (0, 1, 2))
    assert colon(single, {3}) == single
    # colon by a generator gives the unit ideal
    assert colon(single, {0, 1, 2}).is_unit


@given(gen_sets, supports, supports)
def test_colon_composes(gens, a, b):
    i = MonomialIdeal(7, frozenset(gens))
    assert colon(colon(i, a), b) == colon(i, a | b)


def test_add_absorption():
    i3 = path_ideal(P4, 3)
    assert add_monomial(i3, {1, 2}) == ideal(4, (1, 2))
    assert add_vars(ideal(3), [0, 2]) == ideal(3, (0,), (2,))


def test_edge_colon_closed_form_small_paths():
    assert edge_colon_closed_form(P4, 1, 2) == ideal(4, (0,), (3,))
    p7 = Graph(7, tuple((i, i + 1) for i in range(6)))
    assert edge_colon_closed_form(p7, 2, 3) == ideal(7, (1,), (4,))
    with pytest.raises(InputError):
        edge_colon_closed_form(P4, 0, 2)


def test_edge_colon_closed_form_caterpillar(caterpillar):
    # edge {x4,x5}: adjacent variables x3, x6; remainder induces x1-x2-x7
    got = edge_colon_closed_form(caterpillar, 3, 4)
    assert got == ideal(7, (2,), (5,), (0, 1, 6))


def test_vertex_colon_closed_form_examples():
    assert vertex_colon_closed_form(P4, 1, 2) == ideal(4, (2,))
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    assert vertex_colon_closed_form(star, 0, 1) == ideal(4, (1,), (2, 3))
    assert vertex_colon_closed_form(P3, 1, 0) == ideal(3, (0,))
    with pytest.raises(InputError):
        vertex_colon_closed_form(P4, 0, 2)


def test_vertex_colon_closed_form_matches_direct_colon_on_p4():
    lhs = colon(add_monomial(path_ideal(P4, 3), {1, 2}), {1})
    assert lhs == vertex_colon_closed_form(P4, 1, 2)


@given(graphs_with_edges, st.integers(0, 10**6))
def test_colon_by_edge_identity(g, pick):
    u, v = g.edges[pick % len(g.edges)]
    i3 = path_ideal(g, 3)
    assert colon(i3, {u, v}) == edge_colon_closed_form(g, u, v)


@given(graphs_with_edges, st.integers(0, 10**6))
def test_colon_by_vertex_identity_both_orientations(g, pick):
    u, v = g.edges[pick % len(g.edges)]
    with_edge = add_monomial(path_ideal(g, 3), {u, v})
    for x, y in ((u, v), (v, u)):
        assert colon(with_edge, {x}) == vertex_colon_closed_form(g, x, y)


def test_path_ideal_within_keeps_ambient(caterpillar):
    sub = path_ideal_within(caterpillar, {0, 1, 6}, 3)
    assert sub.n == caterpillar.n
    assert sub == ideal(7, (0, 1, 6))
    assert path_ideal_within(caterpillar, set(), 3).is_zero
