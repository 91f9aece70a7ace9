import pickle

import pytest
from hypothesis import example, given, strategies as st

from pathideals.errors import InputError
from pathideals.generators import random_graph
from pathideals.graphs import Graph
from pathideals.ideals import (
    MonomialIdeal,
    add_monomial,
    colon,
    edge_colon_closed_form,
    path_ideal,
    vertex_colon_closed_form,
)

from oracles import (
    add_monomial_supports,
    add_vars,
    colon_supports,
    edge_colon_supports,
    enumerate_3paths_brute,
    minimalize,
    path_ideal_within,
    vertex_colon_supports,
)

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


@given(
    st.one_of(
        # mixed sizes, the empty support among them, with repeats
        st.lists(supports, max_size=8),
        # every support of one size
        st.integers(0, 4).flatmap(
            lambda k: st.lists(st.sets(st.integers(0, 6), min_size=k, max_size=k).map(frozenset), max_size=8)
        ),
    )
)
@example([(0, 1), (1, 0), (2,), (0, 1, 2)])
@example([(), (3,), (0, 1)])
@example([(0, 1, 2), (1, 2, 3), (0, 1, 2)])
def test_minimalize_keeps_exactly_the_supports_containing_no_other(gens):
    sets = [frozenset(g) for g in gens]
    assert minimalize(gens) == {g for g in sets if not any(h < g for h in sets)}


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


# -- the bitmask arithmetic against the support referees in oracles -------------------


def assert_ideal_is(got, n, want):
    """``got`` has the minimal supports ``want``: as its ``gens``, and as an equal, equal-hashing ideal."""
    ref = MonomialIdeal(n, want)
    assert got.n == n
    assert got.gens == want
    assert got == ref and hash(got) == hash(ref)


# the variables drawn in an ambient of one machine word and in one of three,
# where masks span several words
VARIABLES = {7: [0, 1, 2, 5, 6], 130: [0, 1, 2, 63, 64, 65, 100, 129]}
ambients = st.sampled_from(sorted(VARIABLES))


def supports_in(n):
    return st.sets(st.sampled_from(VARIABLES[n]), max_size=4)


def ideals_in(n):
    # the empty support among them, so unit ideals, and no support, so the zero ideal
    return st.lists(supports_in(n), max_size=6).map(lambda gens: (gens, MonomialIdeal(n, gens)))


@given(ambients.flatmap(lambda n: st.tuples(st.just(n), ideals_in(n))))
@example((7, ([], MonomialIdeal(7, []))))
@example((7, ([set()], MonomialIdeal(7, [set()]))))
@example((130, ([{129}, {0, 129}, {64, 65}, {0}], MonomialIdeal(130, [{129}, {0, 129}, {64, 65}, {0}]))))
def test_construction_matches_the_referee(case):
    n, (gens, got) = case
    assert_ideal_is(got, n, minimalize(gens))
    assert got.is_zero == (not gens)
    assert got.is_unit == (set() in gens)


@given(ambients.flatmap(lambda n: st.tuples(st.just(n), ideals_in(n), supports_in(n))))
@example((7, ([{0, 1}], MonomialIdeal(7, [{0, 1}])), set()))
@example((7, ([], MonomialIdeal(7, [])), {1}))
@example((130, ([set()], MonomialIdeal(130, [set()])), {64}))
@example((130, ([{64, 129}, {1, 64}], MonomialIdeal(130, [{64, 129}, {1, 64}])), {64, 129}))
def test_colon_and_add_monomial_match_the_referees(case):
    n, (_, ideal_), m = case
    assert_ideal_is(colon(ideal_, m), n, colon_supports(ideal_, m))
    assert_ideal_is(add_monomial(ideal_, m), n, add_monomial_supports(ideal_, m))


def shifted(graph, shift, pad):
    """``graph`` with every vertex id raised by ``shift`` and ``pad`` isolated vertices after it."""
    return Graph(graph.n + shift + pad, tuple((u + shift, v + shift) for u, v in graph.edges))


padded_graphs = st.builds(
    shifted,
    st.builds(random_graph, st.integers(2, 8), st.sampled_from([0.3, 0.5, 0.8]), st.integers(0, 10**9)),
    # isolated vertices below the graph, up to ids above 63
    st.sampled_from([0, 2, 64, 120]),
    st.integers(0, 3),
).filter(lambda g: g.edges)


@given(padded_graphs)
@example(shifted(P4, 64, 2))
@example(shifted(Graph(2, ((0, 1),)), 0, 1))
def test_path_ideal_and_closed_forms_match_the_referees(g):
    assert_ideal_is(path_ideal(g, 3), g.n, minimalize(enumerate_3paths_brute(g)))
    assert_ideal_is(path_ideal(g, 2), g.n, minimalize(g.edges))
    for u, v in g.edges:
        assert_ideal_is(edge_colon_closed_form(g, u, v), g.n, edge_colon_supports(g, u, v))
        for x, y in ((u, v), (v, u)):
            assert_ideal_is(vertex_colon_closed_form(g, x, y), g.n, vertex_colon_supports(g, x, y))


# -- the constructor at its edges --------------------------------------------------------


def test_range_is_checked_only_on_minimal_generators():
    assert MonomialIdeal(3, [{0}, {0, -1}]) == ideal(3, (0,))
    assert MonomialIdeal(3, [{0}, {0, 7}]) == ideal(3, (0,))
    assert add_monomial(MonomialIdeal(3, [{0}]), {0, 9}) == ideal(3, (0,))


@pytest.mark.parametrize(
    "build",
    [
        lambda: MonomialIdeal(3, [{-1}]),
        lambda: MonomialIdeal(3, [{0, 1}, {-1, 2}]),
        lambda: MonomialIdeal(3, [{-1}, {-1, 0}]),
        lambda: add_monomial(ideal(3, (1,)), {0, -1}),
        lambda: colon(ideal(3, (0,)), {-1}),
    ],
    ids=["alone", "same-size", "below-a-larger", "added", "colon"],
)
def test_a_negative_variable_in_a_minimal_generator_is_an_input_error(build):
    with pytest.raises(InputError, match=r"^variable -1 out of ambient range n=3$"):
        build()


def test_equal_ideals_hash_equal():
    a = MonomialIdeal(5, [{0, 1}, {0, 1, 2}, {3}])
    b = MonomialIdeal(5, ({3}, {1, 0}, {3, 4}))
    c = colon(ideal(5, (0, 1, 4), (3, 4)), {4})
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert ideal(5, (0,)) != ideal(6, (0,))


@pytest.mark.parametrize("name", ["n", "gens", "other"])
def test_setting_an_attribute_raises(name):
    i = ideal(3, (0, 1))
    with pytest.raises(AttributeError):
        setattr(i, name, 4)
    assert i == ideal(3, (0, 1))


def test_an_ideal_survives_pickling():
    i = ideal(130, (0, 129), (64,))
    assert pickle.loads(pickle.dumps(i)) == i
    assert pickle.loads(pickle.dumps(i)).gens == i.gens


@pytest.mark.parametrize("name", ["n", "masks", "gens"])
def test_deleting_an_attribute_raises(name):
    i = ideal(3, (0, 1))
    assert i.gens
    with pytest.raises(AttributeError):
        delattr(i, name)
    assert (i.n, i.masks, i.gens) == (3, frozenset({0b011}), frozenset({frozenset({0, 1})}))


def test_repr_shows_the_generators_as_supports():
    assert repr(MonomialIdeal(3, [{0, 1}])) == "MonomialIdeal(n=3, gens=frozenset({frozenset({0, 1})}))"


def test_gens_is_built_once():
    i = ideal(4, (0, 1), (2, 3))
    assert i.gens is i.gens


def test_reading_gens_leaves_equality_hash_and_pickling_alone():
    read, unread = ideal(130, (0, 129), (64,)), ideal(130, (0, 129), (64,))
    assert read.gens
    assert read == unread and unread == read
    assert hash(read) == hash(unread)
    for i in (read, unread):
        copy = pickle.loads(pickle.dumps(i))
        assert copy == read and copy == unread and hash(copy) == hash(unread)
        assert copy.gens == read.gens
