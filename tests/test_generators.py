import pytest
from hypothesis import given, strategies as st

from pathideals.errors import InputError
from pathideals.generators import (
    SplitMix64,
    random_graph,
    random_tree,
    random_unicyclic,
    tree_from_pruefer,
    tree_from_rng,
)
from pathideals.graphs import Graph, classify


def test_splitmix64_reference_vector():
    # published reference output for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_unit_range():
    rng = SplitMix64(7)
    for _ in range(100):
        assert 0.0 <= rng.unit() < 1.0
    with pytest.raises(InputError):
        rng.below(0)


def test_tree_from_pruefer_known_decode():
    star = tree_from_pruefer([3, 3], 4)
    assert star == Graph(4, ((0, 3), (1, 3), (2, 3)))
    assert tree_from_pruefer([], 2) == Graph(2, ((0, 1),))
    with pytest.raises(InputError):
        tree_from_pruefer([0], 4)
    with pytest.raises(InputError):
        tree_from_pruefer([5, 0], 4)


@given(st.integers(1, 20), st.integers(0, 10**9))
def test_random_tree_is_a_tree(n, seed):
    g = random_tree(n, seed)
    assert g.n == n
    assert len(g.edges) == n - 1
    assert len(g.components()) == 1


def test_random_tree_trivial_cases():
    for seed in (0, 1, 17):
        assert random_tree(1, seed) == Graph(1, ())
    with pytest.raises(InputError):
        random_tree(0, 0)
    # n <= 2 draws nothing from the stream
    for n, expected in ((1, Graph(1, ())), (2, Graph(2, ((0, 1),)))):
        rng = SplitMix64(5)
        assert tree_from_rng(n, rng) == expected
        assert rng.state == SplitMix64(5).state


@given(st.integers(3, 16), st.integers(0, 10**9))
def test_random_unicyclic_has_exactly_one_cycle(n, seed):
    g = random_unicyclic(n, seed)
    assert len(g.edges) == n
    assert len(g.components()) == 1
    assert classify(g).kind in ("unicyclic", "cycle")


def test_random_unicyclic_minimum_size():
    with pytest.raises(InputError):
        random_unicyclic(2, 0)


@given(st.integers(1, 12), st.integers(0, 10**9))
def test_random_graph_extremes(n, seed):
    assert random_graph(n, 0.0, seed).edges == ()
    assert len(random_graph(n, 1.0, seed).edges) == n * (n - 1) // 2


def test_random_graph_rejects_bad_p():
    with pytest.raises(InputError):
        random_graph(4, 1.5, 0)


@given(st.integers(1, 14), st.integers(0, 10**6))
def test_generators_are_deterministic(n, seed):
    assert random_tree(n, seed) == random_tree(n, seed)
    assert random_graph(n, 0.3, seed) == random_graph(n, 0.3, seed)
    if n >= 3:
        assert random_unicyclic(n, seed) == random_unicyclic(n, seed)


def test_seed_changes_output():
    assert any(random_tree(8, s) != random_tree(8, s + 1) for s in range(5))
