import pytest
from hypothesis import given, settings, strategies as st

from pathideals.errors import InputError
from pathideals.generators import random_graph, random_tree, random_unicyclic
from pathideals.graphs import Graph
from pathideals.matching import check_nu3_broom_drop, nu3

from oracles import is_induced_3path_matching, nu3_brute

P4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
P5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))

graphs = st.builds(
    lambda n, p, s: random_graph(n, p, s),
    st.integers(1, 8),
    st.sampled_from([0.2, 0.4, 0.6]),
    st.integers(0, 10**9),
)


def test_induced_check_on_caterpillar(caterpillar):
    # spine paths x1-x2-x3 and x4-x5-x6 fail: the spine edge x3-x4 joins them
    bad = is_induced_3path_matching(caterpillar, [(0, 1, 2), (3, 4, 5)])
    assert not bad.ok
    assert bad.reason == "extra edge in covered set"
    assert bad.witness == (2, 3)
    # routing the first path through the leaf x7 makes it induced
    good = is_induced_3path_matching(caterpillar, [(0, 1, 6), (3, 4, 5)])
    assert good.ok


def test_induced_check_shared_vertex():
    check = is_induced_3path_matching(P5, [(0, 1, 2), (2, 3, 4)])
    assert not check.ok
    assert check.reason == "shared vertex"
    assert check.witness == (2,)


def test_induced_check_single_path():
    assert is_induced_3path_matching(P4, [(0, 1, 2)]).ok
    # a chord between the endpoints breaks inducedness even for one path
    chorded = is_induced_3path_matching(K3, [(0, 1, 2)])
    assert not chorded.ok
    assert chorded.witness == (0, 2)


def test_induced_check_rejects_non_paths():
    with pytest.raises(InputError):
        is_induced_3path_matching(P4, [(0, 1, 3)])
    with pytest.raises(InputError):
        is_induced_3path_matching(P4, [(0, 1)])
    with pytest.raises(InputError):
        is_induced_3path_matching(P4, [(0, 1, 0)])


def test_nu3_fixtures(caterpillar, c5_pendant, c6_pendant, c7_tail):
    assert nu3(caterpillar)[0] == 2
    assert nu3(c5_pendant)[0] == 1
    assert nu3(c6_pendant)[0] == 1
    assert nu3(c7_tail)[0] == 2


def test_nu3_small_graphs():
    assert nu3(P5)[0] == 1
    assert nu3(Graph(0, ()))[0] == 0
    assert nu3(Graph(2, ((0, 1),)))[0] == 0
    assert nu3(K3)[0] == 0  # its only 3-path has a chord


@pytest.mark.parametrize("s", [1, 2, 3])
def test_nu3_disjoint_p3s(s):
    edges = []
    for k in range(s):
        edges += [(3 * k, 3 * k + 1), (3 * k + 1, 3 * k + 2)]
    value, cert = nu3(Graph(3 * s, tuple(edges)))
    assert value == s
    assert cert.size == s


# nu3 certificates of random_tree / random_unicyclic / random_graph(n, 0.3),
# cycled by seed with n = 6 + seed % 7, pinned so the search order stays put
SEEDED_CERTIFICATES = (
    ((0, 1, 2),), ((0, 1, 4),), ((1, 3, 5),), ((0, 5, 6), (2, 3, 4)),
    ((0, 8, 7), (1, 5, 4)), ((0, 5, 9), (1, 10, 6)), ((0, 5, 2), (3, 6, 4)),
    ((0, 3, 1),), ((0, 5, 2),), ((1, 0, 5), (2, 4, 3)), ((0, 1, 4),),
    ((0, 2, 6), (3, 1, 8)), ((0, 5, 8), (1, 2, 7)), ((0, 7, 1), (6, 3, 10)),
    ((0, 2, 4),), ((0, 1, 6),), ((0, 7, 4),), ((0, 4, 1),),
    ((2, 8, 4), (3, 0, 5)), ((0, 10, 7), (3, 6, 8)), ((0, 1, 7), (4, 8, 10)),
)


def test_nu3_certificate_is_deterministic(caterpillar, c5_pendant, c6_pendant, c7_tail):
    value, cert = nu3(caterpillar)
    assert value == 2
    assert cert.paths == ((0, 1, 6), (3, 4, 5))
    assert cert.to_json_obj() == {"nu3": 2, "paths": [[0, 1, 6], [3, 4, 5]]}
    assert nu3(c5_pendant)[1].paths == ((0, 1, 2),)
    assert nu3(c6_pendant)[1].paths == ((0, 1, 2),)
    assert nu3(c7_tail)[1].paths == ((0, 1, 2), (8, 9, 10))
    families = (random_tree, random_unicyclic, lambda n, s: random_graph(n, 0.3, s))
    for seed, paths in enumerate(SEEDED_CERTIFICATES):
        value, cert = nu3(families[seed % 3](6 + seed % 7, seed))
        assert (value, cert.paths) == (len(paths), paths)


@given(graphs)
def test_nu3_matches_brute_force(g):
    value, cert = nu3(g)
    assert value == nu3_brute(g)
    if cert.paths:
        assert is_induced_3path_matching(g, cert.paths).ok
    assert len(cert.paths) == value


@given(graphs)
def test_nu3_linear_bound(g):
    assert 3 * nu3(g)[0] <= g.n


@given(graphs, graphs)
@settings(max_examples=30)
def test_nu3_additive_over_disjoint_union(g, h):
    shifted = tuple((u + g.n, v + g.n) for u, v in h.edges)
    union = Graph(g.n + h.n, g.edges + shifted)
    assert nu3(union)[0] == nu3(g)[0] + nu3(h)[0]


def nu3_induced(graph, vertices):
    return nu3(graph.induced_subgraph(vertices)[0])[0]


def test_nu3_monotone_examples(caterpillar):
    assert nu3_induced(caterpillar, range(caterpillar.n)) == nu3(caterpillar)[0] == 2
    # the star around x2
    assert nu3_induced(caterpillar, [0, 1, 2, 6]) == 1
    assert nu3_induced(caterpillar, []) == 0


@given(graphs, st.integers(0, 10**9))
@settings(max_examples=40)
def test_nu3_monotone_random_subsets(g, seed):
    import random

    rnd = random.Random(seed)
    subset = [v for v in range(g.n) if rnd.random() < 0.5]
    assert nu3_induced(g, subset) <= nu3(g)[0]


def test_broom_drop_examples():
    report = check_nu3_broom_drop(P4)
    assert report.broom_vertex == 1
    assert report.edge == (1, 2)
    assert report.nu3_remainder == 0 and report.nu3_graph == 1
    assert report.holds

    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    star_report = check_nu3_broom_drop(star)
    assert star_report.holds
    assert star_report.nu3_graph == 1 and star_report.nu3_remainder == 0

    spider = Graph(7, ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)))
    spider_report = check_nu3_broom_drop(spider)
    assert spider_report.holds
    assert spider_report.broom_vertex == 1

    with pytest.raises(InputError):
        check_nu3_broom_drop(K3)


@given(st.integers(3, 12), st.integers(0, 10**9))
@settings(max_examples=50)
def test_broom_drop_random_trees(n, seed):
    assert check_nu3_broom_drop(random_tree(n, seed)).holds
