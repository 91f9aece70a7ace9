import json

import pytest
from hypothesis import given, strategies as st

from pathideals.errors import InputError, NoBroomVertexError
from pathideals.generators import random_graph, random_tree, random_unicyclic
from pathideals.graphs import (
    Graph,
    classify,
    find_broom_vertex,
    graph_from_json_obj,
    graph_to_json_obj,
    load_graph,
    parse_edge_list,
    parse_graph,
    to_edge_list,
)

from oracles import enumerate_3paths_brute

P4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
STAR = Graph(4, ((0, 1), (0, 2), (0, 3)))

graphs = st.builds(
    lambda n, p, s: random_graph(n, p, s),
    st.integers(1, 9),
    st.sampled_from([0.15, 0.3, 0.5, 0.8]),
    st.integers(0, 10**9),
)
trees = st.builds(random_tree, st.integers(1, 12), st.integers(0, 10**9))


def test_construction_canonicalizes_and_validates():
    g = Graph(3, ((1, 0), (0, 1), (2, 1)))
    assert g.edges == ((0, 1), (1, 2))
    assert g == Graph(3, ((0, 1), (1, 2)))
    with pytest.raises(InputError):
        Graph(3, ((0, 0),))
    with pytest.raises(InputError):
        Graph(3, ((0, 3),))
    with pytest.raises(InputError):
        Graph(2, (), labels=("a",))


def test_neighbors():
    assert P4.neighbors(1) == {0, 2}
    isolated = Graph(2, ())
    assert isolated.neighbors(0) == frozenset()
    assert isolated.closed_neighbors(0) == {0}
    with pytest.raises(InputError):
        P4.neighbors(7)


@pytest.mark.parametrize("bad", [-1, 4, 7])
def test_three_paths_within_names_its_vertex_out_of_range(bad):
    assert P4.three_paths_within([0, 1, 2, 3]) == P4.three_paths()
    with pytest.raises(InputError, match=rf"^vertex {bad} out of range for n=4$"):
        P4.three_paths_within([0, 1, bad])


def test_neighbors_caterpillar(caterpillar):
    # x2 (id 1) touches x1, x3 and the extra leaf x7
    assert caterpillar.neighbors(1) == {0, 2, 6}


def test_edge_neighborhood():
    assert P4.edge_neighborhood(1, 2) == {0, 3}
    assert P4.closed_edge_neighborhood(1, 2) == {0, 1, 2, 3}
    assert K3.edge_neighborhood(0, 1) == {2}
    with pytest.raises(InputError):
        P4.edge_neighborhood(0, 2)


def test_edge_neighborhood_caterpillar(caterpillar):
    assert caterpillar.edge_neighborhood(1, 2) == {0, 6, 3}


@given(graphs)
def test_closed_edge_neighborhood_is_union_of_closed_vertex_neighborhoods(g):
    for u, v in g.edges:
        assert g.closed_edge_neighborhood(u, v) == g.closed_neighbors(u) | g.closed_neighbors(v)


def test_neighborhood_edge_set():
    assert P4.neighborhood_edge_set(1) == {(2, 3)}
    assert STAR.neighborhood_edge_set(0) == frozenset()
    assert K3.neighborhood_edge_set(0) == {(1, 2)}


def test_three_paths():
    assert P4.three_paths() == [(0, 1, 2), (1, 2, 3)]
    assert Graph(4, ()).three_paths() == []
    assert P4.t_paths(2) == [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(InputError):
        P4.t_paths(4)


def test_three_paths_caterpillar(caterpillar):
    assert caterpillar.three_paths() == [
        (0, 1, 2),
        (0, 1, 6),
        (1, 2, 3),
        (2, 1, 6),
        (2, 3, 4),
        (3, 4, 5),
    ]


@given(graphs)
def test_three_paths_match_brute_force(g):
    assert g.three_paths() == enumerate_3paths_brute(g)


@given(graphs)
def test_three_path_count_matches_degree_formula(g):
    expected = sum(len(g.neighbors(b)) * (len(g.neighbors(b)) - 1) // 2 for b in range(g.n))
    paths = g.three_paths()
    assert len(paths) == expected
    for a, b, c in paths:
        assert a < c and g.has_edge(a, b) and g.has_edge(b, c)
    assert len(set(paths)) == len(paths)


def test_induced_subgraph(caterpillar):
    sub, remap = caterpillar.induced_subgraph(range(6))
    assert sub.edges == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))
    assert remap == {v: v for v in range(6)}
    whole, _ = caterpillar.induced_subgraph(range(caterpillar.n))
    assert whole == caterpillar
    c5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    sub, _ = c5.induced_subgraph([0, 1, 2])
    assert sub.edges == ((0, 1), (1, 2))


@given(graphs, st.integers(0, 10**9))
def test_induced_subgraph_composes(g, seed):
    import random

    rng = random.Random(seed)
    w = [v for v in range(g.n) if rng.random() < 0.7]
    u = [v for v in w if rng.random() < 0.6]
    sub_w, remap = g.induced_subgraph(w)
    nested, _ = sub_w.induced_subgraph(remap[v] for v in u)
    direct, _ = g.induced_subgraph(u)
    assert nested == direct


def test_classify_basic(c5_pendant):
    assert classify(Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))).kind == "tree"
    got = classify(c5_pendant)
    assert got.kind == "unicyclic"
    c7 = Graph(7, tuple((i, (i + 1) % 7) for i in range(7)))
    assert classify(c7).kind == "cycle"
    assert classify(Graph(0, ())).kind == "forest"
    assert classify(Graph(5, ((0, 1), (2, 3)))).kind == "forest"
    messy = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4)))
    assert classify(messy).kind == "other"
    assert classify(messy).components == ("cycle", "tree", "tree")


@given(st.integers(3, 12), st.integers(0, 10**9))
def test_connected_with_equal_edges_is_unicyclic_or_cycle(n, seed):
    g = random_unicyclic(n, seed)
    assert len(g.edges) == g.n
    assert classify(g).kind in ("unicyclic", "cycle")


def test_find_broom_vertex():
    assert find_broom_vertex(P4) == (1, (0, 2))
    assert find_broom_vertex(STAR) == (0, (1, 2, 3))
    with pytest.raises(NoBroomVertexError):
        find_broom_vertex(Graph(2, ((0, 1),)))
    with pytest.raises(InputError):
        find_broom_vertex(K3)


def test_find_broom_vertex_on_detached_tail(c7_tail):
    # deleting the cycle leaves the path x8-x9-x10-x11; the smallest-id
    # broom vertex of that path is its second vertex
    cycle = {0, 1, 2, 3, 4, 5, 6}
    tail, _ = c7_tail.induced_subgraph(set(range(c7_tail.n)) - cycle)
    assert find_broom_vertex(tail) == (1, (0, 2))


@given(trees)
def test_broom_vertex_contract(tree):
    if all(len(tree.neighbors(v)) < 2 for v in range(tree.n)):
        with pytest.raises(NoBroomVertexError):
            find_broom_vertex(tree)
        return
    v, neighbors = find_broom_vertex(tree)
    assert set(neighbors) == set(tree.neighbors(v))
    assert len(neighbors) >= 2
    assert all(len(tree.neighbors(u)) == 1 for u in neighbors[:-1])


def test_parse_edge_list_assigns_ids_in_first_appearance_order():
    g = parse_edge_list("a b\nb c # trailing comment\n\n# full comment\nc a\n")
    assert g.labels == ("a", "b", "c")
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    g = parse_edge_list("b a\nc b\n")
    assert g.labels == ("b", "a", "c")
    assert g.edges == ((0, 1), (0, 2))


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(InputError, match="line 2"):
        parse_edge_list("a b\na b c\n")
    with pytest.raises(InputError, match="line 1"):
        parse_edge_list("a a\n")


def test_parse_empty_edge_list():
    g = parse_edge_list("# nothing here\n")
    assert g.n == 0 and g.edges == ()


def test_edge_list_round_trip(caterpillar):
    # ids may permute (first-appearance order), so compare by label
    def token_edges(g):
        return {frozenset((g.vertex_token(u), g.vertex_token(v))) for u, v in g.edges}

    reparsed = parse_edge_list(to_edge_list(caterpillar))
    assert reparsed.n == caterpillar.n
    assert token_edges(reparsed) == token_edges(caterpillar)


@given(graphs)
def test_json_round_trip(g):
    assert graph_from_json_obj(graph_to_json_obj(g)) == g


def test_parse_graph_sniffs_json(caterpillar):
    text = json.dumps(graph_to_json_obj(caterpillar))
    assert parse_graph(text) == caterpillar
    with pytest.raises(InputError):
        parse_graph('{"edges": [[0, 1]]}')
    with pytest.raises(InputError):
        parse_graph("{broken json")
    # json reads 1e400 as float infinity, which is not a JSON integer
    for text in ('{"n": 1e400, "edges": []}', '{"n": 3, "edges": [[0, 1e400]]}'):
        with pytest.raises(InputError, match="malformed graph JSON"):
            parse_graph(text)


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3.9, "edges": [[0, 1.7], [1, 2]]}',
        '{"n": 3, "edges": [[0, 1.7], [1, 2]]}',
        '{"n": 3.0, "edges": [[0, 1], [1, 2]]}',
        '{"n": "4", "edges": []}',
        '{"n": true, "edges": []}',
        '{"n": null, "edges": []}',
        '{"n": 3, "edges": [[0, true]]}',
        '{"n": 3, "edges": [["0", 1]]}',
        '{"n": 3, "edges": {"01": 0, "12": 1}}',
        '{"n": 3, "edges": "01"}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        '{"n": 3, "edges": [[0]]}',
        '{"n": 3, "edges": [{"0": 1}]}',
        '{"n": 3}',
    ],
)
def test_graph_json_takes_integers_and_integer_pairs_only(text):
    # nothing is coerced: no float is truncated, no string or bool converted,
    # and no object's keys are read as its edges
    with pytest.raises(InputError, match="^malformed graph JSON: "):
        parse_graph(text)


def test_load_graph_names_the_file_on_undecodable_input(tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"caf\xe9 x\n")
    with pytest.raises(InputError) as info:
        load_graph(str(bad))
    message = str(info.value)
    assert message.startswith("'utf-8' codec can't decode byte 0xe9")
    assert message.endswith(f" in {bad}")


@pytest.mark.parametrize("labels", ["abc", 5, [1, 2, 3], ["a", "b"], ["a", "b", "c", "d"], {"a": 0}])
def test_json_labels_must_be_n_strings(labels):
    with pytest.raises(InputError, match="labels must be a list of 3 strings"):
        graph_from_json_obj({"n": 3, "edges": [[0, 1], [1, 2]], "labels": labels})


def test_vertex_tokens(caterpillar):
    assert caterpillar.vertex_token(0) == "x1"
    assert Graph(2, ((0, 1),)).vertex_token(1) == "1"
