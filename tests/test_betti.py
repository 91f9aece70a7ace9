import copy
import functools
import hashlib
import itertools
import json
import os
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pathideals import betti
from pathideals.betti import (
    BettiTable,
    DEFAULT_CAP,
    FieldSpec,
    GF2,
    GF3,
    QQ,
    SesBoundReport,
    betti_hochster,
    rank_exact,
    rank_gf2_rows,
    rank_mod_p,
    sub_table,
)
from pathideals.cli import main
from pathideals.errors import CapacityError, InputError
from pathideals.generators import (
    SplitMix64, graph_from_rng, random_graph, random_tree, random_unicyclic, tree_from_rng, unicyclic_from_rng,
)
from pathideals.graphs import Graph
from pathideals.ideals import MonomialIdeal, colon, path_ideal
from pathideals.matching import nu3

from oracles import (
    NEG_INF,
    _boundary_rows,
    _faces_and_sizes,
    betti_hochster_unpruned,
    betti_koszul_oracle,
    memo_of,
    path_betti_table,
    path_graph,
    rank_fraction,
    reduced_euler_characteristics,
    reduced_homology_dims,
    regularity,
)

P4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
# minimal non-faces of the 6-vertex triangulation of the real projective plane
RP2_NONFACES = (
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
)


def ideal(n, *gens):
    return MonomialIdeal(n, frozenset(frozenset(g) for g in gens))


def disjoint_p3s(s):
    """s vertex-disjoint paths on 3 vertices; I3 is a complete intersection."""
    edges = []
    for k in range(s):
        edges += [(3 * k, 3 * k + 1), (3 * k + 1, 3 * k + 2)]
    return Graph(3 * s, tuple(edges))


small_int_matrices = st.lists(
    st.lists(st.integers(-3, 3), min_size=1, max_size=6),
    min_size=1,
    max_size=6,
).filter(lambda m: len({len(r) for r in m}) == 1)


# -- rank kernels ------------------------------------------------------------


def sparse(mat):
    """Dense rows as {column: entry} dicts, explicit zeros kept."""
    return [dict(enumerate(row)) for row in mat]


@given(small_int_matrices)
def test_rank_exact_matches_fraction_elimination(mat):
    assert rank_exact(sparse(mat)) == rank_fraction(mat)


@given(small_int_matrices)
def test_rank_mod_large_prime_matches_rational_rank(mat):
    # entries are tiny, so no minor can be divisible by this prime
    assert rank_mod_p(sparse(mat), 1000003) == rank_fraction(mat)


@given(st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=8), min_size=1, max_size=8).filter(
    lambda m: len({len(r) for r in m}) == 1))
# determinant 2: rank 2 over GF(2) but 3 over Q, which random draws rarely hit
@example([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
def test_rank_gf2_rows_matches_dense_mod2(mat):
    rows = [sum(bit << c for c, bit in enumerate(r)) for r in mat]
    assert rank_gf2_rows(rows) == rank_mod_p(sparse(mat), 2)


def test_rank_edge_cases():
    assert rank_exact([]) == 0
    assert rank_gf2_rows([0, 0]) == 0
    assert rank_exact(sparse([[0, 0], [0, 0]])) == 0
    assert rank_exact(sparse([[2, 0], [0, 3]])) == 2


def test_rank_cleans_zero_entries():
    assert rank_exact([{}, {0: 0}]) == 0
    assert rank_mod_p([{0: 3, 1: 1}], 3) == 1
    assert rank_mod_p([{0: 2}], 2) == 0
    assert rank_mod_p([{0: 3}, {1: 6, 2: -9}], 3) == 0
    # the lead entry vanishes mod p, so the row leads a lower column
    assert rank_mod_p([{1: 5, 0: 1}, {0: 1}], 5) == 1
    assert rank_exact([{1: 5, 0: 1}, {0: 1}]) == 2


sparse_sign_matrices = st.lists(
    st.dictionaries(st.integers(0, 11), st.sampled_from((1, -1)), max_size=12),
    min_size=1,
    max_size=12,
)


@given(sparse_sign_matrices)
# determinant 3: rank 3 over Q but 2 over GF(3), which random draws rarely hit
@example([{0: 1, 1: 1, 2: 1}, {0: 1, 1: -1}, {0: 1, 2: -1}])
def test_rank_of_sparse_sign_matrices(rows):
    mat = [[row.get(c, 0) for c in range(12)] for row in rows]
    assert rank_exact(rows) == rank_fraction(mat)
    assert rank_mod_p(rows, 3) == rank_fraction(mat, 3)


# rows with an entry that vanishes mod 3 ({2: 3, ...}, {..., 0: 6}) and pivots
# other than +-1 over Q; betti_hochster hands the same rows to every ranked subset
SHARED_ROWS = [{2: 2, 0: 1}, {2: 3, 1: 1}, {2: 1, 1: 3, 0: 6}, {1: -1, 0: 2}, {1: 5}]


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=lambda f: f.token)
def test_rank_kernels_leave_their_rows_unchanged(field):
    if field.characteristic == 2:
        rows = [sum(1 << c for c, a in row.items() if a % 2) for row in SHARED_ROWS]
        rank = rank_gf2_rows
        dense = [[(row >> c) & 1 for c in range(3)] for row in rows]
    else:
        rows = copy.deepcopy(SHARED_ROWS)
        rank = rank_exact if field.characteristic == 0 else lambda r: rank_mod_p(r, 3)
        dense = [[row.get(c, 0) for c in range(3)] for row in rows]
    before = copy.deepcopy(rows)
    first = rank(rows)
    assert rows == before
    assert rank(rows) == first == rank_fraction(dense, field.characteristic)
    assert rows == before


# -- reduced simplicial homology ---------------------------------------------------


def test_homology_conventions():
    # each complex is given by the ideal of its minimal non-faces
    triangle_boundary = ideal(3, (0, 1, 2))
    assert reduced_homology_dims(triangle_boundary, range(3)) == [0, 0, 1, 0]
    simplex = ideal(3)
    assert reduced_homology_dims(simplex, range(3)) == [0, 0, 0, 0]
    two_points = ideal(2, (0, 1))
    assert reduced_homology_dims(two_points, range(2)) == [0, 1, 0]
    empty_complex = ideal(1, (0,))
    assert reduced_homology_dims(empty_complex, [0]) == [1, 0]


def test_homology_sees_torsion_only_in_characteristic_two():
    cx = ideal(6, *RP2_NONFACES)
    assert reduced_homology_dims(cx, range(6), GF2) == [0, 0, 1, 1, 0, 0, 0]
    assert reduced_homology_dims(cx, range(6), GF3) == [0] * 7
    assert reduced_homology_dims(cx, range(6), QQ) == [0] * 7


@given(
    st.sets(st.sets(st.integers(0, 5), min_size=1, max_size=4).map(frozenset), max_size=7),
    st.sets(st.integers(0, 5)),
    st.sampled_from([GF2, GF3, QQ]),
    st.randoms(),
)
def test_homology_ignores_the_column_numbering(gens, vertices, field, rng):
    # the row builder numbers columns in the order it is given the faces
    cx = MonomialIdeal(6, frozenset(gens))
    assert reduced_homology_dims(cx, vertices, field, rng) == reduced_homology_dims(
        cx, vertices, field
    )


# -- Betti tables -----------------------------------------------------------------


def test_betti_single_generator():
    table = betti_hochster(ideal(3, (0, 1, 2)))
    assert table.entries == ((0, 0, 1), (1, 3, 1))
    assert table.regularity() == 2
    assert table.projective_dimension() == 1


def test_betti_path_ideal_p4():
    table = betti_hochster(path_ideal(P4, 3))
    assert table.entries == ((0, 0, 1), (1, 3, 2), (2, 4, 1))
    assert betti_koszul_oracle(path_ideal(P4, 3)) == table


def test_betti_two_disjoint_p3s():
    table = betti_hochster(path_ideal(disjoint_p3s(2), 3))
    assert table.entries == ((0, 0, 1), (1, 3, 2), (2, 6, 1))
    assert table.regularity() == 4


def test_betti_variable_ideals():
    assert betti_hochster(ideal(1, (0,))).entries == ((0, 0, 1), (1, 1, 1))
    koszul_two = betti_hochster(ideal(4, (0,), (3,)))
    assert koszul_two.entries == ((0, 0, 1), (1, 1, 2), (2, 2, 1))


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_complete_intersection_law(s):
    from math import comb

    table = betti_hochster(path_ideal(disjoint_p3s(s), 3))
    assert table.regularity() == 2 * s
    for i in range(s + 1):
        assert table.as_dict().get((i, 3 * i), 0) == comb(s, i)
    # and nothing outside the Koszul diagonal
    assert sum(b for _, _, b in table.entries) == 2**s


graph_keys = st.tuples(
    st.integers(1, 7), st.sampled_from([0.2, 0.4, 0.6]), st.integers(0, 10**9)
)


@given(graph_keys)
def test_first_syzygy_layer_counts_generators(key):
    n, p, seed = key
    i3 = path_ideal(random_graph(n, p, seed), 3)
    table = betti_hochster(i3)
    histogram = {}
    for g in i3.gens:
        histogram[len(g)] = histogram.get(len(g), 0) + 1
    assert {j: b for i, j, b in table.entries if i == 1} == histogram


@given(graph_keys)
@settings(max_examples=40)
def test_oracle_equivalence_random_graphs(key):
    n, p, seed = key
    i3 = path_ideal(random_graph(n, p, seed), 3)
    assert betti_hochster(i3) == betti_koszul_oracle(i3)


@given(graph_keys)
@settings(max_examples=25)
def test_oracle_equivalence_edge_ideals(key):
    n, p, seed = key
    i2 = path_ideal(random_graph(n, p, seed), 2)
    assert betti_hochster(i2) == betti_koszul_oracle(i2)


def test_oracle_equivalence_on_fixtures(caterpillar, c5_pendant, c6_pendant, c7_tail):
    for g in (caterpillar, c5_pendant, c6_pendant, c7_tail):
        i3 = path_ideal(g, 3)
        assert betti_hochster(i3) == betti_koszul_oracle(i3)


random_squarefree_ideals = st.sets(
    st.sets(st.integers(0, 5), min_size=1, max_size=4).map(frozenset),
    min_size=1,
    max_size=7,
).map(lambda gens: MonomialIdeal(6, frozenset(gens)))


@given(random_squarefree_ideals)
@settings(max_examples=60)
def test_oracle_equivalence_arbitrary_squarefree_ideals(i):
    # mixed degrees, including bare variables, stress the degree -1 and
    # augmentation conventions much harder than path ideals do
    table = betti_hochster(i)
    assert table == betti_koszul_oracle(i)
    assert table == betti_hochster_unpruned(i)
    assert table.projective_dimension() <= i.n
    assert table.regularity() <= i.n


@given(random_squarefree_ideals)
@settings(max_examples=20)
def test_oracle_equivalence_arbitrary_ideals_odd_characteristic(i):
    assert betti_hochster(i, GF3) == betti_koszul_oracle(i, GF3)
    assert betti_hochster(i, QQ) == betti_koszul_oracle(i, QQ)


def test_cone_pruning_soundness():
    # the pruned sum must agree entrywise with the unpruned one on 100 random instances
    for k in range(100):
        g = random_graph(1 + k % 8, (0.2, 0.4)[k % 2], seed=5000 + k)
        i3 = path_ideal(g, 3)
        assert betti_hochster(i3) == betti_hochster_unpruned(i3)


@st.composite
def two_block_ideals(draw):
    """Ideals on n = 7..9 whose generators lie in two or three disjoint vertex blocks.

    Every subset meeting two blocks' generators is a join, and with three
    blocks the rest of a join can be a join again. Blocks have at least two
    vertices. Degrees run 1-4, so bare variables (vertices outside the
    complex) and mixed degrees occur.
    """
    n = draw(st.integers(7, 9))
    sizes = [2] * draw(st.integers(2, 3))
    for _ in range(n - 2 * len(sizes)):
        sizes[draw(st.integers(0, len(sizes) - 1))] += 1
    gens, lo = set(), 0
    for size in sizes:
        block = st.sets(st.integers(lo, lo + size - 1), min_size=1, max_size=4).map(frozenset)
        gens |= draw(st.sets(block, min_size=1, max_size=5))
        lo += size
    return MonomialIdeal(n, frozenset(gens))


@given(two_block_ideals(), st.sampled_from([GF2, GF3, QQ]))
@settings(max_examples=40)
@example(ideal(8, (0,), (1, 2, 3), (2, 3, 4), (5, 6), (6, 7)), QQ)
@example(ideal(9, *RP2_NONFACES, (6,), (7, 8)), GF2)
@example(ideal(9, (0, 1), (1, 2), (3, 4, 5), (6,), (7, 8)), QQ)
# one pass over the generators misses part of the component of vertex 2
@example(ideal(9, (0, 1), (2, 3, 8), (2, 6, 7, 8), (3, 5, 6, 7), (4, 5, 7, 8)), GF2)
def test_join_and_collapse_rules_match_the_references(i, field):
    table = betti_hochster(i, field)
    assert table == betti_hochster_unpruned(i, field)
    assert table == betti_koszul_oracle(i, field)


@st.composite
def ambient_ideals(draw):
    """Ideals of degree 1-4 whose generators often leave ambient vertices unused."""
    n = draw(st.integers(3, 9))
    gen = st.sets(st.integers(0, n - 1), min_size=1, max_size=4).map(frozenset)
    return MonomialIdeal(n, frozenset(draw(st.sets(gen, min_size=1, max_size=6))))


def plan_parts(survivors, plan):
    """``_plan``'s two lists as (W, parts) per survivor W: parts is (W - v,) for a
    collapse of v, (C, W - C) for a join, with C the component of W's lowest
    vertex, and None when W is left to rank."""
    collapse, lowest = plan
    return [
        (w, (w ^ 1 << v,) if v >= 0 else (None if c == w else (c, w ^ c)))
        for w, v, c in zip(survivors, collapse, lowest, strict=True)
    ]


def captured_plan(i):
    """What ``betti_hochster(i)`` hands ``_plan``, as lists, and its plan as ``plan_parts``."""
    seen = []
    original = betti._plan

    def captured(survivors, gmasks, gverts, is_face, nverts):
        plan = original(survivors, gmasks, gverts, is_face, nverts)
        masks = survivors.tolist()
        # each generator's vertex list names exactly the bits of its mask
        assert [sorted(vs) for vs in gverts] == [[p for p in range(nverts) if g >> p & 1] for g in gmasks]
        seen.append((masks, gmasks, is_face.tolist(), nverts, plan_parts(masks, plan)))
        return plan

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(betti, "_plan", captured)
        assert betti_hochster(i) == betti_hochster_unpruned(i)
    [capture] = seen
    return capture


@given(ambient_ideals())
@settings(max_examples=60)
@example(ideal(5, (0,), (1, 2)))
# a bare variable on the top bit, and used vertices 1, 3, 4, 6 in an ambient of 9
@example(ideal(9, (1, 3), (3, 4), (6,)))
# the top ambient vertex inside a cubic, with degrees 2 and 3 mixed
@example(ideal(9, (2, 4, 7), (4, 7, 8), (0, 2)))
def test_plan_gets_the_survivors_and_faces_of_every_mask(i):
    survivors, gmasks, is_face, nverts, _ = captured_plan(i)
    used = sorted(set().union(*i.gens))
    assert nverts == len(used)
    assert sorted(gmasks) == sorted(sum(1 << used.index(v) for v in g) for g in i.gens)
    inside = [[g for g in gmasks if g & ~w == 0] for w in range(1 << nverts)]
    # W survives when the generators inside it cover it; W = {} never does
    union = [sum(1 << p for p in range(nverts) if any(g >> p & 1 for g in gs)) for gs in inside]
    assert survivors == [w for w in range(1, 1 << nverts) if union[w] == w]
    # is_face[W] for every mask W, the empty face included
    assert is_face == [not gs for gs in inside]


@given(ambient_ideals())
@settings(max_examples=60)
# 1 and 2 each dominate the other in {0, 1, 2}, so the lowest, 1, is collapsed
@example(ideal(4, (0, 1), (0, 2), (2, 3)))
# two disjoint generators and a third one bridging them
@example(ideal(7, (0, 1, 2), (3, 4, 5), (2, 3, 6)))
def test_plan_collapses_the_lowest_dominated_vertex_then_peels_a_component(i):
    survivors, gmasks, _, nverts, plan = captured_plan(i)
    assert [w for w, _ in plan] == survivors
    faces = {f for f in range(1 << nverts) if not any(g & ~f == 0 for g in gmasks)}
    for w, parts in plan:
        verts = [p for p in range(nverts) if w >> p & 1]
        own = [f for f in faces if f & ~w == 0]

        def dominates(u, v):
            """Every face of Delta_W with v stays a face with u added."""
            return all(f | 1 << u in faces for f in own if f >> v & 1)

        dominated = [v for v in verts if any(dominates(u, v) for u in verts if u != v)]
        if dominated:
            assert parts == (w ^ 1 << dominated[0],)
            continue
        # the component of W's lowest vertex, grouping the generators inside W
        comp, inside = w & -w, [g for g in gmasks if g & ~w == 0]
        while any(g & comp and g & ~comp for g in inside):
            comp |= next(g for g in inside if g & comp and g & ~comp)
        assert parts == (None if comp == w else (comp, w ^ comp))


@given(ambient_ideals())
@settings(max_examples=60)
# a bare variable beside a quadric and a cubic that share a vertex
@example(ideal(6, (0,), (1, 2), (2, 3, 4)))
# two bare variables beside a quadric and a cubic
@example(ideal(7, (0,), (5,), (1, 2), (2, 3, 4)))
def test_every_ranked_subset_has_two_vertices_so_no_link_leaves_it_empty(i):
    survivors, gmasks, is_face, nverts, plan = captured_plan(i)
    # a one-vertex survivor {p} is the union of the generators inside it: {p} itself
    assert all(w in gmasks for w in survivors if w.bit_count() == 1)
    # so every W left to rank that is not a generator's support keeps a vertex in W - v
    others = [w for w, parts in plan if parts is None and w not in gmasks]
    assert all(w.bit_count() >= 2 for w in others)
    # and each of its vertices is a face: a bare variable is dominated by every
    # other vertex, so its W is a collapse, and the descent's S takes a vertex untested
    assert all(is_face[1 << p] for w in others for p in range(nverts) if w >> p & 1)


def recorded_sum(i, field=GF2):
    """``betti_hochster(i, field)`` with its plan as ``plan_parts``, the face
    count of each ranked complex and the faces given boundary rows, in the
    order their rows were built."""
    plans, ranked, built = [], [], []
    plan, dims, row = betti._plan, betti._homology_dims_from_faces, betti._boundary_row

    def planned(survivors, *args):
        lists = plan(survivors, *args)
        plans.append(plan_parts(survivors.tolist(), lists))
        return lists

    def counted(rows, char):
        ranked.append(len(rows))
        return dims(rows, char)

    def listed(face, ids, char):
        built.append(face)
        return row(face, ids, char)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(betti, "_plan", planned)
        mp.setattr(betti, "_homology_dims_from_faces", counted)
        mp.setattr(betti, "_boundary_row", listed)
        # the ambient bounds the used vertices: check_referees runs past the default cap
        table = betti_hochster(i, field, cap=i.n)
    [planned_once] = plans
    return table, planned_once, ranked, built


def path_forest(*lengths):
    """Disjoint paths with these vertex counts, numbered path after path."""
    edges, first = [], 0
    for n in lengths:
        edges += [(first + k, first + k + 1) for k in range(n - 1)]
        first += n
    return Graph(first, tuple(edges))


def test_reduction_ranks_few_complexes_on_an_n18_tree():
    graph = tree_from_rng(18, SplitMix64(1))
    table, _, ranked, _ = recorded_sum(path_ideal(graph, 3))
    # 26 of the 4,255 surviving subsets are left to rank, the rest being joins or
    # collapses, and 19 of those are generator supports: 7 complexes are ranked
    assert len(ranked) <= 100
    assert table.regularity() == 8 == 2 * nu3(graph)[0]


def test_reduction_ranks_no_subset_spanning_two_disjoint_paths():
    def unreduced_and_reg(*lengths):
        """The plan's entries left to rank, and reg(R/I3), of a path forest."""
        table, plan, ranked, built = recorded_sum(path_ideal(path_forest(*lengths), 3))
        # each such entry is a 3-path's support, so nothing is ranked and no row is built
        assert ranked == built == []
        return [w for w, parts in plan if parts is None], table.regularity()

    # a subset inside one path is planned as on that path alone, so any other
    # entry would be a subset spanning two paths, which is a join
    (u7, r7), (u8, r8) = unreduced_and_reg(7), unreduced_and_reg(8)
    assert unreduced_and_reg(7, 8) == (u7 + [w << 7 for w in u8], r7 + r8)
    # on a path those entries are exactly the supports of its 3-paths
    assert [unreduced_and_reg(n) for n in (5, 6, 7, 8)] == [
        ([0b111 << k for k in range(n - 2)], r) for n, r in ((5, 2), (6, 2), (7, 4), (8, 4))
    ]
    # with three paths, the rest of such a join can be a join again
    u, r = unreduced_and_reg(5, 6, 7)
    assert u == [0b111 << k for k in (0, 1, 2, 5, 6, 7, 8, 11, 12, 13, 14, 15)]
    assert r == 2 + 2 + 4


def columns_calls(run):
    """What ``run()`` returns, and how often it numbered the columns of a face index."""
    calls = []
    columns = betti._columns

    def counted(faces):
        calls.append(len(faces))
        return columns(faces)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(betti, "_columns", counted)
        out = run()
    return out, len(calls)


def test_face_index_is_built_once_and_only_when_a_link_is_ranked(tmp_path, capsys):
    # P_11: every complex left to rank is a 3-path's support, a sphere
    table, calls = columns_calls(lambda: betti_hochster(path_ideal(path_graph(11), 3)))
    assert table == path_betti_table(11)
    assert calls == 0
    with open(os.path.join(os.path.dirname(__file__), "data", "reg_golden.jsonl"), encoding="utf-8") as fh:
        golden = {case["id"]: case for case in map(json.loads, fh)}
    # the 12-vertex tree of seed 1, random_tree(12, 1): every link its sum
    # reads is a graph, counted in closed form. G(16, 0.3) of seed 1 ranks
    # 1,118 links, all read from the one index.
    for key, built in (("tree n=12 seed=1 gf2", 0), ("gnp0.3 n=16 seed=1 gf2", 1)):
        case = golden[key]
        path = tmp_path / "graph.txt"
        path.write_text(case["input"], encoding="utf-8")
        code, calls = columns_calls(lambda: main([str(path) if arg == "GRAPH" else arg for arg in case["argv"]]))
        assert code == case["exit"] == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == case["stdout_sha256"]
        assert calls == built


@st.composite
def ranked_sets(draw):
    """An ideal from ``ambient_ideals``, its face bytes over the used vertices and
    a sorted list of distinct masks, as ``_face_index`` gets its W left to rank."""
    i = draw(ambient_ideals())
    nverts = len(set().union(*i.gens))
    ranked = sorted(draw(st.sets(st.integers(0, (1 << nverts) - 1), max_size=6)))
    return i, _faces_and_sizes(i)[0].tobytes(), ranked, nverts


@given(ranked_sets())
@settings(max_examples=80)
# a bare variable, 0, is in no face; the ranked {0, 1} and {1, 2} share the face {1}
@example((ideal(3, (0,), (1, 2)), bytes([1, 0, 1, 0, 1, 0, 0, 0]), [0b11, 0b110], 3))
def test_face_index_lists_the_faces_inside_the_ranked_sets(case):
    i, face, ranked, nverts = case
    assert face == _faces_and_sizes(i)[0].tobytes()
    # the set of faces, bit M for the mask M, as the sum's set step builds it
    face_set = sum(1 << m for m, f in enumerate(face) if f)
    ids, faces = betti._face_index(face_set, ranked, nverts)
    expected = [f for f in range(1, 1 << nverts) if face[f] and any(f & ~w == 0 for w in ranked)]
    assert faces.tolist() == expected
    # the empty face is column 0; the others are numbered per size in that order
    numbered, counts = {0: 0}, {}
    for f in expected:
        numbered[f] = counts.get(f.bit_count(), 0)
        counts[f.bit_count()] = numbered[f] + 1
    assert ids == numbered


def generator_supports(i):
    used = sorted(set().union(*i.gens))
    return {sum(1 << used.index(v) for v in g) for g in i.gens}


def submasks(s):
    """Every mask inside s, s and 0 included."""
    t = s
    while True:
        yield t
        if not t:
            return
        t = (t - 1) & s


def descent(w, has_homology, is_face):
    """The face S of Delta_W the descent ends at, or None when it finds Delta_W acyclic.

    Recomputed vertex by vertex: S takes each vertex b of W, lowest first,
    for which no W - (T + b), T inside S, has homology, and a b with S + b
    not a face ends the descent with Delta_W acyclic. ``has_homology(U)``
    answers for a proper subset U of W; the final memo's ``__contains__`` will
    do, as its entries below W are final when W is reached.
    """
    s = 0
    for b in (1 << p for p in range(w.bit_length()) if w >> p & 1):
        if any(has_homology(w ^ t ^ b) for t in submasks(s)):
            continue
        if not is_face[s | b]:
            return None
        s |= b
    return s


def link_faces(faces, s, w):
    """lk_W(S) as the faces F - S, F != S, for the faces F in the array ``faces`` inside W holding S."""
    inside = faces[(faces & ~w) == 0]
    inside = inside[(inside & s) == s]
    return inside[inside != s] ^ s


def links_read(w, memo, is_face, field):
    """The faces S whose links in Delta_W the sum reads at W, in order, or None when W is rank-free.

    The descent's S, unless it stays empty: then every W - b has homology,
    and Delta_W is split on its lowest vertex v, reading lk_W(v), and then
    the empty face too if lk_W(v) and Delta_{W-v} have homology in one
    degree. A link read is ranked only if it has a 2-face (``has_two_face``);
    one without is a graph, in closed form. ``memo`` is the final memo: its
    entries below W are final when W is reached.
    """
    s = descent(w, memo.__contains__, is_face)
    if s is None:
        return None
    if s:
        return [s]
    v, char = w & -w, field.characteristic
    lk = link_faces(np.flatnonzero(is_face)[1:], v, w).tolist()
    # H~_d(lk_W v) sits at t^(d + 1) in a series, as H~_d(Delta_{W-v}) does
    dims = betti._homology_dims_from_faces(_boundary_rows(lk, char), char)
    return [v, 0] if any(d + 1 in memo[w ^ v] for d in dims) else [v]


def has_two_face(s, w, is_face):
    """Whether lk_W(S) has a 2-face: S + a + b + c a face for some a, b, c in W - S."""
    verts = [1 << p for p in range(w.bit_length()) if (w & ~s) >> p & 1]
    return any(is_face[s | a | b | c] for a, b, c in itertools.combinations(verts, 3))


@pytest.mark.parametrize(
    "graph, free",
    [(tree_from_rng(18, SplitMix64(1)), 1), (graph_from_rng(16, 0.3, SplitMix64(1)), 3_655)],
    ids=["tree18", "G16"],
)
def test_rows_are_built_once_for_the_faces_ranked_complexes_read(graph, free):
    i = path_ideal(graph, 3)
    table, plan, ranked, built = recorded_sum(i)
    memo = memo_of(table.terms)
    # what each ranked W reads, from the plan, the final memo and Delta's faces
    # alone: memo entries below W are final when W is reached, so they decide
    # the descent's S and the split's branch as they did then
    is_face = _faces_and_sizes(i)[0]
    faces = np.flatnonzero(is_face)[1:]
    gens, counts, read, below, rank_free = generator_supports(i), [], set(), set(), []
    for w, parts in plan:
        if parts is not None or w in gens:
            continue
        below.update(faces[(faces & ~w) == 0].tolist())
        links = links_read(w, memo, is_face, GF2)
        if links is None:
            rank_free.append(w)
            continue
        for s in (s for s in links if has_two_face(s, w, is_face)):
            lk = link_faces(faces, s, w)
            counts.append(len(lk))
            read.update(lk.tolist())
    assert ranked == counts
    # the non-generator W left to rank read links or are rank-free, and a
    # rank-free W has no series
    assert len(rank_free) == free
    assert not any(w in memo for w in rank_free)
    # one row per face some ranked complex reads, and none for the other faces
    # below a ranked W (tree18: 24 of 441 faces; G16: 993 of 3,823)
    assert sorted(built) == sorted(read)
    assert len(read) < len(below)


@given(ambient_ideals(), st.sampled_from([GF2, GF3, QQ]))
@settings(max_examples=60)
# a degree-1 generator next to cubics: Delta_{0} = {empty set}
@example(ideal(6, (0,), (1, 2, 3), (2, 3, 4)), QQ)
# degrees 1-4: the five supports take the closed form, and the two other
# subsets left to rank read links that are graphs, so nothing is ranked
@example(ideal(7, (1,), (0, 6), (0, 4, 5), (2, 3, 5), (3, 4, 5, 6)), GF3)
@example(ideal(9, *RP2_NONFACES, (6,), (7, 8)), GF2)
def test_generator_supports_take_their_sphere_in_closed_form(i, field):
    table, plan, ranked, _ = recorded_sum(i, field)
    memo = memo_of(table.terms)
    assert table == betti_hochster_unpruned(i, field)
    assert table == betti_koszul_oracle(i, field)
    gens, is_face = generator_supports(i), _faces_and_sizes(i)[0]
    # every other W left to rank ranks each link it reads that has a 2-face,
    # unless its descent finds it acyclic
    reads = [(w, links_read(w, memo, is_face, field)) for w, parts in plan if parts is None and w not in gens]
    assert len(ranked) == sum(has_two_face(s, w, is_face) for w, read in reads for s in read or ())


@pytest.mark.parametrize(
    "i",
    [
        path_ideal(path_forest(11), 3),
        ideal(5, (1, 2, 4)),
        ideal(3, (1,)),
        path_ideal(path_forest(3, 4, 5), 3),
    ],
    ids=["P11", "cubic", "variable", "P3+P4+P5"],
)
def test_paths_and_single_generators_rank_nothing_and_build_no_rows(i):
    table, plan, ranked, built = recorded_sum(i)
    assert ranked == built == []
    assert {w for w, parts in plan if parts is None} == generator_supports(i)
    assert table == betti_hochster_unpruned(i)


@given(
    st.tuples(st.integers(6, 8), st.sampled_from([0.3, 0.4]), st.integers(0, 10**9)),
    st.integers(0, 10**6),
    st.booleans(),
    st.sampled_from([GF2, GF3, QQ]),
)
@settings(max_examples=40)
# (I3 : x0) has ten degree-2 generators; 10 of its 16 ranked subsets rank a link
@example((8, 0.3, 3), 0, False, GF3)
# (I3 : x0 x2) is x6 and four cubics; 4 of its 6 ranked subsets rank a link
@example((8, 0.3, 7), 0, True, QQ)
def test_link_rule_on_colon_ideals_matches_the_references(key, pick, by_edge, field):
    # colons of I3 by a vertex or an edge mix degrees 1, 2 and 3, so ranked
    # subsets often have a cone or an acyclic complex one vertex below them
    n, p, seed = key
    g = random_graph(n, p, seed)
    m = g.edges[pick % len(g.edges)] if by_edge and g.edges else (pick % n,)
    i = colon(path_ideal(g, 3), m)
    if i.is_unit:
        return
    table = betti_hochster(i, field)
    assert table == betti_hochster_unpruned(i, field)
    assert table == betti_koszul_oracle(i, field)


# Delta_{0..5, 7} is a cone on 7, so the whole complex's descent takes 6. It
# takes 7 too unless Delta_{0..5}, RP^2, has homology, as over GF(2) only. So
# GF(2) ranks the link of 6: RP^2 (31 faces) plus the cone from 7 over its
# triangle 034 (8 faces); GF(3) and Q rank the link of 67, the simplex 034
RP2_AS_A_LINK = ideal(8, *RP2_NONFACES, (1, 6, 7), (2, 6, 7), (5, 6, 7))


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=lambda f: f.token)
def test_link_rule_sees_the_torsion_of_rp2(monkeypatch, field):
    ranked = []
    original = betti._homology_dims_from_faces

    def recorded(rows, char):
        ranked.append((len(rows), original(rows, char)))
        return ranked[-1][1]

    monkeypatch.setattr(betti, "_homology_dims_from_faces", recorded)
    table = betti_hochster(RP2_AS_A_LINK, field)
    assert table == betti_hochster_unpruned(RP2_AS_A_LINK, field)
    assert table == betti_koszul_oracle(RP2_AS_A_LINK, field)
    torsion = field.characteristic == 2
    # the whole vertex set has the largest mask, so it is ranked last
    assert ranked[-1] == ((39, {1: 1, 2: 1}) if torsion else (7, {}))
    assert (table.as_dict().get((4, 8), 0), table.as_dict().get((5, 8), 0)) == (
        (1, 1) if torsion else (0, 0)
    )


def test_link_rule_ranks_smaller_complexes_on_g16():
    graph = graph_from_rng(16, 0.3, SplitMix64(1))
    i = path_ideal(graph, 3)
    table, plan, ranked, _ = recorded_sum(i)
    memo, gens, is_face = memo_of(table.terms), generator_supports(i), _faces_and_sizes(i)[0]
    descents = [descent(w, memo.__contains__, is_face) for w, parts in plan if parts is None and w not in gens]
    # the link rule changes what is ranked, not which subsets: 8,818 of 21,090
    # survivors are left to rank, and the 98 generator supports among them
    # are spheres in closed form. Of the other 8,720, the descent finds 3,655
    # acyclic and keeps S empty at 464, which split on their lowest vertex
    # (14 of them rank Delta_W as well). Of the 5,079 links read, 3,961 are
    # graphs in closed form: 1,118 complexes are ranked, with 53,116 face rows
    # in all (5,065 with 127,329 when each descent's link was ranked, 664,080 when
    # only a single vertex was linked, 1,974,528 when each whole Delta_W was)
    assert (len(descents), descents.count(None), descents.count(0)) == (8720, 3655, 464)
    assert len(ranked) == 1118
    assert sum(ranked) == 53_116
    assert table.regularity() == 4 == 2 * nu3(graph)[0]


@pytest.mark.parametrize(
    "seed, edges, descents, ranked, rows",
    [
        (3, 15, (150, 62, 13), 19, 797),
        (5, 17, (303, 81, 23), 21, 288),
        (6, 18, (389, 85, 27), 16, 467),
        (8, 19, (552, 81, 62), 50, 1_431),
    ],
)
def test_link_rule_selection_on_dense_g11(seed, edges, descents, ranked, rows):
    # G(11, 0.31), the size of the dense benchmark's graphs: the W left to
    # rank besides the generator supports, those the descent finds acyclic,
    # those whose S stays empty (the split), then the complexes ranked and
    # their face rows, so that a faster descent or link read cannot change
    # what is read
    graph = graph_from_rng(11, 0.31, SplitMix64(seed))
    assert len(graph.edges) == edges
    i = path_ideal(graph, 3)
    table, plan, got, _ = recorded_sum(i)
    memo, gens, is_face = memo_of(table.terms), generator_supports(i), _faces_and_sizes(i)[0]
    found = [descent(w, memo.__contains__, is_face) for w, parts in plan if parts is None and w not in gens]
    assert (len(found), found.count(None), found.count(0)) == descents
    assert (len(got), sum(got)) == (ranked, rows)
    assert table == betti_hochster_unpruned(i)


def test_descent_ranks_few_small_links_on_an_n22_tree():
    graph = random_tree(22, 1)
    i = path_ideal(graph, 3)
    table, plan, ranked, _ = recorded_sum(i)
    memo, gens, is_face = memo_of(table.terms), generator_supports(i), _faces_and_sizes(i)[0]
    descents = [descent(w, memo.__contains__, is_face) for w, parts in plan if parts is None and w not in gens]
    # 281 W are left to rank besides the 30 generator supports: 71 are found
    # acyclic, and 210 read a link of a nonempty face. 187 of those links are
    # graphs in closed form, so 23 are ranked, 1,383 face rows in all (210
    # with 1,925 when each descent's link was ranked, 281 complexes with 303,580
    # when only a single vertex was linked)
    assert (len(descents), descents.count(None), 0 in descents) == (281, 71, False)
    assert (len(ranked), sum(ranked)) == (23, 1383)
    assert table.regularity() == 10 == 2 * nu3(graph)[0]


@st.composite
def link_rule_ideals(draw):
    """I3 of a random graph on 6-10 vertices or its colon by a vertex, or an ambient ideal."""
    if draw(st.booleans()):
        return draw(ambient_ideals())
    g = random_graph(draw(st.integers(6, 10)), draw(st.sampled_from([0.3, 0.4])), draw(st.integers(0, 10**9)))
    i = path_ideal(g, 3)
    return colon(i, (draw(st.integers(0, g.n - 1)),)) if draw(st.booleans()) else i


# a link of three vertices: the whole vertex set 01245 ranks the link of 014
DEEP_DESCENT = ideal(6, (0, 2, 4), (1, 4, 5))
# in the whole vertex set 012345 the descent takes 1 and 2, then meets 5 with
# 125 a generator: Delta_W is acyclic, and nothing is ranked
RANK_FREE = ideal(7, (0, 1), (1, 2, 5), (2, 4), (3, 5))


# Delta_012 is three points and each Delta_{W-b} two, so the descent keeps S
# empty. The split adds H~_0 = 1 of Delta_12 and H~_{-1} = 1 of lk(0) =
# {empty set}, both at t^1: H~_0(Delta_W) = 2
SPLIT_ADDS = ideal(3, (0, 1), (0, 2), (1, 2))
# in 013, 01345 and 12345 the split adds two series at one degree, as above.
# In 012345, lk(0) has H~_1 = 1 and Delta_12345 H~_1 = 3, and the cycle of
# lk(0) is not a boundary there: the split ranks Delta_W, with H~_1 = 2, where
# adding would give 3 and an H~_2
SPLIT_CONFLICT = ideal(
    6, (0, 1, 4), (0, 3, 4), (0, 3, 5), (1, 2, 4), (1, 2, 5),
    (1, 3, 4), (1, 3, 5), (1, 4, 5), (2, 3, 5), (3, 4, 5),
)
# on W = 12456789 every Delta_{W-b} has H~_1 and the split reads Delta_W,
# which is acyclic, so the memo keeps no entry for W
SPLIT_ACYCLIC = ideal(
    10,
    (0, 1, 3), (0, 2, 3), (0, 1, 5), (1, 2, 5), (2, 3, 5), (0, 1, 6), (0, 3, 6),
    (1, 3, 6), (2, 3, 6), (1, 4, 6), (3, 4, 6), (1, 5, 6), (2, 5, 6), (3, 5, 6),
    (4, 5, 6), (0, 1, 7), (1, 2, 7), (2, 3, 7), (1, 4, 7), (2, 4, 7), (1, 5, 7),
    (2, 5, 7), (1, 6, 7), (4, 6, 7), (0, 1, 8), (0, 2, 8), (0, 3, 8), (2, 3, 8),
    (0, 4, 8), (2, 4, 8), (2, 5, 8), (0, 6, 8), (1, 6, 8), (2, 6, 8), (3, 6, 8),
    (4, 6, 8), (5, 6, 8), (0, 7, 8), (1, 7, 8), (2, 7, 8), (4, 7, 8), (6, 7, 8),
    (2, 3, 9), (2, 4, 9), (1, 5, 9), (2, 5, 9), (4, 5, 9), (4, 6, 9), (5, 6, 9),
    (2, 7, 9), (4, 7, 9), (2, 8, 9), (4, 8, 9),
)


def test_each_ranked_link_and_each_survivor_series_match_the_oracle():
    # every ranked complex is lk_W(S) for a face S of Delta_W: Delta(I : x_S) on
    # W - S, Delta_W itself when S is empty; its series is shifted up by |S| + 1
    selections = set()

    @given(link_rule_ideals(), st.sampled_from([GF2, GF3, QQ]))
    @settings(max_examples=40)
    @example(RP2_AS_A_LINK, GF2)
    @example(RP2_AS_A_LINK, QQ)
    @example(ideal(9, *RP2_NONFACES, (6,), (7, 8)), GF3)
    @example(DEEP_DESCENT, GF2)
    @example(RANK_FREE, QQ)
    @example(SPLIT_ADDS, GF3)
    @example(SPLIT_CONFLICT, GF2)
    def check(i, field):
        if i.is_unit or i.is_zero:
            return
        dims, original = [], betti._homology_dims_from_faces

        def recorded(rows, char):
            dims.append(original(rows, char))
            return dims[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(betti, "_homology_dims_from_faces", recorded)
            table, plan, ranked, _ = recorded_sum(i, field)
        memo = memo_of(table.terms)
        used, gens = sorted(set().union(*i.gens)), generator_supports(i)
        is_face = _faces_and_sizes(i)[0]
        faces = [f for f in range(1, 1 << len(used)) if is_face[f]]
        expected = []
        for w, parts in plan:
            verts = [used[p] for p in range(len(used)) if w >> p & 1]
            series = reduced_homology_dims(i, verts, field)
            # a rank-free W too: it has no series, and the oracle finds Delta_W
            # acyclic; a split W has the series of the oracle's Delta_W
            assert memo.get(w) == ({k: h for k, h in enumerate(series) if h} or None)
            if parts is None and w not in gens:
                # memo entries below W are final when W is reached, so they pick the links as then
                links = links_read(w, memo, is_face, field)
                if links is None:
                    selections.add("rank-free")
                    continue
                if descent(w, memo.__contains__, is_face) == 0:
                    selections.add(("split", "split, conflict")[len(links) - 1])
                for s in links:
                    if not has_two_face(s, w, is_face):
                        selections.add("graph")
                        continue
                    link = [used[p] for p in range(len(used)) if s >> p & 1]
                    series = reduced_homology_dims(colon(i, link), set(verts) - set(link), field)
                    size = sum(f & s == s and f != s and f & ~w == 0 for f in faces)
                    expected.append((size, {d - 1: h for d, h in enumerate(series) if h}))
                    selections.add(("Delta_W", "lk(v)", "lk(S), |S| >= 2")[min(len(link), 2)])
        assert list(zip(ranked, dims)) == expected

    check()
    # the draws rank every kind of complex, take graphs in closed form, split
    # with and without a conflict, and reach a rank-free W
    assert selections == {
        "Delta_W", "lk(v)", "lk(S), |S| >= 2", "graph", "split", "split, conflict", "rank-free",
    }


def test_descent_gives_delta_w_the_homology_of_its_link_or_none():
    # the lemma, refereed by the oracle alone: if Delta_{W-T} is acyclic for
    # every nonempty T inside the face S, then H~_d(Delta_W) = H~_{d-|S|}(lk_W S);
    # and if S + b is no face, lk_W(S) = lk_{W-b}(S) is acyclic, so Delta_W is
    reached = set()

    @given(link_rule_ideals(), st.sampled_from([GF2, GF3, QQ]))
    @settings(max_examples=40)
    @example(DEEP_DESCENT, GF3)
    @example(RANK_FREE, GF2)
    # RP^2 is acyclic over Q, so the whole W links 67 there and 6 over GF(2)
    @example(RP2_AS_A_LINK, GF2)
    @example(RP2_AS_A_LINK, QQ)
    def check(i, field):
        if i.is_unit or i.is_zero:
            return
        _, plan, _, _ = recorded_sum(i, field)
        used, gens = sorted(set().union(*i.gens)), generator_supports(i)
        is_face = _faces_and_sizes(i)[0]

        def verts(mask):
            return [used[p] for p in range(len(used)) if mask >> p & 1]

        @functools.cache
        def homology(mask):
            return reduced_homology_dims(i, verts(mask), field)

        def has_homology(mask):
            # Delta of the empty set is {empty set}, not acyclic: W - T is never empty
            assert mask
            return any(homology(mask))

        for w, parts in plan:
            if parts is None and w not in gens:
                s = descent(w, has_homology, is_face)
                if s is None:
                    assert not any(homology(w))
                    reached.add("rank-free")
                    continue
                link = reduced_homology_dims(colon(i, verts(s)), verts(w ^ s), field)
                assert homology(w) == [0] * s.bit_count() + link
                reached.add(min(s.bit_count(), 2))
                if i == RP2_AS_A_LINK and w == 0xFF:
                    reached.add((field.token, s))

    check()
    assert reached == {0, 1, 2, "rank-free", ("gf2", 0b1000000), ("q", 0b11000000)}


def test_split_gives_delta_w_the_homology_of_its_parts_unless_they_share_a_degree():
    # Delta_W is Delta_{W-v} and the star of v, a cone, meeting in lk_W(v). If no
    # degree d has homology in both lk_W(v) and Delta_{W-v}, the map between them
    # is zero and Mayer-Vietoris gives H~_d(Delta_W) = H~_d(Delta_{W-v}) +
    # H~_{d-1}(lk_W v), over every field; refereed by the oracle alone, and the
    # sum's series of each split W by the oracle's Delta_W
    reached = set()

    @given(link_rule_ideals(), st.sampled_from([GF2, GF3, QQ]))
    @settings(max_examples=40)
    @example(SPLIT_ADDS, GF2)
    @example(SPLIT_CONFLICT, GF3)
    @example(SPLIT_CONFLICT, QQ)
    @example(SPLIT_ACYCLIC, GF2)
    def check(i, field):
        if i.is_unit or i.is_zero:
            return
        table, plan, _, _ = recorded_sum(i, field)
        memo = memo_of(table.terms)
        used, gens = sorted(set().union(*i.gens)), generator_supports(i)
        is_face = _faces_and_sizes(i)[0]

        def verts(mask):
            return [used[p] for p in range(len(used)) if mask >> p & 1]

        @functools.cache
        def homology(mask):
            return reduced_homology_dims(i, verts(mask), field)

        for w, parts in plan:
            if parts is not None or w in gens or descent(w, lambda u: any(homology(u)), is_face) != 0:
                continue
            # the descent kept S empty: every Delta_{W-b} has homology
            v = w & -w
            rest = homology(w ^ v)
            link = reduced_homology_dims(colon(i, verts(v)), verts(w ^ v), field)
            # the memo keeps only nonzero series, so an acyclic Delta_W has no entry
            assert memo.get(w, {}) == {k: h for k, h in enumerate(homology(w)) if h}
            # each list starts at degree -1, so lk's degree d - 1 moves up one place
            added = [a + b for a, b in zip(rest + [0], [0] + link)]
            if any(a and b for a, b in zip(rest, link)):
                reached.add("conflict" if added == homology(w) else "conflict, adding is wrong")
                continue
            assert homology(w) == added
            reached.add("adds at a shared degree" if any(a and b for a, b in zip(rest, [0] + link)) else "adds")

    check()
    assert reached >= {"adds", "adds at a shared degree", "conflict, adding is wrong"}


def face_bytes(faces):
    """The face flags of every mask of 8 vertices, one byte each."""
    return bytes(f in faces for f in range(1 << 8))


@st.composite
def graph_links(draw):
    """A face S inside W and a complex K of dimension at most 1 on W - S, as
    (S, W, K's vertices, K's edges), each a mask."""
    w = (1 << draw(st.integers(0, 7))) - 1
    s = draw(st.integers(0, w))
    vertices = [1 << p for p in range(8) if (w & ~s) >> p & 1 and draw(st.booleans())]
    edges = [a | b for a, b in itertools.combinations(vertices, 2) if draw(st.booleans())]
    return s, w, vertices, edges


@given(graph_links(), st.sampled_from([GF2, GF3, QQ]))
# {empty set}: S is W
@example((0b11, 0b11, [], []), GF2)
# three points, under S = 0
@example((0, 0b111, [1, 2, 4], []), QQ)
# a forest: the paths 0-1-2 and 4-5, with 3 in S
@example((0b1000, 0b111111, [1, 2, 4, 16, 32], [3, 6, 48]), GF3)
# K4's 1-skeleton and a square: two components, H_1 of dimension 3 + 1
@example((0, 0xFF, [1 << p for p in range(8)], [3, 5, 9, 6, 10, 12, 0x30, 0x60, 0xC0, 0x90]), GF2)
def test_graph_links_take_their_homology_in_closed_form(case, field):
    s, w, vertices, edges = case
    # Delta is the join of the simplex S and K, so lk_W(S) = K; every face of it
    # inside W is S' + F for S' inside S and F a face of K
    k_faces = [0, *vertices, *edges]
    faces = {t | f for t in submasks(s) for f in k_faces}
    # K's minimal non-faces: the points of W - S off K, the non-edges and the
    # triangles whose edges are all in K
    edge_set = set(edges)
    points = [1 << p for p in range(w.bit_length()) if (w & ~s) >> p & 1]
    nonfaces = [b for b in points if b not in vertices]
    nonfaces += [a | b for a, b in itertools.combinations(vertices, 2) if a | b not in edge_set]
    triangles = [
        a | b | c for a, b, c in itertools.combinations(vertices, 3) if {a | b, a | c, b | c} <= edge_set
    ]
    nonfaces += triangles
    k = MonomialIdeal(w.bit_length(), frozenset(frozenset(p for p in range(8) if f >> p & 1) for f in nonfaces))
    expected = reduced_homology_dims(k, [p for p in range(8) if (w & ~s) >> p & 1], field)
    # one byte per mask of the 8 vertices, as betti_hochster hands it over; the
    # series comes shifted up by the caller's shift: 1 for Delta_W, 2 for the
    # split's link of a vertex and |S| + 1 for a descent's link
    for shift in sorted({0, 1, 2, s.bit_count() + 1}):
        dims = {d + shift: h for d, h in enumerate(expected, -1) if h}
        assert betti._graph_link_dims(s, w, face_bytes(faces), shift) == dims
    # a 2-face leaves the link to be ranked, at every shift
    for tri in triangles[:1]:
        with_tri = face_bytes(faces | {t | tri for t in submasks(s)})
        for shift in sorted({0, 1, s.bit_count() + 1}):
            assert betti._graph_link_dims(s, w, with_tri, shift) is None


@given(graph_keys)
@settings(max_examples=25)
def test_field_sweep_small_graphs(key):
    n, p, seed = key
    i3 = path_ideal(random_graph(n, p, seed), 3)
    t2 = betti_hochster(i3, GF2)
    assert betti_hochster(i3, GF3) == t2
    assert betti_hochster(i3, QQ) == t2


def test_fixture_tables_are_field_independent(caterpillar, c5_pendant, c6_pendant, c7_tail):
    for g in (caterpillar, c5_pendant, c6_pendant, c7_tail):
        i3 = path_ideal(g, 3)
        reference = betti_hochster(i3, GF2)
        assert betti_hochster(i3, GF3) == reference
        assert betti_hochster(i3, QQ) == reference


def test_zero_and_unit_ideals():
    table = betti_hochster(ideal(5))
    assert table.entries == ((0, 0, 1),)
    assert regularity(ideal(5)) == 0
    assert regularity(ideal(5, ())) == NEG_INF
    with pytest.raises(InputError):
        betti_hochster(ideal(5, ()))


def test_capacity_errors():
    # the cap counts the vertices the generators use: here cap + 1 of them
    wide = ideal(DEFAULT_CAP + 1, range(DEFAULT_CAP + 1))
    with pytest.raises(CapacityError, match=f"ambient n={DEFAULT_CAP + 1} exceeds the enumeration cap {DEFAULT_CAP};"):
        betti_hochster(wide)
    two_p3s = ideal(6, (0, 1, 2), (3, 4, 5))
    with pytest.raises(CapacityError, match="ambient n=6 exceeds the enumeration cap 5;"):
        betti_hochster(two_p3s, cap=5)
    # the override flag lifts the cap
    assert betti_hochster(two_p3s, cap=6).regularity() == 4
    # variables in no generator are free: 23 ambient, 3 used, 8 subsets visited
    table = betti_hochster(MonomialIdeal(23, frozenset({frozenset({0, 1, 2})})))
    assert table.entries == ((0, 0, 1), (1, 3, 1))
    assert betti_hochster(ideal(DEFAULT_CAP + 1)).entries == ((0, 0, 1),)


PATH64 = ideal(64, *[(k, k + 1, k + 2) for k in range(62)])


def test_an_unallocatable_cap_is_a_capacity_error(monkeypatch):
    # 2^64 face bytes exceed the largest object size, so nothing is allocated
    with pytest.raises(CapacityError, match=r"the generators use 64 vertices, and the 2\^64 .*--cap 64"):
        betti_hochster(PATH64, cap=64)

    def refuse(*args, **kwargs):
        raise MemoryError

    # the face bytes are the sum's first request of 2^n size
    monkeypatch.setattr(betti, "bytearray", refuse, raising=False)
    with pytest.raises(CapacityError, match=r"the generators use 3 vertices, and the 2\^3 .*--cap 22"):
        betti_hochster(ideal(5, (0, 1, 2)))


def test_an_unallocatable_cap_builds_no_set_of_masks(monkeypatch):
    # the refusal comes before the first 2^n-bit int: one built here fails the
    # test at once, where growing it would exhaust the memory
    def built(nverts):
        raise AssertionError(f"a set of the 2^{nverts} masks was built")

    monkeypatch.setattr(betti, "_vertex_sets", built)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"the 2\^64 subset arrays that --cap 64 admits"):
            betti_hochster(PATH64, cap=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_ses_bound_p4():
    report = SesBoundReport.of(path_ideal(P4, 3), {1, 2}, regularity)
    assert (report.reg_quotient, report.reg_colon_shifted, report.reg_sum) == (2, 2, 1)
    assert report.holds


def test_ses_bound_with_member_monomial():
    i = ideal(3, (0, 1, 2))
    report = SesBoundReport.of(i, {0, 1, 2}, regularity)
    assert report.reg_colon_shifted == NEG_INF
    assert report.reg_sum == 2
    assert report.holds
    with pytest.raises(InputError):
        SesBoundReport.of(i, (), regularity)


@pytest.mark.parametrize("field, reg_quotient", [(GF2, 3), (GF3, 2), (QQ, 2)])
def test_ses_bound_takes_the_field_from_reg(field, reg_quotient):
    # the torsion of RP^2 raises reg(R/I) in characteristic 2 only
    report = SesBoundReport.of(ideal(6, *RP2_NONFACES), {0}, lambda j: regularity(j, field))
    assert (report.reg_quotient, report.reg_colon_shifted, report.reg_sum) == (reg_quotient, 3, 2)
    assert report.holds


def test_ses_bound_on_cycle_pendant_edge(c5_pendant):
    report = SesBoundReport.of(path_ideal(c5_pendant, 3), {0, 5}, regularity)
    assert report.holds


@given(graph_keys, st.integers(0, 10**6))
@settings(max_examples=30)
def test_ses_bound_random_edges(key, pick):
    n, p, seed = key
    g = random_graph(n, p, seed)
    if not g.edges:
        return
    u, v = g.edges[pick % len(g.edges)]
    assert SesBoundReport.of(path_ideal(g, 3), {u, v}, regularity).holds


# -- table type ---------------------------------------------------------------------


def test_betti_table_validation():
    with pytest.raises(InputError):
        BettiTable(((0, 0, 1), (0, 2, 1)))
    with pytest.raises(InputError):
        BettiTable(((1, 3, 2),))
    with pytest.raises(InputError):
        BettiTable(((0, 0, 1), (1, 3, -2)))
    table = BettiTable(((0, 0, 1), (1, 3, 2), (2, 4, 0)))
    assert table.entries == ((0, 0, 1), (1, 3, 2))
    assert table.as_dict().get((2, 4), 0) == 0


def test_betti_table_entrywise_leq():
    small = BettiTable(((0, 0, 1), (1, 3, 1)))
    big = BettiTable(((0, 0, 1), (1, 3, 2), (2, 4, 1)))
    assert small.entrywise_leq(big)
    assert not big.entrywise_leq(small)


@given(ambient_ideals(), st.sampled_from([GF2, GF3, QQ]))
@settings(max_examples=60)
# the zero ideal's table keeps an empty list of terms
@example(MonomialIdeal(4, ()), QQ)
def test_a_sums_table_keeps_its_terms_out_of_its_value(i, field):
    table = betti_hochster(i, field)
    plain = BettiTable.from_dict(table.as_dict())
    assert table == plain and hash(table) == hash(plain) and repr(table) == repr(plain)
    assert table.to_json_obj(field) == plain.to_json_obj(field)
    assert (table.csv_text(), table.pretty()) == (plain.csv_text(), plain.pretty())
    again = pickle.loads(pickle.dumps(table))
    assert again.entries == table.entries and again.terms == table.terms
    # the sub-sum over every variable is the whole sum
    whole = sub_table(table.terms, range(i.n))
    assert whole == table
    assert table.terms is not None
    assert plain.terms is whole.terms is BettiTable(table.entries).terms is None


def test_betti_table_outputs():
    table = betti_hochster(path_ideal(P4, 3))
    pretty = table.pretty()
    assert "total:" in pretty
    assert pretty.splitlines()[2].split() == ["0:", "1", ".", "."]
    assert pretty.splitlines()[4].split() == ["2:", ".", "2", "1"]
    assert table.csv_text() == "i,j,beta\n0,0,1\n1,3,2\n2,4,1\n"
    obj = table.to_json_obj(GF2)
    assert obj == {"betti": [[0, 0, 1], [1, 3, 2], [2, 4, 1]], "reg": 2, "pd": 2, "field": "gf2"}


def test_field_spec():
    assert FieldSpec.parse("gf2") == GF2
    assert FieldSpec.parse("q") == QQ
    assert FieldSpec.parse("0") == QQ
    assert FieldSpec.parse("7") == FieldSpec(7)
    assert FieldSpec(5).token == "gf5"
    assert QQ.token == "q"
    with pytest.raises(InputError):
        FieldSpec(4)
    with pytest.raises(InputError):
        FieldSpec.parse("gf")
    with pytest.raises(InputError):
        FieldSpec.parse("gf0")
    with pytest.raises(InputError):
        FieldSpec.parse("gf1")


def test_field_spec_checks_the_prime_bound_before_trial_division():
    assert FieldSpec(2**31 - 1).token == "gf2147483647"
    # 2^61 - 1 is prime; trial division up to its square root would take
    # minutes, so the bound must be checked first
    with pytest.raises(InputError, match=r"p <= 2\^31"):
        FieldSpec(2**61 - 1)


# -- the memo against Euler characteristics and sampled direct homology ------------


def assert_memo_has_the_euler_characteristics(ideal, memo):
    """sum_k (-1)^(k-1) series_W[k] = chi~(Delta_W) for every W, whatever the field.

    Independent of the plan, the link rule and the join series, but blind to
    the rank kernels, whose terms cancel out of the alternating sum.
    """
    chi = reduced_euler_characteristics(ideal)
    from_memo = np.zeros_like(chi)
    from_memo[0] = -1  # Delta_{} = {empty set} is outside the sum
    for w, series in memo.items():
        from_memo[w] = sum((-1) ** (k - 1) * h for k, h in series.items())
    wrong = np.flatnonzero(from_memo != chi)
    assert not wrong.size, f"{wrong.size} subsets differ, first {wrong[:5].tolist()}"


@st.composite
def mid_graphs(draw):
    kind = draw(st.sampled_from(["tree", "unicyclic", "random"]))
    n = draw(st.integers(12, 16))
    rng = SplitMix64(draw(st.integers(0, 10**9)))
    if kind == "tree":
        return tree_from_rng(n, rng)
    if kind == "unicyclic":
        return unicyclic_from_rng(n, rng)
    return graph_from_rng(n, draw(st.sampled_from([0.2, 0.3])), rng)


@given(mid_graphs(), st.sampled_from([GF2, GF3, QQ]))
@settings(max_examples=15)
def test_memo_series_sum_to_euler_characteristics(graph, field):
    ideal = path_ideal(graph, 3)
    assert_memo_has_the_euler_characteristics(ideal, memo_of(betti_hochster(ideal, field).terms))


@pytest.mark.parametrize(
    "graph, field",
    [
        (tree_from_rng(20, SplitMix64(1)), GF2),
        (unicyclic_from_rng(20, SplitMix64(1)), GF2),
        (tree_from_rng(19, SplitMix64(2)), GF3),
        (graph_from_rng(18, 0.2, SplitMix64(1)), GF2),
        (graph_from_rng(20, 0.1, SplitMix64(1)), QQ),
    ],
    ids=["tree20-gf2", "unicyclic20-gf2", "tree19-gf3", "g18-gf2", "g20-q"],
)
def test_memo_series_sum_to_euler_characteristics_at_n18_to_20(graph, field):
    ideal = path_ideal(graph, 3)
    assert_memo_has_the_euler_characteristics(ideal, memo_of(betti_hochster(ideal, field).terms))


# the routes by which a sum gives W its series, in the order they are drawn
ROUTES = ("cone", "collapse", "join", "sphere", "link", "rank-free", "split")


def check_referees(graph, field=GF2):
    """Referee I3(G)'s sum where no oracle sums it: every W by chi~, 20 W by direct homology.

    The memo (``memo_of`` the table's terms) is checked against
    ``reduced_euler_characteristics`` at every W. Then 20 W of at most 16
    vertices are drawn with ``random.Random(1)``, one from each route in
    turn (``ROUTES``): a cone, pruned, with no memo entry; the plan's
    collapses and joins; a generator's support, a sphere; and the other W
    left to rank, by where the descent (``descent``) ends: a link of a
    nonempty face, rank-free, or the split. Each W's memo series must be
    ``reduced_homology_dims``'s. Returns the routes drawn, with "no memo
    entry" added when a drawn survivor has none.
    """
    ideal = path_ideal(graph, 3)
    table, plan, _, _ = recorded_sum(ideal, field)
    memo, gens, is_face = memo_of(table.terms), generator_supports(ideal), _faces_and_sizes(ideal)[0]
    assert_memo_has_the_euler_characteristics(ideal, memo)
    used = sorted(set().union(*ideal.gens))
    rng = random.Random(1)
    pools = {route: [] for route in ROUTES}
    left = []
    for w, parts in plan:
        if w.bit_count() > 16:
            continue
        if parts is not None:
            pools[("collapse", "join")[len(parts) - 1]].append(w)
        elif w in gens:
            pools["sphere"].append(w)
        else:
            left.append(w)
    survivors = {w for w, _ in plan}
    while len(pools["cone"]) < 20:
        w = rng.getrandbits(len(used))
        if w and w not in survivors and w.bit_count() <= 16:
            pools["cone"].append(w)
    rng.shuffle(left)
    for route in ROUTES[1:4]:
        rng.shuffle(pools[route])

    def draw(route):
        """A W of the route not drawn before, or None; the W left to rank are classified as needed."""
        while not pools[route] and route in ROUTES[4:] and left:
            s = descent(left[-1], memo.__contains__, is_face)
            pools["rank-free" if s is None else "link" if s else "split"].append(left.pop())
        return pools[route].pop() if pools[route] else None

    drawn = []
    while len(drawn) < 20:
        more = [(route, w) for route in ROUTES for w in [draw(route)] if w is not None]
        if not more:
            break
        drawn += more[: 20 - len(drawn)]
    for route, w in drawn:
        dims = reduced_homology_dims(ideal, [used[p] for p in range(len(used)) if w >> p & 1], field)
        assert memo.get(w, {}) == {k: h for k, h in enumerate(dims) if h}, (route, w)
    no_entry = {"no memo entry"} if any(w not in memo for route, w in drawn if route != "cone") else set()
    return {route for route, _ in drawn} | no_entry


EVERY_ROUTE = {*ROUTES, "no memo entry"}


@pytest.mark.parametrize(
    "graph, field, routes",
    [
        # no W of either graph splits: the descent always takes a vertex
        (random_tree(22, 1), GF2, EVERY_ROUTE - {"split"}),
        (random_unicyclic(22, 1), GF2, EVERY_ROUTE - {"split"}),
        (random_graph(17, 0.3, 1), GF2, EVERY_ROUTE),
        (random_unicyclic(14, 2), GF3, EVERY_ROUTE),
        (random_graph(13, 0.3, 2), QQ, EVERY_ROUTE),
    ],
    ids=["tree22-gf2", "unicyclic22-gf2", "g17-gf2", "unicyclic14-gf3", "g13-q"],
)
def test_sampled_series_match_direct_homology_past_n20(graph, field, routes):
    assert check_referees(graph, field) == routes
