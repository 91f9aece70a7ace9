import copy

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
)
from pathideals.errors import CapacityError, InputError
from pathideals.generators import (
    SplitMix64, graph_from_rng, random_graph, random_tree, tree_from_rng, unicyclic_from_rng,
)
from pathideals.graphs import Graph
from pathideals.ideals import MonomialIdeal, colon, path_ideal
from pathideals.matching import nu3

from oracles import (
    NEG_INF,
    _faces_and_sizes,
    betti_hochster_unpruned,
    betti_koszul_oracle,
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


def captured_plan(i):
    """What ``betti_hochster(i)`` hands ``_plan`` and gets back, as lists."""
    seen = []
    original = betti._plan

    def captured(survivors, gmasks, is_face, nverts):
        plan = original(survivors, gmasks, is_face, nverts)
        seen.append((survivors.tolist(), gmasks, is_face.tolist(), nverts, plan))
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
def test_every_ranked_subset_has_two_vertices_so_no_link_leaves_it_empty(i):
    survivors, gmasks, _, _, plan = captured_plan(i)
    # a one-vertex survivor {p} is the union of the generators inside it: {p} itself
    assert all(w in gmasks for w in survivors if w.bit_count() == 1)
    # so every W left to rank that is not a generator's support keeps a vertex in W - v
    assert all(w.bit_count() >= 2 for w, parts in plan if parts is None and w not in gmasks)


def recorded_sum(i, field=GF2, memo=None):
    """``betti_hochster(i, field, memo=memo)`` with what ``_plan`` returned, the
    face count of each ranked complex and the faces given boundary rows, in
    the order their rows were built."""
    plans, ranked, built = [], [], []
    plan, dims, row = betti._plan, betti._homology_dims_from_faces, betti._boundary_row

    def planned(*args):
        plans.append(plan(*args))
        return plans[-1]

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
        table = betti_hochster(i, field, memo=memo)
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


def generator_supports(i):
    used = sorted(set().union(*i.gens))
    return {sum(1 << used.index(v) for v in g) for g in i.gens}


@pytest.mark.parametrize(
    "graph",
    [tree_from_rng(18, SplitMix64(1)), graph_from_rng(16, 0.3, SplitMix64(1))],
    ids=["tree18", "G16"],
)
def test_rows_are_built_once_for_the_faces_ranked_complexes_read(graph):
    i, memo = path_ideal(graph, 3), {}
    _, plan, ranked, built = recorded_sum(i, memo=memo)
    # what each ranked W reads, from the plan, the final memo and Delta's faces
    # alone: memo entries below W are final when W is reached, so they decide
    # the link rule's v as they did then
    faces = np.flatnonzero(_faces_and_sizes(i)[0])[1:]
    gens, counts, read, below = generator_supports(i), [], set(), set()
    for w, parts in plan:
        if parts is not None or w in gens:
            continue
        inside = faces[(faces & ~w) == 0]
        below.update(inside.tolist())
        v = next((b for b in (1 << p for p in range(w.bit_length())) if w & b and b != w and w ^ b not in memo), 0)
        if v:
            inside = inside[(inside & v) != 0]
            inside = inside[inside != v] ^ v
        counts.append(len(inside))
        read.update(inside.tolist())
    assert ranked == counts
    # one row per face some ranked complex reads, and none for the other faces
    # below a ranked W (tree18: 186 of 441 faces; G16: 2,619 of 3,823)
    assert sorted(built) == sorted(read)
    assert len(read) < len(below)


def test_a_memo_that_is_not_empty_is_refused():
    # a second sum into a used memo would rank links by the first sum's
    # entries and add them to its table
    memo = {}
    betti_hochster(path_ideal(random_graph(9, 0.4, 1), 3), memo=memo)
    before = copy.deepcopy(memo)
    with pytest.raises(InputError, match=r"^memo must be an empty dict to fill, got one with \d+ entries$"):
        betti_hochster(path_ideal(random_tree(9, 2), 3), memo=memo)
    assert memo == before


@given(ambient_ideals(), st.sampled_from([GF2, GF3, QQ]))
@settings(max_examples=60)
# a degree-1 generator next to cubics: Delta_{0} = {empty set}
@example(ideal(6, (0,), (1, 2, 3), (2, 3, 4)), QQ)
# degrees 1-4: the five supports take the closed form, two other subsets are ranked
@example(ideal(7, (1,), (0, 6), (0, 4, 5), (2, 3, 5), (3, 4, 5, 6)), GF3)
@example(ideal(9, *RP2_NONFACES, (6,), (7, 8)), GF2)
def test_generator_supports_take_their_sphere_in_closed_form(i, field):
    table, plan, ranked, _ = recorded_sum(i, field)
    assert table == betti_hochster_unpruned(i, field)
    assert table == betti_koszul_oracle(i, field)
    gens = generator_supports(i)
    assert len(ranked) == sum(parts is None and w not in gens for w, parts in plan)


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


# Delta_{0..5, 7} is a cone on 7, so the whole complex ranks the link of 6:
# RP^2 (31 faces) plus the cone from 7 over its triangle 034 (8 faces)
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
    assert ranked[-1] == (39, {1: 1, 2: 1} if torsion else {})
    assert (table.as_dict().get((4, 8), 0), table.as_dict().get((5, 8), 0)) == (
        (1, 1) if torsion else (0, 0)
    )


def test_link_rule_ranks_smaller_complexes_on_g16():
    graph = graph_from_rng(16, 0.3, SplitMix64(1))
    table, _, ranked, _ = recorded_sum(path_ideal(graph, 3))
    # the link rule changes what is ranked, not which subsets: 8,818 of 21,090
    # survivors are left to rank, and the 98 generator supports among them
    # are spheres in closed form, so 8,720 complexes with 664,080 face rows in
    # all (1,974,528 when each whole Delta_W was ranked)
    assert len(ranked) == 8720
    assert sum(ranked) == 664_080
    assert table.regularity() == 4 == 2 * nu3(graph)[0]


@st.composite
def link_rule_ideals(draw):
    """I3 of a random graph on 6-10 vertices or its colon by a vertex, or an ambient ideal."""
    if draw(st.booleans()):
        return draw(ambient_ideals())
    g = random_graph(draw(st.integers(6, 10)), draw(st.sampled_from([0.3, 0.4])), draw(st.integers(0, 10**9)))
    i = path_ideal(g, 3)
    return colon(i, (draw(st.integers(0, g.n - 1)),)) if draw(st.booleans()) else i


def test_each_ranked_link_and_each_survivor_series_match_the_oracle():
    # every ranked complex is lk(S) in Delta_W for a face S, empty or {v}:
    # Delta_W itself, or Delta(I : x_v) on W - v; its series is shifted up by |S| + 1
    selections = set()

    @given(link_rule_ideals(), st.sampled_from([GF2, GF3, QQ]))
    @settings(max_examples=40)
    @example(RP2_AS_A_LINK, GF2)
    @example(RP2_AS_A_LINK, QQ)
    @example(ideal(9, *RP2_NONFACES, (6,), (7, 8)), GF3)
    def check(i, field):
        if i.is_unit or i.is_zero:
            return
        dims, original = [], betti._homology_dims_from_faces

        def recorded(rows, char):
            dims.append(original(rows, char))
            return dims[-1]

        memo = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(betti, "_homology_dims_from_faces", recorded)
            _, plan, ranked, _ = recorded_sum(i, field, memo)
        used, gens = sorted(set().union(*i.gens)), generator_supports(i)
        faces = [f for f in range(1, 1 << len(used)) if not any(g & ~f == 0 for g in gens)]
        expected = []
        for w, parts in plan:
            verts = [used[p] for p in range(len(used)) if w >> p & 1]
            series = reduced_homology_dims(i, verts, field)
            assert memo.get(w) == ({k: h for k, h in enumerate(series) if h} or None)
            if parts is None and w not in gens:
                # memo entries below W are final when W is reached, so they pick v as then
                s = next((1 << p for p in range(len(used)) if w >> p & 1 and w != 1 << p and w ^ 1 << p not in memo), 0)
                if s:
                    v = used[s.bit_length() - 1]
                    series = reduced_homology_dims(colon(i, (v,)), set(verts) - {v}, field)
                size = sum(f & s == s and f != s and f & ~w == 0 for f in faces)
                expected.append((size, {d - 1: h for d, h in enumerate(series) if h}))
                selections.add("lk(v)" if s else "Delta_W")
        assert list(zip(ranked, dims)) == expected

    check()
    # the draws rank both kinds of complex
    assert selections == {"Delta_W", "lk(v)"}


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


def test_an_unallocatable_cap_is_a_capacity_error(monkeypatch):
    # 2^64 masks exceed numpy's largest dimension, so nothing is allocated
    path64 = ideal(64, *[(k, k + 1, k + 2) for k in range(62)])
    with pytest.raises(CapacityError, match=r"the generators use 64 vertices, and the 2\^64 .*--cap 64"):
        betti_hochster(path64, cap=64)

    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(betti.np, "zeros", refuse)
    with pytest.raises(CapacityError, match=r"the generators use 3 vertices, and the 2\^3 .*--cap 22"):
        betti_hochster(ideal(5, (0, 1, 2)))


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


# -- the memo against Euler characteristics ----------------------------------------


def assert_memo_has_the_euler_characteristics(graph, field):
    """sum_k (-1)^(k-1) series_W[k] = chi~(Delta_W) for every W, whatever the field.

    Independent of the plan, the link rule and the join series, but blind to
    the rank kernels, whose terms cancel out of the alternating sum.
    """
    ideal, memo = path_ideal(graph, 3), {}
    betti_hochster(ideal, field, memo=memo)
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
    assert_memo_has_the_euler_characteristics(graph, field)


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
    assert_memo_has_the_euler_characteristics(graph, field)
