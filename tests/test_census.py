"""The paper's claims on every tree and unicyclic graph up to a size, one per isomorphism class.

Tier-1 runs ``check_census`` to n = 10; it runs as it is to n = 12 with

    PYTHONPATH=tests python -c "from test_census import check_census; check_census(12)"

The witness test draws random graphs too, over three fields.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from pathideals.betti import GF2, GF3, QQ, FieldSpec, betti_hochster
from pathideals.generators import random_graph
from pathideals.graphs import Graph, to_edge_list
from pathideals.ideals import path_ideal
from pathideals.matching import nu3

from oracles import memo_of, tree_classes, unicyclic_classes

# OEIS A000055, trees on n = 1..12 vertices, and A001429, connected unicyclic
# graphs on n = 3..12 vertices (the cycle C_n among them)
TREES = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)
UNICYCLIC = (1, 2, 5, 13, 33, 89, 240, 657, 1806, 5026)

# (cycle length L, reg - 2 nu3): how many of the 1,032 non-cycle unicyclic
# graphs on at most 10 vertices have each pair
DEFECTS_TO_10 = {
    (3, 0): 457, (3, 2): 32, (4, 0): 315, (5, 0): 136, (6, 0): 60, (6, 1): 4,
    (7, 0): 20, (8, 0): 7, (9, 0): 1,
}


def epsilon(length: int) -> int:
    """The defect a unicyclic graph with a cycle of this length shows when it has one (data, n <= 12)."""
    return (0, 0, 1, 2)[length % 4]


def reg_nu3_witness(graph: Graph, field: FieldSpec = GF2) -> tuple[int, int]:
    """reg(R/I3(G)) and nu3(G), checking that nu3's certificate is a witness in the memo.

    The union W of the certificate's paths induces nu3 disjoint 3-paths, so
    Delta_W is the join of nu3 triangle boundaries, a sphere S^(2 nu3 - 1):
    the memo of ``betti_hochster``'s terms holds {2 nu3: 1} at W's mask,
    over the used vertices in sorted order. That term of Hochster's sum is the
    restriction argument for reg >= 2 nu3.
    """
    ideal = path_ideal(graph, 3)
    table = betti_hochster(ideal, field)
    reg, memo = table.regularity(), memo_of(table.terms)
    size, cert = nu3(graph)
    if size:
        pos = {v: k for k, v in enumerate(sorted(frozenset().union(*ideal.gens)))}
        mask = sum(1 << pos[v] for path in cert.paths for v in path)
        assert memo.get(mask) == {2 * size: 1}, to_edge_list(graph)
    return reg, size


def check_census(n_max: int) -> Counter:
    """Check the paper's claims on every tree and unicyclic graph on at most ``n_max`` <= 12 vertices.

    Pins the class counts, then asserts reg = 2 nu3 on every tree, 2 nu3 <=
    reg <= 2 nu3 + 2 on every unicyclic graph but the cycle, that such a
    graph's defect reg - 2 nu3 is 0 or epsilon(L), and the witness on each.
    Returns the (L, defect) histogram over the non-cycle unicyclic graphs.
    """
    assert n_max <= len(TREES), f"the class counts are pinned up to n = {len(TREES)}"
    trees, unicyclic = tree_classes(n_max), unicyclic_classes(n_max)
    assert tuple(len(trees[n]) for n in trees) == TREES[:n_max]
    assert tuple(len(unicyclic[n]) for n in unicyclic) == UNICYCLIC[:max(n_max - 2, 0)]
    for graphs in trees.values():
        for tree in graphs:
            reg, size = reg_nu3_witness(tree)
            assert reg == 2 * size, to_edge_list(tree)
    defects: Counter = Counter()
    for n, classes in unicyclic.items():
        for graph, length in classes:
            if length == n:
                continue
            reg, size = reg_nu3_witness(graph)
            defect = reg - 2 * size
            assert 0 <= defect <= 2, to_edge_list(graph)
            assert defect in (0, epsilon(length)), to_edge_list(graph)
            defects[length, defect] += 1
    return defects


def test_every_tree_and_unicyclic_graph_to_ten_vertices():
    assert check_census(10) == DEFECTS_TO_10


@given(st.integers(1, 11), st.sampled_from([0.2, 0.3, 0.5]), st.integers(0, 10**9), st.sampled_from([GF2, GF3, QQ]))
@settings(max_examples=60)
def test_nu3_certificate_is_a_witness_in_the_memo(n, p, seed, field):
    graph = random_graph(n, p, seed)
    reg, size = reg_nu3_witness(graph, field)
    assert reg >= 2 * size
