"""Independent brute-force oracles used only by the test suite.

These deliberately share no search logic with the package: cubic path
enumeration, subset enumeration for matchings straight from the definition,
and plain dense Gaussian elimination for matrix ranks over Q and GF(p). The
one exception is the unpruned Hochster sum, which reuses the package's public
homology routine so that it differs from ``betti_hochster`` only in skipping
no cone.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from pathideals.betti import GF2, BettiTable, FieldSpec, reduced_homology_dims
from pathideals.graphs import Graph
from pathideals.ideals import MonomialIdeal, stanley_reisner


def enumerate_3paths_brute(graph: Graph) -> list[tuple[int, int, int]]:
    """All canonical (a, b, c) with edges ab, bc, by cubic enumeration."""
    out = set()
    for a in range(graph.n):
        for b in range(graph.n):
            for c in range(graph.n):
                if len({a, b, c}) != 3:
                    continue
                if graph.has_edge(a, b) and graph.has_edge(b, c):
                    out.add((a, b, c) if a < c else (c, b, a))
    return sorted(out)


def nu3_brute(graph: Graph) -> int:
    """Maximum induced 3-path matching by subset enumeration.

    Checks every subset of the 3-path list up to floor(n/3) paths against
    the definition: pairwise disjoint and the covered set spans exactly
    2 * size edges. Guarded to small graphs.
    """
    assert graph.n <= 10, "brute-force oracle is guarded to n <= 10"
    paths = enumerate_3paths_brute(graph)
    best = 0
    for size in range(1, graph.n // 3 + 1):
        for combo in itertools.combinations(paths, size):
            vertices = [v for p in combo for v in p]
            if len(set(vertices)) != 3 * size:
                continue
            if len(graph.edges_within(set(vertices))) == 2 * size:
                best = size
                break
    return best


def rank_fraction(mat: list[list[int]], p: int = 0) -> int:
    """Rank by plain Gaussian elimination: over the rationals with Fractions,
    or over GF(p) with residues when a prime p is given."""

    def reduce(x):
        return x % p if p else x

    rows = [[x % p if p else Fraction(x) for x in row] for row in mat]
    if not rows or not rows[0]:
        return 0
    n_cols = len(rows[0])
    rank = 0
    for c in range(n_cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot = rows[rank][c]
        scale = pow(pivot, -1, p) if p else 1 / pivot
        rows[rank] = [reduce(x * scale) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [reduce(x - factor * y) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def betti_hochster_unpruned(ideal: MonomialIdeal, field: FieldSpec = GF2) -> BettiTable:
    """Betti table of R/I by Hochster's formula over every vertex subset W.

    beta_{i,j} sums dim H~_{j-i-1}(Delta_W) over |W| = j, with Delta the
    Stanley-Reisner complex; cones are summed too, not skipped.
    """
    delta = stanley_reisner(ideal)
    table = {(0, 0): 1}
    for j in range(1, ideal.n + 1):
        for w in itertools.combinations(range(ideal.n), j):
            # dims lists degrees -1..j-1, and degree d lands in i = j - 1 - d
            for d, h in enumerate(reduced_homology_dims(delta, w, field), start=-1):
                if h and j - 1 - d >= 1:
                    table[(j - 1 - d, j)] = table.get((j - 1 - d, j), 0) + h
    return BettiTable.from_dict(table)
