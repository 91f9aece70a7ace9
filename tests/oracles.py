"""Independent reference implementations used only by the test suite.

These deliberately share no search logic with the package:

* cubic path enumeration and subset enumeration for matchings straight from
  the definition, plus a checker for ``nu3`` certificates;
* plain dense Gaussian elimination for matrix ranks over Q and GF(p);
* the upper-Koszul Betti oracle, which shares only ``rank_exact``,
  ``rank_mod_p`` and ``BettiTable`` with the package's Hochster route.

The one exception is the unpruned Hochster sum, which reuses the package's
homology routine so that it differs from ``betti_hochster`` only in ranking
every subcomplex: it skips no cone and applies no join or collapse rule.

The reduced Euler characteristics of every induced subcomplex and the
K-polynomial, both counted from the generators alone, referee the Hochster
memo and the Betti tables at sizes no homology oracle reaches.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

import numpy as np

from pathideals.betti import (
    GF2,
    BettiTable,
    FieldSpec,
    _boundary_rows,
    _homology_dims_from_faces,
    rank_exact,
    rank_mod_p,
)
from pathideals.errors import InputError
from pathideals.graphs import Graph, Path3
from pathideals.ideals import MonomialIdeal


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


# -- nu3 certificate checker --------------------------------------------------------


@dataclass(frozen=True)
class MatchingCheck:
    ok: bool
    reason: str | None = None
    witness: tuple | None = None


def _validate_path(graph: Graph, path: Sequence[int]) -> Path3:
    if len(path) != 3:
        raise InputError(f"{tuple(path)} is not a 3-path (needs 3 vertices)")
    a, b, c = path
    if len({a, b, c}) != 3:
        raise InputError(f"{tuple(path)} has repeated vertices")
    if not (graph.has_edge(a, b) and graph.has_edge(b, c)):
        raise InputError(f"{tuple(path)} is not a path of the graph")
    return (a, b, c) if a < c else (c, b, a)


def is_induced_3path_matching(graph: Graph, paths: Iterable[Sequence[int]]) -> MatchingCheck:
    """Check vertex-disjointness and inducedness; report the first violation.

    Inducedness fails exactly when the covered set spans an edge that is not
    one of the paths' own edges (the count must be 2 per path).
    """
    canon = [_validate_path(graph, p) for p in paths]
    covered: set[int] = set()
    for p in canon:
        for v in p:
            if v in covered:
                return MatchingCheck(False, "shared vertex", (v,))
            covered.add(v)
    path_edges = set()
    for a, b, c in canon:
        path_edges.add((min(a, b), max(a, b)))
        path_edges.add((min(b, c), max(b, c)))
    for u, v in graph.edges_within(covered):
        if (u, v) not in path_edges:
            return MatchingCheck(False, "extra edge in covered set", (u, v))
    return MatchingCheck(True)


# -- ranks and reduced homology -----------------------------------------------------


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


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _nonempty_submasks(mask: int):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def reduced_homology_dims(
    nonfaces: MonomialIdeal,
    vertices: Iterable[int],
    field: FieldSpec = GF2,
    rng: random.Random | None = None,
) -> list[int]:
    """Dims of reduced homology of the induced subcomplex, degrees -1..|W|-1.

    The complex is the one whose minimal non-faces are the generators of
    ``nonfaces`` (its Stanley-Reisner complex). Given ``rng``, the faces reach
    the boundary-row builder shuffled, which renumbers the matrix columns.
    """
    w = sorted(set(vertices))
    wmask = sum(1 << v for v in w)
    gmasks = [sum(1 << v for v in nf) for nf in nonfaces.gens]
    faces = [
        s for s in _nonempty_submasks(wmask) if not any((g & s) == g for g in gmasks)
    ]
    if rng is not None:
        rng.shuffle(faces)
    char = field.characteristic
    dims = _homology_dims_from_faces(_boundary_rows(faces, char), char)
    return [dims.get(d, 0) for d in range(-1, len(w))]


# -- Betti tables -------------------------------------------------------------------


def betti_hochster_unpruned(ideal: MonomialIdeal, field: FieldSpec = GF2) -> BettiTable:
    """Betti table of R/I by Hochster's formula over every vertex subset W.

    beta_{i,j} sums dim H~_{j-i-1}(Delta_W) over |W| = j, with Delta the
    Stanley-Reisner complex; cones are summed too, not skipped.
    """
    table = {(0, 0): 1}
    for j in range(1, ideal.n + 1):
        for w in itertools.combinations(range(ideal.n), j):
            # dims lists degrees -1..j-1, and degree d lands in i = j - 1 - d
            for d, h in enumerate(reduced_homology_dims(ideal, w, field), start=-1):
                if h and j - 1 - d >= 1:
                    table[(j - 1 - d, j)] = table.get((j - 1 - d, j), 0) + h
    return BettiTable.from_dict(table)


def _oracle_homology(faces: list[tuple[int, ...]], char: int) -> dict[int, int]:
    """Homology dims for the oracle; faces given as sorted vertex tuples.

    Deliberately separate from the main route: the (d-1)-faces index the
    rows, sharing only the rank kernels.
    """
    nonempty = [f for f in faces if f]
    if not nonempty:
        return {-1: 1}
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in nonempty:
        by_dim.setdefault(len(f) - 1, []).append(f)
    maxd = max(by_dim)
    ranks = [0] * (maxd + 2)
    ranks[0] = 1
    for d in range(1, maxd + 1):
        row_index = {f: i for i, f in enumerate(sorted(by_dim[d - 1]))}
        rows: list[dict[int, int]] = [{} for _ in row_index]
        for col, face in enumerate(sorted(by_dim[d])):
            for k in range(len(face)):
                facet = face[:k] + face[k + 1 :]
                rows[row_index[facet]][col] = -1 if k & 1 else 1
        ranks[d] = rank_exact(rows) if char == 0 else rank_mod_p(rows, char)
    dims = {}
    for d in range(maxd + 1):
        h = len(by_dim[d]) - ranks[d] - ranks[d + 1]
        if h:
            dims[d] = h
    return dims


def betti_koszul_oracle(ideal: MonomialIdeal, field: FieldSpec = GF2) -> BettiTable:
    """Betti table of R/I from upper Koszul subcomplexes, for cross-validation.

    For each squarefree degree b with x^b in I, the subcomplex has the faces
    S inside b with x^(b-S) still in I; its homology in degree d contributes
    to beta_{d+2, |b|}. Guarded to small ambients.
    """
    assert ideal.n <= 14, "the Koszul oracle is guarded to n <= 14"
    table: dict[tuple[int, int], int] = {(0, 0): 1}
    if ideal.is_zero:
        return BettiTable.from_dict(table)
    char = field.characteristic
    gmasks = [sum(1 << v for v in g) for g in ideal.gens]
    for b in range(1, 1 << ideal.n):
        if not any((g & b) == g for g in gmasks):
            continue
        faces = [
            tuple(_bits(s))
            for s in list(_nonempty_submasks(b)) + [0]
            if any((g & (b ^ s)) == g for g in gmasks)
        ]
        dims = _oracle_homology(faces, char)
        j = b.bit_count()
        for d, h in dims.items():
            table[(d + 2, j)] = table.get((d + 2, j), 0) + h
    return BettiTable.from_dict(table)


# -- Euler characteristics ----------------------------------------------------------


def _faces_and_sizes(ideal: MonomialIdeal) -> tuple[np.ndarray, np.ndarray]:
    """For every mask over the used vertices in sorted order: is it a face, and its size.

    A face is a set containing no generator: the generators' flags are
    pushed up into every superset, a bit at a time. Memory is 2^n bytes each.
    """
    used = sorted(set().union(*ideal.gens))
    pos = {v: k for k, v in enumerate(used)}
    nonface = np.zeros(1 << len(used), dtype=bool)
    nonface[[sum(1 << pos[v] for v in g) for g in ideal.gens]] = True
    size = np.zeros(1 << len(used), dtype=np.int8)
    for b in range(len(used)):
        nonface.reshape(-1, 2, 1 << b)[:, 1] |= nonface.reshape(-1, 2, 1 << b)[:, 0]
        size.reshape(-1, 2, 1 << b)[:, 1] += 1
    return ~nonface, size


def reduced_euler_characteristics(ideal: MonomialIdeal) -> np.ndarray:
    """chi~(Delta_W) for every W, a mask over the used vertices in sorted order.

    chi~(Delta_W) sums (-1)^(|F|-1) over the faces F inside W, the empty face
    included: the signed face flags summed over subsets one bit at a time.
    Memory is 2^n int64s.
    """
    face, size = _faces_and_sizes(ideal)
    chi = np.where(face, np.where(size % 2, 1, -1), 0).astype(np.int64)
    for b in range(size[-1]):  # the size of the whole vertex set
        chi.reshape(-1, 2, 1 << b)[:, 1] += chi.reshape(-1, 2, 1 << b)[:, 0]
    return chi


def k_polynomial(ideal: MonomialIdeal) -> list[int]:
    """Coefficients of sum_{i,j} (-1)^i beta_{i,j}(R/I) t^j, from the f-vector alone.

    Over the n used vertices the numerator of the Hilbert series of R/I is
    sum over the faces F of t^|F| (1 - t)^(n - |F|); variables in no
    generator leave it unchanged.
    """
    face, size = _faces_and_sizes(ideal)
    n = int(size[-1])  # the size of the whole vertex set
    f_vector = np.bincount(size[face], minlength=n + 1).tolist()
    return [
        sum(f * comb(n - k, j - k) * (-1) ** (j - k) for k, f in enumerate(f_vector[: j + 1]))
        for j in range(n + 1)
    ]
