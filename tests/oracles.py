"""Independent reference implementations used only by the test suite.

These deliberately share no search logic with the package:

* cubic path enumeration and subset enumeration for matchings straight from
  the definition, plus a checker for ``nu3`` certificates;
* plain dense Gaussian elimination for matrix ranks over Q and GF(p);
* the upper-Koszul Betti oracle, which shares only ``rank_exact``,
  ``rank_mod_p`` and ``BettiTable`` with the package's Hochster route.

The one exception is the unpruned Hochster sum, which reuses the package's
column numbering ``_columns``, its per-face ``_boundary_row`` and its
homology routine ``_homology_dims_from_faces``, so that it differs from
``betti_hochster`` only in ranking every subcomplex: it skips no cone and
applies no join or collapse rule.

Five small helpers that the package does not export are built on its own
code and are conveniences, not references: ``add_vars`` and
``path_ideal_within`` make ideals from ``MonomialIdeal`` and
``Graph.three_paths_within``, ``regularity`` reads ``betti_hochster``,
``memo_of`` rebuilds a sum's memo from its table's terms, and
``edges_within`` filters ``Graph.edges``.

The ideal arithmetic the package runs on bitmasks (``minimalize``, the
colon, the sum with a monomial and the two closed colon forms) is redone
here on frozensets of vertex ids, the package's former representation.

The reduced Euler characteristics of every induced subcomplex and the
K-polynomial, both counted from the generators alone, referee the Hochster
memo and the Betti tables at sizes no homology oracle reaches. So do the
closed forms at the end: the homology of a path's and of a cycle's 3-path
complex (the tests pin both against ``reduced_homology_dims``), the Betti
table of I3(P_n) from a count of run compositions, the table of a disjoint
union, and the induced matching number, which is reg(R/I(F)) for the edge
ideal of a forest F (Zheng, Comm. Algebra 2004).
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
    HochsterTerms,
    _boundary_row,
    _columns,
    _homology_dims_from_faces,
    betti_hochster,
    rank_exact,
    rank_mod_p,
)
from pathideals.errors import InputError
from pathideals.graphs import Edge, Graph, Path3
from pathideals.ideals import MonomialIdeal


# -- ideals and regularity through the package --------------------------------------


def add_vars(ideal: MonomialIdeal, variables: Iterable[int]) -> MonomialIdeal:
    """I + the ideal generated by the given variables."""
    return MonomialIdeal(ideal.n, ideal.gens | {frozenset({v}) for v in variables})


def path_ideal_within(graph: Graph, vertices: Iterable[int], t: int) -> MonomialIdeal:
    """Path ideal of an induced subgraph, kept in the ambient of the host graph; t = 3 only."""
    assert t == 3, f"t={t} unsupported; only t = 3"
    return MonomialIdeal(graph.n, frozenset(frozenset(p) for p in graph.three_paths_within(vertices)))


# -- ideal arithmetic on vertex supports ------------------------------------------------
#
# The package keeps generators as bitmasks; these referees work on supports,
# frozensets of vertex ids, and return the minimal supports of the answer.


def minimalize(gens: Iterable[Iterable[int]]) -> frozenset[frozenset[int]]:
    """Unique minimal generating set: drop every support containing another."""
    supports = sorted({frozenset(g) for g in gens}, key=len)
    keep: list[frozenset[int]] = []
    # keep[:smaller] are the kept supports smaller than g: two distinct
    # supports of one size never contain each other
    smaller = 0
    for g in supports:
        if keep and len(keep[-1]) < len(g):
            smaller = len(keep)
        if not any(map(g.issuperset, keep[:smaller])):
            keep.append(g)
    return frozenset(keep)


def colon_supports(ideal: MonomialIdeal, m: Iterable[int]) -> frozenset[frozenset[int]]:
    """(I : m): strip m from every generator."""
    support = frozenset(m)
    return minimalize(g - support for g in ideal.gens)


def add_monomial_supports(ideal: MonomialIdeal, m: Iterable[int]) -> frozenset[frozenset[int]]:
    """I + <m>."""
    return minimalize(ideal.gens | {frozenset(m)})


def edge_colon_supports(graph: Graph, u: int, v: int) -> frozenset[frozenset[int]]:
    """I3(G) : uv as the variables adjacent to the edge plus I3(G - N[uv])."""
    ne = graph.edge_neighborhood(u, v)
    rest = set(range(graph.n)) - graph.closed_edge_neighborhood(u, v)
    gens = {frozenset({w}) for w in ne} | {frozenset(p) for p in graph.three_paths_within(rest)}
    return minimalize(gens)


def vertex_colon_supports(graph: Graph, x: int, y: int) -> frozenset[frozenset[int]]:
    """(I3(G) + <xy>) : x as <y> + I(H) + I3(G - N[x]).

    H is the neighborhood edge set of x together with the complete graph on N(x) - {y}.
    """
    h_edges = {frozenset(e) for e in graph.neighborhood_edge_set(x)}
    others = sorted(graph.neighbors(x) - {y})
    for i in range(len(others)):
        for k in range(i + 1, len(others)):
            h_edges.add(frozenset((others[i], others[k])))
    rest = set(range(graph.n)) - graph.closed_neighbors(x)
    gens = {frozenset({y})} | h_edges | {frozenset(p) for p in graph.three_paths_within(rest)}
    return minimalize(gens)


NEG_INF = float("-inf")


def regularity(ideal: MonomialIdeal, field: FieldSpec = GF2) -> float:
    """reg(R/I) from ``betti_hochster``; -inf for the unit ideal."""
    if ideal.is_unit:
        return NEG_INF
    return betti_hochster(ideal, field).regularity()


def memo_of(terms: HochsterTerms) -> dict[int, dict[int, int]]:
    """The memo ``betti_hochster`` summed, {W: {j - i: h}}, rebuilt from its table's ``terms``.

    Each term of W at (i, j) is the degree j - i of W's series, listed once,
    and no series is zero; so the memo is rebuilt exactly, with each series
    a dict of its own.
    """
    memo: dict[int, dict[int, int]] = {}
    for (i, j), ws, hs in terms.by_key:
        for w, h in zip(ws, hs):
            series = memo.setdefault(w, {})
            assert h and j - i not in series, (w, i, j)
            series[j - i] = h
    return memo


# -- 3-paths and matchings ----------------------------------------------------------


def edges_within(graph: Graph, vertices: Iterable[int]) -> list[Edge]:
    """The edges of the graph with both ends in the given vertex set."""
    keep = set(vertices)
    return [(u, v) for u, v in graph.edges if u in keep and v in keep]


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
            if len(edges_within(graph, vertices)) == 2 * size:
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
    for u, v in edges_within(graph, covered):
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


def _boundary_rows(faces: list[int], char: int) -> list:
    """The ``_boundary_row`` of each nonempty face of a complex, columns numbered in the given order."""
    ids = _columns(faces)
    return [_boundary_row(face, ids, char) for face in faces]


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


# -- closed forms: paths, cycles and forests -----------------------------------------


def path_graph(n: int) -> Graph:
    """P_n: the vertices 0..n-1 in a row."""
    return Graph(n, tuple((k, k + 1) for k in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """C_n for n >= 3: the vertices 0..n-1 in a ring."""
    return Graph(n, tuple((k, (k + 1) % n) for k in range(n)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """G and H side by side, H's vertices numbered after G's."""
    return Graph(g.n + h.n, g.edges + tuple((u + g.n, v + g.n) for u, v in h.edges))


def betti_product(a: BettiTable, b: BettiTable) -> BettiTable:
    """The table of R/(I + J) for I and J in disjoint variables: the tensor product of resolutions."""
    out: dict[tuple[int, int], int] = {}
    for i, j, x in a.entries:
        for k, l, y in b.entries:
            out[(i + k, j + l)] = out.get((i + k, j + l), 0) + x * y
    return BettiTable.from_dict(out)


def path_run_series(length: int) -> dict[int, int]:
    """Series {d + 1: dim H~_d} of the 3-path complex of a path on ``length`` >= 1 vertices.

    A run of 1 or 2 vertices is in no 3-path, so its complex is a cone; a
    run with length = 1 or 2 (mod 4) is acyclic too; any other run is a
    homology sphere, with series {2 ceil(length / 4): 1}.
    """
    if length <= 2 or length % 4 in (1, 2):
        return {}
    return {2 * -(-length // 4): 1}


def cycle_series(length: int) -> dict[int, int]:
    """Series of the 3-path complex of the whole cycle C_length, length >= 3.

    {2 floor(L/4) + max(L mod 4 - 1, 0): c}, with c = 3 when L = 0 (mod 4)
    and 1 otherwise.
    """
    degree = 2 * (length // 4) + max(length % 4 - 1, 0)
    return {degree: 3 if length % 4 == 0 else 1}


def path_betti_table(n: int) -> BettiTable:
    """Betti table of R/I3(P_n), counted over the vertex sets W of P_n.

    Delta_W is the join of the complexes of W's maximal runs, so its series
    is the product of ``path_run_series`` over the runs: {k: 1} when every
    run is a sphere, k the sum of their degrees, and 0 otherwise. Hochster's
    sum adds each such W to beta_{|W|-k, |W|}. ``counts[m]`` counts by
    (|W|, k) the W inside the first m vertices whose runs are all spheres.
    Such a W leaves vertex m - 1 out, or ends in a run of some length L on
    the vertices m - L..m - 1 and leaves vertex m - L - 1 (if any) out.
    """
    counts: list[dict[tuple[int, int], int]] = [{(0, 0): 1}]
    for m in range(1, n + 1):
        here = dict(counts[m - 1])  # vertex m - 1 outside W
        for length in range(3, m + 1):
            series = path_run_series(length)
            if not series:
                continue
            [k] = series  # one sphere: {k: 1}
            for (j, d), c in counts[max(m - length - 1, 0)].items():
                key = (j + length, d + k)
                here[key] = here.get(key, 0) + c
        counts.append(here)
    return BettiTable.from_dict({(j - k, j): c for (j, k), c in counts[n].items()})


def induced_matching_number(graph: Graph) -> int:
    """The most edges, pairwise disjoint, of which no two are joined by an edge: by search.

    Every edge is tried in and out in order, keeping only sets that stay
    induced, so the search is exponential; guarded to small graphs.
    """
    assert graph.n <= 20, "the induced matching search is guarded to n <= 20"
    edges = graph.edges

    def best(start: int, used: frozenset[int]) -> int:
        top = 0
        for k in range(start, len(edges)):
            u, v = edges[k]
            # u and v must be new, and no chosen vertex may be adjacent to either
            if u in used or v in used or (graph.adj[u] | graph.adj[v]) & used:
                continue
            top = max(top, 1 + best(k + 1, used | {u, v}))
        return top

    return best(0, frozenset())


# -- isomorphism classes: every tree and unicyclic graph up to a size ----------------


def _ahu(adj: Sequence[Iterable[int]], v: int, avoid: Iterable[int]) -> str:
    """AHU code of the tree rooted at v, entered through no vertex of ``avoid``.

    A vertex's code wraps its children's codes, sorted, in one pair of brackets,
    so two rooted trees are isomorphic exactly when their codes are equal.
    """
    return "(" + "".join(sorted(_ahu(adj, w, {v}) for w in adj[v] if w not in avoid)) + ")"


def _strip_leaves(graph: Graph, keep: int) -> set[int]:
    """The vertices left by stripping the degree-1 vertices a layer at a time.

    Strips while more than ``keep`` vertices and some leaf are left: with
    ``keep`` = 2 a tree is left with its one or two centres, and with
    ``keep`` = 0 a unicyclic graph with its cycle.
    """
    left = set(range(graph.n))
    degree = [len(graph.adj[v]) for v in range(graph.n)]
    while len(left) > keep:
        leaves = [v for v in left if degree[v] <= 1]
        if not leaves:
            break
        for v in leaves:
            left.discard(v)
            for w in graph.adj[v]:
                degree[w] -= 1
    return left


def _tree_code(graph: Graph) -> str:
    """The smaller AHU code of the tree rooted at its one or two centres."""
    return min(_ahu(graph.adj, c, ()) for c in _strip_leaves(graph, 2))


def tree_classes(n_max: int) -> dict[int, list[Graph]]:
    """One tree from each isomorphism class, for each n = 1..n_max.

    The classes at n come from those at n - 1 by a new leaf on every vertex,
    kept when their canonical code (``_tree_code``) is new.
    """
    classes = {1: [Graph(1, ())]} if n_max >= 1 else {}
    for n in range(2, n_max + 1):
        found: dict[str, Graph] = {}
        for tree in classes[n - 1]:
            for v in range(n - 1):
                grown = Graph(n, tree.edges + ((v, n - 1),))
                found.setdefault(_tree_code(grown), grown)
        classes[n] = list(found.values())
    return classes


def _cycle(graph: Graph) -> list[int]:
    """The cycle of a connected unicyclic graph, in order round it from its least vertex."""
    on_cycle = _strip_leaves(graph, 0)
    walk = [min(on_cycle)]
    while len(walk) < len(on_cycle):
        walk.append(min(w for w in graph.adj[walk[-1]] & on_cycle if w not in walk[-2:]))
    return walk


def unicyclic_classes(n_max: int) -> dict[int, list[tuple[Graph, int]]]:
    """One connected unicyclic graph from each isomorphism class, with its cycle length L.

    For each n = 3..n_max, every non-edge of every tree class on n vertices is
    added. A graph's code is the least of the 2L rotations and reflections of
    the sequence of trees hanging from its cycle, each as its AHU code rooted
    on the cycle; the first graph with a new code is kept. The cycle C_n is
    among the classes, as the one with L = n.
    """
    trees = tree_classes(n_max)
    classes = {}
    for n in range(3, n_max + 1):
        found: dict[tuple[str, ...], tuple[Graph, int]] = {}
        for tree in trees[n]:
            for u, v in itertools.combinations(range(n), 2):
                if tree.has_edge(u, v):
                    continue
                graph = Graph(n, tree.edges + ((u, v),))
                cycle = _cycle(graph)
                hanging = [_ahu(graph.adj, c, cycle) for c in cycle]
                turns = [hanging[k:] + hanging[:k] for k in range(len(cycle))]
                code = min(tuple(s) for t in turns for s in (t, t[::-1]))
                found.setdefault(code, (graph, len(cycle)))
        classes[n] = list(found.values())
    return classes
