"""Squarefree monomial ideals as antichains of vertex-id supports.

A squarefree monomial is just its support, a ``frozenset[int]`` inside an
ambient variable set ``{0..n-1}``; divisibility is subset containment. The
empty support is the monomial 1, so the unit ideal is ``{frozenset()}`` and
the zero ideal has no generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InputError
from .graphs import Graph

Monomial = frozenset[int]


def minimalize(gens: Iterable[Iterable[int]]) -> frozenset[Monomial]:
    """Unique minimal generating set: drop every support containing another."""
    supports = sorted({frozenset(g) for g in gens}, key=len)
    keep: list[Monomial] = []
    # keep[:smaller] are the kept supports smaller than g: two distinct
    # supports of one size never contain each other
    smaller = 0
    for g in supports:
        if keep and len(keep[-1]) < len(g):
            smaller = len(keep)
        if not any(map(g.issuperset, keep[:smaller])):
            keep.append(g)
    return frozenset(keep)


@dataclass(frozen=True)
class MonomialIdeal:
    """Squarefree monomial ideal; generators are minimalized on construction.

    Equality of instances is equality of ideals, since the minimal squarefree
    generating set is unique.
    """

    n: int
    gens: frozenset[Monomial]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError("ambient size must be nonnegative")
        gens = minimalize(self.gens)
        for g in gens:
            for v in g:
                if not (0 <= v < self.n):
                    raise InputError(f"variable {v} out of ambient range n={self.n}")
        object.__setattr__(self, "gens", gens)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return frozenset() in self.gens


def colon(ideal: MonomialIdeal, m: Iterable[int]) -> MonomialIdeal:
    """(I : m) for a squarefree monomial m: strip m from every generator."""
    support = frozenset(m)
    for v in support:
        if not (0 <= v < ideal.n):
            raise InputError(f"variable {v} out of ambient range n={ideal.n}")
    return MonomialIdeal(ideal.n, frozenset(g - support for g in ideal.gens))


def add_monomial(ideal: MonomialIdeal, m: Iterable[int]) -> MonomialIdeal:
    return MonomialIdeal(ideal.n, ideal.gens | {frozenset(m)})


# -- path ideals ---------------------------------------------------------------


def path_ideal(graph: Graph, t: int) -> MonomialIdeal:
    """Ideal generated by the vertex supports of all paths on t vertices."""
    return MonomialIdeal(graph.n, frozenset(frozenset(p) for p in graph.t_paths(t)))


# -- closed forms for the two colon decompositions ------------------------------


def edge_colon_closed_form(graph: Graph, u: int, v: int) -> MonomialIdeal:
    """Graph-side construction of I3(G) : uv for an edge {u,v}.

    Built as the variables adjacent to the edge plus the 3-path ideal of the
    graph minus the closed edge neighborhood.
    """
    ne = graph.edge_neighborhood(u, v)
    rest = set(range(graph.n)) - graph.closed_edge_neighborhood(u, v)
    gens = {frozenset({w}) for w in ne} | {frozenset(p) for p in graph.three_paths_within(rest)}
    return MonomialIdeal(graph.n, frozenset(gens))


def vertex_colon_closed_form(graph: Graph, x: int, y: int) -> MonomialIdeal:
    """Graph-side construction of (I3(G) + <xy>) : x for an edge {x,y}.

    Built as <y> plus the edge ideal of H plus the 3-path ideal of the graph
    minus the closed neighborhood of x, where H is the neighborhood edge set
    of x together with the complete graph on N(x) - {y}.
    """
    if not graph.has_edge(x, y):
        raise InputError(f"({x},{y}) is not an edge")
    h_edges = {frozenset(e) for e in graph.neighborhood_edge_set(x)}
    others = sorted(graph.neighbors(x) - {y})
    for i in range(len(others)):
        for k in range(i + 1, len(others)):
            h_edges.add(frozenset((others[i], others[k])))
    rest = set(range(graph.n)) - graph.closed_neighbors(x)
    gens = {frozenset({y})} | h_edges | {frozenset(p) for p in graph.three_paths_within(rest)}
    return MonomialIdeal(graph.n, frozenset(gens))
