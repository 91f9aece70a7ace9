"""Squarefree monomial ideals as antichains of vertex bitmasks.

A squarefree monomial in the variables ``{0..n-1}`` is a bitmask, bit v set
when x_v divides it, so divisibility is containment of bits (``a & ~b == 0``).
The mask 0 is the monomial 1: the unit ideal is ``{0}`` and the zero ideal
has no generators. ``MonomialIdeal.gens`` views the same minimal generators
as vertex supports, ``frozenset[int]`` each, built only when first read.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InputError
from .graphs import Graph

Monomial = frozenset[int]


def vertices_of(mask: int) -> list[int]:
    """The set bits of ``mask``, in increasing order: a monomial's variables."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask(support: Iterable[int]) -> int:
    return sum(1 << v for v in support)


def _minimal(masks: Iterable[int]) -> frozenset[int]:
    """Unique minimal generating set: drop every mask containing another.

    A mask is tested only against the kept masks of smaller popcount: two
    distinct masks of one popcount never contain each other.
    """
    keep: list[int] = []
    below: list[int] = []
    size = 0
    for m in sorted(set(masks), key=int.bit_count):
        if m.bit_count() > size:
            size = m.bit_count()
            below = keep.copy()
        # k & ~m is nonzero exactly when k has a variable outside m
        if all(map((~m).__and__, below)):
            keep.append(m)
    return frozenset(keep)


def _out_of_range(n: int, support: Iterable[int]) -> InputError:
    v = min(v for v in support if not 0 <= v < n)
    return InputError(f"variable {v} out of ambient range n={n}")


def _supports(masks: frozenset[int]) -> frozenset[Monomial]:
    return frozenset(frozenset(vertices_of(m)) for m in masks)


class MonomialIdeal:
    """Squarefree monomial ideal; generators are minimalized on construction.

    ``MonomialIdeal(n, gens)`` takes the generators as vertex supports. Only
    the minimal ones must lie in ``{0..n-1}``: a support that contains
    another is dropped before the range is checked. ``masks`` holds the
    minimal generators as bitmasks, and ``gens`` is their view as supports.
    Equality of instances is equality of ideals, since the minimal
    squarefree generating set is unique. Instances are read-only.
    """

    __slots__ = ("n", "masks", "_gens")

    n: int
    masks: frozenset[int]

    def __init__(self, n: int, gens: Iterable[Iterable[int]]) -> None:
        if n < 0:
            raise InputError("ambient size must be nonnegative")
        masks, outside = [], set()
        for g in map(frozenset, gens):
            if all(0 <= v < n for v in g):
                masks.append(_mask(g))
            else:
                outside.add(g)
        keep = _minimal(masks)
        # a support with a variable outside the range holds no other support
        # in range, so it is minimal when no generator and no such support
        # lies inside it
        for g in sorted(outside, key=sorted):
            inside = _mask(v for v in g if 0 <= v < n)
            if all(k & ~inside for k in keep) and not any(h < g for h in outside):
                raise _out_of_range(n, g)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", keep)

    @classmethod
    def _of(cls, n: int, masks: frozenset[int]) -> MonomialIdeal:
        """The ideal whose minimal generators are ``masks``, an antichain over ``{0..n-1}``."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "n", n)
        object.__setattr__(ideal, "masks", masks)
        return ideal

    @property
    def gens(self) -> frozenset[Monomial]:
        """The minimal generators as vertex supports, built on first read."""
        try:
            return self._gens
        except AttributeError:
            gens = _supports(self.masks)
            object.__setattr__(self, "_gens", gens)
            return gens

    @property
    def is_zero(self) -> bool:
        return not self.masks

    @property
    def is_unit(self) -> bool:
        return 0 in self.masks

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self.n!r}, gens={self.gens!r})"

    def __reduce__(self):
        return MonomialIdeal._of, (self.n, self.masks)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a MonomialIdeal")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a MonomialIdeal")


def colon(ideal: MonomialIdeal, m: Iterable[int]) -> MonomialIdeal:
    """(I : m) for a squarefree monomial m: strip m from every generator."""
    support = frozenset(m)
    if not all(0 <= v < ideal.n for v in support):
        raise _out_of_range(ideal.n, support)
    keep = ~_mask(support)
    return MonomialIdeal._of(ideal.n, _minimal(g & keep for g in ideal.masks))


def add_monomial(ideal: MonomialIdeal, m: Iterable[int]) -> MonomialIdeal:
    """I + <m>: m joins the generators unless one of them divides it.

    As at construction, m must lie in the range only when it is a minimal
    generator of the sum.
    """
    support = frozenset(m)
    inside = _mask(v for v in support if 0 <= v < ideal.n)
    if not all(g & ~inside for g in ideal.masks):
        return ideal
    if len(support) != inside.bit_count():
        raise _out_of_range(ideal.n, support)
    # m joins, and every generator m divides leaves
    return MonomialIdeal._of(ideal.n, frozenset([inside, *(g for g in ideal.masks if inside & ~g)]))


# -- path ideals ---------------------------------------------------------------


def path_ideal(graph: Graph, t: int) -> MonomialIdeal:
    """Ideal generated by the vertex supports of all paths on t vertices.

    Distinct supports of one size contain no other, so they are the minimal generators.
    """
    masks = graph.three_path_masks if t == 3 else frozenset(map(_mask, graph.t_paths(t)))
    return MonomialIdeal._of(graph.n, masks)


# -- closed forms for the two colon decompositions ------------------------------


def _require_edge(graph: Graph, u: int, v: int) -> None:
    if not graph.has_edge(u, v):
        raise InputError(f"({u},{v}) is not an edge")


def edge_colon_closed_form(graph: Graph, u: int, v: int) -> MonomialIdeal:
    """Graph-side construction of I3(G) : uv for an edge {u,v}.

    Built as the variables adjacent to the edge plus the 3-path ideal of the
    graph minus the closed edge neighborhood: the 3-paths that avoid it. No
    such 3-path holds one of those variables, so these are the minimal
    generators.
    """
    _require_edge(graph, u, v)
    adj = graph.adj_masks
    closed = adj[u] | adj[v]
    near = closed & ~(1 << u | 1 << v)
    gens = [1 << w for w in vertices_of(near)]
    gens += [p for p in graph.three_path_masks if not p & closed]
    return MonomialIdeal._of(graph.n, frozenset(gens))


def vertex_colon_closed_form(graph: Graph, x: int, y: int) -> MonomialIdeal:
    """Graph-side construction of (I3(G) + <xy>) : x for an edge {x,y}.

    Built as <y> plus the edge ideal of H plus the 3-path ideal of the graph
    minus the closed neighborhood of x, where H is the neighborhood edge set
    of x together with the complete graph on N(x) - {y}. Every edge of H
    holds a neighbour of x, which no such 3-path does, so the minimal
    generators are these less the edges of H at y.
    """
    _require_edge(graph, x, y)
    adj = graph.adj_masks
    gens = [1 << y]
    others = vertices_of(adj[x] & ~(1 << y))
    for i, w in enumerate(others):
        # the neighborhood edge set of x away from y: w z with z in N(w) - {x, y}
        gens += [1 << w | 1 << z for z in vertices_of(adj[w] & ~(1 << x | 1 << y))]
        # the complete graph on N(x) - {y}
        gens += [1 << w | 1 << b for b in others[i + 1 :]]
    closed = adj[x] | 1 << x
    gens += [p for p in graph.three_path_masks if not p & closed]
    return MonomialIdeal._of(graph.n, frozenset(gens))
