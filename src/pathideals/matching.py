"""Exact 3-path induced matching number with certificates.

A family of vertex-disjoint 3-paths is induced when the subgraph spanned by
the covered vertices has exactly the 2s path edges and nothing else. The
solver keeps that invariant by blocking each chosen path's closed
neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graphs import Graph, Path3, classify, find_broom_vertex


@dataclass(frozen=True)
class MatchingCertificate:
    """A witnessed induced family of 3-paths proving a lower bound on nu3."""

    paths: tuple[Path3, ...]

    @property
    def size(self) -> int:
        return len(self.paths)

    def to_json_obj(self) -> dict:
        return {"nu3": self.size, "paths": [list(p) for p in self.paths]}


def nu3(graph: Graph) -> tuple[int, MatchingCertificate]:
    """Exact maximum induced 3-path matching, by branch and bound.

    Candidates are the chordless 3-paths in lexicographic order; the include
    branch is explored first and the bound is the number of unblocked
    vertices divided by 3, so the returned certificate is deterministic.
    """
    cands = [p for p in graph.three_paths() if not graph.has_edge(p[0], p[2])]
    vmasks = [sum(1 << v for v in p) for p in cands]
    closed = [sum(1 << w for w in graph.adj[v]) | 1 << v for v in range(graph.n)]
    blockers = [closed[a] | closed[b] | closed[c] for a, b, c in cands]
    best_size = 0
    best: tuple[Path3, ...] = ()
    chosen: list[Path3] = []
    # depth-first with an explicit stack, so that a deep matching cannot
    # exhaust Python's recursion limit: the current frame's next candidate and
    # the vertices blocked and free in it, and the same for each frame below
    idx, blocked, free = 0, 0, graph.n
    below: list[tuple[int, int, int]] = []
    while True:
        if idx == len(cands) or len(chosen) + min(free // 3, len(cands) - idx) <= best_size:
            if not below:
                break
            chosen.pop()
            idx, blocked, free = below.pop()
        elif vmasks[idx] & blocked:
            idx += 1
        else:
            chosen.append(cands[idx])
            if len(chosen) > best_size:
                best_size = len(chosen)
                best = tuple(chosen)
            newly = blockers[idx] & ~blocked
            below.append((idx + 1, blocked, free))
            idx, blocked, free = idx + 1, blocked | blockers[idx], free - newly.bit_count()
    return best_size, MatchingCertificate(best)


@dataclass(frozen=True)
class BroomDropReport:
    """nu3 after deleting the closed neighborhood of the broom edge."""

    broom_vertex: int
    edge: tuple[int, int]
    nu3_remainder: int
    nu3_graph: int

    @property
    def holds(self) -> bool:
        return self.nu3_remainder <= self.nu3_graph - 1


def check_nu3_broom_drop(graph: Graph, nu3_graph: int | None = None) -> BroomDropReport:
    """For a tree, deleting N[e] of the broom edge drops nu3 by at least one.

    The broom edge joins the broom vertex to its designated last neighbor
    (the only one allowed to be a non-leaf). ``nu3_graph``, when given, is
    taken as nu3 of the whole tree instead of computing it again.
    """
    if classify(graph).kind != "tree":
        raise InputError("the broom-edge drop check requires a tree")
    v, neighbors = find_broom_vertex(graph)
    last = neighbors[-1]
    sub, _ = graph.induced_subgraph(set(range(graph.n)) - graph.closed_edge_neighborhood(v, last))
    if nu3_graph is None:
        nu3_graph = nu3(graph)[0]
    return BroomDropReport(v, (v, last), nu3(sub)[0], nu3_graph)
