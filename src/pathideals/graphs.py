"""Finite simple graphs with the neighborhood and path operators used throughout.

Vertices are dense integer ids ``0..n-1``; display labels from input files are
kept separately and never enter any computation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import InputError, NoBroomVertexError

Edge = tuple[int, int]
Path3 = tuple[int, int, int]


def canon_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    Edges are stored canonically (``u < v``, sorted); the adjacency sets are
    derived once at construction. Instances are safe to share across workers.
    """

    n: int
    edges: tuple[Edge, ...]
    labels: tuple[str, ...] | None = None
    adj: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError("vertex count must be nonnegative")
        canon: set[Edge] = set()
        for u, v in self.edges:
            if u == v:
                raise InputError(f"loop edge at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InputError(f"edge ({u},{v}) out of range for n={self.n}")
            canon.add(canon_edge(u, v))
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise InputError("labels must have one entry per vertex")
            object.__setattr__(self, "labels", tuple(self.labels))
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "adj", tuple(frozenset(s) for s in adj))

    # -- basic accessors ---------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InputError(f"vertex {v} out of range for n={self.n}")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self.adj[u]

    def vertex_token(self, v: int) -> str:
        self._check_vertex(v)
        return self.labels[v] if self.labels is not None else str(v)

    # -- neighborhood operators --------------------------------------------

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self.adj[v]

    def closed_neighbors(self, v: int) -> frozenset[int]:
        return self.neighbors(v) | {v}

    def edge_neighborhood(self, u: int, v: int) -> frozenset[int]:
        """Vertices adjacent to the edge {u,v} but not on it."""
        if not self.has_edge(u, v):
            raise InputError(f"({u},{v}) is not an edge")
        return (self.adj[u] - {v}) | (self.adj[v] - {u})

    def closed_edge_neighborhood(self, u: int, v: int) -> frozenset[int]:
        return self.edge_neighborhood(u, v) | {u, v}

    def neighborhood_edge_set(self, x: int) -> frozenset[Edge]:
        """Edges {y,z} avoiding x such that x,y,z span a path on 3 vertices.

        They are the yz with y a neighbour of x and z != x, read from the adjacency sets.
        """
        self._check_vertex(x)
        return frozenset(canon_edge(y, z) for y in self.adj[x] for z in self.adj[y] if z != x)

    # -- path enumeration ---------------------------------------------------

    def three_paths(self) -> list[Path3]:
        """All paths on 3 vertices, canonicalized as (a, b, c) with a < c."""
        return self.three_paths_within(range(self.n))

    def three_paths_within(self, vertices: Iterable[int]) -> list[Path3]:
        """Paths on 3 vertices using only the given vertex set."""
        allowed = set(vertices)
        for v in allowed:
            self._check_vertex(v)
        out: list[Path3] = []
        for b in sorted(allowed):
            nb = sorted(self.adj[b] & allowed)
            for i in range(len(nb)):
                for k in range(i + 1, len(nb)):
                    out.append((nb[i], b, nb[k]))
        out.sort()
        return out

    def three_path_vertices(self) -> frozenset[int]:
        """The vertices on some path on 3 vertices, without listing one, in O(n + m).

        A vertex of degree >= 2 is the middle of a 3-path and each of its
        neighbours an end; a vertex of degree <= 1 whose neighbour also has
        degree <= 1 lies on none. These are the variables of I3(G).
        """
        middles = [v for v in range(self.n) if len(self.adj[v]) >= 2]
        return frozenset(middles).union(*(self.adj[v] for v in middles))

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """Each vertex's neighbours as a bitmask, bit w set for the neighbour w; built on first read."""
        return tuple(sum(1 << w for w in nb) for nb in self.adj)

    @cached_property
    def three_path_masks(self) -> frozenset[int]:
        """The vertex supports of the 3-paths as bitmasks, bit v set for the vertex v; built on first read."""
        return frozenset(1 << a | 1 << b | 1 << c for a, b, c in self.three_paths())

    def t_paths(self, t: int) -> list[tuple[int, ...]]:
        """Paths on t vertices for t in {2, 3}; t=2 is the edge list."""
        if t == 2:
            return list(self.edges)
        if t == 3:
            return self.three_paths()
        raise InputError(f"t={t} unsupported; only t in {{2, 3}}")

    # -- subgraphs -----------------------------------------------------------

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on the given vertices, with the old->new id map."""
        keep = sorted(set(vertices))
        for v in keep:
            self._check_vertex(v)
        remap = {old: new for new, old in enumerate(keep)}
        edges = [(remap[u], remap[v]) for u, v in self.edges if u in remap and v in remap]
        labels = tuple(self.labels[v] for v in keep) if self.labels is not None else None
        return Graph(len(keep), tuple(edges), labels), remap

    # -- connectivity ----------------------------------------------------------

    def components(self) -> list[list[int]]:
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack, comp = [start], []
            seen[start] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self.adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps


@dataclass(frozen=True)
class Classification:
    """Global shape of a graph and the kind of each of its components.

    ``kind`` is one of tree / forest / unicyclic / cycle / other. Unicyclic
    means connected with exactly one cycle but not itself a cycle graph.
    """

    kind: str
    components: tuple[str, ...]


def _component_kind(graph: Graph, comp: list[int]) -> str:
    k = len(comp)
    m = sum(len(graph.adj[v]) for v in comp) // 2
    if m == k - 1:
        return "tree"
    if m == k:
        if all(len(graph.adj[v]) == 2 for v in comp):
            return "cycle"
        return "unicyclic"
    return "other"


def classify(graph: Graph) -> Classification:
    """Classify a graph as tree/forest/unicyclic/cycle/other, in O(n + m).

    A connected graph takes the kind of its one component. Any other graph,
    the empty one included, is a forest when every component is a tree and
    ``other`` otherwise. A component's edge count is half its degree sum.
    """
    kinds = tuple(_component_kind(graph, c) for c in graph.components())
    if len(kinds) == 1:
        return Classification(kinds[0], kinds)
    kind = "forest" if all(k == "tree" for k in kinds) else "other"
    return Classification(kind, kinds)


def find_broom_vertex(graph: Graph) -> tuple[int, tuple[int, ...]]:
    """Vertex v of a tree with all neighbors but at most one being leaves.

    Returns (v, neighbors) with neighbors sorted ascending and the single
    allowed non-leaf (if any) placed last. Ties between candidate vertices
    are broken by smallest id.
    """
    if classify(graph).kind != "tree":
        raise InputError("broom vertex search requires a tree")
    for v in range(graph.n):
        nb = sorted(graph.adj[v])
        if len(nb) < 2:
            continue
        non_leaves = [u for u in nb if len(graph.adj[u]) > 1]
        if len(non_leaves) <= 1:
            leaves = [u for u in nb if len(graph.adj[u]) == 1]
            return v, tuple(leaves + non_leaves)
    raise NoBroomVertexError("tree has no vertex of degree >= 2")


# -- serialization ------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the 'u v' per-line edge format.

    Tokens are arbitrary; ids are assigned in first-appearance order.
    ``#`` starts a comment, blank lines are skipped.
    """
    ids: dict[str, int] = {}
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        a, b = parts
        if a == b:
            raise InputError(f"line {lineno}: loop edge on {a!r}")
        u = ids.setdefault(a, len(ids))
        v = ids.setdefault(b, len(ids))
        edges.append(canon_edge(u, v))
    return Graph(len(ids), tuple(edges), tuple(ids) or None)


def to_edge_list(graph: Graph) -> str:
    lines = [f"{graph.vertex_token(u)} {graph.vertex_token(v)}" for u, v in graph.edges]
    return "\n".join(lines) + ("\n" if lines else "")


def graph_to_json_obj(graph: Graph) -> dict:
    obj: dict = {"n": graph.n, "edges": [[u, v] for u, v in graph.edges]}
    if graph.labels is not None:
        obj["labels"] = list(graph.labels)
    return obj


def graph_from_json_obj(obj: dict) -> Graph:
    """``n`` and every endpoint must be JSON integers (a bool is not one); nothing is coerced."""
    n, edges = obj.get("n"), obj.get("edges")
    if type(n) is not int:
        raise InputError(f"malformed graph JSON: n must be an integer, got {n!r}")
    pairs = isinstance(edges, list) and all(isinstance(e, list) and len(e) == 2 for e in edges)
    if not pairs or not all(type(x) is int for e in edges for x in e):
        raise InputError("malformed graph JSON: edges must be a list of [u, v] integer pairs")
    edges, labels = tuple(map(tuple, edges)), obj.get("labels")
    if labels is None:
        return Graph(n, edges)
    if not isinstance(labels, list) or len(labels) != n or not all(isinstance(x, str) for x in labels):
        raise InputError(f"malformed graph JSON: labels must be a list of {n} strings")
    return Graph(n, edges, tuple(labels))


def parse_graph(text: str) -> Graph:
    """Parse either format: JSON if the payload starts with '{', else edge list."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        return graph_from_json_obj(obj)
    return parse_edge_list(text)


def load_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{exc} in {path}") from exc
    except OSError as exc:
        raise InputError(str(exc)) from exc
    return parse_graph(text)
