"""Deterministic random graph families: trees, unicyclic graphs, G(n, p).

The generator algorithms are fixed so that (n, seed) reproduces the same
graph in any implementation:

* randomness comes from splitmix64 (state += 0x9E3779B97F4A7C15; then
  z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31; all mod 2**64),
* integers below k are ``next_u64() % k``, unit floats are
  ``(next_u64() >> 11) * 2**-53``,
* trees decode a uniform Pruefer sequence (n-2 draws below n),
* unicyclic graphs add a uniformly chosen non-edge (lexicographic order)
  to a random tree,
* G(n, p) flips one unit float per vertex pair in lexicographic order.
"""

from __future__ import annotations

import heapq

from .errors import InputError
from .graphs import Graph, canon_edge

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream; see the module docstring for the exact recipe."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        if k <= 0:
            raise InputError("below() needs a positive bound")
        return self.next_u64() % k

    def unit(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53


def tree_from_pruefer(seq: list[int], n: int) -> Graph:
    """Decode a Pruefer sequence (length n-2, entries in 0..n-1) to a tree."""
    if n < 1:
        raise InputError("trees need at least one vertex")
    if n == 1:
        if seq:
            raise InputError("Pruefer sequence of K1 must be empty")
        return Graph(1, ())
    if len(seq) != n - 2:
        raise InputError(f"Pruefer sequence for n={n} must have length {n - 2}")
    degree = [1] * n
    for s in seq:
        if not (0 <= s < n):
            raise InputError(f"Pruefer entry {s} out of range")
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append(canon_edge(leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append(canon_edge(u, v))
    return Graph(n, tuple(edges))


def tree_from_rng(n: int, rng: SplitMix64) -> Graph:
    return tree_from_pruefer([rng.below(n) for _ in range(n - 2)], n)


def unicyclic_from_rng(n: int, rng: SplitMix64) -> Graph:
    if n < 3:
        raise InputError("unicyclic graphs need at least three vertices")
    tree = tree_from_rng(n, rng)
    present = set(tree.edges)
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
    chord = non_edges[rng.below(len(non_edges))]
    return Graph(n, tree.edges + (chord,))


def graph_from_rng(n: int, p: float, rng: SplitMix64) -> Graph:
    if n < 1:
        raise InputError("random graphs need at least one vertex")
    if not 0.0 <= p <= 1.0:
        raise InputError("edge probability must be in [0, 1]")
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.unit() < p:
                edges.append((u, v))
    return Graph(n, tuple(edges))


def random_tree(n: int, seed: int) -> Graph:
    return tree_from_rng(n, SplitMix64(seed))


def random_unicyclic(n: int, seed: int) -> Graph:
    return unicyclic_from_rng(n, SplitMix64(seed))


def random_graph(n: int, p: float, seed: int) -> Graph:
    return graph_from_rng(n, p, SplitMix64(seed))
