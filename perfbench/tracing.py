"""Span recorder for the traced run.

The benchmark wraps module attributes of the program at each layer boundary;
the program itself is not edited. ``cli`` and ``harness`` hold their own
``from .x import y`` bindings, so each binding is wrapped separately. A span
records its layer, start, end, parent span and instance id; spans stay in
memory and are written out once, at the end of the run. Self time is a
span's duration minus the time its child spans cover. Spans are timed in
CPU seconds of the process, like the end-to-end metrics (see runner.py).
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from pathideals import betti, cli, graphs, harness, matching

# (module, attribute, layer) for every binding the traced run wraps.
BINDINGS = (
    (cli, "main", "cli"),
    (cli, "load_graph", "graphs.load"),
    (harness, "classify", "graphs.classify"),
    (matching, "classify", "graphs.classify"),
    (graphs, "classify", "graphs.classify"),
    (cli, "path_ideal", "ideals"),
    (harness, "path_ideal", "ideals"),
    (harness, "colon", "ideals"),
    (harness, "add_monomial", "ideals"),
    (harness, "edge_colon_closed_form", "ideals"),
    (harness, "vertex_colon_closed_form", "ideals"),
    (betti, "colon", "ideals"),
    (betti, "add_monomial", "ideals"),
    (cli, "betti_hochster", "betti.enum"),
    (harness, "betti_hochster", "betti.enum"),
    (betti, "betti_hochster", "betti.enum"),
    (betti, "_homology_dims_from_faces", "betti.homology"),
    (betti, "rank_gf2_rows", "betti.rank_gf2"),
    (betti, "rank_mod_p", "betti.rank_modp"),
    (betti, "rank_exact", "betti.rank_exact"),
    (cli, "nu3", "matching.nu3"),
    (harness, "nu3", "matching.nu3"),
    (matching, "nu3", "matching.nu3"),
    (cli, "verify_graph", "harness"),
    (cli, "run_batch", "harness"),
    (harness, "run_instance", "harness"),
    (harness, "verify_graph", "harness"),
    (cli, "reports_to_jsonl", "harness.serialize"),
    (harness, "tree_from_rng", "generators"),
    (harness, "unicyclic_from_rng", "generators"),
    (harness, "graph_from_rng", "generators"),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in BINDINGS))


class Tracer:
    """Records spans while installed; a no-op once uninstalled."""

    def __init__(self) -> None:
        self.layer_index = {layer: k for k, layer in enumerate(LAYERS)}
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.instance_of = array("l")
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.instance = -1
        self._stack: list[list] = []  # [span index, child seconds]
        self._seen: set = set()  # (ideal, field) computed in this instance
        self.ideal_calls: Counter = Counter()  # ideal -> betti_hochster calls
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin_instance(self, instance: int) -> None:
        self.instance = instance
        self._seen = set()

    def _open(self, layer: int) -> None:
        index = len(self.start)
        self.layer.append(layer)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.instance_of.append(self.instance)
        self.end.append(0.0)
        self._stack.append([index, 0.0])
        self.start.append(time.process_time())

    def _close(self) -> None:
        now = time.process_time()
        index, child = self._stack.pop()
        self.end[index] = now
        duration = now - self.start[index]
        name = LAYERS[self.layer[index]]
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, fn, layer: str):
        index = self.layer_index[layer]
        count = getattr(self, "_count_" + layer.replace(".", "_"), None)

        def traced(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            self._open(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        traced.__wrapped__ = fn
        return traced

    # -- counters, taken at the same boundaries ------------------------------

    def _count_betti_enum(self, ideal, field=betti.GF2, *args, **kwargs) -> None:
        key = (ideal, field)
        if key in self._seen:
            self.counts["betti.repeats"] += 1
        self._seen.add(key)
        self.ideal_calls[ideal] += 1
        if not ideal.is_zero and not ideal.is_unit:
            self.counts["betti.subsets"] += (1 << len(set().union(*ideal.gens))) - 1

    def _count_betti_homology(self, faces, char) -> None:
        self.counts["betti.homology.faces"] += len(faces)

    def _count_betti_rank_gf2(self, rows) -> None:
        self.counts["betti.rank_gf2.rows"] += len(rows)

    def _count_betti_rank_modp(self, mat, p) -> None:
        self.counts["betti.rank_modp.entries"] += len(mat) * (len(mat[0]) if mat else 0)

    def _count_betti_rank_exact(self, mat) -> None:
        self.counts["betti.rank_exact.entries"] += len(mat) * (len(mat[0]) if mat else 0)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for module, attr, layer in BINDINGS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            # Bindings of one function share one original, never a wrapper.
            original = originals.setdefault(id(fn), fn)
            setattr(module, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            layers=np.array(LAYERS),
            layer=np.frombuffer(self.layer, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            instance=np.frombuffer(self.instance_of, dtype=np.int64),
        )


def survivor_shares(ideal) -> tuple[int, int]:
    """(surviving subsets, surviving subsets whose generators form one group).

    Replays the cone pruning of ``betti_hochster``: a subset W survives when
    the generators inside W cover it. Those generators form one connected
    group when every one of them is reachable from the first by a chain of
    generators that share a vertex. Run outside any timed region.
    """
    if ideal.is_zero or ideal.is_unit:
        return 0, 0
    used = sorted(set().union(*ideal.gens))
    pos = {v: k for k, v in enumerate(used)}
    gmasks = np.array([sum(1 << pos[v] for v in g) for g in ideal.gens], dtype=np.int64)
    masks = np.arange(1, 1 << len(used), dtype=np.int64)
    covered = np.zeros(masks.shape, dtype=np.int64)
    for g in gmasks:
        covered |= np.where((masks & g) == g, g, 0)
    survivors = masks[covered == masks]
    connected = 0
    for w in survivors:
        inside = [int(g) for g in gmasks[(gmasks & ~w) == 0]]
        reach, grown = inside[0], True
        while grown:
            grown = False
            for g in inside:
                if g & reach and g | reach != reach:
                    reach |= g
                    grown = True
        connected += reach == int(w)
    return len(survivors), connected
