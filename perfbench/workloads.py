"""Workload definitions: the commands each workload sends, made from a seed.

Every input graph comes from the program's own splitmix64 generators. Each
command gets its own stream, seeded from a stream per workload and phase that
the workload seed starts, so command i is the same whatever the list length
and the smoke size runs a prefix of the full lists.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from pathideals.generators import SplitMix64, tree_from_rng, unicyclic_from_rng
from pathideals.graphs import Graph, classify, to_edge_list

WORKLOADS = ("reg_sparse", "reg_dense", "reg_exact", "verify_mixed")
DEFAULT_SEED = 1
FIXTURES = ("c5_pendant_6", "c6_pendant_7", "caterpillar_7", "c7_tail_11")
# Rationals cost about 7x GF(3) on c7_tail_11 (3.6 s against 0.5 s), so that
# fixture is run over GF(3) and the three small ones over Q.
FIXTURE_FIELDS = {"c5_pendant_6": "q", "c6_pendant_7": "q", "caterpillar_7": "q", "c7_tail_11": "gf3"}
BIG_PRIME = "gf1000000000039"
WARM_ARGV = ("reg", "fixtures/caterpillar_7.txt", "--format", "json")

# Commands per list at each size. "full" is what the benchmark times, sized
# so that on a 2-core Xeon VM each reg instance phase takes about 14 CPU
# seconds, verify_mixed's about 6 and its batch suite about 8, and the tail
# percentile stays at p90 (100 to 199 samples); "smoke" is the minimum that
# still touches every phase, for the smoke tests.
SIZES = {
    "full": {
        "instances": {"reg_sparse": 150, "reg_dense": 190, "reg_exact": 180, "verify_mixed": 120},
        "batch_rounds": 2,
        "batch_count": 20,
        "probes": 4,
    },
    "smoke": {"instances": dict.fromkeys(WORKLOADS, 3), "batch_rounds": 1, "batch_count": 2, "probes": 1},
}
BATCH_SUITE = (
    ("tree", "all"), ("tree", "colon"), ("tree", "broom"), ("tree", "monotone"), ("tree", "ses"),
    ("unicyclic", "all"), ("unicyclic", "colon"), ("unicyclic", "monotone"), ("unicyclic", "ses"),
    ("random", "all"), ("random", "colon"), ("random", "monotone"), ("random", "ses"),
)
BATCH_N = "8..11"
_SALT = {name: k + 1 for k, name in enumerate(WORKLOADS)}


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    ``phase`` is "instance" (timed one by one), "batch" (a --family batch,
    timed for throughput) or "probe" (a known-defect probe, outside the
    timed phases). ``golden_field`` names the field whose table is the
    right answer, which differs from the command's field only for probes.
    """

    key: str
    argv: tuple[str, ...]
    phase: str
    field: str = "gf2"
    path: str | None = None
    golden_field: str | None = None


def _unicyclic(n: int, rng: SplitMix64) -> Graph:
    while True:
        graph = unicyclic_from_rng(n, rng)
        if classify(graph).kind == "unicyclic":
            return graph


def _gnm(n: int, m: int, rng: SplitMix64) -> Graph:
    """Uniform graph with n vertices and exactly m edges (partial Fisher-Yates)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for i in range(m):
        j = i + rng.below(len(pairs) - i)
        pairs[i], pairs[j] = pairs[j], pairs[i]
    return Graph(n, tuple(pairs[:m]))


def _sparse_graph(i: int, rng: SplitMix64) -> Graph:
    return tree_from_rng(12, rng) if i % 2 == 0 else _unicyclic(12, rng)


def _dense_graph(i: int, rng: SplitMix64) -> Graph:
    # G(11, 0.3) conditioned on its expected edge count, round(0.3 * 55) = 17.
    return _gnm(11, 17, rng)


def _small_graph(n: int, i: int, rng: SplitMix64) -> Graph:
    return tree_from_rng(n, rng) if i % 2 == 0 else _unicyclic(n, rng)


def _exact_field(i: int) -> str:
    return "q" if i % 5 in (0, 1, 2) else "gf3"


class WorkloadBuilder:
    """Makes and writes the inputs of one workload for one seed and size."""

    def __init__(self, name: str, seed: int, size: str, work_dir: str) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.sizes = SIZES[size]
        self.work_dir = work_dir
        # One stream of per-command seeds for each phase, so that the
        # commands of one phase do not depend on the length of another.
        self._streams = {
            phase: SplitMix64((seed << 8) ^ (_SALT[name] << 2) ^ k)
            for k, phase in enumerate(("instance", "batch", "probe"))
        }

    def _rng(self, phase: str) -> SplitMix64:
        return SplitMix64(self._streams[phase].next_u64())

    def _write(self, tag: str, graph: Graph) -> str:
        path = os.path.join(self.work_dir, f"{tag}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_edge_list(graph))
        return path

    def _reg(self, key: str, path: str, field: str, phase: str = "instance", golden_field=None) -> Command:
        argv = ("reg", path, "--format", "json") + (("--field", field) if field != "gf2" else ())
        return Command(key, argv, phase, field, path, golden_field or field)

    def build(self) -> list[Command]:
        os.makedirs(self.work_dir, exist_ok=True)
        count = self.sizes["instances"][self.name]
        commands: list[Command] = []
        for i in range(count):
            key = f"i{i:04d}"
            rng = self._rng("instance")
            if self.name == "reg_sparse":
                commands.append(self._reg(key, self._write(key, _sparse_graph(i, rng)), "gf2"))
            elif self.name == "reg_dense":
                commands.append(self._reg(key, self._write(key, _dense_graph(i, rng)), "gf2"))
            elif self.name == "reg_exact":
                if i % 20 == 0:
                    fixture = FIXTURES[(i // 20) % len(FIXTURES)]
                    path = f"fixtures/{fixture}.txt"
                    commands.append(self._reg(key, path, FIXTURE_FIELDS[fixture]))
                else:
                    graph = _small_graph(9, i, rng)
                    commands.append(self._reg(key, self._write(key, graph), _exact_field(i)))
            else:
                path = self._write(key, _small_graph(8, i, rng))
                commands.append(Command(key, ("verify", path, "--which", "all"), "instance", "gf2", path))
        if self.name == "verify_mixed":
            # The suite runs batch_rounds times, each round on new seeds.
            suite = BATCH_SUITE * self.sizes["batch_rounds"]
            for k, (family, which) in enumerate(suite):
                batch_seed = self._streams["batch"].next_u64() % (1 << 31)
                argv = (
                    "verify", "--family", family, "--which", which, "--n", BATCH_N,
                    "--count", str(self.sizes["batch_count"]), "--seed", str(batch_seed),
                )
                commands.append(Command(f"b{k:02d}", argv, "batch"))
        if self.name == "reg_exact":
            # Known defect: rank_mod_p overflows int64 for primes above ~3e9.
            # These probes run outside the timed phases; the right answer is
            # the table over Q (any torsion on so few vertices is far below p).
            for k in range(self.sizes["probes"]):
                key = f"p{k:02d}"
                path = self._write(key, _small_graph(8, k, self._rng("probe")))
                commands.append(self._reg(key, path, BIG_PRIME, "probe", golden_field="q"))
        return commands
