#!/usr/bin/env python3
"""Benchmark of the pathideals CLI: four workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload reg_sparse --seed 1 --seconds 25 --trace 0

Run from the repository root. Each workload drives ``pathideals.cli.main``
in-process on edge-list files generated from ``--seed``, in closed loops from
one process; ``verify_mixed`` also runs batches at ``--jobs 2`` and the reg
workloads run their commands once more on two worker processes.

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
ones, from a separate traced run. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Every
answer is checked (see checks.py); a command that errors, exits non-zero or
answers wrongly is failed and counts at the run length in the timings.
Times are CPU seconds of the processes doing the work, scaled to a reference
host speed by calibration loops run between commands; runner.py says why.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join("perfbench", "out")
WORK_DIR = os.path.join("perfbench", "work")
SETUP_REPEATS = 5
# A fresh interpreter importing the program: the import part of one set-up.
IMPORT_ARGV = (sys.executable, "-c", "import sys; sys.path[:0] = sys.argv[1:]; import numpy, pathideals.cli", SRC)
# Share of --seconds after which each phase stops sending new commands.
REG_INSTANCE_SHARE = 0.7
VERIFY_INSTANCE_SHARE = 0.4
VERIFY_BATCH_SHARE = 0.75
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "instance_s_p50": "s",
    "instance_s_tail": "s",
    "instances_per_s": "1/s",
    "instances_per_s_jobs2": "1/s",
    "completed_frac": "frac",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--golden", default=os.path.join("perfbench", "golden.json"))
    return parser.parse_args(argv)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]


def tail(values):
    """(value, percentile) at the highest ladder percentile with ten samples beyond it."""
    ordered = sorted(values)
    for p in TAIL_LADDER:
        if len(ordered) - math.ceil(p / 100.0 * len(ordered)) >= TAIL_MIN_BEYOND:
            return percentile(ordered, p), p
    return ordered[-1], 100.0


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Bench:
    def __init__(self, args, import_s):
        self.args = args
        self.import_s = import_s
        self.work_dir = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}")

    # -- set-up --------------------------------------------------------------

    def setup(self):
        """Generate and write the inputs, load the golden file, warm up.

        Done SETUP_REPEATS times, each after a fresh interpreter has imported
        the program, as this process did before the first. setup_s is the
        median CPU time of import plus set-up, at reference speed by the
        median of the calibrations run between them.
        """
        from checks import Checker, load_golden
        from runner import CAL_REF_S, calibration_s, children_cpu, run_cli
        from workloads import DEFAULT_SEED, WARM_ARGV, WorkloadBuilder

        cals = [calibration_s()]
        generate, raw = [], []
        for _ in range(SETUP_REPEATS):
            imported = children_cpu()
            subprocess.run(IMPORT_ARGV, check=True)
            imported = children_cpu() - imported
            started = time.process_time()
            commands = WorkloadBuilder(self.args.workload, self.args.seed, self.args.size, self.work_dir).build()
            built = time.process_time()
            golden = load_golden(self.args.golden)
            self.checker = Checker(
                golden if self.args.seed == DEFAULT_SEED else None,
                require_golden=self.args.seed == DEFAULT_SEED and self.args.size == "full",
            )
            rc = run_cli(WARM_ARGV)[0]
            if rc != 0:
                raise RuntimeError(f"warm-up command exited {rc}")
            raw.append(imported + time.process_time() - started)
            cals.append(calibration_s())
            generate.append(built - started)
        self.commands = commands
        self.setup_raw_s = statistics.median(raw)
        self.setup_s = self.setup_raw_s * CAL_REF_S / statistics.median(cals)
        self.generate_s = statistics.median(generate)

    def _of_phase(self, phase):
        return [c for c in self.commands if c.phase == phase]

    # -- checking ------------------------------------------------------------

    def check(self, outcomes, reference=None):
        """Mark failures; with a reference, also require byte-identical stdout."""
        for o in outcomes:
            o.failure = self.checker.check(o.cmd, o.rc, o.stdout)
            if o.failure is None and reference is not None and o.stdout != reference[o.cmd.key]:
                o.failure = "output differs from the --jobs 1 run"
            if o.failure is not None:
                print(
                    f"FAILED {self.args.workload}/{o.cmd.key}: {o.failure}; "
                    f"reproduce: pathideals {' '.join(o.cmd.argv)}",
                    file=sys.stderr,
                )
        return outcomes

    # -- phases --------------------------------------------------------------

    def run_phases(self, on_start=None):
        """The jobs-1 phases; returns (instance outcomes, batch outcomes).

        Only verify_mixed has a batch suite, which gives its jobs-1
        throughput; the reg workloads take it from the instance phase.
        """
        from runner import closed_loop

        seconds = self.args.seconds
        started = time.perf_counter()
        if self.args.workload != "verify_mixed":
            first = closed_loop(self._of_phase("instance"), started + REG_INSTANCE_SHARE * seconds, on_start=on_start)
            return first, []
        first = closed_loop(self._of_phase("instance"), started + VERIFY_INSTANCE_SHARE * seconds, on_start=on_start)
        batch = closed_loop(self._of_phase("batch"), started + VERIFY_BATCH_SHARE * seconds, on_start=on_start, first_id=len(first))
        return first, batch

    def jobs2_phase(self, jobs1):
        """The jobs-1 commands again at --jobs 2.

        Returns the outcomes, the CPU makespan at reference speed and the wall
        time. The makespan takes the CPU time as split evenly between the two
        workers, so that it does not depend on which worker happened to take
        the longest commands. The verify batches fork their own pool inside
        the CLI, whose two workers this process can only see together:
        makespan = own CPU + children's CPU / 2.
        """
        from runner import closed_loop, two_worker_pass

        cmds = [o.cmd for o in jobs1]
        if self.args.workload != "verify_mixed":
            outcomes, wall = two_worker_pass(cmds)
            return outcomes, sum(o.ref_cpu for o in outcomes) / 2, wall
        outcomes = closed_loop(cmds, math.inf, extra_argv=("--jobs", "2"))
        makespan = sum((o.cpu + o.child_cpu / 2) * o.speed for o in outcomes)
        return outcomes, makespan, sum(o.wall for o in outcomes)

    def run_probes(self):
        from runner import closed_loop

        return self.check(closed_loop(self._of_phase("probe"), math.inf))

    # -- the two kinds of run ------------------------------------------------

    def end_to_end(self):
        first, batch = self.run_phases()
        jobs1 = batch or first
        jobs2, makespan2, wall2 = self.jobs2_phase(jobs1)
        self.check(first + batch)
        self.check(jobs2, reference={o.cmd.key: o.stdout for o in jobs1})
        probes = self.run_probes()

        penalty = self.args.seconds
        samples = [o.ref_cpu if o.ok else penalty for o in first]
        tail_value, tail_p = tail(samples)
        timed = first + batch + jobs2
        failed = sum(not o.ok for o in timed)
        metrics = {
            "setup_s": self.setup_s,
            "instance_s_p50": statistics.median(samples),
            "instance_s_tail": tail_value,
            "instances_per_s": sum(o.reports for o in jobs1 if o.ok) / sum(o.ref_cpu for o in jobs1),
            "instances_per_s_jobs2": sum(o.reports for o in jobs2 if o.ok) / makespan2,
            "completed_frac": (len(timed) - failed) / len(timed),
            "peak_rss_mb": peak_rss_mb(),
        }
        notes = {
            "instance_samples": len(samples),
            "tail_percentile": tail_p,
            "tail_samples_beyond": len(samples) - math.ceil(tail_p / 100.0 * len(samples)),
            "jobs1_commands": len(jobs1),
            "jobs2_commands": len(jobs2),
            "failed_frac": failed / len(timed),
            "probes": len(probes),
            "probe_failed": sum(not o.ok for o in probes),
            "setup_cpu_s": self.setup_raw_s,
            "import_cpu_s": self.import_s,
            "instance_cpu_s_p50": statistics.median(o.cpu for o in first),
            "instance_wall_s_p50": statistics.median(o.wall for o in first),
            "calibration_s_p50": statistics.median(o.cal for o in first),
            "instances_per_wall_s": sum(o.reports for o in jobs1 if o.ok) / sum(o.wall for o in jobs1),
            "instances_per_wall_s_jobs2": sum(o.reports for o in jobs2 if o.ok) / wall2,
        }
        return {name: (value, END_TO_END[name]) for name, value in metrics.items()}, len(timed), failed, notes

    def traced(self):
        from pathideals import cli
        from runner import closed_loop
        from tracing import LAYERS, Tracer, survivor_shares
        from workloads import BIG_PRIME

        tracer = Tracer()
        tracer.install()
        try:
            first, batch = self.run_phases(on_start=tracer.begin_instance)
        finally:
            tracer.uninstall()
        traced_runs = first + batch
        jobs1 = batch or first
        # The same commands again without tracing, for the overhead.
        replay = closed_loop([o.cmd for o in traced_runs], math.inf)

        captured = []
        run_batch = cli.run_batch

        def capturing_run_batch(spec, jobs=1):
            reports = run_batch(spec, jobs=jobs)
            captured.extend(reports)
            return reports

        cli.run_batch = capturing_run_batch
        try:
            jobs2, _, wall2 = self.jobs2_phase(jobs1)
        finally:
            cli.run_batch = run_batch
        # Share of the two workers' wall time spent inside commands.
        if self.args.workload == "verify_mixed":
            busy = sum(r.elapsed for r in captured)
        else:
            busy = sum(o.wall for o in jobs2)

        self.check(traced_runs)
        self.check(replay)
        self.check(jobs2, reference={o.cmd.key: o.stdout for o in jobs1})
        probes = self.run_probes()

        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, f"spans-{self.args.workload}-s{self.args.seed}.npz"))

        surv = conn = 0
        for ideal, calls in tracer.ideal_calls.items():
            s, c = survivor_shares(ideal)
            surv += calls * s
            conn += calls * c

        def frac(a, b):
            return a / b if b else 0.0

        cpu_traced = sum(o.cpu for o in traced_runs)
        ref_traced = sum(o.ref_cpu for o in traced_runs)
        ref_plain = sum(o.ref_cpu for o in replay)
        self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
        fields = [o.cmd.field for o in traced_runs + probes]

        m = {
            "cli.self_s": (self_s["cli"], "s"),
            "graphs.load_s": (self_s["graphs.load"], "s"),
            "graphs.classify_s": (self_s["graphs.classify"], "s"),
            "ideals.calls": (calls["ideals"], "count"),
            "ideals.s": (self_s["ideals"], "s"),
            "betti.calls": (calls["betti.enum"], "count"),
            "betti.repeat_frac": (frac(counts["betti.repeats"], calls["betti.enum"]), "frac"),
            "betti.subsets": (counts["betti.subsets"], "count"),
            "betti.survivors": (calls["betti.homology"], "count"),
            "betti.survivor_frac": (frac(calls["betti.homology"], counts["betti.subsets"]), "frac"),
            "betti.connected_survivor_frac": (frac(conn, surv), "frac"),
            "betti.enum.self_s": (self_s["betti.enum"], "s"),
            "betti.homology.calls": (calls["betti.homology"], "count"),
            "betti.homology.faces": (counts["betti.homology.faces"], "count"),
            "betti.homology.self_s": (self_s["betti.homology"], "s"),
            "betti.rank_gf2.calls": (calls["betti.rank_gf2"], "count"),
            "betti.rank_gf2.rows": (counts["betti.rank_gf2.rows"], "count"),
            "betti.rank_gf2.s": (self_s["betti.rank_gf2"], "s"),
            "betti.rank_modp.calls": (calls["betti.rank_modp"], "count"),
            "betti.rank_modp.entries": (counts["betti.rank_modp.entries"], "count"),
            "betti.rank_modp.s": (self_s["betti.rank_modp"], "s"),
            "betti.rank_exact.calls": (calls["betti.rank_exact"], "count"),
            "betti.rank_exact.entries": (counts["betti.rank_exact.entries"], "count"),
            "betti.rank_exact.s": (self_s["betti.rank_exact"], "s"),
            "matching.nu3.calls": (calls["matching.nu3"], "count"),
            "matching.nu3.s": (self_s["matching.nu3"], "s"),
            "harness.self_s": (self_s["harness"], "s"),
            "harness.serialize_s": (self_s["harness.serialize"], "s"),
            "harness.pool_busy_frac": (frac(busy, 2 * wall2), "frac"),
            "generators.s": (self_s["generators"], "s"),
            "generators.setup_s": (self.generate_s, "s"),
            "trace.cpu_s": (cpu_traced, "s"),
            "trace.accounted_frac": (frac(sum(self_s[layer] for layer in LAYERS), cpu_traced), "frac"),
            "trace.overhead_frac": (frac(ref_traced, ref_plain) - 1.0, "frac"),
            "trace.spans": (len(tracer.start), "count"),
            "mix.field_gf2_frac": (frac(fields.count("gf2"), len(fields)), "frac"),
            "mix.field_gf3_frac": (frac(fields.count("gf3"), len(fields)), "frac"),
            "mix.field_q_frac": (frac(fields.count("q"), len(fields)), "frac"),
            "mix.field_bigp_frac": (frac(fields.count(BIG_PRIME), len(fields)), "frac"),
            "probe.bigp_failed_frac": (frac(sum(not o.ok for o in probes), len(probes)), "frac"),
        }
        timed = traced_runs + replay + jobs2
        failed = sum(not o.ok for o in timed)
        notes = {"traced_commands": len(traced_runs), "probes": len(probes), "probe_failed": sum(not o.ok for o in probes)}
        return m, len(timed), failed, notes


def stamp(args):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(SRC, "pathideals", "cli.py")):
        print(f"error: the pathideals sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    import numpy  # noqa: F401  (part of the program's import cost)
    from pathideals import cli  # noqa: F401
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.process_time()
    bench = Bench(args, import_s)
    bench.setup()
    metrics, attempted, failed, notes = bench.traced() if args.trace else bench.end_to_end()

    record = {"stamp": stamp(args), "notes": notes}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:13s} {name:32s} {value:>16.6g} {unit}")
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
