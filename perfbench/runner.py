"""Send commands to ``pathideals.cli.main`` in-process and time each one.

Every phase is a closed loop: one caller waits for each command before it
sends the next. The reg workloads' --jobs 2 phase runs the same commands on
a pool of two worker processes, each of them a closed loop of its own.

Each command is timed twice: in CPU seconds of the process that ran it (and
of the child processes it waited for), and in wall seconds. On a 2-vCPU
Xeon virtual machine whose host steals cycles, the wall time of a fixed
pure-Python loop ranged from 24 ms to 71 ms while its CPU time stayed within
27 +- 2 ms, so the metrics use CPU time and the wall time goes to the notes.

CPU time still follows the host's speed, which drifts: on that machine the
same loop took 19 ms in one minute and 22 ms in the next, and the same 150
reg commands took 78 ms (median) in one hour and 100 ms in another. So each
command is followed by calibrations, CPU times of a fixed pure-Python loop
over the kinds of objects the program works with (tuples, frozensets, a
dict), for at least CAL_SHARE of the command's wall time. Its time is
reported at reference speed: CPU seconds times CAL_REF_S over the median
calibration of the commands around it (one 10 ms calibration is noisy; the
speed changes over seconds). Over 16 passes of verify_mixed's 120 instance
commands in one process, that cut the coefficient of variation of their
median time from 11% to 2%; an integer arithmetic loop got 3% and a pointer
chase through 8 MB 7%.
"""

from __future__ import annotations

import contextlib
import io
import multiprocessing
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass

from pathideals import cli

from workloads import Command, WARM_ARGV

POOL_START_TIMEOUT_S = 120.0
CAL_ITERS = 12_000
# Nominal CPU seconds of the calibration loop: the speed times are scaled to.
CAL_REF_S = 0.010
# Commands on each side whose calibrations smooth a command's speed.
CAL_WINDOW = 2
CAL_SHARE = 0.1


@dataclass
class Outcome:
    cmd: Command
    rc: int
    stdout: str
    stderr: str
    cpu: float
    child_cpu: float
    wall: float
    cal: float
    worker: int | None = None
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def speed(self) -> float:
        """Factor that turns this command's CPU seconds into reference seconds."""
        return CAL_REF_S / self.cal

    @property
    def ref_cpu(self) -> float:
        return self.cpu * self.speed

    @property
    def reports(self) -> int:
        """Instances the command completed: one per reg, one per report line."""
        return 1 if self.cmd.argv[0] == "reg" else self.stdout.count("\n")


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def calibration_s() -> float:
    """CPU seconds of a fixed pure-Python loop: the host's current speed."""
    started = time.process_time()
    counts = {}
    for i in range(CAL_ITERS):
        key = frozenset((i % 13, i % 17, i >> 3))
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.values())
    return time.process_time() - started


def calibrations(busy_s: float) -> list[float]:
    """At least one calibration, and as many as fill CAL_SHARE of busy_s."""
    readings = [calibration_s()]
    while sum(readings) < CAL_SHARE * busy_s:
        readings.append(calibration_s())
    return readings


def smooth_calibrations(outcomes: list[Outcome]) -> list[Outcome]:
    """Give each command the median calibration of the CAL_WINDOW commands on
    either side of it, in the order one process ran them."""
    raw = [o.cal for o in outcomes]
    for k, o in enumerate(outcomes):
        o.cal = statistics.median(raw[max(0, k - CAL_WINDOW) : k + CAL_WINDOW + 1])
    return outcomes


def run_cli(argv) -> tuple[int, str, str, float, float, float]:
    """Run one CLI command.

    Returns (exit code, stdout, stderr, CPU seconds of this process, CPU
    seconds of the child processes it waited for, wall seconds).
    """
    out, err = io.StringIO(), io.StringIO()
    children = children_cpu()
    started = time.perf_counter()
    cpu = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a dead benchmark
            rc = -1
            err.write(traceback.format_exc())
    cpu = time.process_time() - cpu
    wall = time.perf_counter() - started
    return rc, out.getvalue(), err.getvalue(), cpu, children_cpu() - children, wall


def closed_loop(commands: list[Command], deadline: float, extra_argv=(), on_start=None, first_id=0) -> list[Outcome]:
    """Run commands in order until the list ends or the deadline passes.

    The first command always runs, so every phase attempts at least one.
    ``on_start`` is called with each command's instance id before it runs.
    """
    outcomes = []
    before = calibrations(0.0)
    for k, cmd in enumerate(commands):
        if outcomes and time.perf_counter() >= deadline:
            break
        if on_start is not None:
            on_start(first_id + k)
        result = run_cli(cmd.argv + tuple(extra_argv))
        after = calibrations(result[-1])
        outcomes.append(Outcome(cmd, *result, statistics.median(before + after)))
        before = after
    return smooth_calibrations(outcomes)


def _worker_init(ready) -> None:
    run_cli(WARM_ARGV)
    with ready.get_lock():
        ready.value += 1


def _worker_run(argv) -> tuple:
    before = calibrations(0.0)
    result = run_cli(argv)
    return result + (statistics.median(before + calibrations(result[-1])), os.getpid())


def two_worker_pass(commands: list[Command]) -> tuple[list[Outcome], float]:
    """Run commands on two warmed-up worker processes.

    Returns the outcomes, each tagged with its worker, and the wall time,
    which starts once both workers have run the warm-up command, so it
    holds no process start-up. The workers are forked, as the CLI's own
    --jobs pool is: a spawn context would also start a resource-tracker
    process that outlives the benchmark.
    """
    ctx = multiprocessing.get_context("fork")
    ready = ctx.Value("i", 0)
    pool = ctx.Pool(2, initializer=_worker_init, initargs=(ready,))
    try:
        waited = time.perf_counter()
        while ready.value < 2:
            if time.perf_counter() - waited > POOL_START_TIMEOUT_S:
                raise RuntimeError("worker processes did not start")
            time.sleep(0.005)
        started = time.perf_counter()
        results = pool.map(_worker_run, [c.argv for c in commands], chunksize=1)
        wall = time.perf_counter() - started
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    outcomes = [Outcome(c, *r) for c, r in zip(commands, results)]
    # Each worker took its commands in list order.
    for worker in {o.worker for o in outcomes}:
        smooth_calibrations([o for o in outcomes if o.worker == worker])
    return outcomes, wall
