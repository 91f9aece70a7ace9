"""Smoke tests of the benchmark itself, at minimum size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--size", "smoke", "--seconds", "3", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--trace", str(trace))
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in declared:
        assert any(line.split()[1:2] == [m["name"]] and line.endswith(" " + m["unit"]) for line in proc.stdout.splitlines())


def test_a_corrupted_golden_entry_is_counted_as_failed(tmp_path):
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from checks import input_digest
    from workloads import WorkloadBuilder

    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        work_dir = os.path.join("perfbench", "work", "reg_sparse-s1")
        first = WorkloadBuilder("reg_sparse", 1, "smoke", work_dir).build()[0]
        key = input_digest(first)
    finally:
        os.chdir(cwd)
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    assert key in golden["entries"]
    golden["entries"][key] = "0" * 16
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden))

    result = result_of(run_bench("--workload", "reg_sparse", "--seed", "1", "--golden", str(corrupted)))
    # The command runs twice, at jobs 1 and at jobs 2, and both answers fail.
    assert result["failed"] == 2 and not result["correct"]
    assert result["metrics"]["completed_frac"]["value"] == pytest.approx(1 - 2 / result["attempted"])


def test_it_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    proc = run_bench("--workload", "reg_sparse", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
