#!/usr/bin/env python3
"""Write perfbench/golden.json: the right answers for the default seed.

    python3 perfbench/make_golden.py

Runs every command of every workload once, at full size and the default
seed, and refuses to write anything unless each answer passes the paper's
bounds (reg = 2 nu3 on trees, 2 nu3 <= reg <= 2 nu3 + 2 on unicyclic graphs,
reg >= 2 nu3 everywhere) and every verify report passes. The large-prime
probes get the digest of the same graph's table over Q. Regenerate only on
purpose: the golden answers are what later versions are held to.
"""

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    os.chdir(ROOT)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from checks import Checker, answer_digest, input_digest
    from runner import run_cli
    from workloads import DEFAULT_SEED, WORKLOADS, WorkloadBuilder

    checker = Checker(None, require_golden=False)
    entries = {}
    bad = 0
    for name in WORKLOADS:
        work_dir = os.path.join("perfbench", "work", f"{name}-s{DEFAULT_SEED}")
        for cmd in WorkloadBuilder(name, DEFAULT_SEED, "full", work_dir).build():
            if cmd.golden_field not in (None, cmd.field):
                at = cmd.argv.index("--field")
                twin_argv = cmd.argv[: at + 1] + (cmd.golden_field,) + cmd.argv[at + 2 :]
                cmd = dataclasses.replace(cmd, argv=twin_argv, field=cmd.golden_field)
            rc, stdout, _, cpu, _, _ = run_cli(cmd.argv)
            failure = checker.check(cmd, rc, stdout)
            if failure is not None:
                bad += 1
                print(f"{name}/{cmd.key}: {failure}", file=sys.stderr)
                continue
            entries[input_digest(cmd)] = answer_digest(cmd, stdout)
            print(f"{name}/{cmd.key} {cpu:.3f} CPU s", flush=True)
    if bad:
        print(f"{bad} answer(s) failed the bounds; golden file not written", file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "entries": entries}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(entries)} golden entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
