"""Byte-for-byte replay of `pathideals verify` against recorded digests.

Each line of data/verify_golden.jsonl holds one command (the four fixtures
under every --which selector, a family x --which batch grid, a capacity-error
batch and two other fields, each in jsonl and csv) with the exit code and the
sha256 of the stdout and stderr that the command gave before the checks moved
to one registry with a per-graph table memo. Paths in the commands are
relative to the repository root.
"""

import hashlib
import json
import os

import pytest

from pathideals.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
with open(os.path.join(os.path.dirname(__file__), "data", "verify_golden.jsonl"), encoding="utf-8") as fh:
    GOLDEN = [json.loads(line) for line in fh]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"][1:]) for c in GOLDEN])
def test_verify_output_is_byte_identical(case, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert sha256(captured.out) == case["stdout_sha256"]
    assert sha256(captured.err) == case["stderr_sha256"]
