"""Byte-for-byte replay of `pathideals search` against recorded digests.

Each line of data/search_golden.jsonl holds one command (the three families,
a gf3 run, a --cap 5 batch with an errored instance, --jobs 2 and --count 0)
with the exit code, the sha256 of its stdout and stderr, and the sha256 of
every file it wrote under --out, all recorded before the defect summary moved
from the harness into the search command. The exemplar files' digests were
recorded again when exemplars became graph JSON, the rest were left as they
were. The test appends --out itself.
"""

import hashlib
import json
import os

import pytest

from pathideals.cli import main

with open(os.path.join(os.path.dirname(__file__), "data", "search_golden.jsonl"), encoding="utf-8") as fh:
    GOLDEN = [json.loads(line) for line in fh]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"][1:]) for c in GOLDEN])
def test_search_output_is_byte_identical(case, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main([*case["argv"], "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert sha256(captured.out.encode()) == case["stdout_sha256"]
    assert sha256(captured.err.encode()) == case["stderr_sha256"]
    written = {p.name: sha256(p.read_bytes()) for p in sorted(out_dir.iterdir())}
    assert written == case["files"]
