"""Byte-for-byte replay of `pathideals reg --format json` against recorded digests.

Each line of data/reg_golden.jsonl holds one command with its graph inline:
the four fixtures over gf2, gf3 and q; trees, unicyclic graphs and G(n, 0.3)
drawn from SplitMix64 seeds 1..4 at n = 9..12 (seeds 1..3 over gf2, seed 4
over gf3 or q, as JSON); and one capacity error. The exit code and the sha256
of stdout and stderr were recorded before the cycle walk, the test-only
names and the survivor sort left the package. The six lines after those,
recorded before the join and collapse rules replaced the direct loop, are
seed 1 at the sizes where those rules do most of the work: trees and
unicyclic graphs at n = 14 and 16 and G(14, 0.3) over gf2, and the n = 14
tree over q. The last three, recorded before the sum split a subset on a
vertex or counted a graph link's homology, are G(16, 0.3) from seed 1 over
gf2, gf3 and q, where the split meets homology in one degree on both sides
and ranks the whole subcomplex (at 14 of 464 split subsets over GF(2)). The graph is written to a
temporary file that takes the place of ``GRAPH`` in the argv. Each table
replayed is also checked against the K-polynomial of its f-vector.
"""

import hashlib
import json
import os

import pytest

from pathideals.cli import main
from pathideals.graphs import parse_graph
from pathideals.ideals import path_ideal

from oracles import k_polynomial

with open(os.path.join(os.path.dirname(__file__), "data", "reg_golden.jsonl"), encoding="utf-8") as fh:
    GOLDEN = [json.loads(line) for line in fh]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", GOLDEN, ids=[c["id"] for c in GOLDEN])
def test_reg_output_is_byte_identical(case, tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text(case["input"], encoding="utf-8")
    code = main([str(path) if arg == "GRAPH" else arg for arg in case["argv"]])
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert sha256(captured.out) == case["stdout_sha256"]
    assert sha256(captured.err) == case["stderr_sha256"]


@pytest.mark.parametrize("case", [c for c in GOLDEN if c["exit"] == 0], ids=lambda c: c["id"])
def test_reg_tables_have_the_k_polynomial_of_their_f_vector(case, tmp_path, capsys):
    """sum_i (-1)^i beta_{i,j} is the t^j coefficient of the K-polynomial, over every field."""
    path = tmp_path / "graph.txt"
    path.write_text(case["input"], encoding="utf-8")
    assert main([str(path) if arg == "GRAPH" else arg for arg in case["argv"]]) == 0
    signed: dict[int, int] = {}
    for i, j, b in json.loads(capsys.readouterr().out)["betti"]:
        signed[j] = signed.get(j, 0) + (-1) ** i * b
    coefficients = k_polynomial(path_ideal(parse_graph(case["input"]), 3))
    assert [signed.get(j, 0) for j in range(len(coefficients))] == coefficients
