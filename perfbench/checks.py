"""Correctness gate: golden digests for the default seed, the paper's bounds
for every seed, and byte identity between --jobs 1 and --jobs 2.

A golden entry is keyed by a digest of the command's input (its argv and the
bytes of its graph file), so an entry can only ever match the input it was
made from. Reg answers are compared by a digest of the Betti table, the
regularity and the projective dimension, leaving out the field token, so the
table over Q can stand for the right answer over a large prime.
"""

from __future__ import annotations

import hashlib
import json

from pathideals.graphs import classify, load_graph
from pathideals.matching import nu3

from workloads import Command


def sha16(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def input_digest(cmd: Command) -> str:
    """Digest of the question a command asks: argv and file bytes, with the
    field replaced by the field whose answer is right."""
    argv = list(cmd.argv)
    if "--field" in argv:
        at = argv.index("--field")
        del argv[at : at + 2]
    text = "\0".join(argv + [cmd.golden_field or cmd.field])
    if cmd.path is not None:
        with open(cmd.path, "rb") as fh:
            text += "\0" + sha16(fh.read())
    return sha16(text)


def reg_digest(stdout: str) -> str:
    obj = json.loads(stdout)
    return sha16(json.dumps([obj["betti"], obj["reg"], obj["pd"]]))


def answer_digest(cmd: Command, stdout: str) -> str:
    return reg_digest(stdout) if cmd.argv[0] == "reg" else sha16(stdout)


def load_golden(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Decides whether one command's outcome is a correct completion."""

    def __init__(self, golden: dict | None, require_golden: bool) -> None:
        self.entries = (golden or {}).get("entries", {})
        self.require_golden = require_golden
        self._nu3: dict[str, tuple[int, str]] = {}

    def _graph_facts(self, path: str) -> tuple[int, str]:
        if path not in self._nu3:
            graph = load_graph(path)
            self._nu3[path] = (nu3(graph)[0], classify(graph).kind)
        return self._nu3[path]

    def check(self, cmd: Command, rc: int, stdout: str) -> str | None:
        """None if correct, else a one-line reason."""
        if rc != 0:
            return f"exit code {rc}"
        try:
            reason = self._check_reg(cmd, stdout) if cmd.argv[0] == "reg" else self._check_verify(stdout)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparseable output: {exc}"
        if reason is not None:
            return reason
        want = self.entries.get(input_digest(cmd))
        if want is None:
            return "no golden entry for this input" if self.require_golden else None
        got = answer_digest(cmd, stdout)
        return None if got == want else f"golden mismatch: {got} != {want}"

    def _check_reg(self, cmd: Command, stdout: str) -> str | None:
        reg = json.loads(stdout)["reg"]
        nu, kind = self._graph_facts(cmd.path)
        if reg < 2 * nu:
            return f"reg={reg} < 2*nu3={2 * nu}"
        if kind in ("tree", "forest") and reg != 2 * nu:
            return f"tree with reg={reg} != 2*nu3={2 * nu}"
        if kind == "unicyclic" and reg > 2 * nu + 2:
            return f"unicyclic with reg={reg} > 2*nu3+2={2 * nu + 2}"
        return None

    @staticmethod
    def _check_verify(stdout: str) -> str | None:
        lines = stdout.splitlines()
        if not lines:
            return "no reports"
        for line in lines:
            report = json.loads(line)
            if report["error"] is not None:
                return f"report error: {report['error']}"
            bad = [c["name"] for c in report["checks"] if not c["pass"]]
            if bad:
                return f"checks failed: {bad}"
        return None
