import argparse
import hashlib
import json
import os
import signal

import pytest

from pathideals import cli, harness
from pathideals.betti import DEFAULT_CAP
from pathideals.cli import main
from pathideals.generators import random_tree
from pathideals.graphs import graph_to_json_obj, load_graph, to_edge_list
from pathideals.ideals import path_ideal

from conftest import fixture_path

CATERPILLAR = fixture_path("caterpillar_7.txt")
C5_PENDANT = fixture_path("c5_pendant_6.txt")
C6_PENDANT = fixture_path("c6_pendant_7.txt")
C7_TAIL = fixture_path("c7_tail_11.txt")


def fixture_id(value):
    """Test id of a fixture path: its file name without the extension."""
    if isinstance(value, str):
        return os.path.splitext(os.path.basename(value))[0]
    return None


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_paths_text(capsys):
    code, out, _ = run(capsys, "paths", CATERPILLAR)
    assert code == 0
    assert "6 path(s) on 3 vertices; 6 ideal generator(s)" in out
    assert "x1-x2-x3" in out


def test_paths_json_and_t2(capsys):
    code, out, _ = run(capsys, "paths", "--format", "json", CATERPILLAR)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["paths"]) == 6 and obj["generators"] == 6
    code, out, _ = run(capsys, "paths", "--t", "2", CATERPILLAR)
    assert code == 0
    assert "6 path(s) on 2 vertices" in out


def test_paths_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# no edges\n")
    code, out, _ = run(capsys, "paths", str(empty))
    assert code == 0
    assert "0 path(s)" in out


@pytest.mark.parametrize(
    "path,expected", [(C5_PENDANT, 2), (C6_PENDANT, 3), (C7_TAIL, 6)], ids=fixture_id
)
def test_reg_json_golden(capsys, path, expected):
    code, out, _ = run(capsys, "reg", "--format", "json", path)
    assert code == 0
    assert json.loads(out)["reg"] == expected


def test_reg_rational_field(capsys):
    code, out, _ = run(capsys, "reg", "--format", "json", "--field", "q", C6_PENDANT)
    assert code == 0
    obj = json.loads(out)
    assert obj["reg"] == 3 and obj["field"] == "q"


def test_reg_text_and_csv(capsys):
    code, out, _ = run(capsys, "reg", CATERPILLAR)
    assert code == 0
    assert "reg(R/I3) = 4" in out
    code, out, _ = run(capsys, "reg", "--format", "csv", CATERPILLAR)
    assert code == 0
    assert out.splitlines()[0] == "i,j,beta"


@pytest.mark.parametrize("path", [CATERPILLAR, C5_PENDANT, C6_PENDANT, C7_TAIL], ids=fixture_id)
def test_reg_reads_its_table_through_the_graph_context(capsys, monkeypatch, path):
    # the cap test, the I3(G) listing and the sum live in GraphContext.table() alone
    _, lower, _ = run(capsys, "verify", path, "--which", "lower")
    tables = []
    real_table = harness.GraphContext.table

    def table(self, keep=None):
        tables.append(keep)
        return real_table(self, keep)

    def elsewhere(*args, **kwargs):
        raise AssertionError("reg computed its table outside GraphContext")

    monkeypatch.setattr(harness.GraphContext, "table", table)
    for name in ("betti_hochster", "path_ideal"):
        monkeypatch.setattr(cli, name, elsewhere)
    code, out, err = run(capsys, "reg", "--format", "json", path)
    assert (code, err, tables) == (0, "", [None])
    assert json.loads(out)["reg"] == json.loads(lower)["reg"]


@pytest.mark.parametrize("path", [CATERPILLAR, C5_PENDANT, C6_PENDANT, C7_TAIL], ids=fixture_id)
def test_reg_never_classifies_its_graph(capsys, monkeypatch, path):
    # reg prints no kind, so GraphContext.kind is never read
    expected = run(capsys, "reg", "--format", "json", path)

    def classify(graph):
        raise AssertionError("reg classified its graph")

    monkeypatch.setattr(harness, "classify", classify)
    assert run(capsys, "reg", "--format", "json", path) == expected


def test_nu3_outputs(capsys):
    code, out, _ = run(capsys, "nu3", CATERPILLAR)
    assert code == 0
    assert "nu3 = 2" in out and "x1-x2-x7" in out
    code, out, _ = run(capsys, "nu3", "--format", "json", C7_TAIL)
    assert code == 0
    assert json.loads(out)["nu3"] == 2


def test_verify_single_unicyclic(capsys):
    code, out, _ = run(capsys, "verify", "--which", "unicyclic", C7_TAIL)
    assert code == 0
    report = json.loads(out.splitlines()[0])
    assert report["defect"] == 2
    assert all(c["pass"] for c in report["checks"])


def test_verify_colon_on_fixture(capsys):
    code, out, _ = run(capsys, "verify", "--which", "colon", CATERPILLAR)
    assert code == 0
    assert len(out.splitlines()) == 6  # one report per edge


def test_verify_family_batch_and_output_file(tmp_path, capsys):
    out_file = tmp_path / "report.jsonl"
    code, out, _ = run(
        capsys,
        "verify", "--family", "tree", "--n", "4..6", "--count", "6",
        "--seed", "3", "--output", str(out_file),
    )
    assert code == 0
    assert out == ""
    lines = out_file.read_text().splitlines()
    assert len(lines) == 6
    assert all(json.loads(line)["defect"] == 0 for line in lines)


def test_verify_jobs_do_not_change_bytes(capsys):
    args = ["verify", "--family", "tree", "--n", "4..6", "--count", "6", "--seed", "3"]
    code1, out1, _ = run(capsys, *args, "--jobs", "1")
    code2, out2, _ = run(capsys, *args, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_csv_format(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "random", "--n", "4..6", "--count", "3",
        "--seed", "0", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "n,family,seed,reg,nu3,defect,pass"


def test_verify_needs_exactly_one_input(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2 and "exactly one input" in err
    code, _, err = run(capsys, "verify", CATERPILLAR, "--family", "tree")
    assert code == 2


def test_search_writes_histogram_and_exemplars(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(
        capsys,
        "search", "--family", "unicyclic", "--n", "5..7", "--count", "9",
        "--seed", "1", "--out", str(out_dir),
    )
    assert code == 0
    assert (out_dir / "histogram.csv").read_text().splitlines()[0] == "defect,count"
    assert (out_dir / "reports.jsonl").exists()
    header = json.loads((out_dir / "batch.json").read_text())
    assert header == {"family": "unicyclic", "n": "5..7", "count": 9, "seed": 1, "field": "gf2"}
    exemplars = sorted(p.name for p in out_dir.glob("unicyclic_n*_defect*.json"))
    assert exemplars
    assert out.startswith("defect,count")


@pytest.mark.parametrize(
    "spec",
    [("random", "1..9", "40", "3"), ("tree", "1..3", "6", "0")],
    ids=["random", "tree"],
)
def test_search_exemplars_reload_as_their_graphs(tmp_path, capsys, spec):
    # an edge list drops isolated vertices, and its reload renumbers the rest
    family, n_range, count, seed = spec
    out_dir = tmp_path / "out"
    code, _, _ = run(
        capsys, "search", "--family", family, "--n", n_range, "--count", count, "--seed", seed, "--out", str(out_dir)
    )
    assert code == 0
    first: dict = {}
    for line in (out_dir / "reports.jsonl").read_text().splitlines():
        report = json.loads(line)
        if report["defect"] is not None:
            first.setdefault((report["n"], report["defect"]), report["graph"])
    reloaded = {}
    for path in out_dir.glob(f"{family}_n*_defect*.*"):
        n, defect = path.stem.removeprefix(f"{family}_n").split("_defect")
        reloaded[int(n), int(defect)] = graph_to_json_obj(load_graph(str(path)))
    assert reloaded == first


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_verify_rejects_a_negative_count(capsys, fmt):
    code, out, err = run(
        capsys, "verify", "--family", "tree", "--n", "5..5", "--count", "-3", "--format", fmt
    )
    assert (code, out) == (2, "")
    assert "count must be nonnegative" in err
    code, out, _ = run(capsys, "verify", "--family", "tree", "--n", "5..5", "--count", "0", "--format", fmt)
    assert code == 0 and out == ("n,family,seed,reg,nu3,defect,pass\n" if fmt == "csv" else "")


def test_search_rejects_a_negative_count(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run(
        capsys, "search", "--family", "tree", "--n", "5..5", "--count", "-2", "--out", str(out_dir)
    )
    assert (code, out) == (2, "")
    assert "count must be nonnegative" in err
    assert not out_dir.exists()


def test_verify_rejects_jobs_below_one(tmp_path, capsys):
    out_file = tmp_path / "report.jsonl"
    code, out, err = run(
        capsys, "verify", "--family", "tree", "--n", "5..5", "--count", "2", "--jobs", "0",
        "--output", str(out_file),
    )
    assert (code, out) == (2, "")
    assert "jobs must be at least 1" in err
    assert not out_file.exists()
    # a single graph runs no batch, and is rejected the same way
    code, out, err = run(capsys, "verify", CATERPILLAR, "--jobs", "0")
    assert (code, out, err) == (2, "", "input error: jobs must be at least 1, got 0\n")


def test_search_rejects_jobs_below_one(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run(
        capsys,
        "search", "--family", "tree", "--n", "5..5", "--count", "2", "--jobs", "0", "--out", str(out_dir),
    )
    assert (code, out) == (2, "")
    assert "jobs must be at least 1" in err
    assert not out_dir.exists()


def test_search_rejects_too_small_unicyclic(capsys):
    code, _, err = run(capsys, "search", "--family", "unicyclic", "--n", "3..3")
    assert code == 2
    assert "n >= 4" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("a b\na b c\n")
    code, _, err = run(capsys, "reg", str(bad))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("reg", '{"n": 1e400, "edges": []}', "n must be an integer, got inf"),
        ("nu3", '{"n": 3, "edges": [[0, 1e400]]}', "edges must be a list of [u, v] integer pairs"),
    ],
    ids=["huge-n", "huge-vertex"],
)
def test_out_of_range_json_number_is_an_input_error(tmp_path, capsys, command, text, message):
    # json reads 1e400 as float infinity, which is not a JSON integer
    bad = tmp_path / "huge.json"
    bad.write_text(text)
    code, out, err = run(capsys, command, str(bad))
    assert (code, out) == (2, "")
    assert err == f"input error: malformed graph JSON: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 3.9, "edges": [[0, 1.7], [1, 2]]}', "n must be an integer, got 3.9"),
        ('{"n": 3, "edges": [[0, 1.7], [1, 2]]}', "edges must be a list of [u, v] integer pairs"),
        ('{"n": "4", "edges": []}', "n must be an integer, got '4'"),
        ('{"n": true, "edges": []}', "n must be an integer, got True"),
        ('{"n": 3, "edges": {"01": 0, "12": 1}}', "edges must be a list of [u, v] integer pairs"),
    ],
    ids=["float-n", "float-vertex", "string-n", "bool-n", "edges-object"],
)
def test_non_integer_graph_json_exits_two(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, "paths", str(bad))
    assert (code, out) == (2, "")
    assert err == f"input error: malformed graph JSON: {message}\n"


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "nu3", "no-such-file.txt")
    assert code == 2
    assert err == "input error: [Errno 2] No such file or directory: 'no-such-file.txt'\n"


def test_reg_on_a_directory_is_an_input_error(tmp_path, capsys):
    code, out, err = run(capsys, "reg", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("input error: [Errno 21] Is a directory")


def test_reg_on_a_non_utf8_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("\u00e9 b\n".encode("latin-1"))
    code, out, err = run(capsys, "reg", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("input error: 'utf-8' codec can't decode")
    assert str(bad) in err


def test_verify_output_to_a_directory_is_an_input_error(tmp_path, capsys):
    code, out, err = run(capsys, "verify", CATERPILLAR, "--which", "lower", "--output", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("input error: [Errno 21] Is a directory")


def test_search_out_on_an_existing_file_is_an_input_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    code, out, err = run(
        capsys, "search", "--family", "tree", "--n", "4..5", "--count", "2", "--out", str(taken)
    )
    assert (code, out) == (2, "")
    assert err.startswith("input error: [Errno 17] File exists")
    assert taken.read_text() == "keep me\n"


def test_an_os_error_inside_a_command_is_not_blamed_on_the_input(capsys, monkeypatch):
    # only a path the user names makes an OSError an input error (exit 2)
    def fail(*args, **kwargs):
        raise TimeoutError("the sum timed out")

    monkeypatch.setattr(harness, "betti_hochster", fail)
    with pytest.raises(TimeoutError, match="the sum timed out"):
        main(["reg", CATERPILLAR])
    assert "input error:" not in capsys.readouterr().err


def test_capacity_exit_code_and_overrides(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PATHIDEALS_CAP", "5")
    code, _, err = run(capsys, "reg", C5_PENDANT)  # 6 vertices > cap 5
    assert code == 3
    assert "--cap" in err
    code, out, _ = run(capsys, "reg", "--format", "json", "--cap", "6", C5_PENDANT)
    assert code == 0
    assert json.loads(out)["reg"] == 2
    # the cap counts used vertices: one 3-path plus 27 isolated vertices passes it
    monkeypatch.delenv("PATHIDEALS_CAP")
    p3_isolated = tmp_path / "p3_isolated.json"
    p3_isolated.write_text(json.dumps({"n": 30, "edges": [[0, 1], [1, 2]]}))
    code, out, _ = run(capsys, "reg", "--format", "json", str(p3_isolated))
    assert code == 0
    assert json.loads(out)["reg"] == 2
    # I3 uses 3 vertices, but I3 + de at the isolated edge d e uses 5
    isolated_edge = tmp_path / "isolated_edge.txt"
    isolated_edge.write_text("a b\nb c\nd e\n")
    message = (
        "capacity error: ambient n=5 exceeds the enumeration cap 3; "
        "raise it with --cap or the PATHIDEALS_CAP environment variable\n"
    )
    for which in ("ses", "all"):
        assert run(capsys, "verify", str(isolated_edge), "--which", which, "--cap", "3") == (3, "", message)


def test_an_unallocatable_cap_exits_three(tmp_path, capsys, monkeypatch):
    # 2^64 face bytes exceed the largest object size, so nothing is allocated
    path64 = tmp_path / "path64.txt"
    path64.write_text("".join(f"{k} {k + 1}\n" for k in range(63)))
    message = (
        "the generators use 64 vertices, and the 2^64 subset arrays that --cap 64 admits "
        "cannot be allocated"
    )
    assert run(capsys, "reg", str(path64), "--cap", "64") == (3, "", f"capacity error: {message}\n")
    # in a batch each instance records the error and the batch exits 1
    code, out, err = run(capsys, "verify", "--family", "tree", "--n", "64", "--count", "2", "--cap", "64")
    assert code == 1
    assert [json.loads(line)["error"] for line in out.splitlines()] == [f"CapacityError: {message}"] * 2
    assert err == "".join(f"error: tree n=64 seed={k}: CapacityError: {message}\n" for k in (0, 1))

    def refuse(*args, **kwargs):
        raise MemoryError

    # the face bytes are the sum's first request of 2^n size
    monkeypatch.setattr("pathideals.betti.bytearray", refuse, raising=False)
    code, out, err = run(capsys, "reg", CATERPILLAR)
    assert (code, out) == (3, "")
    assert err.startswith("capacity error: the generators use 7 vertices, and the 2^7 subset arrays")


# Commands on graphs over the default cap and their exit code, stdout digest
# and stderr as recorded before the cap was tested ahead of listing I3(G):
# ``refused`` ones are refused by the cap; colon and broom read no table and
# pass on a 25-vertex tree, and a graph with no 3-path passes any cap.
with open(os.path.join(os.path.dirname(__file__), "data", "capacity_golden.jsonl"), encoding="utf-8") as fh:
    CAPACITY_GOLDEN = [json.loads(line) for line in fh]


def write_over_cap_graphs(directory):
    """The inputs the capacity golden commands name, relative to ``directory``."""
    (directory / "tree25.txt").write_text(to_edge_list(random_tree(25, 1)))
    (directory / "star3001.txt").write_text("".join(f"0 {k}\n" for k in range(1, 3001)))
    matching = {"n": 3001, "edges": [[2 * k, 2 * k + 1] for k in range(1500)]}
    (directory / "matching3001.json").write_text(json.dumps(matching))


@pytest.mark.parametrize("case", CAPACITY_GOLDEN, ids=[" ".join(c["argv"]) for c in CAPACITY_GOLDEN])
def test_over_cap_graphs_are_refused_before_a_3_path_is_listed(case, tmp_path, capsys, monkeypatch):
    write_over_cap_graphs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PATHIDEALS_CAP", raising=False)
    if case["refused"]:
        def no_listing(graph, t):
            # every graph these commands read uses all of its vertices
            assert graph.n <= DEFAULT_CAP, f"I{t} listed on an over-cap graph with n={graph.n}"
            return path_ideal(graph, t)

        monkeypatch.setattr(cli, "path_ideal", no_listing)
        monkeypatch.setattr(harness, "path_ideal", no_listing)
    code, out, err = run(capsys, *case["argv"])
    assert (code, err) == (case["exit"], case["stderr"])
    assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]


@pytest.fixture
def ten_second_guard():
    """Fails a test that runs past 10 s at once, not at the CI job's timeout.

    ``pytest.fail`` ends the test with that message wherever the command has got to.
    """

    def slow(signum, frame):
        pytest.fail("still running after 10 s")

    previous = signal.signal(signal.SIGALRM, slow)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_verify_refuses_an_over_cap_forest_of_many_components_fast(tmp_path, capsys, monkeypatch, ten_second_guard):
    # 20,000 disjoint 3-vertex paths: classify must not scan the edge list once per component
    forest = tmp_path / "forest.txt"
    forest.write_text("".join(f"{3 * k} {3 * k + 1}\n{3 * k + 1} {3 * k + 2}\n" for k in range(20000)))
    monkeypatch.delenv("PATHIDEALS_CAP", raising=False)
    code, out, err = run(capsys, "verify", str(forest), "--which", "lower")
    assert (code, out) == (3, "")
    assert err == (
        "capacity error: ambient n=60000 exceeds the enumeration cap 22; "
        "raise it with --cap or the PATHIDEALS_CAP environment variable\n"
    )


def test_tree_check_classifies_an_over_cap_forest_of_many_components_fast(tmp_path, capsys, monkeypatch, ten_second_guard):
    # the tree check reads the kind before any table, so classify runs on all 20,000
    # components and must not scan the edge list once per component
    forest = tmp_path / "forest.txt"
    forest.write_text("".join(f"{3 * k} {3 * k + 1}\n{3 * k + 1} {3 * k + 2}\n" for k in range(20000)))
    monkeypatch.delenv("PATHIDEALS_CAP", raising=False)
    kinds = []
    real_classify = harness.classify

    def classify(graph):
        found = real_classify(graph)
        kinds.append(found.kind)
        return found

    monkeypatch.setattr(harness, "classify", classify)
    code, out, err = run(capsys, "verify", str(forest), "--which", "tree")
    assert (code, out, kinds) == (3, "", ["forest"])
    assert err == (
        "capacity error: ambient n=60000 exceeds the enumeration cap 22; "
        "raise it with --cap or the PATHIDEALS_CAP environment variable\n"
    )


def test_nu3_of_a_thousand_disjoint_paths_is_not_bounded_by_the_recursion_limit(tmp_path, capsys, ten_second_guard):
    # the branch and bound goes one level deeper per chosen path; a recursive
    # search raised RecursionError here
    forest = tmp_path / "forest.txt"
    forest.write_text("".join(f"{3 * k} {3 * k + 1}\n{3 * k + 1} {3 * k + 2}\n" for k in range(1000)))
    code, out, err = run(capsys, "nu3", str(forest))
    assert (code, err) == (0, "")
    assert out.splitlines() == ["nu3 = 1000"] + [f"  {3 * k}-{3 * k + 1}-{3 * k + 2}" for k in range(1000)]


def test_a_negative_cap_is_an_input_error(tmp_path, capsys, monkeypatch):
    code, out, err = run(capsys, "reg", CATERPILLAR, "--cap", "-3")
    assert (code, out, err) == (2, "", "input error: cap must be nonnegative, got -3\n")
    monkeypatch.setenv("PATHIDEALS_CAP", "-1")
    code, out, err = run(capsys, "reg", CATERPILLAR)
    assert (code, out, err) == (2, "", "input error: cap must be nonnegative, got -1\n")
    # a batch fails before any instance runs or any output is written
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "search", "--family", "tree", "--n", "5..5", "--count", "2", "--out", str(out_dir))
    assert (code, out, err) == (2, "", "input error: cap must be nonnegative, got -1\n")
    assert not out_dir.exists()
    code, out, err = run(capsys, "verify", "--family", "tree", "--n", "5..5", "--count", "2", "--cap", "0")
    assert code == 1 and "CapacityError" in err


def test_unknown_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["reg", "--bogus"])
    assert exc.value.code == 2


def test_verify_batch_with_errored_instances_exits_one(capsys):
    code, _, err = run(
        capsys, "verify", "--family", "tree", "--n", "6..6", "--count", "2",
        "--seed", "0", "--cap", "3",
    )
    assert code == 1
    assert "CapacityError" in err


def test_failed_checks_exit_one(capsys):
    import argparse

    from pathideals.cli import _emit_reports
    from pathideals.harness import CheckResult, VerificationReport

    report = VerificationReport(
        graph={"n": 1, "edges": []}, source="synthetic", classification="tree", n=1,
        checks=[CheckResult("synthetic_check", False, "forced failure")],
    )
    args = argparse.Namespace(format="jsonl", output=None)
    assert _emit_reports([report], args) == 1
    captured = capsys.readouterr()
    assert "1 of 1 checks failed" in captured.err


def test_search_with_errored_instances_exits_one(tmp_path, capsys):
    code, out, err = run(
        capsys, "search", "--family", "tree", "--n", "8..8", "--count", "3",
        "--cap", "5", "--out", str(tmp_path),
    )
    assert code == 1
    assert out == "defect,count\n"
    assert err.count("CapacityError") == 3


def test_random_colon_batch_at_one_vertex_terminates():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "pathideals.cli", "verify", "--family", "random",
         "--which", "colon", "--n", "1..1", "--count", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert [json.loads(line)["checks"][0]["details"] for line in done.stdout.splitlines()] == [
        "no edges", "no edges"]


def test_reg_rejects_primes_above_two_to_the_31(capsys):
    code, out, err = run(capsys, "reg", "--field", "gf1000000000039", CATERPILLAR)
    assert code == 2 and out == ""
    assert "p <= 2^31" in err


@pytest.mark.parametrize(
    "path", [CATERPILLAR, C5_PENDANT, C6_PENDANT, C7_TAIL], ids=fixture_id
)
def test_reg_largest_allowed_prime_gives_the_rational_table(capsys, path):
    from pathideals.betti import QQ, betti_hochster
    from pathideals.graphs import load_graph
    from pathideals.ideals import path_ideal

    code, out, _ = run(capsys, "reg", "--format", "json", "--field", "gf2147483647", path)
    assert code == 0
    obj = json.loads(out)
    assert obj["field"] == "gf2147483647"
    del obj["field"]
    expected = betti_hochster(path_ideal(load_graph(path), 3), QQ).to_json_obj(QQ)
    del expected["field"]
    assert obj == expected


# An interleaved sequence of in-process calls: (PATHIDEALS_CAP, or None to unset it; argv).
REPEATED_CALLS = [
    (None, ("reg", CATERPILLAR, "--format", "json")),
    (None, ("reg", C5_PENDANT, "--field", "q")),
    (None, ("reg", "--bogus", CATERPILLAR)),
    (None, ("reg", C6_PENDANT, "--format", "csv", "--field", "q")),
    ("5", ("verify", C7_TAIL, "--which", "lower")),
    (None, ("verify", C7_TAIL, "--which", "lower")),
    (None, ("paths", CATERPILLAR, "--t", "2")),
    (None, ("nu3", C5_PENDANT)),
    (None, ("reg", C7_TAIL, "--cap", "5")),
    (None, ("reg", C5_PENDANT, "--format", "csv")),
    (None, ("reg", CATERPILLAR, "--format", "json", "--field", "q")),
]


def outcome(capsys, monkeypatch, cap, argv):
    """Exit code, stdout and stderr of ``main(argv)`` under the given PATHIDEALS_CAP."""
    if cap is None:
        monkeypatch.delenv("PATHIDEALS_CAP", raising=False)
    else:
        monkeypatch.setenv("PATHIDEALS_CAP", cap)
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_main_calls_answer_as_fresh_ones_from_one_parser(capsys, monkeypatch):
    with monkeypatch.context() as fresh:
        fresh.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        expected = [outcome(capsys, monkeypatch, cap, argv) for cap, argv in REPEATED_CALLS]
    assert [code for code, _, _ in expected] == [0, 0, 2, 0, 3, 0, 0, 0, 3, 0, 0]

    roots = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "pathideals":  # the subcommands' parsers are "pathideals <name>"
            roots.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        got = [outcome(capsys, monkeypatch, cap, argv) for cap, argv in REPEATED_CALLS]
    finally:
        cli.build_parser.cache_clear()
    assert got == expected
    assert len(roots) == 1


def test_a_handler_replaced_after_the_first_call_runs(capsys, monkeypatch):
    assert run(capsys, "reg", CATERPILLAR, "--format", "json")[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_reg", lambda args: seen.append(args.input) or 7)
    assert run(capsys, "reg", CATERPILLAR) == (7, "", "")
    assert seen == [CATERPILLAR]
