import re
from pathlib import Path

import pathideals

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = {
    "BettiTable", "CapacityError", "Classification", "FieldSpec", "GF2", "GF3", "Graph",
    "InputError", "MatchingCertificate", "MonomialIdeal", "NoBroomVertexError",
    "PathIdealsError", "QQ", "add_monomial", "betti_hochster",
    "check_nu3_broom_drop", "classify", "colon", "edge_colon_closed_form", "find_broom_vertex",
    "load_graph", "nu3", "parse_edge_list", "parse_graph", "path_ideal",
    "random_graph", "random_tree", "random_unicyclic",
    "to_edge_list", "vertex_colon_closed_form",
}


def test_public_names_are_exactly_the_exports_and_all_resolve():
    assert len(pathideals.__all__) == len(PUBLIC_NAMES) == 30
    assert set(pathideals.__all__) == PUBLIC_NAMES
    for name in pathideals.__all__:
        assert getattr(pathideals, name) is not None, name


def test_readme_python_examples_run(monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 2
    # the examples name fixture files relative to the repository root
    monkeypatch.chdir(ROOT)
    namespaces = [{}, {}]
    for block, namespace in zip(blocks, namespaces):
        exec(compile(block, "README.md", "exec"), namespace)
    library, cli = namespaces
    # c7_tail_11: reg = 6 and nu3 = 2; caterpillar_7: reg = 4
    assert library["table"].regularity() == 6 and library["value"] == 2
    assert cli["code"] == 0 and '"reg": 4' in capsys.readouterr().out
