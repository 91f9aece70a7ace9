import pathideals

PUBLIC_NAMES = {
    "BettiTable", "CapacityError", "Classification", "FieldSpec", "GF2", "GF3", "Graph",
    "InputError", "MatchingCertificate", "MonomialIdeal", "NEG_INF", "NoBroomVertexError",
    "PathIdealsError", "QQ", "add_monomial", "add_vars", "betti_hochster",
    "check_nu3_broom_drop", "classify", "colon", "edge_colon_closed_form", "find_broom_vertex",
    "load_graph", "minimalize", "nu3", "parse_edge_list", "parse_graph", "path_ideal",
    "path_ideal_within", "random_graph", "random_tree", "random_unicyclic", "regularity",
    "to_edge_list", "vertex_colon_closed_form",
}


def test_public_names_are_exactly_the_exports_and_all_resolve():
    assert len(pathideals.__all__) == len(PUBLIC_NAMES) == 35
    assert set(pathideals.__all__) == PUBLIC_NAMES
    for name in pathideals.__all__:
        assert getattr(pathideals, name) is not None, name
