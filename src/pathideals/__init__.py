"""Exact 3-path ideal invariants of graphs.

Constructs 3-path ideals of finite simple graphs, computes their graded
Betti numbers and Castelnuovo-Mumford regularity from first principles over
a chosen field, computes the 3-path induced matching number nu3 with
certificates, and machine-checks the bounds and colon identities relating
the two on fixed and randomized graph families.
"""

from .betti import (
    BettiTable,
    FieldSpec,
    GF2,
    GF3,
    QQ,
    betti_hochster,
)
from .errors import CapacityError, InputError, NoBroomVertexError, PathIdealsError
from .generators import random_graph, random_tree, random_unicyclic
from .graphs import (
    Graph,
    Classification,
    classify,
    find_broom_vertex,
    load_graph,
    parse_edge_list,
    parse_graph,
    to_edge_list,
)
from .ideals import (
    MonomialIdeal,
    add_monomial,
    colon,
    edge_colon_closed_form,
    path_ideal,
    vertex_colon_closed_form,
)
from .matching import (
    MatchingCertificate,
    check_nu3_broom_drop,
    nu3,
)

__all__ = [
    "BettiTable",
    "CapacityError",
    "Classification",
    "FieldSpec",
    "GF2",
    "GF3",
    "Graph",
    "InputError",
    "MatchingCertificate",
    "MonomialIdeal",
    "NoBroomVertexError",
    "PathIdealsError",
    "QQ",
    "add_monomial",
    "betti_hochster",
    "check_nu3_broom_drop",
    "classify",
    "colon",
    "edge_colon_closed_form",
    "find_broom_vertex",
    "load_graph",
    "nu3",
    "parse_edge_list",
    "parse_graph",
    "path_ideal",
    "random_graph",
    "random_tree",
    "random_unicyclic",
    "to_edge_list",
    "vertex_colon_closed_form",
]
