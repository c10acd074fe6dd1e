"""Iterated path-line operator toolkit.

Public surface: the Graph value type with exact small-graph algorithms, the
operator itself (single steps, whose vertex i is edge i of the input),
named family constructors, the certified sequence classifier (which runs
the iteration), the minimality lab with its exhaustive sweeps and
conjecture harnesses, and the textual graph formats.
"""

from .budget import Budget, ResourceLimitError, WorkCounter
from .classify import (
    Certificate,
    CertificateKind,
    Classification,
    Outcome,
    SequenceTrace,
    StopReason,
    check_long_cycle,
    check_long_tail,
    check_spider,
    check_twin_tail,
    classify,
    verify_certificate,
)
from .families import (
    FamilySpec,
    tailed_cycles_of_total_order,
    make_cycle,
    make_chorded_cycle,
    make_tailed_cycle,
    make_path,
    make_spider,
    parse_family_spec,
)
from .graph import (
    Graph,
    canonical_code,
    circumference,
    components,
    girth,
    is_cycle_graph,
    is_isomorphic,
    unique_cycle,
)
from .io import (
    GraphParseError,
    TOOL_VERSION,
    classification_report,
    parse_graph,
    render_edge_list,
    to_graph6,
)
from .minimality import (
    ArmDecomposition,
    CONJECTURE_IDS,
    ConjectureReport,
    SearchReport,
    arm_decomposition,
    enumerate_connected_graphs,
    find_minimal_members,
    minimality_decision,
    proper_subgraphs,
    property_suite,
    run_conjecture,
)
from .operator import hl_step

__all__ = [
    "ArmDecomposition",
    "Budget",
    "CONJECTURE_IDS",
    "Certificate",
    "CertificateKind",
    "Classification",
    "ConjectureReport",
    "FamilySpec",
    "Graph",
    "GraphParseError",
    "Outcome",
    "ResourceLimitError",
    "SearchReport",
    "SequenceTrace",
    "StopReason",
    "TOOL_VERSION",
    "WorkCounter",
    "arm_decomposition",
    "canonical_code",
    "check_long_cycle",
    "check_long_tail",
    "check_spider",
    "check_twin_tail",
    "circumference",
    "classification_report",
    "classify",
    "components",
    "tailed_cycles_of_total_order",
    "enumerate_connected_graphs",
    "find_minimal_members",
    "girth",
    "hl_step",
    "is_cycle_graph",
    "is_isomorphic",
    "make_cycle",
    "make_chorded_cycle",
    "make_tailed_cycle",
    "make_path",
    "make_spider",
    "minimality_decision",
    "parse_family_spec",
    "parse_graph",
    "proper_subgraphs",
    "property_suite",
    "render_edge_list",
    "run_conjecture",
    "to_graph6",
    "unique_cycle",
    "verify_certificate",
]
