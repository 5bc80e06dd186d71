"""Decide testability properties of automata and finite semigroups.

A language can be given as a DFA transition graph (no accepting states;
the properties live in the transition action) or as a finite semigroup
presented by Cayley rows.  The package decides local testability and
its order, strict/right/left variants, local idempotence, threshold
local testability, piecewise testability, aperiodicity and
1-testability, always with explicit witnesses, plus direct products of
graphs and semigroups and the graph-to-semigroup construction.
"""

from .graphs import (K_TESTABILITY, TransitionSemigroup, analyze_graph,
                     complete_with_sink, transition_semigroup)
from .io_formats import (BadToken, CellOutOfRange, HeaderInconsistent,
                         NonpositiveHeader, NumberTooLong, ParseError, TooFewNumbers,
                         parse_graph, parse_semigroup, render_report, write_graph,
                         write_semigroup)
from .model import (NO, UNDEFINED, UNKNOWN, YES, BadK,
                    FiniteSemigroup, IncompleteInput, NotAssociative, NotGenerated,
                    NotIdempotent, OrderResult, PropertyReport, TransitionGraph,
                    Transformation, Verdict, compose, format_word, identity_map,
                    letter_name)
from .oracle import DEFAULT_BUDGET, DEFAULT_K_MAX, OracleResult, profile_determines
from .products import graph_direct_product, semigroup_direct_product
from .scc import strongly_connected_components
from .semigroups import (ALL_PROPERTIES, APERIODICITY, ASSOCIATIVITY,
                         LEFT_LOCAL_TESTABILITY, LOCAL_IDEMPOTENCE, LOCAL_PROPERTIES,
                         LOCAL_TESTABILITY, ONE_TESTABILITY, PIECEWISE_TESTABILITY,
                         RIGHT_LOCAL_TESTABILITY, STRICT_LOCAL_TESTABILITY,
                         THRESHOLD_LOCAL_TESTABILITY, analyze_semigroup,
                         check_associativity, check_generator_testability,
                         check_local_property, idempotents, is_aperiodic,
                         is_piecewise_testable, is_threshold_locally_testable,
                         j_classes, local_submonoid)

__version__ = "0.1.0"

__all__ = [
    "ALL_PROPERTIES", "APERIODICITY", "ASSOCIATIVITY", "BadK", "BadToken",
    "CellOutOfRange", "DEFAULT_BUDGET", "DEFAULT_K_MAX",
    "FiniteSemigroup", "HeaderInconsistent", "IncompleteInput",
    "K_TESTABILITY", "LEFT_LOCAL_TESTABILITY", "LOCAL_IDEMPOTENCE",
    "LOCAL_PROPERTIES", "LOCAL_TESTABILITY", "NO", "NonpositiveHeader",
    "NotAssociative", "NotGenerated", "NotIdempotent", "NumberTooLong",
    "ONE_TESTABILITY",
    "OracleResult", "OrderResult", "PIECEWISE_TESTABILITY", "ParseError",
    "PropertyReport", "RIGHT_LOCAL_TESTABILITY",
    "STRICT_LOCAL_TESTABILITY", "THRESHOLD_LOCAL_TESTABILITY", "TooFewNumbers",
    "TransitionGraph", "TransitionSemigroup", "Transformation", "UNDEFINED",
    "UNKNOWN", "Verdict", "YES", "analyze_graph", "analyze_semigroup",
    "check_associativity", "check_generator_testability",
    "check_local_property", "compose", "complete_with_sink",
    "format_word", "graph_direct_product", "identity_map", "idempotents",
    "is_aperiodic", "is_piecewise_testable", "is_threshold_locally_testable",
    "j_classes", "letter_name", "local_submonoid",
    "parse_graph", "parse_semigroup", "profile_determines", "render_report",
    "semigroup_direct_product", "strongly_connected_components",
    "transition_semigroup", "write_graph", "write_semigroup",
]
