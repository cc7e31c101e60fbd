"""Model checker for a small imperative integer language.

Two control-flow encodings (one operation per edge, or loop-free regions
folded into single edges) combined with Cartesian or Boolean predicate
abstraction, lazy reachability-tree construction, and counterexample-guided
refinement.
"""

from .abstraction import (
    AbstractFormula,
    Abstractor,
    BOOLEAN,
    CARTESIAN,
    Precision,
    ProgramPrecision,
)
from .cfa import (
    CFA,
    Edge,
    Program,
    apply_rule0,
    program_variables,
    summarize,
    to_dot,
    try_rule1,
    try_rule2,
)
from .engine import (
    Art,
    ArtNode,
    Stats,
    VerificationResult,
    build_art,
    check_path,
    extract_predicates,
    is_covered,
    verify,
)
from .formula import (
    Atom,
    FALSE,
    Formula,
    PropVar,
    TRUE,
    Term,
    VariableRef,
    atoms,
    compare,
    evaluate,
    parse_sexpr,
    rename,
    to_sexpr,
)
from .frontend import ParseError, parse, parse_program, to_cfa
from .oracle import DomainBound, explicit_reachable
from .semantics import (
    Assign,
    Assume,
    Choice,
    Havoc,
    Operation,
    Seq,
    encode_edge,
    sp,
)
from .smt import InternalSolver, SatResult, make_solver

__all__ = [
    "AbstractFormula", "Abstractor", "BOOLEAN", "CARTESIAN", "Precision",
    "ProgramPrecision",
    "CFA", "Edge", "Program", "apply_rule0", "program_variables", "summarize",
    "to_dot", "try_rule1", "try_rule2",
    "Art", "ArtNode", "Stats", "VerificationResult", "build_art", "check_path",
    "extract_predicates", "is_covered", "verify",
    "Atom", "FALSE", "Formula", "PropVar", "TRUE", "Term", "VariableRef",
    "atoms", "compare", "evaluate", "parse_sexpr", "rename", "to_sexpr",
    "ParseError", "parse", "parse_program", "to_cfa",
    "DomainBound", "explicit_reachable",
    "Assign", "Assume", "Choice", "Havoc", "Operation", "Seq", "encode_edge",
    "sp",
    "InternalSolver", "SatResult", "Smtlib2Solver", "make_solver",
]


def __getattr__(name: str):
    # the SMT-LIB backend loads on first use
    if name == "Smtlib2Solver":
        from .smtlib import Smtlib2Solver

        return Smtlib2Solver
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
