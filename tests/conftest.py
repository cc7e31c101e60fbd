import sys

import pytest

from lbemc.formula import EQ, Atom, Term, VariableRef, parse_sexpr
from lbemc.smt import InternalSolver


def tvar(name: str, index=None) -> Term:
    return Term.variable(VariableRef(name, index))


def const(c: int) -> Term:
    return Term.constant(c)


def is_copy(g) -> bool:
    """g is a copy x@i - x@j = 0, i < j: a choice pad or an assignment x = x."""
    if not (isinstance(g, Atom) and g.rel == EQ and g.term.const == 0):
        return False
    return ([c for _, c in g.term.coeffs] == [1, -1]
            and len({v.name for v, _ in g.term.coeffs}) == 1)


@pytest.fixture
def solver():
    return InternalSolver()


@pytest.fixture
def F():
    """Formula text shortcut: F('(and (<= x 0) (or a b))')."""
    return parse_sexpr


MOCK_SOLVER_CMD = f"{sys.executable} tests/mock_smt.py"
