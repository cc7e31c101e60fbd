"""Reference implementations and seeded generators the tests compare lbemc
against; no verification run uses them.

- `enum_paths`: syntactic path enumeration.
- `semantically_equivalent`, `project_indexed` and
  `equivalent_modulo_indexed`: solver-backed equivalence, with existential
  projection of indexed variables.  Projection splits a formula into cubes
  with the solver's `smt._cubes`, eliminates with the theory's own
  `smt.project` (substitution, then Fourier-Motzkin over the integer rows)
  and reads the rows back as atoms with `_atom_of_lin`.
- `theory_check` and `_solve_lin`: a from-scratch theory decision of one
  conjunction, on a fresh `_LinTheory`.
- `random_term`, `random_comparison`, `random_formula` and
  `random_operation`: seeded generators for the property tests.
"""

from __future__ import annotations

import random

from lbemc.cfa import Edge, Program
from lbemc.formula import EQ, LE, Atom, Formula, Not, Term, compare, f_and, f_or
from lbemc.semantics import Assign, Assume, Choice, Havoc, Operation, Seq
from lbemc.smt import (
    UNSAT,
    SatResult,
    _Lin,
    _LinTheory,
    _TheoryConflict,
    _cubes,
    _lin_of_atom,
    normalize,
    project,
    sat,
)


def enum_paths(p: Program, max_len: int) -> list[tuple[Edge, ...]]:
    """All syntactic paths from the entry of length 1..max_len.

    Ordered by length first, then lexicographically by edge position.
    """
    index = {id(e): i for i, e in enumerate(p.cfa.edges)}
    out: list[tuple[Edge, ...]] = []

    def walk(loc: int, prefix: tuple[Edge, ...]) -> None:
        if len(prefix) == max_len:
            return
        for e in p.cfa.outgoing(loc):
            out.append(prefix + (e,))
            walk(e.target, prefix + (e,))

    walk(p.entry, ())
    out.sort(key=lambda path: (len(path), tuple(index[id(e)] for e in path)))
    return out


def semantically_equivalent(a: Formula, b: Formula, solver) -> bool:
    return solver.entails(a, b) and solver.entails(b, a)


def _atom_of_lin(c: _Lin) -> Atom:
    """The atom of a non-constant row, the inverse of `smt._lin_of_atom`.

    Built as it is, without `canon_le`: its integer tightening would turn
    `2x - 1 <= 0` into `x <= 0` and lose the row's rational meaning.  An
    equality is signed with a positive first coefficient, as canonical ones
    are.
    """
    term = Term.of(c.const, c.coeffs)
    if c.is_eq and term.coeffs[0][1] < 0:
        term = -term
    return Atom(EQ if c.is_eq else LE, term)


def project_indexed(phi: Formula) -> Formula:
    """Quantifier elimination of the implicitly existential indexed variables.

    The result ranges over current-state variables only and is equivalent
    (over the rationals) to exists-indexed phi: each DNF cube is projected
    with `smt.project`, whose rows become atoms without integer tightening.
    DNF-based, so intended for test-sized formulas; raises ValueError for a
    propositional literal or more than 20000 cubes.
    """
    cubes = _cubes(normalize(phi), 20000)
    if cubes is None:
        raise ValueError("projection needs an arithmetic formula of at most 20000 DNF cubes")
    disjuncts = []
    for cube in cubes:
        targets = {v for a in cube for v, _ in a.term.coeffs if v.index is not None}
        try:
            residue = project([_lin_of_atom(a, 0) for a in cube], targets)
        except _TheoryConflict:
            continue
        disjuncts.append(f_and(*map(_atom_of_lin, residue)))
    return f_or(*disjuncts)


def equivalent_modulo_indexed(a: Formula, b: Formula, solver) -> bool:
    """Equivalence treating indexed variables as existential on both sides."""
    return semantically_equivalent(project_indexed(a), project_indexed(b), solver)


def _solve_lin(constraints):
    """Decide a conjunction of linear constraints (`smt._Lin` rows) over the
    rationals.

    Returns a model dict on success; raises _TheoryConflict with the origin
    set of a contradiction otherwise.  Equalities are used for substitution
    first, then inequalities are eliminated variable by variable.
    """
    theory = _LinTheory()
    for c in constraints:
        theory.push(c)
    return theory.model(theory.check())


def theory_check(atoms: list[Atom] | tuple[Atom, ...]) -> SatResult:
    """Satisfiability of a conjunction of canonical atoms over the rationals."""
    for a in atoms:
        if not isinstance(a, Atom):
            raise TypeError(f"theory_check expects canonical atoms, got {a!r}")
    try:
        env = _solve_lin([_lin_of_atom(a, i) for i, a in enumerate(atoms)])
    except _TheoryConflict:
        return UNSAT
    return sat(model=env)


def random_term(rng: random.Random, names: list[str], max_vars: int = 2) -> Term:
    t = Term.constant(rng.randint(-3, 3))
    for name in rng.sample(names, k=min(len(names), rng.randint(0, max_vars))):
        c = rng.choice([-2, -1, 1, 2])
        t = t + Term.variable(name).scale(c)
    return t


def random_comparison(rng: random.Random, names: list[str]) -> Formula:
    rel = rng.choice(["==", "!=", "<", "<=", ">", ">="])
    return compare(rel, random_term(rng, names), random_term(rng, names))


def random_formula(rng: random.Random, names: list[str], depth: int = 2) -> Formula:
    if depth == 0 or rng.random() < 0.4:
        return random_comparison(rng, names)
    kind = rng.choice(["and", "or", "not"])
    if kind == "not":
        return Not(random_formula(rng, names, depth - 1))
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    return f_and(left, right) if kind == "and" else f_or(left, right)


def random_operation(rng: random.Random, names: list[str], depth: int = 3) -> Operation:
    if depth == 0 or rng.random() < 0.45:
        kind = rng.choice(["assign", "assume", "havoc"])
        if kind == "assign":
            return Assign(rng.choice(names), random_term(rng, names))
        if kind == "havoc":
            return Havoc(rng.choice(names))
        return Assume(random_comparison(rng, names))
    if rng.random() < 0.5:
        return Seq(random_operation(rng, names, depth - 1),
                   random_operation(rng, names, depth - 1))
    return Choice(random_operation(rng, names, depth - 1),
                  random_operation(rng, names, depth - 1))
