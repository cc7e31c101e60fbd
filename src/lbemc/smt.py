"""Satisfiability, entailment, and AllSAT for quantifier-free linear formulas.

The internal engine searches the propositional skeleton of a formula
(Tseitin CNF, CDCL with first-UIP backjumping) and keeps the atoms the
search asserts in a backtrackable theory over the rationals: equalities are
solved into a substitution map as they are asserted, inequalities are
decided by Fourier-Motzkin, and backjumps pop the theory with the trail.
Negated literals are folded into positive atoms up front using the
integer-exact complements from the formula module, so the theory layer only
ever sees conjunctions of canonical atoms.  Theory conflicts are turned
into clauses over the conflicting atoms, which keeps enumeration on heavily
disjunctive inputs polynomial in practice.  A model returned by
`check_sat` is solved from scratch over the final true atoms.  `entailed`
decides which of several predicates a formula entails in one search
session: the formula's CNF is built once and each predicate's complement
is assumed in turn, keeping what earlier answers learned.

An SMT-LIB2 process backend is provided as an alternative; it receives the
same literal-normalized formulas as the internal engine, so the two agree
verdict-for-verdict.
"""

from __future__ import annotations

import shlex
import subprocess
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd

from .formula import (
    And,
    Atom,
    EQ,
    FALSE,
    FalseF,
    Formula,
    Not,
    Or,
    PropVar,
    TRUE,
    TrueF,
    VariableRef,
    evaluate,
    f_and,
    f_not,
    f_or,
    negate_atom,
    nnf,
    propvars,
    var_sort_key,
    variables,
)


@dataclass
class SatResult:
    status: str  # "sat" | "unsat"
    model: dict[VariableRef, Fraction] | None = None
    bools: dict[str, bool] | None = None

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


def sat(model=None, bools=None) -> SatResult:
    return SatResult("sat", model or {}, bools or {})


UNSAT = SatResult("unsat")


# ---------------------------------------------------------------------------
# theory: conjunctions of canonical atoms, Fourier-Motzkin over Q
# ---------------------------------------------------------------------------

@dataclass
class _Lin:
    """sum(coeffs) + const  (= 0 | <= 0), with input-atom origins for cores."""

    coeffs: dict[VariableRef, Fraction]
    const: Fraction
    is_eq: bool
    origins: frozenset[int]

    def key(self):
        if not self.coeffs:
            return (self.is_eq, (), self.const)
        denom = 1
        for c in self.coeffs.values():
            denom = denom * c.denominator // gcd(denom, c.denominator)
        denom = denom * self.const.denominator // gcd(denom, self.const.denominator)
        ints = [int(c * denom) for c in self.coeffs.values()] + [int(self.const * denom)]
        g = 0
        for i in ints:
            g = gcd(g, abs(i))
        g = g or 1
        items = tuple(
            sorted(((v, int(c * denom) // g) for v, c in self.coeffs.items()),
                   key=lambda it: var_sort_key(it[0]))
        )
        return (self.is_eq, items, int(self.const * denom) // g)


def _lin_of_atom(atom: Atom, origin: int) -> _Lin:
    coeffs = {v: Fraction(c) for v, c in atom.term.coeffs}
    return _Lin(coeffs, Fraction(atom.term.const), atom.rel == EQ, frozenset([origin]))


class _TheoryConflict(Exception):
    def __init__(self, core: frozenset[int]):
        self.core = core


def _const_check(c: _Lin) -> bool:
    """True if the constraint is trivially satisfied; raises on contradiction."""
    if c.coeffs:
        return False
    if c.is_eq:
        if c.const != 0:
            raise _TheoryConflict(c.origins)
    elif c.const > 0:
        raise _TheoryConflict(c.origins)
    return True


def _substitute(c: _Lin, v: VariableRef, expr: dict[VariableRef, Fraction],
                expr_const: Fraction, origins: frozenset[int]) -> _Lin:
    b = c.coeffs.get(v)
    if b is None:
        return c
    coeffs = {w: cw for w, cw in c.coeffs.items() if w != v}
    for w, cw in expr.items():
        coeffs[w] = coeffs.get(w, Fraction(0)) + b * cw
        if coeffs[w] == 0:
            del coeffs[w]
    return _Lin(coeffs, c.const + b * expr_const, c.is_eq, c.origins | origins)


class _LinTheory:
    """Backtrackable conjunction of linear constraints over the rationals.

    Constraints are pushed one at a time and popped back to any earlier
    length (Dutertre & de Moura, CAV 2006).  Each equality is reduced by
    the substitutions before it and then solved for one of its variables
    (a unit coefficient first, in variable order), giving a triangular
    substitution map: the expression of an eliminated variable mentions
    only variables eliminated after it, so an entry stays valid when later
    ones are popped.  An equality that reduces to `0 = c != 0` is refused
    on push.  Inequalities are only recorded; `check` reduces them and runs
    Fourier-Motzkin over the result.  Every pushed constraint has one undo
    record, so pop costs are proportional to what is popped.
    """

    _INEQ = object()  # undo record of a pushed inequality

    def __init__(self) -> None:
        # eliminated variable -> (elimination rank, expression, constant, origins)
        self._subst: dict[VariableRef, tuple[int, dict[VariableRef, Fraction],
                                             Fraction, frozenset[int]]] = {}
        self._order: list[VariableRef] = []
        self._ineqs: list[_Lin] = []
        self._undo: list = []  # eliminated variable, _INEQ, or None (redundant)

    def __len__(self) -> int:
        return len(self._undo)

    def push(self, c: _Lin) -> None:
        """Assert c; raises _TheoryConflict, leaving the state unchanged, when
        c is an equality that contradicts the equalities before it."""
        if not c.is_eq:
            self._ineqs.append(c)
            self._undo.append(self._INEQ)
            return
        c = self._reduce(c)
        if _const_check(c):
            self._undo.append(None)
            return
        vs = sorted(c.coeffs, key=var_sort_key)
        v = next((w for w in vs if abs(c.coeffs[w]) == 1), vs[0])
        a = c.coeffs[v]
        expr = {w: -cw / a for w, cw in c.coeffs.items() if w != v}
        self._subst[v] = (len(self._order), expr, -c.const / a, c.origins)
        self._order.append(v)
        self._undo.append(v)

    def pop_to(self, n: int) -> None:
        while len(self._undo) > n:
            rec = self._undo.pop()
            if rec is self._INEQ:
                self._ineqs.pop()
            elif rec is not None:
                del self._subst[rec]
                self._order.pop()

    def _reduce(self, c: _Lin) -> _Lin:
        """Substitute eliminated variables in elimination order."""
        subst = self._subst
        while True:
            ranked = [(subst[w][0], w) for w in c.coeffs if w in subst]
            if not ranked:
                return c
            _, v = min(ranked)
            _, expr, expr_const, origins = subst[v]
            c = _substitute(c, v, expr, expr_const, origins)

    def check(self) -> list[tuple[VariableRef, list[_Lin]]]:
        """Fourier-Motzkin levels of the reduced inequalities; raises
        _TheoryConflict with a core if the constraints are unsatisfiable."""
        reduced = []
        for c in self._ineqs:
            c = self._reduce(c)
            if not _const_check(c):
                reduced.append(c)
        return _fourier_motzkin(reduced)

    def model(self) -> dict[VariableRef, Fraction]:
        """A witness: FM levels solved backwards, then the substitutions."""
        env: dict[VariableRef, Fraction] = {}
        for v, with_v in reversed(self.check()):
            lo = hi = None
            for c in with_v:
                a = c.coeffs[v]
                rest_val = c.const + sum(
                    cw * env.get(w, Fraction(0)) for w, cw in c.coeffs.items() if w != v
                )
                bound = -rest_val / a
                if a > 0:
                    hi = bound if hi is None else min(hi, bound)
                else:
                    lo = bound if lo is None else max(lo, bound)
            env[v] = _pick_value(lo, hi)
        for v in reversed(self._order):
            _, expr, expr_const, _ = self._subst[v]
            env[v] = expr_const + sum(c * env.get(w, Fraction(0)) for w, c in expr.items())
        return env


def _solve_lin(constraints: list[_Lin]):
    """Decide a conjunction of linear constraints over the rationals.

    Returns a model dict on success; raises _TheoryConflict with the origin
    set of a contradiction otherwise.  Equalities are used for substitution
    first, then inequalities are eliminated variable by variable.
    """
    theory = _LinTheory()
    for c in constraints:
        theory.push(c)
    return theory.model()


def _fourier_motzkin(ineqs: list[_Lin]) -> list[tuple[VariableRef, list[_Lin]]]:
    """Eliminate the variables of `ineqs` (all `<= 0`) in variable order.

    Returns one level per variable: the constraints mentioning it when it
    was eliminated, from which a model is solved backwards.  Raises
    _TheoryConflict when a contradiction `0 < c <= 0` is derived.
    """
    cur = []
    seen = set()
    for c in ineqs:
        k = c.key()
        if k not in seen:
            seen.add(k)
            cur.append(c)

    names = sorted({v for c in cur for v in c.coeffs}, key=var_sort_key)
    levels: list[tuple[VariableRef, list[_Lin]]] = []
    for v in names:
        with_v = [c for c in cur if v in c.coeffs]
        rest = [c for c in cur if v not in c.coeffs]
        uppers = [c for c in with_v if c.coeffs[v] > 0]
        lowers = [c for c in with_v if c.coeffs[v] < 0]
        levels.append((v, with_v))
        derived = []
        seen = {c.key() for c in rest}
        for up in uppers:
            for lo in lowers:
                a, b = up.coeffs[v], lo.coeffs[v]
                coeffs: dict[VariableRef, Fraction] = {}
                for w, cw in up.coeffs.items():
                    if w != v:
                        coeffs[w] = cw * -b
                for w, cw in lo.coeffs.items():
                    if w == v:
                        continue
                    coeffs[w] = coeffs.get(w, Fraction(0)) + cw * a
                    if coeffs[w] == 0:
                        del coeffs[w]
                comb = _Lin(coeffs, up.const * -b + lo.const * a, False,
                            up.origins | lo.origins)
                if _const_check(comb):
                    continue
                k = comb.key()
                if k not in seen:
                    seen.add(k)
                    derived.append(comb)
        cur = rest + derived
    return levels


def _pick_value(lo: Fraction | None, hi: Fraction | None) -> Fraction:
    """Deterministic witness preferring small integers."""
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return Fraction(min(0, floor(hi)))
    if hi is None:
        return Fraction(max(0, ceil(lo)))
    assert lo <= hi
    if lo <= 0 <= hi:
        return Fraction(0)
    c = Fraction(ceil(lo))
    return c if c <= hi else (lo + hi) / 2


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


# ---------------------------------------------------------------------------
# preprocessing: NNF with negations folded into atoms
# ---------------------------------------------------------------------------

def _positivize(f: Formula) -> Formula:
    """On an NNF input, rewrite Not(atom) to its integer-exact complement.

    Memoized per subformula object so shared subtrees stay shared.
    """
    memo: dict[int, Formula] = {}

    def walk(g: Formula) -> Formula:
        cached = memo.get(id(g))
        if cached is not None:
            return cached
        if isinstance(g, Not):
            if isinstance(g.arg, Atom):
                out = negate_atom(g.arg)
            elif isinstance(g.arg, PropVar):
                out = g
            else:
                raise ValueError("input not in NNF")
        elif isinstance(g, And):
            out = f_and(*(walk(a) for a in g.args))
        elif isinstance(g, Or):
            out = f_or(*(walk(a) for a in g.args))
        else:
            out = g
        memo[id(g)] = out
        return out

    return walk(f)


def normalize(f: Formula) -> Formula:
    """NNF + positive atom rewrite; the form both solver backends decide."""
    return _positivize(nnf(f))


# ---------------------------------------------------------------------------
# Tseitin CNF + CDCL with an incremental theory
# ---------------------------------------------------------------------------

class _Cnf:
    """Tseitin encoding keyed by structural formula identity.

    Gates are never decided: they are functions of the inputs and get their
    values by propagation.  For every disjunction the clause requiring one
    of its arguments is recorded as a *selection* clause; search decisions
    (besides the AllSAT-important variables) pick an argument of an active,
    still-unsatisfied selection clause, so the search enumerates branch
    selections instead of wandering through arbitrary atom assignments.
    """

    def __init__(self) -> None:
        self.nvars = 0
        self.clauses: list[list[int]] = []
        self.occ: dict[int, list[int]] = {}  # signed literal -> clause indices
        self.atom_of: dict[int, Atom] = {}
        self.var_of_input: dict[Formula, int] = {}
        self.decisions: list[int] = []  # important vars, decided first
        self.select_clauses: list[int] = []
        self.select_vars: dict[int, frozenset[VariableRef]] = {}
        self._gate: dict[Formula, int] = {}
        self._const_true: int | None = None

    def new_var(self) -> int:
        self.nvars += 1
        self.occ[self.nvars] = []
        self.occ[-self.nvars] = []
        return self.nvars

    def add_clause(self, lits: list[int]) -> int | None:
        out: list[int] = []
        for lit in lits:
            if -lit in out:
                return None
            if lit not in out:
                out.append(lit)
        idx = len(self.clauses)
        self.clauses.append(out)
        for lit in out:
            self.occ[lit].append(idx)
        return idx

    def mark_decision(self, var: int) -> None:
        if var not in self.decisions:
            self.decisions.append(var)

    def input_var(self, f: Formula) -> int:
        v = self.var_of_input.get(f)
        if v is None:
            v = self.new_var()
            self.var_of_input[f] = v
            if isinstance(f, Atom):
                self.atom_of[v] = f
        return v

    def literal(self, f: Formula) -> int:
        if isinstance(f, TrueF):
            return self.true_lit()
        if isinstance(f, FalseF):
            return -self.true_lit()
        if isinstance(f, (Atom, PropVar)):
            return self.input_var(f)
        if isinstance(f, Not):
            return -self.input_var(f.arg)
        gate = self._gate.get(f)
        if gate is not None:
            return gate
        args = [self.literal(a) for a in f.args]
        g = self.new_var()
        if isinstance(f, And):
            for a in args:
                self.add_clause([-g, a])
            self.add_clause([g] + [-a for a in args])
        else:
            for a in args:
                self.add_clause([g, -a])
            idx = self.add_clause([-g] + args)
            if idx is not None:
                self.select_clauses.append(idx)
                self.select_vars[idx] = frozenset(variables(f))
        self._gate[f] = g
        return g

    def true_lit(self) -> int:
        if self._const_true is None:
            self._const_true = self.new_var()
            self.add_clause([self._const_true])
        return self._const_true


class _Dpll:
    """CDCL search over the clause database.

    Decisions assign the AllSAT-important variables first, then pick an
    argument of a pending selection clause (preferring the selection that
    shares the most variables with the already-asserted atoms, so branches
    contradicting the current assertions are refuted before unrelated
    selections multiply the search).  Once nothing is pending, every
    remaining clause is satisfied by leaving its unassigned variables
    false.  Theory consistency of the asserted atoms is checked eagerly
    (batched); a theory conflict contributes its contradiction core as a
    conflict clause.  Conflicts are resolved to a first-unique-implication
    -point clause and the search backjumps non-chronologically; satisfying
    assignments are excluded with blocking clauses, which makes the
    enumeration complete.

    The true atoms are kept in trail order and mirrored by a _LinTheory,
    so a theory check pushes only the atoms asserted since the last one,
    after popping those the search has retracted.  A per-variable count of
    the true atoms' arithmetic variables scores the selection clauses.

    `solve_under` decides the clauses under one assumption literal, the
    way MiniSat does (Een & Sorensson, SAT 2003), and can be called again
    after clauses are added to the CNF: learned clauses, theory lemmas and
    everything assigned at level zero, in the theory too, carry over.
    """

    EAGER_BATCH = 4
    _EXHAUSTED = object()

    def __init__(self, cnf: _Cnf) -> None:
        self.cnf = cnf
        self.assign: dict[int, bool] = {}
        self.level_of: dict[int, int] = {}
        self.reason: dict[int, list[int] | None] = {}
        self.trail: list[int] = []
        self.level = 0
        self.theory_checks = 0
        self._n_true: list[int] = []
        self._n_false: list[int] = []
        self._scanned = 0  # clauses checked for being unit at level zero
        self._assumption: int | None = None
        self._n_true_atoms_checked = -1
        self._decide_head = 0
        self._theory = _LinTheory()
        self._lins: dict[int, _Lin] = {}
        # true atom variables in trail order; the first _synced of them are
        # the first constraints of the theory
        self._true_atoms: list[int] = []
        self._synced = 0
        # arithmetic variable -> number of true atoms mentioning it
        self._asserted: dict[VariableRef, int] = {}

    # -- assignment bookkeeping ---------------------------------------------

    def _set(self, var: int, value: bool, reason: list[int] | None) -> int | None:
        """Assign and update clause counters; returns a violated clause index."""
        self.assign[var] = value
        self.level_of[var] = self.level
        self.reason[var] = reason
        self.trail.append(var)
        if value and var in self.cnf.atom_of:
            self._true_atoms.append(var)
            asserted = self._asserted
            for v in self._lin(var).coeffs:
                asserted[v] = asserted.get(v, 0) + 1
        conflict = None
        for idx in self.cnf.occ[var if value else -var]:
            self._n_true[idx] += 1
        for idx in self.cnf.occ[-var if value else var]:
            self._n_false[idx] += 1
            if (
                conflict is None
                and self._n_false[idx] == len(self.cnf.clauses[idx])
            ):
                conflict = idx
        return conflict

    def _pop(self) -> None:
        var = self.trail.pop()
        value = self.assign.pop(var)
        del self.level_of[var]
        del self.reason[var]
        if value and var in self.cnf.atom_of:
            self._true_atoms.pop()
            self._synced = min(self._synced, len(self._true_atoms))
            asserted = self._asserted
            for v in self._lins[var].coeffs:
                if asserted[v] == 1:
                    del asserted[v]
                else:
                    asserted[v] -= 1
        for idx in self.cnf.occ[var if value else -var]:
            self._n_true[idx] -= 1
        for idx in self.cnf.occ[-var if value else var]:
            self._n_false[idx] -= 1
        self._decide_head = 0

    def _pop_to_level(self, level: int) -> None:
        while self.trail and self.level_of[self.trail[-1]] > level:
            self._pop()
        self.level = level
        self._n_true_atoms_checked = -1

    def add_clause(self, lits: list[int]) -> list[int]:
        """Add a clause mid-search, initializing its counters."""
        idx = self.cnf.add_clause(lits)
        if idx is None:
            raise AssertionError("tautological learned clause")
        self._count_new_clauses()
        return self.cnf.clauses[idx]

    def _count_new_clauses(self) -> None:
        """Initialize the counters of clauses the CNF gained since the last
        call, from the current assignment."""
        assign = self.assign
        for clause in self.cnf.clauses[len(self._n_true):]:
            n_true = n_false = 0
            for lit in clause:
                val = assign.get(abs(lit))
                if val is None:
                    continue
                if val == (lit > 0):
                    n_true += 1
                else:
                    n_false += 1
            self._n_true.append(n_true)
            self._n_false.append(n_false)

    def _violated(self, clause: list[int]) -> bool:
        assign = self.assign
        for lit in clause:
            if assign.get(lit if lit > 0 else -lit) != (lit <= 0):
                return False
        return True

    # -- propagation ----------------------------------------------------------

    def _unit_literal(self, idx: int) -> int | None:
        for lit in self.cnf.clauses[idx]:
            if abs(lit) not in self.assign:
                return lit
        return None

    def _propagate(self, pending: list[int]) -> list[int] | None:
        """Unit propagation; returns the violated clause on conflict."""
        queue = list(pending)
        while queue:
            var = queue.pop()
            value = self.assign[var]
            for idx in self.cnf.occ[-var if value else var]:
                clause = self.cnf.clauses[idx]
                if self._n_true[idx] > 0:
                    continue
                if self._n_false[idx] == len(clause):
                    return clause
                if self._n_false[idx] == len(clause) - 1:
                    lit = self._unit_literal(idx)
                    if lit is None:
                        continue
                    conflict = self._set(abs(lit), lit > 0, clause)
                    if conflict is not None:
                        return self.cnf.clauses[conflict]
                    queue.append(abs(lit))
        return None

    def _propagate_new_clauses(self) -> list[int] | None:
        """Propagate the clauses not scanned yet that are unit (all of
        them on the first call); returns a violated clause."""
        self._count_new_clauses()
        clauses = self.cnf.clauses
        start, self._scanned = self._scanned, len(clauses)
        for idx in range(start, len(clauses)):
            clause = clauses[idx]
            if self._n_true[idx] > 0:
                continue
            if self._n_false[idx] == len(clause):
                return clause
            if self._n_false[idx] == len(clause) - 1:
                lit = self._unit_literal(idx)
                if lit is None:
                    continue
                conflict = self._set(abs(lit), lit > 0, clause)
                if conflict is not None:
                    return self.cnf.clauses[conflict]
                conflict = self._propagate([abs(lit)])
                if conflict is not None:
                    return conflict
        return None

    # -- conflict analysis ----------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP clause and backjump level for a violated clause whose
        deepest literal is at the current decision level."""
        seen: set[int] = set()
        tail: list[int] = []
        counter = 0
        cur: list[int] | None = conflict
        skip_var: int | None = None
        idx = len(self.trail) - 1
        while True:
            for lit in cur:
                v = abs(lit)
                if v == skip_var or v in seen:
                    continue
                seen.add(v)
                lv = self.level_of[v]
                if lv == self.level:
                    counter += 1
                elif lv > 0:
                    tail.append(lit)
            while self.trail[idx] not in seen or self.level_of[self.trail[idx]] != self.level:
                idx -= 1
            uip = self.trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            cur = self.reason[uip]
            skip_var = uip
        uip_lit = -uip if self.assign[uip] else uip
        learned = [uip_lit] + tail
        back = max((self.level_of[abs(l)] for l in tail), default=0)
        return learned, back

    def _handle_conflict(self, clause: list[int]):
        """Learn from the conflict and backjump; _EXHAUSTED at level zero."""
        while True:
            top = max(self.level_of[abs(l)] for l in clause) if clause else 0
            if top == 0:
                return self._EXHAUSTED
            self._pop_to_level(top)
            learned, back = self._analyze(clause)
            self.add_clause(learned)
            self._pop_to_level(back)
            uip_lit = learned[0]
            conflict_idx = self._set(abs(uip_lit), uip_lit > 0, learned)
            if conflict_idx is None:
                conflict = self._propagate([abs(uip_lit)]) or self._theory_conflict()
                if conflict is None:
                    return None
                clause = conflict
            else:
                clause = self.cnf.clauses[conflict_idx]

    def _skip_blocked(self, lits: list[int]):
        """Install a blocking clause for the model just emitted and unwind
        to the deepest level where another assignment is still possible."""
        idx = self.cnf.add_clause(lits)
        if idx is None:
            raise AssertionError("tautological blocking clause")
        clause = self.cnf.clauses[idx]
        self._n_true.append(0)
        self._n_false.append(len(clause))
        levels = sorted({self.level_of[abs(l)] for l in clause}, reverse=True)
        if levels[0] == 0:
            return self._EXHAUSTED
        back = levels[1] if len(levels) > 1 else 0
        self._pop_to_level(back)
        conflict = None
        if self._n_true[idx] == 0 and self._n_false[idx] == len(clause) - 1:
            lit = self._unit_literal(idx)
            conflict_idx = self._set(abs(lit), lit > 0, clause)
            if conflict_idx is not None:
                conflict = self.cnf.clauses[conflict_idx]
            else:
                conflict = self._propagate([abs(lit)]) or self._theory_conflict()
        return conflict

    # -- theory integration ----------------------------------------------------

    def _lin(self, var: int) -> _Lin:
        lin = self._lins.get(var)
        if lin is None:
            lin = self._lins[var] = _lin_of_atom(self.cnf.atom_of[var], var)
        return lin

    def _theory_conflict(self, force: bool = False) -> list[int] | None:
        """Check the currently-true atoms; learn the core on conflict.

        Between forced checks the full consistency check runs only once per
        EAGER_BATCH newly asserted atoms.  The theory is popped back to the
        atoms still true since the last check, and only the atoms asserted
        after them are pushed.
        """
        true_atoms = self._true_atoms
        grown = len(true_atoms) - self._n_true_atoms_checked
        if grown == 0 or (not force and 0 < grown < self.EAGER_BATCH):
            return None
        self._n_true_atoms_checked = len(true_atoms)
        self.theory_checks += 1
        theory = self._theory
        theory.pop_to(self._synced)
        try:
            for var in true_atoms[len(theory):]:
                theory.push(self._lin(var))
            theory.check()
        except _TheoryConflict as exc:
            return self.add_clause([-v for v in sorted(exc.core)])
        finally:
            self._synced = len(theory)
        return None

    # -- decisions --------------------------------------------------------------

    def _next_decision(self) -> tuple[int, bool] | None:
        """The assumption, else the next important variable, else an
        argument of a pending selection."""
        lit = self._assumption
        if lit is not None and abs(lit) not in self.assign:
            return abs(lit), lit > 0
        decisions = self.cnf.decisions
        while self._decide_head < len(decisions):
            v = decisions[self._decide_head]
            if v not in self.assign:
                return v, True
            self._decide_head += 1
        asserted_vars = self._asserted.keys()
        best = None
        best_score = -1
        for idx in self.cnf.select_clauses:
            if self._n_true[idx] > 0:
                continue
            clause = self.cnf.clauses[idx]
            if self._n_false[idx] >= len(clause) - 1:
                continue  # unit or conflicting: propagation handles it
            guard = clause[0]  # the not-gate literal of the disjunction
            if self.assign.get(abs(guard)) != (guard <= 0):
                continue  # disjunction not active
            score = len(asserted_vars & self.cnf.select_vars[idx])
            if score > best_score:
                best, best_score = idx, score
        if best is None:
            return None
        for lit in self.cnf.clauses[best][1:]:
            if abs(lit) not in self.assign:
                return abs(lit), lit > 0
        return None

    def run(self, on_model) -> None:
        """Enumerate models.

        on_model returns a blocking clause (over the important variables)
        to continue the enumeration, or None to stop the search.  The
        search also ends when the assumption is false, which it can only
        be at level zero, since it is the first decision.
        """
        conflict = self._propagate_new_clauses()
        if conflict is None:
            conflict = self._theory_conflict()
        lit = self._assumption
        while True:
            if conflict is not None:
                outcome = self._handle_conflict(conflict)
                if outcome is self._EXHAUSTED:
                    return
                conflict = None
                continue
            if lit is not None and self.assign.get(abs(lit)) == (lit < 0):
                return
            decision = self._next_decision()
            if decision is not None:
                var, value = decision
                self.level += 1
                conflict_idx = self._set(var, value, None)
                if conflict_idx is not None:
                    conflict = self.cnf.clauses[conflict_idx]
                    continue
                conflict = self._propagate([var]) or self._theory_conflict(force=True)
                continue
            conflict = self._theory_conflict(force=True)
            if conflict is not None:
                continue
            blocking_lits = on_model()
            if blocking_lits is None:
                return
            outcome = self._skip_blocked(blocking_lits)
            if outcome is self._EXHAUSTED:
                return
            conflict = outcome

    def solve_under(self, lit: int | None) -> bool:
        """Whether the clauses have a model in which lit (if any) is true.

        The search restarts from level zero and decides lit first, at
        level one.  A sat answer leaves the model assigned for `model`.
        """
        # clauses added since the last call may mention variables assigned
        # above level zero; they need counters before those are popped
        self._count_new_clauses()
        self._pop_to_level(0)
        self._assumption = lit
        found = []

        def on_model() -> None:
            found.append(True)

        self.run(on_model)
        return bool(found)

    def model(self) -> dict[VariableRef, Fraction]:
        """After a sat answer: a theory witness of the true atoms."""
        return self._theory.model()

    def bools(self) -> dict[str, bool]:
        """After a sat answer: the propositional inputs' values (unassigned
        ones false)."""
        return {
            f.name: self.assign.get(v, False)
            for f, v in self.cnf.var_of_input.items()
            if isinstance(f, PropVar)
        }


class _SolverBase:
    """Query counters, entailment and close, shared by both backends."""

    def __init__(self) -> None:
        self.queries = 0
        self.theory_checks = 0

    def entails(self, a: Formula, b: Formula) -> bool:
        return not self.check_sat(f_and(a, f_not(b))).is_sat

    def close(self) -> None:
        pass


class InternalSolver(_SolverBase):
    """Self-contained DPLL(T) solver for the formula language of this package."""

    def __init__(self) -> None:
        super().__init__()
        self._memo: dict[Formula, SatResult] = {}
        # phi -> {q: phi entails q} for the q decided so far, or None if
        # phi is unsat
        self._verdicts: dict[Formula, dict[Formula, bool] | None] = {}
        self._complements: dict[Formula, Formula] = {}  # q -> normalize(not q)

    # -- public interface --------------------------------------------------

    def check_sat(self, phi: Formula) -> SatResult:
        self.queries += 1
        cached = self._memo.get(phi)
        if cached is not None:
            return cached
        res = self._solve(phi)
        self._memo[phi] = res
        return res

    def all_sat(self, phi: Formula, important: list[str]) -> list[dict[str, bool]]:
        """All total assignments over `important` extendable to a model of phi."""
        self.queries += 1
        prep = normalize(phi)
        if prep == FALSE:
            return []
        cnf = _Cnf()
        imp_vars = []
        for name in important:
            v = cnf.input_var(PropVar(name))
            cnf.mark_decision(v)
            imp_vars.append(v)
        if prep != TRUE:
            cnf.add_clause([cnf.literal(prep)])
        results: list[dict[str, bool]] = []
        dpll = _Dpll(cnf)

        def on_model() -> list[int] | None:
            assignment = {
                name: dpll.assign.get(v, False) for name, v in zip(important, imp_vars)
            }
            results.append(assignment)
            if not imp_vars:
                return None
            return [
                -v if assignment[name] else v for name, v in zip(important, imp_vars)
            ]

        dpll.run(on_model)
        self.theory_checks += dpll.theory_checks
        return results

    def entailed(self, phi: Formula, qs) -> list[bool] | None:
        """None if phi is unsat, else for each q of qs whether phi entails q.

        Counts the queries of check_sat(phi) and one entails(phi, q) per q.
        Verdicts are memoized per (phi, q).  The undecided ones share one
        CNF of phi: a complement of q that the first model of phi satisfies
        is not entailed, and each other one is decided under an assumption
        literal.
        """
        self.queries += 1
        known = self._verdicts.get(phi, {})
        if known is None:
            return None
        todo = [q for q in qs if q not in known]
        if todo or phi not in self._verdicts:
            is_sat = self._decide(phi, todo, known)
            self._verdicts[phi] = known if is_sat else None
            if not is_sat:
                return None
        self.queries += len(qs)
        return [known[q] for q in qs]

    # -- internals ----------------------------------------------------------

    def _decide(self, phi: Formula, qs, known: dict[Formula, bool]) -> bool:
        """Whether phi is sat; if so, record in known whether it entails
        each q of qs."""
        prep = normalize(phi)
        if prep == FALSE:
            return False
        cnf = _Cnf()
        if prep != TRUE:
            cnf.add_clause([cnf.literal(prep)])
        dpll = _Dpll(cnf)
        try:
            if not dpll.solve_under(None):
                return False
            if qs:
                env, bools = dpll.model(), dpll.bools()
            for q in qs:
                nq = self._complements.get(q)
                if nq is None:
                    nq = self._complements[q] = normalize(f_not(q))
                # a model of phi that satisfies the complement refutes q; it
                # must be the normalized complement, not q itself: at x = 1/2,
                # `x <= 0` is false, but its integer complement `x >= 1` is
                # false too, and phi can still entail `x <= 0`
                known[q] = not (_satisfies(nq, env, bools)
                                or dpll.solve_under(cnf.literal(nq)))
            return True
        finally:
            self.theory_checks += dpll.theory_checks

    def _solve(self, phi: Formula) -> SatResult:
        prep = normalize(phi)
        if prep == TRUE:
            return sat(model={v: Fraction(0) for v in variables(phi)})
        if prep == FALSE:
            return UNSAT
        lits = _literal_conjunction(prep)
        if lits is not None:
            atoms, pos, neg = lits
            if pos & neg:
                return UNSAT
            self.theory_checks += 1
            res = theory_check(atoms)
            if not res.is_sat:
                return UNSAT
            return self._fill(phi, res.model, {n: True for n in pos} | {n: False for n in neg})
        cnf = _Cnf()
        cnf.add_clause([cnf.literal(prep)])
        dpll = _Dpll(cnf)
        found = dpll.solve_under(None)
        self.theory_checks += dpll.theory_checks
        if not found:
            return UNSAT
        # the witness is solved from scratch over the final true atoms in
        # input order, independent of the order the search asserted them
        env = _solve_lin([
            _lin_of_atom(a, v) for v, a in cnf.atom_of.items() if dpll.assign.get(v)
        ])
        return self._fill(phi, env, dpll.bools())

    @staticmethod
    def _fill(phi: Formula, env: dict[VariableRef, Fraction], bools) -> SatResult:
        model = dict(env)
        for v in variables(phi):
            model.setdefault(v, Fraction(0))
        return sat(model=model, bools=bools)


def _satisfies(f: Formula, env: dict[VariableRef, Fraction],
               bools: dict[str, bool]) -> bool:
    """Whether f holds in a model that leaves out some variables: missing
    arithmetic ones are 0 and missing propositional ones false."""
    return evaluate(f, env, {n: bools.get(n, False) for n in propvars(f)})


def _literal_conjunction(prep: Formula):
    """If prep is a conjunction of atoms / propvar literals, split it."""
    parts = prep.args if isinstance(prep, And) else (prep,)
    atoms: list[Atom] = []
    pos: set[str] = set()
    neg: set[str] = set()
    for p in parts:
        if isinstance(p, Atom):
            atoms.append(p)
        elif isinstance(p, PropVar):
            pos.add(p.name)
        elif isinstance(p, Not) and isinstance(p.arg, PropVar):
            neg.add(p.arg.name)
        else:
            return None
    return atoms, pos, neg


# ---------------------------------------------------------------------------
# external backend: SMT-LIB2 over a solver process
# ---------------------------------------------------------------------------

def make_solver(backend: str | None = None):
    """The internal engine, or an SMT-LIB2 process started with `backend`."""
    if backend is None or backend == "internal":
        return InternalSolver()
    return Smtlib2Solver(backend)


def _smt_symbol(v: VariableRef) -> str:
    return f"|{v}|"


def _smt_int(n: int) -> str:
    return str(n) if n >= 0 else f"(- {-n})"


def _smt_term(t) -> str:
    parts = []
    for v, c in t.coeffs:
        sym = _smt_symbol(v)
        parts.append(sym if c == 1 else f"(* {_smt_int(c)} {sym})")
    if t.const != 0 or not parts:
        parts.append(_smt_int(t.const))
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def _smt_formula(f: Formula) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, PropVar):
        return f"|{f.name}|"
    if isinstance(f, Atom):
        op = "=" if f.rel == EQ else "<="
        return f"({op} {_smt_term(f.term)} 0)"
    if isinstance(f, Not):
        return f"(not {_smt_formula(f.arg)})"
    if isinstance(f, And):
        return "(and " + " ".join(_smt_formula(a) for a in f.args) + ")"
    if isinstance(f, Or):
        return "(or " + " ".join(_smt_formula(a) for a in f.args) + ")"
    raise TypeError(f"not a formula: {f!r}")


class Smtlib2Solver(_SolverBase):
    """Session with an external SMT-LIB2 solver process (logic QF_LRA).

    The process is spawned lazily and kept for the lifetime of the object;
    each query runs inside a push/pop frame.  Formulas are normalized with
    the same literal rewriting as the internal engine before emission.
    """

    def __init__(self, command: str | list[str]) -> None:
        super().__init__()
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.proc: subprocess.Popen | None = None
        self._declared: set[str] = set()

    def _start(self) -> None:
        if self.proc is not None:
            return
        self.proc = subprocess.Popen(
            self.command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self._send("(set-option :print-success false)")
        self._send("(set-logic QF_LRA)")

    def _send(self, line: str) -> None:
        assert self.proc and self.proc.stdin
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def _read_sexpr(self) -> str:
        assert self.proc and self.proc.stdout
        buf = []
        depth = 0
        started = False
        while True:
            ch = self.proc.stdout.read(1)
            if ch == "":
                raise RuntimeError("solver process closed its output")
            if not started and ch.isspace():
                continue
            started = True
            buf.append(ch)
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return "".join(buf)
            elif depth == 0 and ch == "\n":
                return "".join(buf).strip()
            elif depth == 0 and not ch.isspace():
                # bare word reply such as `sat`
                rest = self.proc.stdout.readline()
                return ("".join(buf) + rest).strip()

    def _declare(self, phi: Formula) -> None:
        for v in sorted(variables(phi), key=var_sort_key):
            sym = _smt_symbol(v)
            if sym not in self._declared:
                self._declared.add(sym)
                self._send(f"(declare-fun {sym} () Real)")
        for name in sorted(propvars(phi)):
            sym = f"|{name}|"
            if sym not in self._declared:
                self._declared.add(sym)
                self._send(f"(declare-fun {sym} () Bool)")

    def _is_sat(self) -> bool:
        self._send("(check-sat)")
        verdict = self._read_sexpr()
        if verdict not in ("sat", "unsat"):
            raise RuntimeError(f"unexpected solver reply: {verdict!r}")
        return verdict == "sat"

    def _model(self, prep: Formula):
        """The values of prep's variables after a sat answer."""
        arith = sorted(variables(prep), key=var_sort_key)
        bools = sorted(propvars(prep))
        model: dict[VariableRef, Fraction] = {}
        bvals: dict[str, bool] = {}
        if arith or bools:
            syms = [_smt_symbol(v) for v in arith] + [f"|{b}|" for b in bools]
            self._send(f"(get-value ({' '.join(syms)}))")
            reply = self._read_sexpr()
            values = _parse_value_reply(reply)
            for v, sym in zip(arith, syms[: len(arith)]):
                model[v] = _parse_rational(values[_unquote(sym)])
            for b in bools:
                bvals[b] = values[b] in ("true",)
        return model, bvals

    def check_sat(self, phi: Formula) -> SatResult:
        self.queries += 1
        self._start()
        prep = normalize(phi)
        self._declare(prep)
        self._send("(push 1)")
        try:
            self._send(f"(assert {_smt_formula(prep)})")
            if not self._is_sat():
                return UNSAT
            model, bvals = self._model(prep)
        finally:
            self._send("(pop 1)")
        for v in variables(phi):
            model.setdefault(v, Fraction(0))
        return sat(model=model, bools=bvals)

    def entailed(self, phi: Formula, qs) -> list[bool] | None:
        """None if phi is unsat, else for each q of qs whether phi entails q.

        Counts the queries of check_sat(phi) and one entails(phi, q) per q.
        phi is asserted once; each complement of q that phi's model does
        not satisfy is checked in a nested frame.
        """
        self.queries += 1
        self._start()
        prep = normalize(phi)
        nqs = [normalize(f_not(q)) for q in qs]
        for f in (prep, *nqs):
            self._declare(f)
        self._send("(push 1)")
        try:
            self._send(f"(assert {_smt_formula(prep)})")
            if not self._is_sat():
                return None
            env, bools = self._model(prep)
            self.queries += len(qs)
            out = []
            for nq in nqs:
                # the complement, not q: see InternalSolver._decide
                if _satisfies(nq, env, bools):
                    out.append(False)
                    continue
                self._send("(push 1)")
                self._send(f"(assert {_smt_formula(nq)})")
                try:
                    out.append(not self._is_sat())
                finally:
                    self._send("(pop 1)")
            return out
        finally:
            self._send("(pop 1)")

    def all_sat(self, phi: Formula, important: list[str]) -> list[dict[str, bool]]:
        self.queries += 1
        self._start()
        prep = normalize(phi)
        if prep == FALSE:
            return []
        for name in important:
            sym = f"|{name}|"
            if sym not in self._declared:
                self._declared.add(sym)
                self._send(f"(declare-fun {sym} () Bool)")
        self._declare(prep)
        self._send("(push 1)")
        if prep != TRUE:
            self._send(f"(assert {_smt_formula(prep)})")
        results: list[dict[str, bool]] = []
        syms = [f"|{n}|" for n in important]
        while True:
            self._send("(check-sat)")
            verdict = self._read_sexpr()
            if verdict == "unsat":
                break
            if verdict != "sat":
                raise RuntimeError(f"unexpected solver reply: {verdict!r}")
            if not important:
                results.append({})
                break
            self._send(f"(get-value ({' '.join(syms)}))")
            values = _parse_value_reply(self._read_sexpr())
            assignment = {n: values[n] == "true" for n in important}
            results.append(assignment)
            lits = [
                f"(not {s})" if assignment[n] else s for n, s in zip(important, syms)
            ]
            self._send(f"(assert (or {' '.join(lits)}))")
        self._send("(pop 1)")
        return results

    def close(self) -> None:
        if self.proc is not None:
            try:
                self._send("(exit)")
            except Exception:
                pass
            self.proc.terminate()
            self.proc.wait(timeout=5)
            self.proc = None


def _unquote(sym: str) -> str:
    return sym[1:-1] if sym.startswith("|") and sym.endswith("|") else sym


def _tokenize_sexpr(text: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "()":
            out.append(ch)
            i += 1
        elif ch == "|":
            j = text.index("|", i + 1)
            out.append(text[i : j + 1])
            i = j + 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def _parse_value_reply(reply: str) -> dict[str, str]:
    """Parse ((sym val) (sym val) ...) into {name: flat value string}."""
    tokens = _tokenize_sexpr(reply)

    def read(pos):
        if tokens[pos] == "(":
            items = []
            pos += 1
            while tokens[pos] != ")":
                item, pos = read(pos)
                items.append(item)
            return items, pos + 1
        return tokens[pos], pos + 1

    tree, _ = read(0)
    out: dict[str, str] = {}
    for pair in tree:
        name = _unquote(pair[0])
        out[name] = _flatten(pair[1])
    return out


def _flatten(node) -> str:
    if isinstance(node, str):
        return node
    return "(" + " ".join(_flatten(n) for n in node) + ")"


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1].strip()
        if inner.startswith("- "):
            return -_parse_rational(inner[2:])
        if inner.startswith("/ "):
            a, b = inner[2:].split(None, 1)
            return _parse_rational(a) / _parse_rational(b)
        raise ValueError(f"cannot parse rational {text!r}")
    return Fraction(text)
