"""Satisfiability, entailment, and AllSAT for quantifier-free linear formulas.

The internal engine searches the propositional skeleton of a formula
(Tseitin CNF, CDCL with first-UIP backjumping) and keeps the atoms the
search asserts in a backtrackable theory over the rationals: equalities are
solved into a substitution map as they are asserted, inequalities are
decided by Fourier-Motzkin, and backjumps pop the theory with the trail.
An equality that fixes a variable propagates: the atoms over fixed
variables only are assigned from the fixed values, each with a lemma.
The theory's rows are primitive integer vectors combined fraction-free
and scaled only by positive factors, which is exact over Q; rationals are
built only for a witness.  `project` runs the same substitution and
Fourier-Motzkin over a chosen set of variables only, which existentially
eliminates them from a conjunction over Q.  `normalize` pushes negations
to the atoms and folds each negated atom into its integer-exact
complement from the formula module, so the theory layer only ever sees
conjunctions of canonical atoms; it and the Tseitin encoding walk
formulas iteratively, at any depth.  Theory conflicts are turned into
clauses over the conflicting atoms, which keeps enumeration on heavily
disjunctive inputs polynomial in practice.

The solver keeps one theory across calls and syncs it to each cube (a
conjunction of atoms) it checks: popped to the longest prefix it shares
with the cube, then the rest pushed.  One generator yields the
satisfiable cubes of a formula there, for `check_sat`'s one-cube case,
`entailed` and `valuations`; a search's witness is solved there too,
over its final true atoms in input order.  One constructor builds every
search session.  `entailed` decides which of several predicates a
formula entails.  When the formula splits into a few cubes and each
complement is a disjunction of atoms, as in every Cartesian post, it
asks that theory alone, so posts that share the incoming state re-push
little more than the operation's atoms; each atom of a complement is
pushed on top, checked and popped, unless the cube has the predicate
itself as an atom.  Otherwise one search session builds the formula's
CNF once and assumes each predicate's complement in turn, keeping what
earlier answers learned.  `valuations` lists every valuation of several
predicates that a formula allows.  When the formula splits into a few
cubes and every predicate is an atom, as in nearly every Boolean post,
it extends each cube in that theory depth first, one predicate per
level.  With no predicates, as in a Boolean post over an empty
precision, a formula of more cubes is satisfiable if its first cube is,
and that cube alone is checked there.  Otherwise, or when that cube is
unsatisfiable, it asks `all_sat` with each predicate tied to a
propositional variable.  The solver keeps one `normalize` memo, so a
formula it met before is not normalized again.

An SMT-LIB2 process backend, in `lbemc.smtlib`, is the alternative that
`make_solver` loads on first use.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from math import ceil, floor, gcd
from operator import is_

from .formula import (
    And,
    Atom,
    EQ,
    FALSE,
    FalseF,
    Formula,
    LE,
    Not,
    Or,
    PropVar,
    TRUE,
    Term,
    TrueF,
    VariableRef,
    evaluate,
    f_and,
    f_iff,
    f_not,
    f_or,
    _postorder,
    negate_atom,
    propvars,
    var_sort_key,
    variables,
)
from .record import Record


class SatResult(Record):
    __slots__ = _fields = ("status", "model", "bools")

    def __init__(self, status: str, model: dict[VariableRef, Fraction] | None = None,
                 bools: dict[str, bool] | None = None) -> None:
        self.status = status  # "sat" | "unsat"
        self.model, self.bools = model, bools

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


def sat(model=None, bools=None) -> SatResult:
    return SatResult("sat", model or {}, bools or {})


UNSAT = SatResult("unsat")


# ---------------------------------------------------------------------------
# theory: conjunctions of canonical atoms, Fourier-Motzkin over Q
# ---------------------------------------------------------------------------

class _Lin(Record):
    """sum(coeffs) + const  (= 0 | <= 0), with input-atom origins for cores.

    The coefficients and the constant are integers with gcd 1.  A derived
    row is a positive multiple of the rational combination it stands for,
    so it has that combination's meaning over the rationals.
    """

    __slots__ = ("coeffs", "const", "is_eq", "origins", "_key")
    _fields = ("coeffs", "const", "is_eq", "origins")

    def __init__(self, coeffs: dict[VariableRef, int], const: int, is_eq: bool,
                 origins: frozenset[int], key=None) -> None:
        self.coeffs, self.const, self.is_eq, self.origins = coeffs, const, is_eq, origins
        self._key = key

    def key(self):
        """The row's `_key`, computed on the first call."""
        k = self._key
        if k is None:
            k = self._key = _key(self.is_eq, self.coeffs, self.const)
        return k


def _key(is_eq: bool, coeffs: dict[VariableRef, int], const: int):
    """Dedup identity of a row; a primitive row needs no normalization."""
    return (is_eq, frozenset(coeffs.items()), const)


def _lin_of_atom(atom: Atom, origin: int) -> _Lin:
    # canonical atoms are primitive already
    return _Lin(dict(atom.term.coeffs), atom.term.const, atom.rel == EQ, frozenset([origin]))


def _atom_of_lin(c: _Lin) -> Atom:
    """The atom of a non-constant row, the inverse of `_lin_of_atom`.

    Built as it is, without `canon_le`: its integer tightening would turn
    `2x - 1 <= 0` into `x <= 0` and lose the row's rational meaning.  An
    equality is signed with a positive first coefficient, as canonical ones
    are.
    """
    term = Term.of(c.const, c.coeffs)
    if c.is_eq and term.coeffs[0][1] < 0:
        term = -term
    return Atom(EQ if c.is_eq else LE, term)


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


def _substitute(c: _Lin, v: VariableRef, eq: _Lin) -> tuple[_Lin, int, int]:
    """Eliminate v from c with the equality eq: |a|*c - sign(a)*b*eq made
    primitive, where a is v's coefficient in eq and b its coefficient in c.

    Also returns m, g > 0 such that the row is m/g times the rational
    substitution c - (b/a)*eq.
    """
    b = c.coeffs.get(v)
    if b is None:
        return c, 1, 1
    m = eq.coeffs[v]
    if m < 0:
        m, b = -m, -b
    coeffs = {w: m * cw for w, cw in c.coeffs.items() if w != v}
    const = m * c.const - b * eq.const
    for w, ew in eq.coeffs.items():
        if w != v:
            x = coeffs.get(w, 0) - b * ew
            if x:
                coeffs[w] = x
            else:
                del coeffs[w]
    g = gcd(const, *coeffs.values())
    if g > 1:
        coeffs = {w: cw // g for w, cw in coeffs.items()}
        const //= g
    return _Lin(coeffs, const, c.is_eq, c.origins | eq.origins), m, g


class _LinTheory:
    """Backtrackable conjunction of linear constraints over the rationals.

    Constraints are pushed one at a time and popped back to any earlier
    length (Dutertre & de Moura, CAV 2006).  Each equality is reduced by
    the substitutions before it and then solved for one of its variables
    (a unit coefficient of the rational reduction first, in variable
    order), giving a triangular substitution map: the row of an eliminated
    variable mentions only variables eliminated after it, so an entry stays
    valid when later ones are popped.  An equality that reduces to
    `0 = c != 0` is refused on push.  Inequalities are only recorded;
    `check` reduces them and runs Fourier-Motzkin over the result.  Every
    pushed constraint has one undo record, so pop costs are proportional to
    what is popped.

    Rows are primitive integer vectors, combined fraction-free (Bareiss,
    Math. Comp. 1968) and scaled only by positive factors, which keeps
    every verdict exact over Q; rationals appear only in `model` and in
    the fixed values.

    An equality whose reduced row has one variable fixes that variable:
    `fixed` maps it, in push order, to its value and the origins of the
    row, which entail the value.  Popping the equality undoes the record.
    The search reads the records to decide the atoms over fixed variables
    without a theory check.
    """

    _INEQ = object()  # undo record of a pushed inequality

    def __init__(self) -> None:
        # eliminated variable -> (elimination rank, reduced equality row)
        self._subst: dict[VariableRef, tuple[int, _Lin]] = {}
        self._order: list[VariableRef] = []
        self._ineqs: list[_Lin] = []
        self._undo: list = []  # eliminated variable, _INEQ, or None (redundant)
        # fixed variable -> (value, origins of the row that fixed it)
        self.fixed: dict[VariableRef, tuple[int | Fraction, frozenset[int]]] = {}

    def __len__(self) -> int:
        return len(self._undo)

    def push(self, c: _Lin) -> None:
        """Assert c; raises _TheoryConflict, leaving the state unchanged, when
        c is an equality that contradicts the equalities before it."""
        if not c.is_eq:
            self._ineqs.append(c)
            self._undo.append(self._INEQ)
            return
        c, p, q = self._reduce(c)
        if _const_check(c):
            self._undo.append(None)
            return
        # c is p/q times the rational reduction, whose unit coefficients
        # are the ones with |coefficient| * q == p
        vs = sorted(c.coeffs, key=var_sort_key)
        v = next((w for w in vs if abs(c.coeffs[w]) * q == p), vs[0])
        self._subst[v] = (len(self._order), c)
        self._order.append(v)
        self._undo.append(v)
        if len(c.coeffs) == 1:
            a = c.coeffs[v]
            value = Fraction(-c.const, a) if c.const % a else -c.const // a
            self.fixed[v] = (value, c.origins)

    def pop_to(self, n: int) -> None:
        while len(self._undo) > n:
            rec = self._undo.pop()
            if rec is self._INEQ:
                self._ineqs.pop()
            elif rec is not None:
                del self._subst[rec]
                self._order.pop()
                self.fixed.pop(rec, None)

    def _reduce(self, c: _Lin) -> tuple[_Lin, int, int]:
        """Substitute eliminated variables in elimination order.  Also
        returns p, q > 0 such that the row is p/q times the same reduction
        done in rational arithmetic."""
        subst = self._subst
        if subst.keys().isdisjoint(c.coeffs):
            return c, 1, 1
        p = q = 1
        while True:
            ranked = [(subst[w][0], w) for w in c.coeffs if w in subst]
            if not ranked:
                return c, p, q
            _, v = min(ranked)
            c, m, g = _substitute(c, v, subst[v][1])
            p, q = p * m, q * g
            r = gcd(p, q)
            p, q = p // r, q // r

    def check(self) -> list[tuple[VariableRef, list[_Lin]]]:
        """Fourier-Motzkin levels of the reduced inequalities; raises
        _TheoryConflict with a core if the constraints are unsatisfiable."""
        reduced = []
        for c in self._ineqs:
            c = self._reduce(c)[0]
            if not _const_check(c):
                reduced.append(c)
        levels: list[tuple[VariableRef, list[_Lin]]] = []
        _fourier_motzkin(reduced, None, levels)
        return levels

    def model(self, levels) -> dict[VariableRef, Fraction]:
        """A witness from `levels`, what `check` returned on the constraints
        held now: the FM levels solved backwards, then the substitutions."""
        env: dict[VariableRef, Fraction] = {}
        for v, with_v in reversed(levels):
            lo = hi = None
            for c in with_v:
                a = c.coeffs[v]
                bound = Fraction(-_rest_value(c, v, env), a)
                if a > 0:
                    hi = bound if hi is None else min(hi, bound)
                else:
                    lo = bound if lo is None else max(lo, bound)
            env[v] = _pick_value(lo, hi)
        for v in reversed(self._order):
            eq = self._subst[v][1]
            env[v] = Fraction(-_rest_value(eq, v, env), eq.coeffs[v])
        return env


def _rest_value(c: _Lin, v: VariableRef, env: dict[VariableRef, Fraction]):
    """The value of c without its v term; variables missing from env are 0."""
    total = c.const
    for w, cw in c.coeffs.items():
        if w != v and w in env:
            total += cw * env[w]
    return total


def _fourier_motzkin(ineqs: list[_Lin], elim: set[VariableRef] | None,
                     levels: list | None = None) -> list[_Lin]:
    """Eliminate the variables of `ineqs` (all `<= 0`, none constant) that
    are in the set `elim`, or all of them if it is None, in variable order;
    returns the rows left, free of them.

    When `levels` is a list, one level per eliminated variable is appended
    to it: the constraints mentioning it when it was eliminated, from which
    a model is solved backwards.  Raises _TheoryConflict when a
    contradiction `0 < c <= 0` is derived.  The combination of an upper
    bound a*v + ... and a lower bound b*v + ... (a > 0 > b) is -b times the
    first plus a times the second, made primitive.
    """
    cur = []
    seen = set()
    for c in ineqs:
        k = c.key()
        if k not in seen:
            seen.add(k)
            cur.append(c)

    names = {v for c in cur for v in c.coeffs}
    if elim is not None:
        names &= elim
    for v in sorted(names, key=var_sort_key):
        with_v = [c for c in cur if v in c.coeffs]
        rest = [c for c in cur if v not in c.coeffs]
        uppers = [c for c in with_v if c.coeffs[v] > 0]
        lowers = [c for c in with_v if c.coeffs[v] < 0]
        if levels is not None:
            levels.append((v, with_v))
        derived = []
        seen = {c.key() for c in rest}
        for up in uppers:
            a = up.coeffs[v]
            for lo in lowers:
                nb = -lo.coeffs[v]
                coeffs = {w: cw * nb for w, cw in up.coeffs.items() if w != v}
                for w, cw in lo.coeffs.items():
                    if w != v:
                        x = coeffs.get(w, 0) + cw * a
                        if x:
                            coeffs[w] = x
                        else:
                            del coeffs[w]
                const = up.const * nb + lo.const * a
                if not coeffs:
                    if const > 0:
                        raise _TheoryConflict(up.origins | lo.origins)
                    continue
                g = gcd(const, *coeffs.values())
                if g > 1:
                    coeffs = {w: cw // g for w, cw in coeffs.items()}
                    const //= g
                k = _key(False, coeffs, const)
                if k not in seen:
                    seen.add(k)
                    derived.append(_Lin(coeffs, const, False, up.origins | lo.origins, k))
        cur = rest + derived
    return cur


def project(rows: list[_Lin], targets: set[VariableRef]) -> list[_Lin]:
    """Rows free of the variables in the set `targets` whose conjunction is
    equivalent over the rationals to the conjunction of `rows` with the
    targets existentially quantified; raises _TheoryConflict when `rows`
    are unsatisfiable.

    Each equality that has a target is solved for one (a unit coefficient
    first, in variable order) and substituted into the rows after it;
    Fourier-Motzkin then eliminates the targets left in the inequalities.
    """
    eqs = [c for c in rows if c.is_eq]
    ineqs = [c for c in rows if not c.is_eq]
    kept = []
    while eqs:
        eq = eqs.pop(0)
        if _const_check(eq):
            continue
        vs = sorted((v for v in eq.coeffs if v in targets), key=var_sort_key)
        if not vs:
            kept.append(eq)
            continue
        v = next((w for w in vs if abs(eq.coeffs[w]) == 1), vs[0])
        eqs = [_substitute(c, v, eq)[0] for c in eqs]
        ineqs = [_substitute(c, v, eq)[0] for c in ineqs]
    ineqs = [c for c in ineqs if not _const_check(c)]
    return kept + _fourier_motzkin(ineqs, targets)


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


# ---------------------------------------------------------------------------
# preprocessing: negations pushed to the atoms and folded into them
# ---------------------------------------------------------------------------

def _polar_args(node: tuple[Formula, bool]) -> tuple[tuple[Formula, bool], ...]:
    g, neg = node
    if isinstance(g, Not):
        return ((g.arg, not neg),)
    if isinstance(g, (And, Or)):
        return tuple((a, neg) for a in g.args)
    return ()


def normalize(f: Formula, memo: dict | None = None) -> Formula:
    """The form both solver backends decide: negations pushed inward (NNF)
    and a negated atom rewritten to its integer-exact complement, so Not
    survives only on propositional variables.

    One pass over the (subformula, negated) pairs of f, each rewritten
    once, so shared subformulas stay shared, and a node that nothing below
    it changed is kept itself.  `memo`, a dict a caller may keep across
    calls, maps (id, negated) of each subformula rewritten so far, and of
    each result as its own normal form, to the subformula and its result;
    a formula met before, or normalized, then costs one lookup.
    """
    if not isinstance(f, (Not, And, Or)):
        return f
    if memo is None:
        memo = {}
    else:
        done = memo.get((id(f), False))
        if done is not None:
            return done[1]

    def key(node: tuple[Formula, bool]) -> tuple[int, bool]:
        return id(node[0]), node[1]

    def todo(node: tuple[Formula, bool]) -> tuple[tuple[Formula, bool], ...]:
        return () if key(node) in memo else _polar_args(node)

    for node in _postorder((f, False), todo, key):
        if key(node) in memo:
            continue
        g, neg = node
        if isinstance(g, Atom):
            r = negate_atom(g) if neg else g
        elif not isinstance(g, (Not, And, Or)):  # a propositional variable or constant
            r = f_not(g) if neg else g
        elif isinstance(g, Not):
            r = g if not neg and isinstance(g.arg, PropVar) else memo[id(g.arg), not neg][1]
        else:
            parts = [memo[id(a), neg][1] for a in g.args]
            if not neg and all(map(is_, parts, g.args)):
                r = g
            else:
                r = (f_and if isinstance(g, And) != neg else f_or)(*parts)
        # the entries hold the objects whose ids key them, so no id is reused
        memo[id(g), neg] = (g, r)
        memo.setdefault((id(r), False), (r, r))
    return memo[id(f), False][1]


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

    `select_guard` maps each disjunction's gate to its selection clause,
    for the active set `_Dpll` maintains; `atoms_of` indexes the atoms by
    arithmetic variable, for theory propagation.
    """

    def __init__(self) -> None:
        self.nvars = 0
        self.clauses: list[list[int]] = []
        self.sizes: list[int] = []  # the length of each clause
        self.occ: dict[int, list[int]] = {}  # signed literal -> clause indices
        self.atom_of: dict[int, Atom] = {}
        self.atoms_of: dict[VariableRef, list[int]] = {}  # variable -> atom vars
        self.var_of_input: dict[Formula, int] = {}
        self.decisions: list[int] = []  # important vars, decided first
        self.select_guard: dict[int, int] = {}  # gate -> its selection clause
        self._gate: dict[Formula, int] = {}
        self._const_true: int | None = None

    def new_var(self) -> int:
        self.nvars += 1
        self.occ[self.nvars] = []
        self.occ[-self.nvars] = []
        return self.nvars

    def add_clause(self, lits: list[int]) -> int | None:
        """Record the clause of lits, without repeats, in first-occurrence
        order; None (and nothing recorded) if it is a tautology."""
        if len(lits) == 2:  # most Tseitin clauses: no set needed
            a, b = lits
            if a == -b:
                return None
            out = [a] if a == b else [a, b]
        else:
            out = []
            seen: set[int] = set()
            for lit in lits:
                if -lit in seen:
                    return None
                if lit not in seen:
                    seen.add(lit)
                    out.append(lit)
        idx = len(self.clauses)
        self.clauses.append(out)
        self.sizes.append(len(out))
        occ = self.occ
        for lit in out:
            occ[lit].append(idx)
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
                for x, _ in f.term.coeffs:
                    self.atoms_of.setdefault(x, []).append(v)
        return v

    def literal(self, f: Formula) -> int:
        """The literal of a normalized formula.  Its gates are encoded in
        the post-order of a recursive walk that stops at every node with a
        gate, so the variables and clauses are numbered as that walk
        would number them."""
        lits: dict[int, int] = {}

        def unencoded(h: Formula) -> tuple[Formula, ...]:
            return h.args if isinstance(h, (And, Or)) and h not in self._gate else ()

        for h in _postorder(f, unencoded):
            if isinstance(h, TrueF):
                lit = self.true_lit()
            elif isinstance(h, FalseF):
                lit = -self.true_lit()
            elif isinstance(h, Not):
                lit = -self.input_var(h.arg)
            elif not isinstance(h, (And, Or)):
                lit = self.input_var(h)
            elif h in self._gate:
                lit = self._gate[h]
            else:
                args = [lits[id(a)] for a in h.args]
                g = self.new_var()
                if isinstance(h, And):
                    for a in args:
                        self.add_clause([-g, a])
                    self.add_clause([g] + [-a for a in args])
                else:
                    for a in args:
                        self.add_clause([g, -a])
                    idx = self.add_clause([-g] + args)
                    if idx is not None:
                        self.select_guard[g] = idx
                lit = self._gate[h] = g
            lits[id(h)] = lit
        return lits[id(f)]

    def true_lit(self) -> int:
        if self._const_true is None:
            self._const_true = self.new_var()
            self.add_clause([self._const_true])
        return self._const_true


class _Dpll:
    """CDCL search over the clause database.

    Decisions assign the AllSAT-important variables first, then pick an
    argument of the pending selection clause with the lowest index, so
    selections are decided in the order their disjunctions were encoded;
    the theory propagation below keeps the search off the branches that
    the asserted equalities contradict.  Once nothing is pending, every
    remaining clause is satisfied by leaving its unassigned variables
    false.  Theory consistency of the asserted atoms is checked eagerly
    (batched); a theory conflict contributes its contradiction core as a
    conflict clause.  Conflicts are resolved to a first-unique-implication
    -point clause and the search backjumps non-chronologically; satisfying
    assignments are excluded with blocking clauses, which makes the
    enumeration complete.

    The true atoms are kept in trail order and mirrored by a _LinTheory,
    so a theory check pushes only the atoms asserted since the last one,
    after popping those the search has retracted.  The selection clauses
    whose gate is true are kept in a set as gates are assigned and popped,
    so a decision looks at those clauses only.

    After each theory check that finds no conflict, the atoms the asserted
    equalities decide are propagated (Nieuwenhuis, Oliveras & Tinelli,
    JACM 2006): through an index of the atoms by arithmetic variable, every
    unassigned atom whose variables the theory has all fixed is evaluated
    from the fixed values and assigned, with the lemma `[implied literal] +
    [-origin ...]` added to the CNF as its reason, so unit propagation
    re-derives it after a backjump and a branch that contradicts the
    equalities is never decided.  When the check before a model implies
    anything, the search returns to the decision step instead.

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
        self.decisions = 0
        self.conflicts = 0
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
        self._active: set[int] = set()  # selection clauses whose gate is true
        # the first _n_implied fixed variables of the theory have had their
        # atoms implied
        self._n_implied = 0

    # -- assignment bookkeeping ---------------------------------------------

    def _set(self, var: int, value: bool, reason: list[int] | None) -> int | None:
        """Assign and update clause counters; returns a violated clause index."""
        self.assign[var] = value
        self.level_of[var] = self.level
        self.reason[var] = reason
        self.trail.append(var)
        cnf = self.cnf
        if value:
            if var in cnf.atom_of:
                self._true_atoms.append(var)
            else:
                idx = cnf.select_guard.get(var)
                if idx is not None:
                    self._active.add(idx)
            lit = var
        else:
            lit = -var
        occ, n_true, n_false, sizes = cnf.occ, self._n_true, self._n_false, cnf.sizes
        for idx in occ[lit]:
            n_true[idx] += 1
        conflict = None
        for idx in occ[-lit]:
            n_false[idx] += 1
            if conflict is None and n_false[idx] == sizes[idx]:
                conflict = idx
        return conflict

    def _pop(self) -> None:
        var = self.trail.pop()
        value = self.assign.pop(var)
        del self.level_of[var]
        del self.reason[var]
        cnf = self.cnf
        if value:
            if var in cnf.atom_of:
                self._true_atoms.pop()
                self._synced = min(self._synced, len(self._true_atoms))
            else:
                self._active.discard(cnf.select_guard.get(var))
            lit = var
        else:
            lit = -var
        occ, n_true, n_false = cnf.occ, self._n_true, self._n_false
        for idx in occ[lit]:
            n_true[idx] -= 1
        for idx in occ[-lit]:
            n_false[idx] -= 1
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
            raise AssertionError("tautological clause added mid-search")
        self._count_new_clauses()
        return self.cnf.clauses[idx]

    def _count_new_clauses(self) -> None:
        """Initialize the counters of clauses the CNF gained since the last
        call, from the current assignment.  Must run before the assignment
        changes after the CNF grows."""
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

    # -- propagation ----------------------------------------------------------

    def _unit_literal(self, idx: int) -> int:
        """The unassigned literal of a clause with no true literal and all
        others false: there is one, since `_Cnf.add_clause` drops repeats."""
        for lit in self.cnf.clauses[idx]:
            if abs(lit) not in self.assign:
                return lit

    def _assign_and_propagate(self, lit: int, reason: list[int] | None) -> list[int] | None:
        """Assign lit, with the clause that forces it as its reason (None
        for a decision), then propagate; returns a violated clause."""
        conflict_idx = self._set(abs(lit), lit > 0, reason)
        if conflict_idx is not None:
            return self.cnf.clauses[conflict_idx]
        return self._propagate([abs(lit)])

    def _propagate(self, pending: list[int]) -> list[int] | None:
        """Unit propagation of the assigned variables pending; returns the
        violated clause on conflict.  No clause is violated on entry: each
        `_set` returns the first clause it violates, and its caller stops."""
        queue = list(pending)
        assign, cnf = self.assign, self.cnf
        occ, clauses, sizes = cnf.occ, cnf.clauses, cnf.sizes
        n_true, n_false = self._n_true, self._n_false
        while queue:
            var = queue.pop()
            for idx in occ[-var if assign[var] else var]:
                if not n_true[idx] and n_false[idx] == sizes[idx] - 1:
                    lit = self._unit_literal(idx)
                    conflict = self._set(abs(lit), lit > 0, clauses[idx])
                    if conflict is not None:
                        return clauses[conflict]
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
                conflict = self._assign_and_propagate(lit, clause)
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
            self.conflicts += 1
            top = max(self.level_of[abs(l)] for l in clause) if clause else 0
            if top == 0:
                return self._EXHAUSTED
            self._pop_to_level(top)
            learned, back = self._analyze(clause)
            self.add_clause(learned)
            self._pop_to_level(back)
            clause = self._assign_and_propagate(learned[0], learned) or self._theory_conflict()
            if clause is None:
                return None

    def _skip_blocked(self, lits: list[int]):
        """Install a blocking clause for the model just emitted and unwind
        to the deepest level where another assignment is still possible."""
        clause = self.add_clause(lits)
        levels = sorted({self.level_of[abs(l)] for l in clause}, reverse=True)
        if levels[0] == 0:
            return self._EXHAUSTED
        back = levels[1] if len(levels) > 1 else 0
        self._pop_to_level(back)
        free = [lit for lit in clause if abs(lit) not in self.assign]
        if len(free) > 1:
            return None  # not unit: the search decides among them
        return self._assign_and_propagate(free[0], clause) or self._theory_conflict()

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
        self._n_implied = min(self._n_implied, len(theory.fixed))
        try:
            for var in true_atoms[len(theory):]:
                theory.push(self._lin(var))
            theory.check()
        except _TheoryConflict as exc:
            return self.add_clause([-v for v in sorted(exc.core)])
        finally:
            self._synced = len(theory)
        return self._imply_fixed()

    def _imply_fixed(self) -> list[int] | None:
        """Assign each unassigned atom whose variables the theory has all
        fixed, looking only at atoms over a variable fixed since the last
        call, with its lemma as the reason; returns a violated clause."""
        fixed = self._theory.fixed
        if self._n_implied == len(fixed):
            return None
        new = list(islice(fixed, self._n_implied, None))
        self._n_implied = len(fixed)
        atom_of, atoms_of = self.cnf.atom_of, self.cnf.atoms_of
        implied = []
        for x in new:
            for var in atoms_of.get(x, ()):
                if var in self.assign:
                    continue
                term = atom_of[var].term
                total = term.const
                origins = set()
                for v, c in term.coeffs:
                    f = fixed.get(v)
                    if f is None:
                        break
                    total += c * f[0]
                    origins |= f[1]
                else:
                    value = total == 0 if atom_of[var].rel == EQ else total <= 0
                    lit = var if value else -var
                    reason = self.add_clause([lit] + [-o for o in sorted(origins)])
                    conflict_idx = self._set(var, value, reason)
                    if conflict_idx is not None:
                        return self.cnf.clauses[conflict_idx]
                    implied.append(var)
        return self._propagate(implied)

    # -- decisions --------------------------------------------------------------

    def _next_decision(self) -> int | None:
        """The literal to decide: the assumption, else the next important
        variable as true, else the first unassigned argument of the
        pending selection clause with the lowest index."""
        lit = self._assumption
        if lit is not None and abs(lit) not in self.assign:
            return lit
        decisions = self.cnf.decisions
        while self._decide_head < len(decisions):
            v = decisions[self._decide_head]
            if v not in self.assign:
                return v
            self._decide_head += 1
        sizes, n_true, n_false = self.cnf.sizes, self._n_true, self._n_false
        # a unit or conflicting clause is not pending: propagation handles it
        best = min((idx for idx in self._active
                    if not n_true[idx] and n_false[idx] < sizes[idx] - 1),
                   default=None)
        if best is None:
            return None
        for lit in self.cnf.clauses[best][1:]:  # pending: two of them are unassigned
            if abs(lit) not in self.assign:
                return lit

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
                self.decisions += 1
                self.level += 1
                conflict = (self._assign_and_propagate(decision, None)
                            or self._theory_conflict(force=True))
                continue
            n_assigned = len(self.trail)
            conflict = self._theory_conflict(force=True)
            if conflict is not None or len(self.trail) > n_assigned:
                continue  # a conflict, or implied atoms to propagate and check
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
        return self._theory.model(self._theory.check())

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

    def valuations(self, phi: Formula, qs) -> list[tuple[bool, ...]]:
        """Every valuation of the predicates qs, as a tuple in qs order,
        that extends to a model of phi; one query.

        Asked as one `all_sat` of phi with each q tied to a fresh
        propositional variable by an equivalence.
        """
        names = [f"@p{i}" for i in range(len(qs))]
        query = f_and(phi, *(f_iff(q, PropVar(n)) for q, n in zip(qs, names)))
        return [tuple(m[n] for n in names) for m in self.all_sat(query, names)]

    def close(self) -> None:
        pass


# The most DNF cubes for which `InternalSolver.entailed` and `valuations`
# decide phi in the theory alone, for Cartesian and Boolean posts alike; a
# larger phi gets a CDCL session.  Measured for `entailed` on 60 seeded phi
# of three random atoms over x1..xm, y and `xi != ci` for each i (2^m cubes),
# 12 atomic predicates each, nine alternating runs per side (Python 3.11,
# x86_64, 2 CPUs): per phi, the cube path took 0.82/1.39/2.45/3.99/8.00 ms at
# m = 1..5 and the session 1.08/1.70/2.66/3.07/4.84 ms; the cube path won
# 9/9 runs up to 8 cubes and 1/9 at 16.
CUBE_BOUND = 8


class InternalSolver(_SolverBase):
    """Self-contained DPLL(T) solver for the formula language of this package.

    Besides the theory checks it counts the decisions and conflicts of its
    search sessions, which `--stats` does not report.
    """

    def __init__(self) -> None:
        super().__init__()
        self.decisions = 0
        self.conflicts = 0
        self._memo: dict[Formula, SatResult] = {}
        # phi -> {q: phi entails q} for the q decided so far, or None if
        # phi is unsat
        self._verdicts: dict[Formula, dict[Formula, bool] | None] = {}
        self._complements: dict[Formula, Formula] = {}  # q -> normalize(not q)
        self._normal: dict = {}  # the memo of every normalize call
        # the theory kept across calls for cubes and search witnesses, and
        # the atoms pushed into it, one per undo record
        self._theory = _LinTheory()
        self._pushed: list[Atom] = []

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
        prep = normalize(phi, self._normal)
        if prep == FALSE:
            return []
        results: list[dict[str, bool]] = []
        with self._session(prep, important) as dpll:
            imp_vars = [dpll.cnf.var_of_input[PropVar(name)] for name in important]

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
        return results

    def entailed(self, phi: Formula, qs) -> list[bool] | None:
        """None if phi is unsat, else for each q of qs whether phi entails q.

        Counts the queries of check_sat(phi) and one entails(phi, q) per q.
        Verdicts are memoized per (phi, q).  The undecided ones are decided
        in the theory alone when phi splits into at most CUBE_BOUND
        conjunctive cubes and every complement of q is a disjunction of
        atoms, else in one CDCL session over phi's CNF; both ask the same
        complete theory, so the verdicts agree.  The cube path runs on one
        theory that the solver keeps across calls, so answers and query
        counts do not depend on the calls before.
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

    def valuations(self, phi: Formula, qs) -> list[tuple[bool, ...]]:
        """Every valuation of qs, as a tuple in qs order, that extends to a
        model of phi; one query.

        When phi splits into at most CUBE_BOUND cubes and every q is an atom
        whose complement is a disjunction of atoms, the valuations are
        enumerated cube by cube in the kept theory (`_valuations_by_cubes`).
        With no q, a larger phi is satisfiable if its first cube
        (`_first_cube`) is, which one check in the kept theory decides.
        Otherwise, or when that cube is unsatisfiable, the `all_sat` of
        `_SolverBase.valuations` decides them.  All ask the same complete
        theory, so they give the same set.
        """
        prep = normalize(phi, self._normal)
        cubes = _cubes(prep, CUBE_BOUND)
        if cubes is not None and len(cubes) <= CUBE_BOUND:
            disjuncts = [_disjuncts(self._complement(q)) if isinstance(q, Atom) else None
                         for q in qs]
            if None not in disjuncts:
                self.queries += 1
                return self._valuations_by_cubes(cubes, qs, disjuncts)
        if not qs:
            cube = _first_cube(prep)
            if cube is not None:
                for _ in self._sat_cubes([cube]):
                    self.queries += 1
                    return [()]
        return super().valuations(phi, qs)

    # -- internals ----------------------------------------------------------

    def _complement(self, q: Formula) -> Formula:
        nq = self._complements.get(q)
        if nq is None:
            nq = self._complements[q] = normalize(f_not(q), self._normal)
        return nq

    def _decide(self, phi: Formula, qs, known: dict[Formula, bool]) -> bool:
        """Whether phi is sat; if so, record in known whether it entails
        each q of qs."""
        prep = normalize(phi, self._normal)
        if prep == FALSE:
            return False
        nqs = [self._complement(q) for q in qs]
        cubes = _cubes(prep, CUBE_BOUND)
        if cubes is not None and len(cubes) <= CUBE_BOUND:
            disjuncts = [_disjuncts(nq) for nq in nqs]
            if None not in disjuncts:
                return self._decide_by_cubes(cubes, qs, disjuncts, known)
        return self._decide_in_session(prep, qs, nqs, known)

    def _decide_by_cubes(self, cubes, qs, disjuncts, known) -> bool:
        """_decide for phi with the DNF cubes `cubes`: phi entails q iff
        for every satisfiable cube, q is an atom of the cube or each
        disjunct of q's complement contradicts the cube.

        The satisfiable cubes come from `_sat_cubes`.  A complement that
        the first satisfiable cube's model satisfies is not entailed, as in
        the session.  Against each satisfiable cube, a q that the cube has
        as an atom is skipped; for every other q still open, each disjunct
        is pushed on top, checked and popped, until one is not refuted.
        Once no q is open after a satisfiable cube, no later cube can change
        an answer, so none is checked.
        """
        open_qs = list(zip(qs, disjuncts))
        found = False
        for cube, levels in self._sat_cubes(cubes):
            stated = set(cube)  # the cube entails each predicate it states
            if open_qs and not found:
                # the complement, not q: see _decide_in_session; the model
                # satisfies a stated q, so not its complement
                env = self._theory.model(levels)
                open_qs = [(q, atoms) for q, atoms in open_qs if q in stated
                           or not any(_atom_holds(a, env) for a in atoms)]
            open_qs = [(q, atoms) for q, atoms in open_qs
                       if q in stated or all(self._refutes(a) for a in atoms)]
            found = True
            if not open_qs:
                break
        if found:
            entailed = {q for q, _ in open_qs}
            for q in qs:
                known[q] = q in entailed
        return found

    def _sat_cubes(self, cubes):
        """Each cube of cubes whose conjunction is satisfiable, in order,
        with the Fourier-Motzkin levels of `_LinTheory.check`; one theory
        check per cube asked for.  The solver's one theory is synced to
        each cube by `_sync` and holds it while the caller looks at it."""
        for cube in cubes:
            self.theory_checks += 1
            try:
                self._sync(cube)
                levels = self._theory.check()
            except _TheoryConflict:
                continue
            yield cube, levels

    def _sync(self, cube: list[Atom]) -> None:
        """Make the theory hold exactly the atoms of cube: pop to the longest
        prefix it shares with the atoms pushed so far, then push the rest.
        Raises _TheoryConflict when a push does; the atoms before it stay."""
        pushed = self._pushed
        k = 0
        for have, want in zip(pushed, cube):
            if have is not want and have != want:
                break
            k += 1
        if k < len(pushed):
            self._theory.pop_to(k)
            del pushed[k:]
        for atom in cube[k:]:
            self._theory.push(_lin_of_atom(atom, 0))
            pushed.append(atom)

    def _valuations_by_cubes(self, cubes, qs, disjuncts) -> list[tuple[bool, ...]]:
        """valuations for phi with the DNF cubes `cubes`, where disjuncts[i]
        are the atoms of the complement of qs[i].

        Each satisfiable cube from `_sat_cubes` is extended depth first,
        one predicate per level: q for true and each atom of its complement
        for false is pushed on top and checked, and a branch that conflicts
        is dropped; the theory is popped back before the next branch.  A q
        whose atom or complement atom the cube states needs no check either
        way.  Every branch that reaches the last predicate gives a
        valuation, duplicates dropped.  The search runs on an explicit
        stack, so any number of predicates fit, and ends once every
        valuation is found: with no predicates, at the first satisfiable
        cube.
        """
        theory, n = self._theory, len(qs)
        found: dict[tuple[bool, ...], None] = {}
        for cube, _ in self._sat_cubes(cubes):
            stated = set(cube)
            # (predicate index, theory length, valuation so far, atom to
            # push for its value, or None when the cube states it)
            stack = [(0, len(theory), (), None)]
            try:
                while stack:
                    i, length, prefix, atom = stack.pop()
                    theory.pop_to(length)
                    if atom is not None:
                        self.theory_checks += 1
                        try:
                            theory.push(_lin_of_atom(atom, 0))
                            theory.check()
                        except _TheoryConflict:
                            continue
                    if i == n:
                        found[prefix] = None
                        continue
                    q, falsified = qs[i], disjuncts[i]
                    length = len(theory)
                    if q in stated:
                        stack.append((i + 1, length, prefix + (True,), None))
                    elif any(a in stated for a in falsified):
                        stack.append((i + 1, length, prefix + (False,), None))
                    else:  # popped in order: q, then each complement atom
                        stack.extend((i + 1, length, prefix + (False,), a)
                                     for a in reversed(falsified))
                        stack.append((i + 1, length, prefix + (True,), q))
            finally:
                theory.pop_to(len(self._pushed))
            if len(found) == 1 << n:
                break
        return list(found)

    def _refutes(self, atom: Atom) -> bool:
        """Whether atom contradicts the theory, which is left as it was."""
        theory = self._theory
        n = len(theory)
        self.theory_checks += 1
        try:
            theory.push(_lin_of_atom(atom, 0))
            theory.check()
        except _TheoryConflict:
            return True
        finally:
            theory.pop_to(n)
        return False

    def _decide_in_session(self, prep: Formula, qs, nqs, known) -> bool:
        """_decide for the normalized phi `prep` in one search session: a
        complement of q that the first model satisfies is not entailed, and
        each other one is decided under its gate literal."""
        with self._session(prep) as dpll:
            if not dpll.solve_under(None):
                return False
            if qs:
                env, bools = dpll.model(), dpll.bools()
            for q, nq in zip(qs, nqs):
                # a model of phi that satisfies the complement refutes q; it
                # must be the normalized complement, not q itself: at x = 1/2,
                # `x <= 0` is false, but its integer complement `x >= 1` is
                # false too, and phi can still entail `x <= 0`
                known[q] = not (_satisfies(nq, env, bools)
                                or dpll.solve_under(dpll.cnf.literal(nq)))
            return True

    def _solve(self, phi: Formula) -> SatResult:
        prep = normalize(phi, self._normal)
        if prep == TRUE:
            return _fill(phi, {}, {})
        if prep == FALSE:
            return UNSAT
        cubes = _cubes(prep, 1)
        if cubes is not None:  # one conjunction of atoms
            for _, levels in self._sat_cubes(cubes):
                return _fill(phi, self._theory.model(levels), {})
            return UNSAT
        with self._session(prep) as dpll:
            if not dpll.solve_under(None):
                return UNSAT
        # the witness is solved over the final true atoms in input order,
        # independent of the order the search asserted them
        self._sync([a for v, a in dpll.cnf.atom_of.items() if dpll.assign.get(v)])
        return _fill(phi, self._theory.model(self._theory.check()), dpll.bools())

    @contextmanager
    def _session(self, prep: Formula, decide=()):
        """A search session over the CNF of the normalized prep, whose
        theory checks, decisions and conflicts are counted on exit; the
        propositional variables named in decide are encoded first and
        decided first, in that order."""
        cnf = _Cnf()
        for name in decide:
            cnf.mark_decision(cnf.input_var(PropVar(name)))
        if prep != TRUE:
            cnf.add_clause([cnf.literal(prep)])
        dpll = _Dpll(cnf)
        try:
            yield dpll
        finally:
            self.theory_checks += dpll.theory_checks
            self.decisions += dpll.decisions
            self.conflicts += dpll.conflicts


def _fill(phi: Formula, env: dict[VariableRef, Fraction], bools) -> SatResult:
    """The sat result of phi with model env, each variable of phi that env
    leaves out set to 0."""
    model = dict(env)
    for v in variables(phi):
        model.setdefault(v, Fraction(0))
    return sat(model=model, bools=bools)


def _satisfies(f: Formula, env: dict[VariableRef, Fraction],
               bools: dict[str, bool]) -> bool:
    """Whether f holds in a model that leaves out some variables: missing
    arithmetic ones are 0 and missing propositional ones false."""
    return evaluate(f, env, {n: bools.get(n, False) for n in propvars(f)})


def _cubes(prep: Formula, bound: int) -> list[list[Atom]] | None:
    """The DNF cubes of a normalized formula, each a fresh list of atoms;
    None if a conjunction or disjunction in prep has more than `bound`
    cubes or prep has a propositional literal."""
    if isinstance(prep, Atom):
        return [[prep]]
    if isinstance(prep, TrueF):
        return [[]]
    if isinstance(prep, FalseF):
        return []
    if isinstance(prep, Or):
        # each argument of a normalized Or has a cube, so one with more than
        # bound - (n - 1) exceeds the bound; lowering it per level of Or ends
        # the recursion long before a deep formula could overflow it
        if len(prep.args) > bound:
            return None
        out = []
        for arg in prep.args:
            sub = _cubes(arg, bound - len(prep.args) + 1)
            if sub is None or len(out) + len(sub) > bound:
                return None
            out += sub
        return out
    if isinstance(prep, And):
        out = [[]]
        for arg in prep.args:
            sub = _cubes(arg, bound)
            if sub is None or len(out) * len(sub) > bound:
                return None
            if len(sub) == 1:  # extend in place: a long conjunction stays linear
                for cube in out:
                    cube += sub[0]
            else:
                out = [c + d for c in out for d in sub]
        return out
    return None


def _first_cube(prep: Formula) -> list[Atom] | None:
    """The atoms of the first of `_cubes(prep, ...)`, for a normalized prep
    of any size: every argument of a conjunction and the first of a
    disjunction, walked on an explicit stack, each shared node once.  None
    if the walk meets FALSE or a propositional literal."""
    cube: list[Atom] = []
    seen: set[int] = set()
    stack = [prep]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            cube.append(f)
        elif isinstance(f, (And, Or)):
            if id(f) not in seen:
                seen.add(id(f))
                stack.extend(reversed(f.args) if isinstance(f, And) else f.args[:1])
        elif not isinstance(f, TrueF):
            return None
    return cube


def _disjuncts(nq: Formula) -> tuple[Atom, ...] | None:
    """nq as a disjunction of atoms (FALSE has none), or None."""
    if isinstance(nq, Atom):
        return (nq,)
    if isinstance(nq, FalseF):
        return ()
    if isinstance(nq, Or) and all(isinstance(a, Atom) for a in nq.args):
        return nq.args
    return None


def _atom_holds(atom: Atom, env: dict[VariableRef, Fraction]) -> bool:
    """Whether atom holds in env, where missing variables are 0; cheaper
    than `formula.evaluate`, which wraps every sum in a new Fraction."""
    total = atom.term.const
    for v, c in atom.term.coeffs:
        x = env.get(v)
        if x:
            total += c * x
    return total == 0 if atom.rel == EQ else total <= 0


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

def make_solver(backend: str | None = None):
    """The internal engine, or an SMT-LIB2 process started with `backend`."""
    if backend is None or backend == "internal":
        return InternalSolver()
    from .smtlib import Smtlib2Solver

    return Smtlib2Solver(backend)
