import itertools
import math
import random
import subprocess
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import pytest

from lbemc.formula import (
    Atom,
    EQ,
    PropVar,
    TRUE,
    FALSE,
    VariableRef,
    compare,
    evaluate,
    f_and,
    f_iff,
    f_not,
    f_or,
    var_sort_key,
)
from lbemc import smt
from lbemc.cfa import summarize
from lbemc.cli import gen_test_locks
from lbemc.engine import verify
from lbemc.frontend import parse_program
from lbemc.oracle import random_program
from lbemc.smt import (
    InternalSolver,
    _Cnf,
    _Dpll,
    _LinTheory,
    _TheoryConflict,
    _lin_of_atom,
    make_solver,
    normalize,
    project,
)
from lbemc.smtlib import Smtlib2Solver

from conftest import MOCK_SOLVER_CMD, const, tvar
from references import (
    _solve_lin,
    random_comparison,
    random_formula,
    random_term,
    theory_check,
)

X = VariableRef("x")


class TestTheoryCheck:
    def test_contradictory_bounds(self):
        atoms = [
            compare("<=", tvar("x"), const(0)),
            compare("<=", -tvar("x"), const(-1)),
        ]
        assert theory_check(atoms).status == "unsat"

    def test_equality_substitution_witness(self):
        atoms = [
            compare("==", tvar("x"), tvar("y") + 1),
            compare(">=", tvar("y"), const(0)),
        ]
        res = theory_check(atoms)
        assert res.is_sat
        y = res.model[VariableRef("y")]
        assert y >= 0 and res.model[X] == y + 1

    def test_empty_conjunction(self):
        assert theory_check([]).is_sat


def _ssa_atom(rng: random.Random):
    """An atom of the shape SSA path encodings produce, mostly equalities."""
    name = rng.choice("xy")
    i = rng.randrange(6)
    k = const(rng.randint(-3, 3))
    roll = rng.random()
    if roll < 0.45:
        return compare("==", tvar(name, i + 1), tvar(name, i) + k)
    if roll < 0.6:
        return compare("==", tvar(name, i), k)
    if roll < 0.75:
        return compare(rng.choice(["<=", ">="]), tvar(name, i), k)
    if roll < 0.9:
        j = rng.randrange(7)
        return compare("==", tvar(name, i).scale(rng.choice([2, -3])), tvar("yx"[name == "y"], j))
    return compare("<=", tvar("x", i) + tvar("y", i), k)


def _from_scratch(lins):
    try:
        return "sat", _solve_lin(lins)
    except _TheoryConflict as exc:
        return "unsat", exc.core


def _answer(theory):
    try:
        return "sat", theory.model(theory.check())
    except _TheoryConflict as exc:
        return "unsat", exc.core


class TestLinTheory:
    """The backtrackable theory against from-scratch solving."""

    def test_push_pop_agrees_with_from_scratch(self):
        rng = random.Random(41)
        unsat_seen = 0
        for _ in range(60):
            theory = _LinTheory()
            stack = []  # the _Lin constraints the theory holds, in order
            origin = 0
            for _ in range(40):
                if stack and rng.random() < 0.25:
                    keep = rng.randrange(len(stack))
                    theory.pop_to(keep)
                    del stack[keep:]
                    fresh = _LinTheory()
                    for lin in stack:
                        fresh.push(lin)
                    assert _answer(theory) == _answer(fresh)
                    continue
                atom = _ssa_atom(rng)
                if not isinstance(atom, Atom):
                    continue
                origin += 1
                lin = _lin_of_atom(atom, origin)
                pushed = stack + [lin]
                try:
                    theory.push(lin)
                except _TheoryConflict as exc:
                    got = "unsat", exc.core  # refused: the theory is unchanged
                else:
                    stack.append(lin)
                    got = _answer(theory)
                assert got[0] == _from_scratch(pushed)[0]
                assert len(theory) == len(stack)
                if got[0] == "sat":
                    for c in pushed:
                        value = c.const + sum(a * got[1].get(v, 0) for v, a in c.coeffs.items())
                        assert value == 0 if c.is_eq else value <= 0
                    continue
                unsat_seen += 1
                core = got[1]
                assert core <= {o for c in pushed for o in c.origins}
                core_lins = [c for c in pushed if c.origins <= core]
                assert _from_scratch(core_lins)[0] == "unsat"
                # the rational reference agrees that the atoms are unsat
                with pytest.raises(_TheoryConflict):
                    ref = _RefTheory()
                    for c in core_lins:
                        ref.push(_ref_lin(c))
                    ref.check()
                theory.pop_to(len(pushed) - 1)  # back to a satisfiable state
                del stack[len(pushed) - 1:]
        assert unsat_seen > 20


# ---------------------------------------------------------------------------
# the rational theory kernel, kept as a reference for the one in smt.py
# ---------------------------------------------------------------------------

@dataclass
class _RefLin:
    """sum(coeffs) + const  (= 0 | <= 0) with Fraction coefficients."""

    coeffs: dict
    const: Fraction
    is_eq: bool
    origins: frozenset


def _ref_lin_of_atom(atom, origin):
    return _RefLin({v: Fraction(c) for v, c in atom.term.coeffs},
                   Fraction(atom.term.const), atom.rel == EQ, frozenset([origin]))


def _ref_lin(c):
    """The integer row c in Fraction arithmetic."""
    return _RefLin({v: Fraction(x) for v, x in c.coeffs.items()}, Fraction(c.const),
                   c.is_eq, c.origins)


def _ref_const_check(c):
    if c.coeffs:
        return False
    if (c.const != 0) if c.is_eq else (c.const > 0):
        raise _TheoryConflict(c.origins)
    return True


def _ref_substitute(c, v, expr, expr_const, origins):
    b = c.coeffs.get(v)
    if b is None:
        return c
    coeffs = {w: cw for w, cw in c.coeffs.items() if w != v}
    for w, cw in expr.items():
        coeffs[w] = coeffs.get(w, Fraction(0)) + b * cw
        if coeffs[w] == 0:
            del coeffs[w]
    return _RefLin(coeffs, c.const + b * expr_const, c.is_eq, c.origins | origins)


def _row_key(c):
    """The primitive integer form of a row, whatever its number type: the
    dedup identity of Fourier-Motzkin and what the level keys compare."""
    denom = 1
    for x in (*c.coeffs.values(), c.const):
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = {v: int(x * denom) for v, x in c.coeffs.items()}
    const = int(c.const * denom)
    g = abs(const)
    for x in ints.values():
        g = gcd(g, abs(x))
    g = g or 1
    items = tuple(sorted(((v, x // g) for v, x in ints.items()),
                         key=lambda it: var_sort_key(it[0])))
    return (c.is_eq, items, const // g)


def _ref_fourier_motzkin(ineqs, targets=None):
    """(levels, rows left) after eliminating the targets, or every variable."""
    cur, seen = [], set()
    for c in ineqs:
        k = _row_key(c)
        if k not in seen:
            seen.add(k)
            cur.append(c)
    names = sorted({v for c in cur for v in c.coeffs
                    if targets is None or v in targets}, key=var_sort_key)
    levels = []
    for v in names:
        with_v = [c for c in cur if v in c.coeffs]
        rest = [c for c in cur if v not in c.coeffs]
        levels.append((v, with_v))
        derived, seen = [], {_row_key(c) for c in rest}
        for up in (c for c in with_v if c.coeffs[v] > 0):
            for lo in (c for c in with_v if c.coeffs[v] < 0):
                a, b = up.coeffs[v], lo.coeffs[v]
                coeffs = {w: cw * -b for w, cw in up.coeffs.items() if w != v}
                for w, cw in lo.coeffs.items():
                    if w == v:
                        continue
                    coeffs[w] = coeffs.get(w, Fraction(0)) + cw * a
                    if coeffs[w] == 0:
                        del coeffs[w]
                comb = _RefLin(coeffs, up.const * -b + lo.const * a, False,
                               up.origins | lo.origins)
                if _ref_const_check(comb):
                    continue
                k = _row_key(comb)
                if k not in seen:
                    seen.add(k)
                    derived.append(comb)
        cur = rest + derived
    return levels, cur


def _ref_project(rows, targets):
    """smt.project in Fraction arithmetic, with the same pivot rule: a
    target whose coefficient is a unit in the row's primitive integer form
    first, in variable order."""
    eqs = [c for c in rows if c.is_eq]
    ineqs = [c for c in rows if not c.is_eq]
    kept = []
    while eqs:
        eq = eqs.pop(0)
        if _ref_const_check(eq):
            continue
        vs = sorted((v for v in eq.coeffs if v in targets), key=var_sort_key)
        if not vs:
            kept.append(eq)
            continue
        primitive = dict(_row_key(eq)[1])
        v = next((w for w in vs if abs(primitive[w]) == 1), vs[0])
        a = eq.coeffs[v]
        expr = {w: -cw / a for w, cw in eq.coeffs.items() if w != v}
        eqs = [_ref_substitute(c, v, expr, -eq.const / a, eq.origins) for c in eqs]
        ineqs = [_ref_substitute(c, v, expr, -eq.const / a, eq.origins) for c in ineqs]
    ineqs = [c for c in ineqs if not _ref_const_check(c)]
    return kept + _ref_fourier_motzkin(ineqs, targets)[1]


def _ref_pick_value(lo, hi):
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return Fraction(min(0, math.floor(hi)))
    if hi is None:
        return Fraction(max(0, math.ceil(lo)))
    if lo <= 0 <= hi:
        return Fraction(0)
    c = Fraction(math.ceil(lo))
    return c if c <= hi else (lo + hi) / 2


class _RefTheory:
    """The backtrackable theory with every row in Fraction arithmetic and
    each eliminated variable stored as a rational expression."""

    def __init__(self):
        self._subst = {}  # variable -> (rank, expr, const, origins)
        self._order = []
        self._ineqs = []
        self._undo = []

    def push(self, c):
        if not c.is_eq:
            self._ineqs.append(c)
            self._undo.append("ineq")
            return
        c = self._reduce(c)
        if _ref_const_check(c):
            self._undo.append(None)
            return
        vs = sorted(c.coeffs, key=var_sort_key)
        v = next((w for w in vs if abs(c.coeffs[w]) == 1), vs[0])
        a = c.coeffs[v]
        expr = {w: -cw / a for w, cw in c.coeffs.items() if w != v}
        self._subst[v] = (len(self._order), expr, -c.const / a, c.origins)
        self._order.append(v)
        self._undo.append(v)

    def pop_to(self, n):
        while len(self._undo) > n:
            rec = self._undo.pop()
            if rec == "ineq":
                self._ineqs.pop()
            elif rec is not None:
                del self._subst[rec]
                self._order.pop()

    def _reduce(self, c):
        while True:
            ranked = [(self._subst[w][0], w) for w in c.coeffs if w in self._subst]
            if not ranked:
                return c
            _, v = min(ranked)
            _, expr, expr_const, origins = self._subst[v]
            c = _ref_substitute(c, v, expr, expr_const, origins)

    def check(self):
        reduced = [c for c in map(self._reduce, self._ineqs) if not _ref_const_check(c)]
        return _ref_fourier_motzkin(reduced)[0]

    def model(self, levels):
        env = {}
        for v, with_v in reversed(levels):
            lo = hi = None
            for c in with_v:
                a = c.coeffs[v]
                rest = c.const + sum(cw * env.get(w, Fraction(0))
                                     for w, cw in c.coeffs.items() if w != v)
                bound = -rest / a
                if a > 0:
                    hi = bound if hi is None else min(hi, bound)
                else:
                    lo = bound if lo is None else max(lo, bound)
            env[v] = _ref_pick_value(lo, hi)
        for v in reversed(self._order):
            _, expr, expr_const, _ = self._subst[v]
            env[v] = expr_const + sum(c * env.get(w, Fraction(0)) for w, c in expr.items())
        return env


def _mixed_ssa_atom(rng: random.Random):
    """An SSA-shaped atom whose coefficients may be non-unit or negative,
    such as `2*x@1 == -3*y@2 + 1` or `3*x@2 - 2*y@1 <= 4`."""
    name, other = rng.choice(["xy", "yx"])
    i, j = rng.randrange(5), rng.randrange(5)
    a, b = rng.choice([1, -1, 2, -2, 3, -3]), rng.choice([1, -1, 2, -3])
    k = const(rng.randint(-4, 4))
    roll = rng.random()
    if roll < 0.35:
        return compare("==", tvar(name, i + 1), tvar(name, i) + k)
    if roll < 0.6:
        return compare("==", tvar(name, i).scale(a), tvar(other, j).scale(b) + k)
    if roll < 0.7:
        return compare("==", tvar(name, i), k)
    if roll < 0.85:
        return compare(rng.choice(["<=", ">="]), tvar(name, i).scale(a), k)
    return compare("<=", tvar(name, i).scale(a) + tvar(other, j).scale(b), k)


def _state(theory):
    """("unsat", core) or ("sat", FM levels as keys and origins, model)."""
    try:
        levels = [(v, [(_row_key(c), c.origins) for c in with_v])
                  for v, with_v in theory.check()]
        return "sat", levels, theory.model(theory.check())
    except _TheoryConflict as exc:
        return "unsat", exc.core


def _pushed(theory, lin):
    try:
        theory.push(lin)
    except _TheoryConflict as exc:
        return exc.core
    return None


class TestAgainstFractionReference:
    """smt._LinTheory gives the rational kernel's verdicts, cores, FM levels
    and models, push by push and after pops."""

    def test_mixed_coefficient_atom_sets(self):
        rng = random.Random(53)
        outcomes = Counter()
        for _ in range(80):
            ref, theory = _RefTheory(), _LinTheory()
            for origin in range(30):
                if rng.random() < 0.15 and len(theory):
                    keep = rng.randrange(len(theory))
                    ref.pop_to(keep)
                    theory.pop_to(keep)
                atom = _mixed_ssa_atom(rng)
                if not isinstance(atom, Atom):
                    continue
                refused = _pushed(ref, _ref_lin_of_atom(atom, origin))
                assert _pushed(theory, _lin_of_atom(atom, origin)) == refused
                want = _state(ref)
                assert _state(theory) == want
                outcomes["refused" if refused else want[0]] += 1
                if want[0] == "unsat":  # back to a satisfiable state
                    ref.pop_to(len(ref._undo) - 1)
                    theory.pop_to(len(theory) - 1)
        assert outcomes["sat"] > 500 and outcomes["unsat"] > 30 and outcomes["refused"] > 30

    def test_dense_inequalities(self):
        # few variables and many bounds: Fourier-Motzkin derives rows that
        # are multiples of each other and must be deduplicated as such
        rng = random.Random(67)
        x, y, z = (tvar(n) for n in "xyz")
        for _ in range(60):
            ref, theory = _RefTheory(), _LinTheory()
            for origin in range(8):
                t = x.scale(rng.choice([1, -1, 2, -2, 3])) + y.scale(rng.choice([0, 1, -2, 3]))
                atom = compare(rng.choice(["<=", "==", "<=", ">="]),
                               t + z.scale(rng.choice([0, 1, -1, 2])), const(rng.randint(-6, 6)))
                if isinstance(atom, Atom):
                    refused = _pushed(ref, _ref_lin_of_atom(atom, origin))
                    assert _pushed(theory, _lin_of_atom(atom, origin)) == refused
                    assert _state(theory) == _state(ref)

    def test_non_unit_negative_pivots(self):
        x, y, z = (tvar(n) for n in "xyz")
        atoms = [compare("==", x.scale(2), y.scale(-3)),        # 2x + 3y = 0
                 compare("==", x + z, const(1)),
                 compare("<=", y.scale(2) - z.scale(3), const(5)),
                 compare(">=", y, const(-4)),
                 compare("==", z.scale(-2) + y, x.scale(3) + const(1))]
        ref, theory = _RefTheory(), _LinTheory()
        for origin, atom in enumerate(atoms):
            assert _pushed(theory, _lin_of_atom(atom, origin)) == \
                _pushed(ref, _ref_lin_of_atom(atom, origin))
            assert _state(theory) == _state(ref)
        assert any(v.denominator > 1 for v in ref.model(ref.check()).values())

    def test_from_scratch_witness(self):
        rng = random.Random(59)
        for _ in range(150):
            atoms = [a for a in (_mixed_ssa_atom(rng) for _ in range(8)) if isinstance(a, Atom)]
            ref = _RefTheory()
            try:
                for i, a in enumerate(atoms):
                    ref.push(_ref_lin_of_atom(a, i))
                want = "sat", ref.model(ref.check())
            except _TheoryConflict as exc:
                want = "unsat", exc.core
            assert _from_scratch([_lin_of_atom(a, i) for i, a in enumerate(atoms)]) == want

    def test_levels_have_the_reference_rows(self):
        rng = random.Random(61)
        compared = 0
        for _ in range(100):
            atoms = [a for a in (_mixed_ssa_atom(rng) for _ in range(6)) if isinstance(a, Atom)]
            ref, theory = _RefTheory(), _LinTheory()
            try:
                for i, a in enumerate(atoms):
                    ref.push(_ref_lin_of_atom(a, i))
                    theory.push(_lin_of_atom(a, i))
                ref_levels, levels = ref.check(), theory.check()
            except _TheoryConflict:
                continue
            assert [v for v, _ in levels] == [v for v, _ in ref_levels]
            for (_, ref_rows), (_, rows) in zip(ref_levels, levels):
                assert [_row_key(c) for c in rows] == [_row_key(r) for r in ref_rows]
                compared += len(rows)
        assert compared > 100

    def test_projection(self):
        rng = random.Random(71)
        outcomes = Counter()
        for _ in range(300):
            atoms = [a for a in (_mixed_ssa_atom(rng) for _ in range(rng.randint(3, 8)))
                     if isinstance(a, Atom)]
            outcomes[_projected_like_the_reference(atoms, rng)] += 1
        assert outcomes["conflict"] > 20 and outcomes["inequalities"] > 100, outcomes

    def test_projection_of_dense_inequalities(self):
        # few variables and many bounds, so that Fourier-Motzkin combines
        # rows whose combination keeps a variable that is not a target
        rng = random.Random(73)
        x, y, z, w = (tvar(n, 1) for n in "xyzw")
        outcomes = Counter()
        for _ in range(100):
            atoms = []
            for _ in range(8):
                t = (x.scale(rng.choice([1, -1, 2, -2, 3])) + y.scale(rng.choice([0, 1, -2, 3]))
                     + z.scale(rng.choice([0, 1, -1, 2])) + w.scale(rng.choice([0, 1, -1])))
                atom = compare(rng.choice(["<=", "<=", ">=", "=="]), t, const(rng.randint(-6, 6)))
                if isinstance(atom, Atom):
                    atoms.append(atom)
            outcomes[_projected_like_the_reference(atoms, rng)] += 1
        assert outcomes["conflict"] > 10 and outcomes["combined"] > 15, outcomes


def _projected_like_the_reference(atoms, rng):
    """Project a random subset of the atoms' variables with smt.project and
    with the reference, assert that both give the same residue (or the same
    conflict core) and say which: "conflict", "combined" when the residue
    holds a Fourier-Motzkin combination (a row with two inequality origins),
    "inequalities" when it holds other inequalities, or "equalities"."""
    names = sorted({v for a in atoms for v, _ in a.term.coeffs}, key=var_sort_key)
    targets = set(rng.sample(names, rng.randint(0, len(names))))
    rows = [_lin_of_atom(a, i) for i, a in enumerate(atoms)]
    try:
        want = _ref_project([_ref_lin(c) for c in rows], targets)
    except _TheoryConflict as exc:
        with pytest.raises(_TheoryConflict) as got:
            project(rows, targets)
        assert got.value.core == exc.core
        return "conflict"
    residue = project(rows, targets)
    assert [(_row_key(c), c.origins) for c in residue] == \
        [(_row_key(c), c.origins) for c in want]
    assert not any(v in targets for c in residue for v in c.coeffs)
    ineqs = {i for i, a in enumerate(atoms) if a.rel != EQ}
    if any(len(c.origins & ineqs) > 1 for c in residue):
        return "combined"
    return "inequalities" if any(not c.is_eq for c in residue) else "equalities"


class TestCheckSat:
    def test_contradiction(self, solver):
        f = f_and(compare(">", tvar("x"), const(0)), compare("<", tvar("x"), const(0)))
        assert solver.check_sat(f).status == "unsat"

    def test_disjunction_model(self, solver):
        f = f_and(
            f_or(compare("==", tvar("x"), const(2)), compare("==", tvar("x"), const(7))),
            compare("<", tvar("x"), const(5)),
        )
        res = solver.check_sat(f)
        assert res.is_sat
        assert res.model[X] == 2

    def test_true(self, solver):
        res = solver.check_sat(TRUE)
        assert res.is_sat and res.model == {}

    def test_model_soundness_random(self, solver):
        rng = random.Random(11)
        sat = 0
        for _ in range(120):
            phi = random_formula(rng, ["a", "b", "c"], depth=2)
            res = solver.check_sat(phi)
            if res.is_sat:
                sat += 1
                assert evaluate(phi, res.model, res.bools), phi
        assert sat > 20  # the generator produces plenty of satisfiable cases

    def test_unsat_sound_vs_bounded_brute_force(self, solver):
        rng = random.Random(12)
        names = ["a", "b"]
        refs = [VariableRef(n) for n in names]
        unsat_seen = 0
        for _ in range(120):
            phi = random_formula(rng, names, depth=2)
            if solver.check_sat(phi).is_sat:
                continue
            unsat_seen += 1
            for point in itertools.product(range(-6, 7), repeat=len(refs)):
                env = dict(zip(refs, point))
                assert not evaluate(phi, env), (phi, env)
        assert unsat_seen > 5

    def test_deterministic(self):
        rng = random.Random(13)
        for _ in range(20):
            phi = random_formula(rng, ["a", "b"], depth=2)
            r1 = InternalSolver().check_sat(phi)
            r2 = InternalSolver().check_sat(phi)
            assert r1.status == r2.status
            assert r1.model == r2.model


class TestEntails:
    def test_examples(self, solver):
        one = compare("==", tvar("x"), const(1))
        pos = compare(">", tvar("x"), const(0))
        assert solver.entails(one, pos)
        assert not solver.entails(pos, one)
        assert solver.entails(FALSE, one)


def _entailment_cases(seed: int, count: int):
    """Seeded (phi, qs): random formulas over a, b, c, plus predicates over
    d, which phi never mentions, and a pair `a <= k`, `a == k` whose
    complements share the atom `a >= k + 1`."""
    rng = random.Random(seed)
    names = ["a", "b", "c"]
    for i in range(count):
        phi = random_formula(rng, names, depth=2)
        qs = [random_formula(rng, names, depth=1) for _ in range(4)]
        qs.append(compare(rng.choice(["<=", "==", ">"]), tvar("d"), const(rng.randint(-1, 1))))
        qs.append(compare("<=", tvar("a") + tvar("d"), const(rng.randint(-1, 1))))
        k = i % 3 - 1
        qs += [compare("<=", tvar("a"), const(k)), compare("==", tvar("a"), const(k))]
        yield phi, qs


def _entailed_reference(phi, qs):
    """entailed(phi, qs) spelled out with one fresh solver call per question."""
    if not InternalSolver().check_sat(phi).is_sat:
        return None
    return [InternalSolver().entails(phi, q) for q in qs]


# x + y = 1 and x - y = 0: the only rational model is x = y = 1/2
HALVES = f_and(compare("==", tvar("x") + tvar("y"), const(1)),
               compare("==", tvar("x") - tvar("y"), const(0)))
X_NONPOS = compare("<=", tvar("x"), const(0))


class TestEntailed:
    def test_matches_entails_on_random_formulas(self, solver):
        unsat = entailed = 0
        for phi, qs in _entailment_cases(41, 150):
            want = _entailed_reference(phi, qs)
            assert solver.entailed(phi, qs) == want, (phi, qs)
            # memoized verdicts, asked again and in another order
            assert solver.entailed(phi, qs[::-1]) == (want and want[::-1])
            unsat += want is None
            entailed += sum(want or [])
        assert unsat > 10 and entailed > 20

    def test_rational_model_does_not_refute(self, solver):
        model = InternalSolver().check_sat(HALVES).model
        assert model[X] == Fraction(1, 2) and not evaluate(X_NONPOS, model)
        # the integer complement x >= 1 is false at x = 1/2 as well, and
        # over the rationals phi and x >= 1 have no common model
        assert solver.entails(HALVES, X_NONPOS)
        assert solver.entailed(HALVES, [X_NONPOS]) == [True]

    def test_equality_predicates(self, solver):
        x_is_0 = compare("==", tvar("x"), const(0))
        x_is_2 = compare("==", tvar("x"), const(2))
        between = lambda lo, hi: f_and(compare(">=", tvar("x"), const(lo)),
                                       compare("<=", tvar("x"), const(hi)))
        assert solver.entailed(between(2, 2), [x_is_2, x_is_0]) == [True, False]
        # the model x = 0 falsifies both arms of x <= -1 or x >= 1, so the
        # complement of x == 0 is decided under its gate literal
        assert solver.entailed(between(0, 1), [x_is_0, x_is_2]) == [False, False]
        assert solver.entailed(between(0, 0), [x_is_0]) == [True]
        # the model x = 3 leaves x <= 3 to its gate literal x >= 4, which the
        # search then assumes true; the complement of x == 3, x <= 2 or
        # x >= 4, is encoded over that atom while it is still assigned
        x_le_3, x_is_3 = compare("<=", tvar("x"), const(3)), compare("==", tvar("x"), const(3))
        assert solver.entailed(between(3, 9), [x_le_3, x_is_3]) == [False, False]

    def test_predicates_over_unmentioned_variables(self, solver):
        phi = compare(">=", tvar("x"), const(1))
        qs = [compare("<=", tvar("y"), const(5)),
              compare("==", tvar("y"), const(0)),
              compare("<=", tvar("y"), tvar("y")),
              compare(">=", tvar("x") + tvar("y") - tvar("y"), const(1))]
        assert solver.entailed(phi, qs) == [False, False, True, True]

    def test_unsat_phi(self, solver):
        contradiction = f_and(compare(">", tvar("x"), const(0)),
                              compare("<", tvar("x"), const(0)))
        assert solver.entailed(contradiction, [X_NONPOS]) is None
        assert solver.entailed(FALSE, []) is None

    def test_query_count(self, solver):
        qs = [X_NONPOS, compare(">=", tvar("y"), const(0))]
        for _ in range(2):  # the second round is answered from the memo
            before = solver.queries
            solver.entailed(HALVES, qs)
            assert solver.queries == before + 1 + len(qs)
            solver.entailed(FALSE, qs)
            assert solver.queries == before + 2 + len(qs)
            solver.entailed(TRUE, [])
            assert solver.queries == before + 3 + len(qs)


def _replay(calls, solver):
    """The answers and the query count after each call of calls."""
    return [(solver.entailed(phi, qs), solver.queries) for phi, qs in calls]


def _recorded_entailed_calls(source: str, encoding: str):
    """The (phi, qs) of every entailed call of a Cartesian verify run."""
    program = parse_program(source)
    if encoding == "lbe":
        program, _ = summarize(program)
    solver = InternalSolver()
    calls = []
    entailed = solver.entailed

    def recording(phi, qs):
        calls.append((phi, list(qs)))
        return entailed(phi, qs)

    solver.entailed = recording
    verify(program, mode="cartesian", solver=solver)
    return calls


def _verify_sources():
    for n in (1, 2, 3, 4):
        yield gen_test_locks(n)
        yield gen_test_locks(n, bug=True)
    for k in range(200):
        yield random_program(k)


class TestCubePath:
    """entailed in the theory alone (a phi of at most CUBE_BOUND cubes)
    against the CDCL session, forced by a bound of 0."""

    @pytest.fixture
    def paths(self, monkeypatch):
        """How many _decide calls each path took."""
        taken = Counter()
        for name in ("_decide_by_cubes", "_decide_in_session"):
            original = getattr(InternalSolver, name)

            def counting(self, *args, _name=name, _original=original):
                taken[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(InternalSolver, name, counting)
        return taken

    def test_entailment_cases(self, monkeypatch, paths):
        cases = list(_entailment_cases(41, 150))
        by_cubes = _replay(cases, InternalSolver())
        assert paths["_decide_by_cubes"] > 50
        monkeypatch.setattr(smt, "CUBE_BOUND", 0)
        n_cubes = paths["_decide_by_cubes"]
        assert _replay(cases, InternalSolver()) == by_cubes
        assert paths["_decide_by_cubes"] == n_cubes

    def test_calls_of_verify_runs(self, monkeypatch, paths):
        calls = [call for source in _verify_sources() for encoding in ("sbe", "lbe")
                 for call in _recorded_entailed_calls(source, encoding)]
        paths.clear()
        by_cubes = _replay(calls, InternalSolver())
        assert paths["_decide_by_cubes"] > 1000 and paths["_decide_in_session"] == 0
        monkeypatch.setattr(smt, "CUBE_BOUND", 0)
        assert _replay(calls, InternalSolver()) == by_cubes
        assert paths["_decide_in_session"] == paths["_decide_by_cubes"]

    def test_condition_over_the_bound(self, monkeypatch, paths):
        # the guard is 5 disjunctions `v <= -1 or v >= 1`: 32 cubes
        source = """
            int a; int b; int c; int d; int e; int x;
            a = nondet(); b = nondet(); c = nondet(); d = nondet(); e = nondet();
            x = 0;
            if (a != 0 && b != 0 && c != 0 && d != 0 && e != 0) { x = 1; }
            if (x == 1) { if (c == 0) { error(); } }
        """
        records = []
        for bound in (smt.CUBE_BOUND, 0, 32):
            monkeypatch.setattr(smt, "CUBE_BOUND", bound)
            before = Counter(paths)
            result = verify(parse_program(source), mode="cartesian", solver=InternalSolver())
            stats = result.stats.as_dict()
            del stats["wall_time_ms"]
            records.append((result.verdict, result.reason, stats))
            taken = paths - before
            if bound == 0:
                assert taken["_decide_by_cubes"] == 0
            else:
                assert taken["_decide_by_cubes"] > 0
                # the guard's phi takes the session only below 32
                assert (taken["_decide_in_session"] > 0) == (bound < 32)
        assert records[0] == records[1] == records[2]


class TestSharedTheory:
    """The cube path keeps one theory across entailed calls and syncs it to
    each cube by common prefix; answers must not depend on what it held."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """How often the theory is pushed and a disjunct is refuted."""
        counts = Counter()
        for cls, name in ((_LinTheory, "push"), (InternalSolver, "_refutes")):
            original = getattr(cls, name)

            def counting(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(cls, name, counting)
        return counts

    def test_replay_in_any_order_answers_as_a_fresh_solver(self):
        sources = [gen_test_locks(n, bug=bug) for n in (1, 2, 3, 4) for bug in (False, True)]
        sources += [random_program(k) for k in range(50)]
        calls = [call for source in sources for encoding in ("sbe", "lbe")
                 for call in _recorded_entailed_calls(source, encoding)]
        # no recorded cube has an equality that conflicts on push; these
        # variants open with two that do
        z = tvar("z")
        clash = f_and(compare("==", z, const(0)), compare("==", z, const(1)))
        calls += [(f_and(clash, phi), qs) for phi, qs in calls[::7]]
        fresh = []
        for phi, qs in calls:
            solver = InternalSolver()
            fresh.append((solver.entailed(phi, qs), solver.queries))
        shuffled = list(range(len(calls)))
        random.Random(12).shuffle(shuffled)
        for order in (shuffled, shuffled[::-1]):
            solver = InternalSolver()
            for i in order:
                before = solver.queries
                answer = solver.entailed(*calls[i])
                assert (answer, solver.queries - before) == fresh[i], calls[i]

    def test_a_predicate_the_cubes_state_needs_no_refutation(self, counted):
        x_is_1 = compare("==", tvar("x"), const(1))
        phi = f_or(f_and(x_is_1, compare("==", tvar("y"), const(0))),
                   f_and(x_is_1, compare("==", tvar("y"), const(1))))
        solver = InternalSolver()
        assert solver.entailed(phi, [x_is_1]) == [True]
        assert counted["_refutes"] == 0
        assert solver.entailed(phi, [compare("==", tvar("y"), const(0))]) == [False]

    def test_locks_3_pushes_and_refutes_less(self, counted):
        result = verify(parse_program(gen_test_locks(3)), mode="cartesian",
                        solver=InternalSolver())
        assert result.verdict == "safe"
        # with a fresh theory per cube, SBE+Cartesian test_locks_3 made 2,959
        # _LinTheory.push and 1,374 _refutes calls
        assert counted["push"] <= 2959 // 2
        assert counted["_refutes"] <= 1374 // 2


class TestCheckSatOnTheKeptTheory:
    """check_sat decides one conjunction of atoms on the solver's kept
    theory, as entailed decides a cube, and solves a search's witness there."""

    def test_builds_no_theory_but_the_search(self, monkeypatch):
        solver = InternalSolver()
        built = []
        init = _LinTheory.__init__

        def counting(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(_LinTheory, "__init__", counting)
        x, y = tvar("x"), tvar("y")
        assert solver.check_sat(f_and(compare("<=", x, const(3)),
                                      compare("==", x, y + const(1)))).is_sat
        assert built == []
        assert solver.check_sat(f_or(compare("==", x, const(2)),
                                     compare("==", y, const(7)))).is_sat
        assert len(built) == 1  # the _Dpll's own

    def test_conjunctions_match_theory_check(self):
        rng = random.Random(61)
        solver = InternalSolver()
        statuses = Counter()
        for _ in range(300):
            atoms = [a for a in (_ssa_atom(rng) for _ in range(rng.randint(1, 7)))
                     if isinstance(a, Atom)]
            atoms = list(dict.fromkeys(atoms))  # f_and drops repeats
            phi = f_and(*atoms)
            want = theory_check(atoms)
            if want.is_sat:
                want = smt._fill(phi, want.model, {})
            assert solver.check_sat(phi) == want, atoms
            statuses[want.status] += 1
        assert statuses["sat"] > 30 and statuses["unsat"] > 30

    def test_propositional_literals_go_to_the_search(self, solver):
        v, w = PropVar("v"), PropVar("w")
        x_nonpos = compare("<=", tvar("x"), const(0))
        res = solver.check_sat(f_and(v, f_not(w), x_nonpos))
        assert res.is_sat and res.bools == {"v": True, "w": False}
        assert res.model == {X: 0}
        assert not solver.check_sat(f_and(v, f_not(v), x_nonpos)).is_sat

    def test_interleaved_with_entailed_answers_as_a_fresh_solver(self):
        calls = []
        for phi, qs in _entailment_cases(62, 60):
            calls.append(("entailed", phi, tuple(qs)))
            calls.append(("check_sat", phi))
            calls += [("check_sat", f_and(phi, q)) for q in qs[-4:]]
        calls += [("entailed", phi, tuple(qs)) for phi, qs in
                  _recorded_entailed_calls(gen_test_locks(2), "sbe")]
        calls += [("check_sat", phi) for _, phi, *_ in calls[-40:]]
        unique = {}  # one call per method and formula: no memo hits
        for call in calls:
            unique.setdefault(call[:2], call)
        calls = list(unique.values())

        def ask(solver, call):
            before = solver.theory_checks
            answer = getattr(solver, call[0])(*call[1:])
            return answer, solver.theory_checks - before

        fresh = [ask(InternalSolver(), call) for call in calls]
        order = list(range(len(calls)))
        random.Random(63).shuffle(order)
        solver = InternalSolver()
        for i in order:
            assert ask(solver, calls[i]) == fresh[i], calls[i]


def _valuation_cases(seed: int, count: int):
    """Seeded (phi, qs) with atomic predicates: random phi over a, b, c
    (most of at most CUBE_BOUND cubes, and every third conjoined with four
    random disjunctions, which may take it over), random atoms over them,
    `a == k` (a two-atom complement) and `a <= k`, and atoms over d, which
    phi never mentions.  Every fourth phi also fixes `a = k`, so the
    predicate `a == k + 1` conflicts on push; every seventh opens with two
    equalities that conflict on push, so no cube is satisfiable."""
    rng = random.Random(seed)
    names = ["a", "b", "c"]
    a, z = tvar("a"), tvar("z")
    for i in range(count):
        phi = random_formula(rng, names, depth=2)
        if i % 3 == 2:
            phi = f_and(phi, *(f_or(random_comparison(rng, names), random_comparison(rng, names))
                               for _ in range(4)))
        k = i % 3 - 1
        if i % 4 == 0:
            phi = f_and(compare("==", a, const(k)), phi)
        if i % 7 == 0:
            phi = f_and(compare("==", z, const(0)), compare("==", z, const(1)), phi)
        qs = [compare(rng.choice(["<=", "==", "<", ">"]), random_term(rng, names),
                      random_term(rng, names)) for _ in range(3)]
        qs += [compare("==", a, const(k)), compare("<=", a, const(k)),
               compare("==", a, const(k + 1)),
               compare(rng.choice(["<=", "=="]), tvar("d") + a, const(k))]
        yield phi, list(dict.fromkeys(q for q in qs if isinstance(q, Atom)))


def _valuations_reference(phi, qs):
    """The valuations of qs that extend to a model of phi, one check_sat of
    phi with each q or its negation per valuation, in no order."""
    return {values for values in itertools.product((True, False), repeat=len(qs))
            if InternalSolver().check_sat(f_and(phi, *(q if v else f_not(q)
                                                       for q, v in zip(qs, values)))).is_sat}


class TestValuations:
    """valuations in the kept theory (a phi of at most CUBE_BOUND cubes and
    atomic predicates) against the all_sat fallback and a check_sat per
    valuation."""

    @pytest.fixture
    def paths(self, monkeypatch):
        """How many valuations calls each path took."""
        taken = Counter()
        for name in ("_valuations_by_cubes", "all_sat"):
            original = getattr(InternalSolver, name)

            def counting(self, *args, _name=name, _original=original):
                taken[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(InternalSolver, name, counting)
        return taken

    def test_matches_a_check_sat_per_valuation(self, paths):
        cases = list(_valuation_cases(71, 80))
        solver = InternalSolver()
        sizes = Counter()
        for phi, qs in cases:
            got = solver.valuations(phi, qs)
            assert len(set(got)) == len(got), (phi, qs)
            assert set(got) == _valuations_reference(phi, qs), (phi, qs)
            sizes[min(len(got), 2)] += 1  # none, one, or more
        assert paths["_valuations_by_cubes"] >= 60 and paths["all_sat"] > 0
        assert sizes[0] > 10 and sizes[2] > 40

    def test_cube_path_matches_the_fallback(self, paths):
        cases = list(_valuation_cases(72, 150))
        fallback = [set(smt._SolverBase.valuations(InternalSolver(), phi, qs))
                    for phi, qs in cases]
        assert paths["all_sat"] == len(cases) and paths["_valuations_by_cubes"] == 0
        fresh = [InternalSolver().valuations(phi, qs) for phi, qs in cases]
        assert [set(v) for v in fresh] == fallback
        assert paths["_valuations_by_cubes"] > 100
        # the kept theory holds whatever the calls before left: one solver
        # asked in any order gives each answer a fresh solver gives
        order = list(range(len(cases)))
        random.Random(73).shuffle(order)
        solver = InternalSolver()
        for i in order:
            assert solver.valuations(*cases[i]) == fresh[i], cases[i]

    def test_unsat_phi_and_no_predicates(self, solver):
        contradiction = f_and(compare(">", tvar("x"), const(0)),
                              compare("<", tvar("x"), const(0)))
        assert solver.valuations(contradiction, [X_NONPOS]) == []
        assert solver.valuations(FALSE, []) == []
        assert solver.valuations(contradiction, []) == []
        assert solver.valuations(HALVES, []) == [()]
        assert solver.valuations(TRUE, []) == [()]
        # x = 1/2 is the only model, and it has neither x <= 0 nor the
        # integer complement x >= 1: no valuation extends, as in all_sat
        assert solver.valuations(HALVES, [X_NONPOS]) == []
        assert smt._SolverBase.valuations(solver, HALVES, [X_NONPOS]) == []

    def test_non_atom_predicates_take_the_fallback(self, solver, paths):
        x_le_0, y_le_0 = X_NONPOS, compare("<=", tvar("y"), const(0))
        phi = f_or(compare("==", tvar("x"), const(0)), compare("==", tvar("y"), const(3)))
        for qs in ([f_and(x_le_0, y_le_0)], [x_le_0, compare("!=", tvar("y"), const(3))],
                   [x_le_0, PropVar("v")]):
            before = Counter(paths)
            got = solver.valuations(phi, qs)
            assert paths - before == Counter(all_sat=1), qs
            assert set(got) == _valuations_reference(phi, qs)
        assert solver.valuations(phi, [f_and(x_le_0, y_le_0), x_le_0]) == [
            (True, True), (False, True), (False, False)]

    def test_each_call_is_one_query(self, solver, paths):
        x_is_0 = compare("==", tvar("x"), const(0))
        calls = [(HALVES, [X_NONPOS, x_is_0]), (FALSE, [X_NONPOS]), (TRUE, []),
                 (HALVES, [f_not(x_is_0)]), (f_or(x_is_0, PropVar("v")), [X_NONPOS])]
        for phi, qs in calls * 2:
            before = solver.queries
            solver.valuations(phi, qs)
            assert solver.queries == before + 1, (phi, qs)
        assert paths["_valuations_by_cubes"] == 6 and paths["all_sat"] == 4

    def test_a_precision_deeper_than_the_recursion_limit(self, solver):
        # one cube fixes every predicate true; each q is pushed and checked
        # and each of its complement's two atoms conflicts
        n = 1500
        xs = [tvar("x", i) for i in range(n)]
        ys = [tvar("y", i) for i in range(n)]
        phi = f_and(*(compare("==", x, y) for x, y in zip(xs, ys)),
                    *(compare("==", y, const(i)) for i, y in enumerate(ys)))
        qs = [compare("==", x, const(i)) for i, x in enumerate(xs)]
        assert solver.valuations(phi, qs) == [(True,) * n]
        assert solver.theory_checks == 1 + 3 * n


def test_normalize_memo_keeps_normal_forms():
    memo = {}
    rng = random.Random(74)
    formulas = [random_formula(rng, ["a", "b", "c"], depth=3) for _ in range(300)]
    formulas += [f_and(f, PropVar("v"), f_not(PropVar("w"))) for f in formulas[:50]]
    for f in formulas:
        g = normalize(f, memo)
        assert g == normalize(f)
        # a normalized formula is its own normal form, and f is looked up
        assert normalize(g, memo) is g and normalize(f, memo) is g
        # a new formula over ones met before
        h = f_or(f_not(f), g)
        assert normalize(h, memo) == normalize(h)


def _truth_table_cases():
    """Seeded (phi, important, [phi and one assignment of important]),
    assignments in truth-table order."""
    rng = random.Random(21)
    names = ["v1", "v2", "v3", "v4"]
    for _ in range(30):
        important = names[:rng.randint(1, 4)]
        phi = f_and(
            random_formula(rng, ["a", "b"], depth=1),
            f_or(*(PropVar(n) if rng.random() < 0.6 else f_not(PropVar(n))
                   for n in important)),
        )
        rows = []
        for bits in itertools.product([True, False], repeat=len(important)):
            lits = [PropVar(n) if b else f_not(PropVar(n)) for n, b in zip(important, bits)]
            rows.append((dict(zip(important, bits)), f_and(phi, *lits)))
        yield phi, important, rows


# (phi, important) of the fixed TestAllSat examples
DISJUNCTION = (f_or(PropVar("v1"), PropVar("v2")), ["v1", "v2"])
CONTRADICTION = (f_and(PropVar("v1"), f_not(PropVar("v1"))), ["v1"])
FIXED_X = (f_and(f_iff(compare(">", tvar("x"), const(0)), PropVar("v1")),
                 f_iff(compare("<", tvar("x"), const(5)), PropVar("v2")),
                 compare("==", tvar("x"), const(2))),
           ["v1", "v2"])


class TestAllSat:
    def test_disjunction(self, solver):
        assert solver.all_sat(*DISJUNCTION) == [
            {"v1": True, "v2": True},
            {"v1": True, "v2": False},
            {"v1": False, "v2": True},
        ]

    def test_contradiction(self, solver):
        assert solver.all_sat(*CONTRADICTION) == []

    def test_theory_propagation(self, solver):
        assert solver.all_sat(*FIXED_X) == [{"v1": True, "v2": True}]

    def test_completeness_vs_truth_table(self, solver):
        for trial, (phi, important, rows) in enumerate(_truth_table_cases()):
            got = solver.all_sat(phi, important)
            expected = [sigma for sigma, f in rows if solver.check_sat(f).is_sat]
            assert sorted(got, key=str) == sorted(expected, key=str), (trial, phi)

    def test_no_important_vars(self, solver):
        assert solver.all_sat(compare(">", tvar("x"), const(0)), []) == [{}]
        assert solver.all_sat(FALSE, []) == []


def _marked_cases():
    """Seeded (phi, marks): a random formula with each of four predicates,
    one of them an equality, tied to a propositional mark."""
    rng = random.Random(5)
    names = ["a", "b", "c"]
    for _ in range(60):
        qs = [random_formula(rng, names, depth=1) for _ in range(3)]
        qs.append(compare("==", tvar(rng.choice(names)), const(rng.randint(-1, 1))))
        marks = [f"m{i}" for i in range(len(qs))]
        yield (f_and(random_formula(rng, names, depth=3),
                     *(f_iff(q, PropVar(m)) for q, m in zip(qs, marks))),
               marks)


def _pending_selections(dpll):
    """The selection clauses a decision may take, by a full scan of the
    assignment, in index order: gate true, no literal true and at least
    two literals unassigned."""
    assign = dpll.assign
    for idx in sorted(dpll.cnf.select_guard.values()):
        clause = dpll.cnf.clauses[idx]
        if (assign.get(-clause[0]) is True
                and not any(assign.get(abs(lit)) == (lit > 0) for lit in clause)
                and sum(abs(lit) not in assign for lit in clause) > 1):
            yield clause


class TestSelectionScores:
    """At every decision the active set _Dpll maintains equals a recount,
    and the decision is the pending assumption, else the first unassigned
    important variable, else the first unassigned argument of the
    lowest-index pending selection clause."""

    @pytest.fixture
    def decisions(self, monkeypatch):
        """Per decision: (session, selection clauses, pending selection
        clauses, or None for the assumption or an important variable)."""
        seen = []
        original = _Dpll._next_decision

        def checking(dpll):
            cnf, assign = dpll.cnf, dpll.assign
            assert dpll._active == {idx for g, idx in cnf.select_guard.items()
                                    if assign.get(g) is True}
            lit = original(dpll)
            assumption = dpll._assumption
            important = [v for v in cnf.decisions if v not in assign]
            pending = None
            if assumption is not None and abs(assumption) not in assign:
                want = assumption
            elif important:
                want = important[0]
            else:
                pending = list(_pending_selections(dpll))
                want = (next(x for x in pending[0] if abs(x) not in assign)
                        if pending else None)
            assert lit == want
            seen.append((id(dpll), len(cnf.select_guard), pending))
            return lit

        monkeypatch.setattr(_Dpll, "_next_decision", checking)
        return seen

    def test_all_sat_sessions(self, solver, decisions):
        for phi, marks in _marked_cases():
            solver.all_sat(phi, marks)
        assert len(decisions) > 200
        # decisions that chose among several pending selection clauses
        assert sum(len(pending) > 1 for _, _, pending in decisions if pending) > 100

    def test_add_clause_matches_list_reference(self):
        def reference(lits):
            out = []
            for lit in lits:
                if -lit in out:
                    return None
                if lit not in out:
                    out.append(lit)
            return out

        rng = random.Random(17)
        cnf = _Cnf()
        for _ in range(20):
            cnf.new_var()
        tautologies = 0
        for _ in range(500):
            lits = [rng.choice([-1, 1]) * rng.randint(1, 20)
                    for _ in range(rng.randint(0, 30))]
            want = reference(lits)
            idx = cnf.add_clause(lits)
            if want is None:
                tautologies += 1
                assert idx is None
            else:
                assert cnf.clauses[idx] == want
        assert 50 < tautologies < 450

    def test_entailed_sessions(self, solver, decisions, monkeypatch):
        monkeypatch.setattr(smt, "CUBE_BOUND", 0)  # every phi is over the bound
        for phi, qs in _entailment_cases(43, 120):
            solver.entailed(phi, qs)
        assert len(decisions) > 200
        # complements of equality predicates add selection clauses to a
        # session after its first decisions
        first: dict[int, int] = {}
        grown = 0
        for session, n_select, _ in decisions:
            grown += n_select > first.setdefault(session, n_select)
        assert grown > 20


def _propagation_runs():
    """(source, encoding, mode) of the verify runs whose lemmas are checked:
    LBE+Boolean ladders of 1..6 locks, the bug twins of 2..4 locks under
    LBE+Boolean and SBE+Cartesian, and corpus programs 0..49 under all four
    configurations."""
    for n in range(1, 7):
        yield gen_test_locks(n), "lbe", "boolean"
    for n in range(2, 5):
        for encoding, mode in (("lbe", "boolean"), ("sbe", "cartesian")):
            yield gen_test_locks(n, bug=True), encoding, mode
    for k in range(50):
        for encoding in ("sbe", "lbe"):
            for mode in ("cartesian", "boolean"):
                yield random_program(k), encoding, mode


def _seeded_answers():
    """The answers of a fresh solver to the seeded sessions of TestAllSat
    and TestSelectionScores (all_sat lists, check_sat statuses and
    entailed verdicts), and its theory check count; the entailed sessions
    need CUBE_BOUND 0, as in TestSelectionScores."""
    solver = InternalSolver()
    answers = [solver.all_sat(*case) for case in (DISJUNCTION, CONTRADICTION, FIXED_X)]
    answers.append(solver.all_sat(compare(">", tvar("x"), const(0)), []))
    for phi, important, rows in _truth_table_cases():
        answers.append(solver.all_sat(phi, important))
        answers.append([solver.check_sat(f).status for _, f in rows])
    for phi, marks in _marked_cases():
        answers.append(solver.all_sat(phi, marks))
    for phi, qs in _entailment_cases(43, 120):
        answers.append(solver.entailed(phi, qs))
    return answers, solver.theory_checks


class TestTheoryPropagation:
    """Atoms over variables that the asserted equalities fix are assigned
    without a decision, each with a lemma as its reason."""

    def test_every_lemma_is_sound(self, monkeypatch):
        lemmas = set()  # (antecedent atoms, implied atom, its value)
        original = _Dpll._imply_fixed

        def recording(dpll):
            n = len(dpll.cnf.clauses)
            try:
                return original(dpll)
            finally:
                atom_of = dpll.cnf.atom_of
                for lit, *rest in dpll.cnf.clauses[n:]:
                    lemmas.add((tuple(atom_of[-o] for o in rest), atom_of[abs(lit)], lit > 0))

        monkeypatch.setattr(_Dpll, "_imply_fixed", recording)
        for source, encoding, mode in _propagation_runs():
            program = parse_program(source)
            if encoding == "lbe":
                program, _ = summarize(program)
            verify(program, mode=mode, solver=InternalSolver())
        assert len(lemmas) > 50
        assert {value for _, _, value in lemmas} == {True, False}
        for antecedents, atom, value in lemmas:
            complement = [atom] if not value else list(smt._disjuncts(normalize(f_not(atom))))
            for c in complement:
                assert not theory_check(list(antecedents) + [c]).is_sat, (antecedents, atom, value)

    def test_answers_match_the_search_without_propagation(self, monkeypatch):
        monkeypatch.setattr(smt, "CUBE_BOUND", 0)  # every phi gets a session
        answers, checks = _seeded_answers()
        monkeypatch.setattr(_Dpll, "_imply_fixed", lambda dpll: None)
        answers_without, checks_without = _seeded_answers()
        assert answers == answers_without
        assert checks < checks_without

    @pytest.mark.parametrize("n", [10, 20, 40])
    def test_lock_ladder_counts_grow_linearly(self, n):
        # without propagation: 190/580/1,960 theory checks and
        # 186/576/1,956 decisions at n = 10/20/40
        program, _ = summarize(parse_program(gen_test_locks(n)))
        solver = InternalSolver()
        assert verify(program, mode="boolean", solver=solver).verdict == "safe"
        assert solver.theory_checks <= 8 * n
        assert solver.decisions <= 8 * n
        assert 0 < solver.conflicts <= solver.decisions


@pytest.fixture(scope="module")
def ext():
    solver = Smtlib2Solver(MOCK_SOLVER_CMD)
    yield solver
    solver.close()


class TestExternalBackend:
    """Protocol-level checks against a local SMT-LIB2 test double."""

    def test_verdicts_and_model(self, ext):
        f = f_and(
            f_or(compare("==", tvar("x"), const(2)), compare("==", tvar("x"), const(7))),
            compare("<", tvar("x"), const(5)),
        )
        res = ext.check_sat(f)
        assert res.is_sat
        assert evaluate(f, res.model)
        g = f_and(compare(">", tvar("x"), const(0)), compare("<", tvar("x"), const(0)))
        assert ext.check_sat(g).status == "unsat"

    def test_all_sat_same_set(self, ext, solver):
        f = f_or(PropVar("v1"), f_and(PropVar("v2"), compare(">", tvar("x"), const(0))))
        got = ext.all_sat(f, ["v1", "v2"])
        want = solver.all_sat(f, ["v1", "v2"])
        assert sorted(got, key=str) == sorted(want, key=str)

    def test_agreement_on_random_formulas(self, ext, solver):
        rng = random.Random(31)
        for _ in range(60):
            phi = random_formula(rng, ["a", "b"], depth=2)
            assert ext.check_sat(phi).status == solver.check_sat(phi).status, phi

    def test_entailed_agrees_with_internal(self, ext):
        cases = list(_entailment_cases(43, 40))
        cases.append((HALVES, [X_NONPOS, compare("==", tvar("x"), tvar("y"))]))
        for phi, qs in cases:
            before = ext.queries
            want = InternalSolver().entailed(phi, qs)
            assert ext.entailed(phi, qs) == want, (phi, qs)
            assert ext.queries == before + 1 + (0 if want is None else len(qs))

    def test_valuations_agree_with_internal(self, ext):
        for phi, qs in _valuation_cases(75, 30):
            before = ext.queries
            assert set(ext.valuations(phi, qs)) == set(InternalSolver().valuations(phi, qs))
            assert ext.queries == before + 1

    def test_sbe_cartesian_run_matches_internal(self):
        program = parse_program(gen_test_locks(2))
        ext = Smtlib2Solver(MOCK_SOLVER_CMD)
        try:
            got = verify(program, mode="cartesian", solver=ext)
        finally:
            ext.close()
        want = verify(program, mode="cartesian", solver=InternalSolver())
        assert got.verdict == want.verdict == "safe"
        got_stats, want_stats = got.stats.as_dict(), want.stats.as_dict()
        del got_stats["wall_time_ms"], want_stats["wall_time_ms"]
        assert got_stats == want_stats

    def test_all_sat_pops_its_frame_on_an_unexpected_reply(self):
        ext = Smtlib2Solver(MOCK_SOLVER_CMD)
        try:
            read = ext._read_sexpr
            verdicts = []

            def second_verdict_unknown():
                # the process's reply is read in any case, so the stream
                # stays in step; the second check-sat answer reads unknown
                reply = read()
                if reply in ("sat", "unsat"):
                    verdicts.append(reply)
                    if len(verdicts) == 2:
                        return "unknown"
                return reply

            ext._read_sexpr = second_verdict_unknown
            phi = f_and(compare(">", tvar("x"), const(0)), PropVar("v"))
            with pytest.raises(RuntimeError, match="unknown"):
                ext.all_sat(phi, ["v"])
            del ext._read_sexpr
            assert verdicts == ["sat", "unsat"]
            assert ext.check_sat(compare("<", tvar("x"), const(0))).is_sat
        finally:
            ext.close()

    def test_close_kills_a_process_that_outlives_the_wait(self, monkeypatch):
        ext = Smtlib2Solver(MOCK_SOLVER_CMD)
        assert ext.check_sat(compare(">", tvar("x"), const(0))).is_sat
        proc, wait, kill = ext.proc, ext.proc.wait, ext.proc.kill
        calls = []

        def wait_once(timeout=None):
            calls.append(("wait", timeout))
            if len(calls) == 1:
                raise subprocess.TimeoutExpired(ext.command, timeout)
            return wait(timeout=timeout)

        monkeypatch.setattr(proc, "wait", wait_once)
        monkeypatch.setattr(proc, "kill", lambda: calls.append(("kill",)) or kill())
        ext.close()
        assert ext.proc is None
        assert calls == [("wait", 5), ("kill",), ("wait", None)]
        assert proc.poll() is not None

    def test_indexed_variables_round_trip(self, ext):
        f = compare("==", tvar("x", 3), const(4))
        res = ext.check_sat(f)
        assert res.is_sat
        assert res.model[VariableRef("x", 3)] == Fraction(4)


def test_make_solver_selects_backend():
    assert isinstance(make_solver(), InternalSolver)
    assert isinstance(make_solver("internal"), InternalSolver)
    ext = make_solver(MOCK_SOLVER_CMD)
    assert isinstance(ext, Smtlib2Solver)
    ext.close()


def test_query_counter(solver):
    before = solver.queries
    solver.check_sat(TRUE)
    solver.entails(TRUE, TRUE)
    assert solver.queries == before + 2


def test_theory_check_counter_counts_unsat_conjunctions():
    solver = InternalSolver()
    solver.check_sat(f_and(compare(">", tvar("x"), const(0)), compare("<", tvar("x"), const(0))))
    assert solver.theory_checks == 1
    solver.check_sat(compare(">", tvar("x"), const(0)))
    assert solver.theory_checks == 2


def test_entailed_stops_at_the_first_satisfiable_cube_once_nothing_is_open():
    x, y = tvar("x"), tvar("y")
    phi = f_or(f_and(compare("==", x, const(1)), compare("<=", y, const(0))),
               f_and(compare("==", x, const(2)), compare(">=", y, const(3))))
    solver = InternalSolver()
    assert solver.entailed(phi, []) == []
    assert solver.theory_checks == 1
    # a predicate refuted by the first cube's model is closed there too
    solver = InternalSolver()
    assert solver.entailed(phi, [compare("==", x, const(2))]) == [False]
    assert solver.theory_checks == 1
