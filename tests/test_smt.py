import itertools
import random
from fractions import Fraction

import pytest

from lbemc.formula import (
    Atom,
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
)
from lbemc.oracle import _eliminate, random_formula
from lbemc.smt import (
    InternalSolver,
    Smtlib2Solver,
    _LinTheory,
    _TheoryConflict,
    _lin_of_atom,
    _solve_lin,
    make_solver,
    theory_check,
)

from conftest import MOCK_SOLVER_CMD, const, tvar

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
        return "sat", theory.model()
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
                # an independent eliminator agrees that the atoms are unsat
                with pytest.raises(_TheoryConflict):
                    _eliminate(core_lins, {v for c in core_lins for v in c.coeffs})
                theory.pop_to(len(pushed) - 1)  # back to a satisfiable state
                del stack[len(pushed) - 1:]
        assert unsat_seen > 20


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


class TestAllSat:
    def test_disjunction(self, solver):
        res = solver.all_sat(f_or(PropVar("v1"), PropVar("v2")), ["v1", "v2"])
        assert res == [
            {"v1": True, "v2": True},
            {"v1": True, "v2": False},
            {"v1": False, "v2": True},
        ]

    def test_contradiction(self, solver):
        assert solver.all_sat(f_and(PropVar("v1"), f_not(PropVar("v1"))), ["v1"]) == []

    def test_theory_propagation(self, solver):
        f = f_and(
            f_iff(compare(">", tvar("x"), const(0)), PropVar("v1")),
            f_iff(compare("<", tvar("x"), const(5)), PropVar("v2")),
            compare("==", tvar("x"), const(2)),
        )
        assert solver.all_sat(f, ["v1", "v2"]) == [{"v1": True, "v2": True}]

    def test_completeness_vs_truth_table(self, solver):
        rng = random.Random(21)
        names = ["v1", "v2", "v3", "v4"]
        for trial in range(30):
            k = rng.randint(1, 4)
            important = names[:k]
            phi = f_and(
                random_formula(rng, ["a", "b"], depth=1),
                f_or(*(PropVar(n) if rng.random() < 0.6 else f_not(PropVar(n))
                       for n in important)),
            )
            got = solver.all_sat(phi, important)
            expected = []
            for bits in itertools.product([True, False], repeat=k):
                sigma = dict(zip(important, bits))
                lits = [PropVar(n) if b else f_not(PropVar(n)) for n, b in sigma.items()]
                if solver.check_sat(f_and(phi, *lits)).is_sat:
                    expected.append(sigma)
            assert sorted(got, key=str) == sorted(expected, key=str), (trial, phi)

    def test_no_important_vars(self, solver):
        assert solver.all_sat(compare(">", tvar("x"), const(0)), []) == [{}]
        assert solver.all_sat(FALSE, []) == []


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
