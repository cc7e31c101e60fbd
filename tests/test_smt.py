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
from lbemc.cli import gen_test_locks
from lbemc.engine import verify
from lbemc.frontend import parse_program
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

    def test_entailed_agrees_with_internal(self, ext):
        cases = list(_entailment_cases(43, 40))
        cases.append((HALVES, [X_NONPOS, compare("==", tvar("x"), tvar("y"))]))
        for phi, qs in cases:
            before = ext.queries
            want = InternalSolver().entailed(phi, qs)
            assert ext.entailed(phi, qs) == want, (phi, qs)
            assert ext.queries == before + 1 + (0 if want is None else len(qs))

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
