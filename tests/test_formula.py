import gc
import itertools
import random
import sys
import time

import pytest

from lbemc import formula
from lbemc.cfa import summarize
from lbemc.cli import gen_test_locks
from lbemc.engine import verify
from lbemc.formula import (
    REPR_LIMIT,
    REPR_WHOLE,
    And,
    Atom,
    FALSE,
    FalseF,
    Not,
    Or,
    PropVar,
    TRUE,
    TrueF,
    Term,
    VariableRef,
    atoms,
    compare,
    evaluate,
    f_and,
    f_not,
    f_or,
    parse_sexpr,
    rename,
    to_sexpr,
    variables,
)
from lbemc.frontend import parse_program
from lbemc.semantics import encode_edge
from lbemc.smt import InternalSolver, normalize

from conftest import const, tvar

X = VariableRef("x")
Y = VariableRef("y")


class TestCanonicalization:
    def test_strict_lower_tightened(self):
        # x > 0 over integers is x >= 1
        assert to_sexpr(compare(">", tvar("x"), const(0))) == "(<= (+ (* -1 x) 1) 0)"

    def test_strict_upper_tightened(self):
        assert to_sexpr(compare("<", tvar("x"), const(0))) == "(<= (+ x 1) 0)"

    def test_gcd_reduction_exact(self):
        assert compare("<=", tvar("x").scale(2), const(4)) == compare(
            "<=", tvar("x"), const(2)
        )

    def test_gcd_reduction_tightens_constant(self):
        # 2x <= 3 has the same integer solutions as x <= 1
        assert compare("<=", tvar("x").scale(2), const(3)) == compare(
            "<=", tvar("x"), const(1)
        )

    def test_equality_without_integer_solutions_is_false(self):
        # the coefficient gcd 2 does not divide the constant
        assert compare("==", tvar("x").scale(2), const(1)) is FALSE
        assert compare("==", tvar("x").scale(2) + tvar("y").scale(2), const(3)) is FALSE
        assert compare("!=", tvar("x").scale(2), const(1)) is TRUE
        assert compare("==", tvar("x").scale(2), const(4)) == compare("==", tvar("x"), const(2))

    def test_equality_sign_normalized(self):
        a = compare("==", -tvar("x"), -tvar("y"))
        b = compare("==", tvar("x"), tvar("y"))
        assert a == b

    def test_not_equal_becomes_negated_atom(self):
        f = compare("!=", tvar("x"), const(1))
        assert isinstance(f, Not)
        assert isinstance(f.arg, Atom)

    def test_constant_comparisons_fold(self):
        assert compare("<=", const(1), const(2)) is TRUE
        assert compare(">", const(1), const(2)) is FALSE
        assert compare("==", const(3), const(3)) is TRUE

    @pytest.mark.parametrize("rel", ["==", "!=", "<", "<=", ">", ">="])
    def test_canonical_form_is_integer_equivalent(self, rel):
        # brute force over a small integer grid: the canonical atom agrees
        # with the raw comparison at every point
        lhs = tvar("x").scale(2) + tvar("y").scale(-3) + 1
        rhs = tvar("y") - 2
        f = compare(rel, lhs, rhs)
        py = {"==": lambda a, b: a == b, "!=": lambda a, b: a != b,
              "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
              ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}[rel]
        for xv, yv in itertools.product(range(-4, 5), repeat=2):
            env = {X: xv, Y: yv}
            expected = py(lhs.evaluate(env), rhs.evaluate(env))
            assert evaluate(f, env) == expected, (rel, xv, yv)


class TestAtoms:
    def test_negation_collapses(self):
        g = compare(">", tvar("x"), const(0))
        assert atoms(f_and(g, f_not(g))) == {g}

    def test_index_stripping(self):
        f = f_or(
            compare("==", tvar("x", 3), const(1)),
            compare("<=", tvar("y", 2), const(0)),
        )
        assert atoms(f) == {
            compare("==", tvar("x"), const(1)),
            compare("<=", tvar("y"), const(0)),
        }

    def test_true_has_no_atoms(self):
        assert atoms(TRUE) == frozenset()

    def test_degenerate_stripped_atom_dropped(self):
        # x@2 - x@1 = 0 collapses to 0 = 0 once indices are stripped
        f = compare("==", tvar("x", 2), tvar("x", 1))
        assert atoms(f) == frozenset()


class TestRename:
    def test_simple(self):
        f = compare("==", tvar("x"), const(0))
        xh = VariableRef("x", 1)
        assert rename(f, {X: xh}) == compare("==", Term.variable(xh), const(0))

    def test_two_variables(self):
        f = compare("==", tvar("x"), tvar("y"))
        a, b = VariableRef("a"), VariableRef("b")
        assert rename(f, {X: a, Y: b}) == compare(
            "==", Term.variable(a), Term.variable(b)
        )

    def test_identity_on_true(self):
        assert rename(TRUE, {X: Y}) is TRUE

    def test_non_injective_rejected(self):
        f = compare("==", tvar("x"), tvar("y"))
        with pytest.raises(ValueError):
            rename(f, {X: Y})


class TestStructure:
    def test_and_or_simplification(self):
        a = compare(">", tvar("x"), const(0))
        assert f_and(a, TRUE) == a
        assert f_and(a, FALSE) is FALSE
        assert f_or(a, TRUE) is TRUE
        assert f_and(a, a) == a
        assert f_and() is TRUE
        assert f_or() is FALSE

    def test_double_negation(self):
        a = compare(">", tvar("x"), const(0))
        assert f_not(f_not(a)) == a

    def test_nnf_pushes_negation_inward(self):
        a = compare(">", tvar("x"), const(0))
        b = PropVar("v")
        f = f_not(f_and(a, f_or(b, f_not(a))))
        g = normalize(f)

        def check(h):
            # negated atoms are folded into their complements
            if isinstance(h, Not):
                assert isinstance(h.arg, PropVar)
            elif hasattr(h, "args"):
                for sub in h.args:
                    check(sub)

        check(g)

    def test_variables(self):
        f = f_and(compare("==", tvar("x", 2), const(0)), compare(">", tvar("y"), const(1)))
        assert variables(f) == {VariableRef("x", 2), Y}


class TestSexpr:
    @pytest.mark.parametrize(
        "text",
        [
            "true",
            "false",
            "(<= (+ x -1) 0)",
            "(and (<= (+ x -1) 0) (or v1 (not v2)))",
            "(= (+ (* 2 x) (* -1 y@3) 5) 0)",
        ],
    )
    def test_round_trip(self, text):
        f = parse_sexpr(text)
        assert parse_sexpr(to_sexpr(f)) == f

    def test_sugar_relations_canonicalized(self):
        assert parse_sexpr("(> x 0)") == compare(">", tvar("x"), const(0))
        assert parse_sexpr("(!= x 1)") == compare("!=", tvar("x"), const(1))

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_sexpr("(and (<= x 0)")
        with pytest.raises(ValueError):
            parse_sexpr("(frob x y)")


def test_evaluate_with_propvars():
    f = f_and(PropVar("v"), compare(">", tvar("x"), const(0)))
    assert evaluate(f, {X: 1}, {"v": True})
    assert not evaluate(f, {X: 1}, {"v": False})
    with pytest.raises(KeyError):
        evaluate(f, {X: 1}, {})


def _shared_dag(depth: int, leaf: int, negate: bool = False):
    """A depth-`depth` formula in which every level uses the level below
    twice (under two separately built `Not`s when `negate`), so it has
    2**depth paths."""
    f = compare("<=", tvar("x"), const(leaf))
    for i in range(depth):
        a = compare("<=", tvar("y", i), const(0))
        b = compare(">=", tvar("y", i), const(2))
        below = [f_not(f), f_not(f)] if negate else [f, f]
        f = f_and(f_or(below[0], a), f_or(below[1], b))
    return f


DEPTH = 16


@pytest.fixture
def atom_comparisons(monkeypatch):
    """Counts Atom.__eq__ calls; reset it after building the formulas."""
    calls = [0]
    eq = Atom.__eq__

    def counting(self, other):
        calls[0] += 1
        return eq(self, other)

    monkeypatch.setattr(Atom, "__eq__", counting)
    return calls


class TestDagEquality:
    # formulas are hash-consed: a DAG built again is the same object, so a
    # comparison or a dict lookup compares no atoms, however many paths the
    # DAG has (2**DEPTH here)

    @pytest.mark.parametrize("negate", [False, True])
    def test_equal_dags_built_apart_are_one_object(self, negate, atom_comparisons):
        one = _shared_dag(DEPTH, 0, negate)
        two = _shared_dag(DEPTH, 0, negate)
        assert one is two
        atom_comparisons[0] = 0
        assert {one: 1}[two] == 1
        assert atom_comparisons[0] == 0

    @pytest.mark.parametrize("negate", [False, True])
    def test_dags_that_differ_at_a_leaf_are_distinct(self, negate):
        one = _shared_dag(DEPTH, 0, negate)
        two = _shared_dag(DEPTH, 1, negate)
        assert one is not two
        assert one != two and not (one == two)
        assert two not in {one: 1}


class TestInternTable:
    # the table holds its nodes weakly: once nothing else holds a node, its
    # entry goes, and with it the references its key holds to its children

    def test_constructors_return_the_live_node(self):
        atom = compare("<=", tvar("x"), const(0))
        assert Atom(atom.rel, Term(atom.term.const, atom.term.coeffs)) is atom
        assert Not(atom) is Not(atom) and PropVar("v") is PropVar("v")
        assert And((atom, PropVar("v"))) is And((atom, PropVar("v")))
        assert Or((atom, PropVar("v"))) is not And((atom, PropVar("v")))
        assert TrueF() is TRUE and FalseF() is FALSE

    def test_a_verification_leaves_the_table_as_it_found_it(self):
        gc.collect()
        before = len(formula._table)
        for encoding, mode in (("sbe", "cartesian"), ("lbe", "boolean")):
            program = parse_program(gen_test_locks(4))
            if encoding == "lbe":
                program = summarize(program)[0]
            solver = InternalSolver()
            result = verify(program, mode=mode, solver=solver)
            assert result.verdict == "safe"
            assert len(formula._table) > before
            del program, solver, result
        gc.collect()
        assert len(formula._table) == before

    @pytest.mark.parametrize("build", [Not, lambda f: And((PropVar("v"), f))],
                             ids=["not", "and"])
    def test_a_deep_chain_frees_without_error(self, build, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        gc.collect()
        before = len(formula._table)
        f = compare("<=", tvar("chain"), const(0))
        for _ in range(200_000):
            f = build(f)
        assert len(formula._table) >= before + 200_000
        del f
        gc.collect()
        assert unraisable == []
        assert len(formula._table) == before

    def test_a_late_callback_leaves_a_newer_entry(self):
        # a garbage collection clears the weak references to the nodes it
        # frees before it runs their callbacks, so a key can be entered
        # again, for a new node, before the callback of the old one runs
        key = (PropVar, "late")
        node = PropVar("late")
        old = formula._table.pop(key)
        again = PropVar("late")
        assert again is not node
        formula._forget(old)
        assert formula._table[key]() is again
        del node
        assert formula._table[key]() is again
        del again
        assert key not in formula._table


def _ref_assoc(cls, absorb, unit, args):
    """f_and / f_or as they compared every argument with both constants."""
    flat, seen = [], set()
    for a in args:
        for x in (a.args if isinstance(a, cls) else (a,)):
            if x == absorb:
                return absorb
            if x == unit or x in seen:
                continue
            seen.add(x)
            flat.append(x)
    if not flat:
        return unit
    return flat[0] if len(flat) == 1 else cls(tuple(flat))


class TestAssoc:
    def test_matches_comparing_with_the_constants(self):
        rng = random.Random(7)
        leaves = [TRUE, FALSE, TrueF(), FalseF(), PropVar("v"), f_not(PropVar("v")),
                  compare("<=", tvar("x"), const(0)), compare("==", tvar("y"), const(1))]
        for _ in range(500):
            pool = list(leaves)
            for _ in range(3):  # nested operands, flattened one level
                part = rng.sample(pool, rng.randint(0, 3))
                pool += [f_and(*part), f_or(*part)]
            args = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
            assert f_and(*args) == _ref_assoc(And, FALSE, TRUE, args), args
            assert f_or(*args) == _ref_assoc(Or, TRUE, FALSE, args), args

    def test_constants_are_told_by_type(self, atom_comparisons):
        atoms = [compare("<=", tvar("x", i), const(0)) for i in range(50)]
        atom_comparisons[0] = 0
        f_and(*atoms, TRUE)
        f_or(FALSE, *atoms)
        # comparing each argument with both constants made 200 calls
        assert atom_comparisons[0] == 0


class TestRepr:
    def test_a_text_up_to_the_whole_limit_is_shown_whole(self):
        f = parse_sexpr("(and (<= x 0) (or v (not w)))")
        assert repr(f) == f"<{to_sexpr(f)}>"
        # 12 levels of a shared DAG write out to about 245,000 characters
        # and 13 to about twice that
        f = _shared_dag(12, 0)
        assert REPR_LIMIT < len(str(f)) <= REPR_WHOLE
        assert repr(f) == f"<{str(f)}>"
        f = _shared_dag(13, 0)
        assert len(str(f)) > REPR_WHOLE and len(repr(f)) <= REPR_LIMIT + len("<...>")

    def test_a_shared_dag_shows_a_bounded_text(self):
        f = _shared_dag(60, 0, negate=True)  # 2**60 paths
        text = repr(f)
        assert text.startswith("<(and (or (not ") and text.endswith("...>")
        assert len(text) <= REPR_LIMIT + len("<...>")

    def test_the_error_edge_of_forty_locks(self):
        # written out in full, this edge is 15 MB at 8 locks and does not
        # fit in memory at 12
        program, _ = summarize(parse_program(gen_test_locks(40)))
        (edge,) = [e for e in program.cfa.edges if e.target == program.error]
        phi, _ = encode_edge(edge.op, {})
        start = time.perf_counter()
        text = repr(phi)
        assert time.perf_counter() - start < 2.0
        assert len(text) <= REPR_LIMIT + len("<...>")
