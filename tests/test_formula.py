import itertools
import random
import time

import pytest

from lbemc.cfa import summarize
from lbemc.cli import gen_test_locks
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
from lbemc.smt import normalize

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
    2**depth paths; also returns every node built, in construction order."""
    f = compare("<=", tvar("x"), const(leaf))
    nodes = [f]
    for i in range(depth):
        a = compare("<=", tvar("y", i), const(0))
        b = compare(">=", tvar("y", i), const(2))
        below = [f_not(f), f_not(f)] if negate else [f, f]
        left, right = f_or(below[0], a), f_or(below[1], b)
        f = f_and(left, right)
        nodes += [a, b, *below[:2 if negate else 0], left, right, f]
    return f, nodes


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
    # a comparison meets the two atoms of each level once and the shared
    # leaf atom once from each of the two lowest nodes above it: 2 * DEPTH + 2
    # atom comparisons, where one per path would be about 2**DEPTH

    @pytest.mark.parametrize("negate", [False, True])
    def test_shared_subformulas_compare_once(self, negate, atom_comparisons):
        one, _ = _shared_dag(DEPTH, 0, negate)
        two, _ = _shared_dag(DEPTH, 0, negate)
        assert one is not two
        atom_comparisons[0] = 0
        assert one == two
        assert atom_comparisons[0] <= 2 * DEPTH + 2
        atom_comparisons[0] = 0
        assert {one: 1}[two] == 1
        assert atom_comparisons[0] <= 2 * DEPTH + 2

    @pytest.mark.parametrize("negate", [False, True])
    def test_difference_below_equal_hashes(self, negate, atom_comparisons):
        one, one_nodes = _shared_dag(DEPTH, 0, negate)
        two, two_nodes = _shared_dag(DEPTH, 1, negate)
        # give the second formula the first one's hashes, as if they all
        # collided, so only the walk down to the leaf can tell them apart
        for p, q in zip(one_nodes, two_nodes):
            object.__setattr__(q, "_h", p._h)
        atom_comparisons[0] = 0
        assert one != two and not (one == two)
        assert atom_comparisons[0] <= 2 * (2 * DEPTH + 2)
        assert _shared_dag(DEPTH, 0, negate)[0] == one


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
        f, _ = _shared_dag(12, 0)
        assert REPR_LIMIT < len(str(f)) <= REPR_WHOLE
        assert repr(f) == f"<{str(f)}>"
        f, _ = _shared_dag(13, 0)
        assert len(str(f)) > REPR_WHOLE and len(repr(f)) <= REPR_LIMIT + len("<...>")

    def test_a_shared_dag_shows_a_bounded_text(self):
        f, _ = _shared_dag(60, 0, negate=True)  # 2**60 paths
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
