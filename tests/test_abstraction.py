import itertools
import random

import pytest

import lbemc.abstraction
from lbemc.abstraction import (
    Abstractor,
    BOOLEAN,
    CARTESIAN,
    Precision,
    ProgramPrecision,
)
from lbemc.cfa import summarize
from lbemc.cli import gen_test_locks
from lbemc.engine import verify
from lbemc.formula import Atom, FALSE, TRUE, _dag_nodes, compare, f_and, f_not, f_or
from lbemc.frontend import parse_program
from lbemc.oracle import random_program
from lbemc.semantics import Assign, Assume, Choice, Seq
from lbemc.smt import InternalSolver, normalize

from conftest import const, tvar
from references import random_formula, semantically_equivalent


@pytest.fixture
def ab(solver):
    return Abstractor(solver)


def minterm_disjunction(ab, phi, pi):
    """Independent brute force: disjoin every satisfiable full minterm."""
    node = ab.bdd.FALSE
    for bits in itertools.product([True, False], repeat=len(pi.preds)):
        lits = [p if b else f_not(p) for p, b in zip(pi.preds, bits)]
        if ab.solver.check_sat(f_and(phi, *lits)).is_sat:
            cube = ab.bdd.cube([(ab.pred_id(p), b) for p, b in zip(pi.preds, bits)])
            node = ab.bdd.apply_or(node, cube)
    return node


class TestCartesian:
    def test_partial_entailment(self, ab):
        phi = f_or(compare("==", tvar("x"), const(2)), compare("==", tvar("x"), const(7)))
        pos = compare(">", tvar("x"), const(0))
        lt5 = compare("<", tvar("x"), const(5))
        got = ab.cartesian_abstract(phi, Precision([pos, lt5]))
        assert got.node == ab.bdd.var(ab.pred_id(pos))

    def test_true_gives_empty_conjunction(self, ab):
        got = ab.cartesian_abstract(TRUE, Precision([compare(">", tvar("x"), const(0))]))
        assert got.is_true

    def test_unsat_input_is_false(self, ab):
        phi = f_and(compare(">", tvar("x"), const(0)), compare("<", tvar("x"), const(0)))
        got = ab.cartesian_abstract(phi, Precision([compare(">", tvar("x"), const(0))]))
        assert got.is_false


class TestBoolean:
    def test_keeps_disjunctive_shape(self, ab):
        phi = f_or(compare("==", tvar("x"), const(2)), compare("==", tvar("x"), const(7)))
        pos = compare(">", tvar("x"), const(0))
        lt5 = compare("<", tvar("x"), const(5))
        got = ab.boolean_abstract(phi, Precision([pos, lt5]))
        # (x>0 and x<5) or (x>0 and not x<5) -- reduces to x>0 canonically
        assert got.node == ab.bdd.var(ab.pred_id(pos))
        # but it is strictly the minterm disjunction, verified by brute force
        assert got.node == minterm_disjunction(ab, phi, Precision([pos, lt5]))

    def test_single_assignment(self, ab):
        phi = compare("==", tvar("x"), const(2))
        pos = compare(">", tvar("x"), const(0))
        got = ab.boolean_abstract(phi, Precision([pos]))
        assert got.node == ab.bdd.var(ab.pred_id(pos))

    def test_false_input(self, ab):
        pi = Precision([compare(">", tvar("x"), const(0)),
                        compare(">", tvar("y"), const(0))])
        assert ab.boolean_abstract(FALSE, pi).is_false


class TestAbstractPost:
    def test_assume_entailed_predicate_keeps_state(self, ab):
        p = compare("==", tvar("l1"), const(1))
        pi = Precision([p])
        state = ab.boolean_abstract(p, pi)
        post = ab.abstract_post(state, Assume(p), pi, BOOLEAN)
        assert post == state

    def test_assign_in_both_modes(self, ab):
        pi = Precision([compare(">", tvar("x"), const(0))])
        for mode in (CARTESIAN, BOOLEAN):
            post = ab.abstract_post(ab.true_state(), Assign("x", const(1)), pi, mode)
            assert post.node == ab.bdd.var(ab.pred_id(pi.preds[0]))

    def test_contradicting_assume_is_false(self, ab):
        pos = compare(">", tvar("x"), const(0))
        pi = Precision([pos])
        state = ab.boolean_abstract(pos, pi)
        post = ab.abstract_post(state, Assume(compare("<", tvar("x"), const(0))), pi, BOOLEAN)
        assert post.is_false

    def test_cartesian_choice_join_drops_correlation(self, ab):
        # after the choice, each branch knows its own fact, the join neither
        a = compare("==", tvar("x"), const(1))
        b = compare("==", tvar("y"), const(1))
        pi = Precision([a, b])
        op = Choice(Assign("x", const(1)), Assign("y", const(1)))
        post_c = ab.abstract_post(ab.true_state(), op, pi, CARTESIAN)
        assert post_c.is_true
        post_b = ab.abstract_post(ab.true_state(), op, pi, BOOLEAN)
        assert not post_b.is_true  # boolean keeps the disjunction

    def test_cartesian_seq_composes(self, ab):
        p = compare(">", tvar("x"), const(0))
        pi = Precision([p])
        op = Seq(Assign("x", const(2)), Assume(compare("<", tvar("x"), const(1))))
        post = ab.abstract_post(ab.true_state(), op, pi, CARTESIAN)
        assert post.is_false  # the assume is dead after the assignment

    def test_cartesian_seq_nesting_does_not_matter(self):
        a = Assign("x", const(1))
        b = Assume(compare(">", tvar("x"), const(0)))
        c = Assign("y", tvar("x"))
        pi = Precision([compare(">", tvar("x"), const(0)), compare("==", tvar("y"), const(1))])
        posts = []
        for ops in ([Seq(Seq(a, b), c)], [Seq(a, Seq(b, c))], [a, b, c]):
            ab = Abstractor(InternalSolver())
            state = ab.true_state()
            for op in ops:
                state = ab.abstract_post(state, op, pi, CARTESIAN)
            posts.append((state.node, ab.solver.queries))
        # one post per element, in order: y = 1 is lost, since the
        # conjunction x > 0 no longer knows that x = 1
        assert posts[0] == posts[1] == posts[2]
        assert posts[0][0] == ab.bdd.var(ab.pred_id(pi.preds[0]))

    def test_cartesian_memo_has_no_seq_key(self, monkeypatch):
        abstractors = []
        init = Abstractor.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            abstractors.append(self)

        monkeypatch.setattr(Abstractor, "__init__", recording)
        p, _ = summarize(parse_program(gen_test_locks(3)))
        verify(p, mode=CARTESIAN, solver=InternalSolver())
        [ab] = abstractors
        ops = [op for _, op, _, _ in ab._post_memo]
        assert any(isinstance(op, Choice) for op in ops)
        assert not any(isinstance(op, Seq) for op in ops)


class TestProperties:
    def test_strongest_boolean_oracle_and_soundness(self, ab):
        rng = random.Random(40)
        names = ["a", "b", "c"]
        for _ in range(40):
            phi = random_formula(rng, names, depth=2)
            preds = []
            while len(preds) < rng.randint(1, 3):
                p = random_formula(rng, names, depth=0)
                if p not in preds and p not in (TRUE, FALSE):
                    preds.append(p)
            pi = Precision(preds)
            boolean = ab.boolean_abstract(phi, pi)
            cartesian = ab.cartesian_abstract(phi, pi)
            assert boolean.node == minterm_disjunction(ab, phi, pi)
            # soundness: phi entails both concretizations
            assert ab.solver.entails(phi, ab.concretize(boolean))
            assert ab.solver.entails(phi, ab.concretize(cartesian))
            # relative precision
            assert ab.solver.entails(ab.concretize(boolean), ab.concretize(cartesian))
            assert boolean.entails(cartesian)

    def test_agreement_on_conjunctive_inputs(self, ab, solver):
        # satisfiable conjunctions of precision predicates are exactly the
        # states the two abstractions represent identically
        rng = random.Random(41)
        names = ["a", "b"]
        for _ in range(25):
            preds = []
            while len(preds) < 3:
                p = random_formula(rng, names, depth=0)
                if p not in preds and p not in (TRUE, FALSE):
                    preds.append(p)
            pi = Precision(preds)
            phi = f_and(*rng.sample(preds, k=rng.randint(1, 3)))
            if not solver.check_sat(phi).is_sat:
                continue
            boolean = ab.boolean_abstract(phi, pi)
            cartesian = ab.cartesian_abstract(phi, pi)
            assert semantically_equivalent(
                ab.concretize(boolean), ab.concretize(cartesian), solver
            ), phi


class TestPrecision:
    def test_dedup_preserves_order(self):
        a = compare(">", tvar("x"), const(0))
        b = compare("<", tvar("x"), const(5))
        pi = Precision([a, b, a])
        assert pi.preds == (a, b)

    def test_merge(self):
        a = compare(">", tvar("x"), const(0))
        b = compare("<", tvar("x"), const(5))
        pi = Precision([a]).merged([b, a])
        assert pi.preds == (a, b)

    def test_program_precision_defaults_empty(self):
        pp = ProgramPrecision()
        assert len(pp.at(3)) == 0
        pp2 = pp.with_added(3, [compare(">", tvar("x"), const(0))])
        assert len(pp2.at(3)) == 1
        assert len(pp.at(3)) == 0  # original untouched


def _boolean_queries(source: str):
    """LBE+Boolean verify of source: the verdict and, per Boolean post (one
    valuations call), the post's formula and its valuations as a set."""
    p, _ = summarize(parse_program(source))
    solver = InternalSolver()
    valuations = solver.valuations
    queries = []

    def recording(phi, qs):
        out = valuations(phi, qs)
        queries.append((phi, set(out)))
        return out

    solver.valuations = recording
    return verify(p, mode=BOOLEAN, solver=solver).verdict, queries


def _query_atoms(phi) -> int:
    """Distinct atoms of the query as the solver sees it."""
    return len({g for g in _dag_nodes(normalize(phi)) if isinstance(g, Atom)})


def test_dropping_dead_pads_keeps_every_boolean_post(monkeypatch):
    sources = ([gen_test_locks(n, bug=bug) for n in range(2, 7) for bug in (False, True)]
               + [random_program(k) for k in range(40)])
    pruned = [_boolean_queries(src) for src in sources]
    monkeypatch.setattr(lbemc.abstraction, "drop_dead_pads", lambda f, targets=(): f)
    padded = [_boolean_queries(src) for src in sources]
    smaller = 0
    for (verdict, queries), (want_verdict, want_queries) in zip(pruned, padded):
        assert verdict == want_verdict
        assert [models for _, models in queries] == [models for _, models in want_queries]
        smaller += sum(_query_atoms(a) < _query_atoms(b)
                       for (a, _), (b, _) in zip(queries, want_queries))
    assert smaller >= 10


def test_boolean_queries_of_forty_locks_stay_linear():
    verdict, queries = _boolean_queries(gen_test_locks(40))
    assert verdict == "safe" and len(queries) == 4
    # the query of the edge into the error location had 2,078 atoms, 1,718
    # of them padding equalities; the bound is 20 atoms per lock
    assert max(_query_atoms(phi) for phi, _ in queries) <= 20 * 40
