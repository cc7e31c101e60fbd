import random

import pytest

from lbemc.cfa import CFA, Edge, Program, program_variables, summarize
from lbemc.formula import (
    FALSE,
    LE,
    TRUE,
    Atom,
    Term,
    VariableRef,
    compare,
    f_and,
    f_not,
    f_or,
)
from lbemc.frontend import parse_program
from lbemc.engine import replay_path
from lbemc.oracle import (
    BUDGET_EXCEEDED,
    NOT_REACHABLE,
    REACHABLE,
    DomainBound,
    explicit_reachable,
    random_program,
)
from lbemc.semantics import Assign, Assume, Choice, Havoc, Seq, encode_edge, sp
from lbemc.smt import InternalSolver

from conftest import const, tvar
from references import (
    enum_paths,
    equivalent_modulo_indexed,
    project_indexed,
    random_operation,
    semantically_equivalent,
)


class TestExplicitReachable:
    def test_reachable(self):
        p = parse_program("int x; x = 1; assume(x == 1); error();")
        assert explicit_reachable(p, DomainBound(default=(0, 1))) == REACHABLE

    def test_not_reachable(self):
        p = parse_program("int x; x = 0; assume(x > 0); error();")
        assert explicit_reachable(p, DomainBound(default=(0, 1))) == NOT_REACHABLE

    def test_loop_with_dead_guard(self):
        src = """
        int i; int x; int z;
        while (i > 0) {
          if (x == 1) { z = 0; } else { z = 1; }
          i = i - 1;
          if (z > 1) { error(); }
        }
        """
        p = parse_program(src)
        bound = DomainBound(default=(0, 2), intervals={"x": (0, 1), "z": (0, 1)})
        assert explicit_reachable(p, bound) == NOT_REACHABLE

    def test_budget(self):
        p = parse_program("int a; int b; a = nondet(); b = nondet();")
        assert explicit_reachable(p, DomainBound(default=(0, 9), budget=5)) == (
            BUDGET_EXCEEDED
        )

    def test_budget_bounds_the_initial_states(self):
        # 21^4 initial environments against a budget of 1000: the search
        # gives up before it builds them all
        import tracemalloc

        p = parse_program("int a; int b; int c; int d; a = nondet(); b = a; c = b; d = c;"
                          " if (d == 5) { error(); }")
        tracemalloc.start()
        try:
            verdict = explicit_reachable(p, DomainBound(default=(-10, 10), budget=1_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict == BUDGET_EXCEEDED
        assert peak < 5 * 2**20, peak

    def test_queued_states_share_the_visited_tuples(self):
        # 11^4 initial environments and a budget of 20,000 states: the
        # search runs past them and gives up; with an environment dict per
        # queued state its peak was 11.0 MB, with the visited tuples 5.0 MB
        import tracemalloc

        p = parse_program("int a; int b; int c; int d; a = nondet(); b = a; c = b; d = c;"
                          " if (d == 5) { error(); }")
        tracemalloc.start()
        try:
            verdict = explicit_reachable(p, DomainBound(default=(-5, 5), budget=20_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict == BUDGET_EXCEEDED
        assert peak < 7 * 2**20, peak

    def test_out_of_bound_values_truncate(self):
        p = parse_program("int x; x = 5; error();")
        # the assignment leaves the domain, so the error stays unreached
        assert explicit_reachable(p, DomainBound(default=(0, 1))) == NOT_REACHABLE


class TestEnumPaths:
    def test_single_edge(self):
        p = Program(CFA((0, 1, 2), (Edge(0, Assume(TRUE), 2),)), 0, 1)
        assert len(enum_paths(p, 1)) == 1

    def test_diamond(self):
        e1 = Edge(0, Assume(TRUE), 2)
        e2 = Edge(2, Assign("x", const(1)), 3)
        e3 = Edge(0, Assume(TRUE), 4)
        e4 = Edge(4, Assign("x", const(2)), 3)
        p = Program(CFA((0, 1, 2, 3, 4), (e1, e2, e3, e4)), 0, 1)
        paths = enum_paths(p, 2)
        assert len(paths) == 4  # two prefixes and two full routes
        assert sorted(len(s) for s in paths) == [1, 1, 2, 2]

    def test_loop_unrollings(self):
        enter = Edge(0, Assume(TRUE), 2)
        body = Edge(2, Assume(TRUE), 3)
        back = Edge(3, Assign("x", const(0)), 2)
        exit_ = Edge(2, Assume(FALSE), 4)
        p = Program(CFA((0, 1, 2, 3, 4), (enter, body, back, exit_)), 0, 1)
        paths = enum_paths(p, 4)
        assert paths == [
            (enter,),
            (enter, body), (enter, exit_),
            (enter, body, back),
            (enter, body, back, body), (enter, body, back, exit_),
        ]


class TestEquivalence:
    def test_absorption(self, solver):
        a = compare(">", tvar("x"), const(0))
        b = compare(">", tvar("x"), const(1))
        assert semantically_equivalent(f_or(a, b), a, solver)

    def test_strict_vs_nonstrict(self, solver):
        assert not semantically_equivalent(
            compare(">", tvar("x"), const(0)),
            compare(">=", tvar("x"), const(0)),
            solver,
        )

    def test_true_not_false(self, solver):
        assert semantically_equivalent(TRUE, f_not(FALSE), solver)


class TestProjection:
    def test_assignment_postcondition(self, solver):
        post = sp(Assign("x", tvar("x") + 1), compare("==", tvar("x"), const(0)))
        assert semantically_equivalent(
            project_indexed(post), compare("==", tvar("x"), const(1)), solver
        )

    def test_havoc_projects_to_true(self, solver):
        post = sp(Havoc("x"), compare("==", tvar("x"), const(3)))
        assert project_indexed(post) is TRUE

    def test_rejects_propositional_variables(self):
        from lbemc.formula import PropVar

        with pytest.raises(ValueError):
            project_indexed(PropVar("v"))

    def test_rejects_more_than_20000_cubes(self):
        # 15 two-atom disjunctions make 2**15 = 32768 cubes
        phi = f_and(*(f_or(compare("<=", tvar(f"x{i}", 1), const(0)),
                           compare(">=", tvar(f"x{i}", 1), const(2))) for i in range(15)))
        with pytest.raises(ValueError):
            project_indexed(phi)

    def test_keeps_the_rational_meaning(self):
        # exists t. 2x <= t <= 1 is 2x - 1 <= 0 over Q; integer tightening
        # would give x <= 0
        x, t = tvar("x"), tvar("t", 1)
        phi = f_and(compare("<=", x.scale(2), t), compare("<=", t, const(1)))
        assert project_indexed(phi) == Atom(LE, Term.of(-1, {VariableRef("x"): 2}))


class TestLemmaHarnesses:
    def test_sp_distributes_over_disjunction(self, solver):
        from references import random_formula, random_operation

        rng = random.Random(5)
        for _ in range(30):
            names = ["a", "b", "c"][: rng.randint(1, 3)]
            op = random_operation(rng, names, depth=3)
            f1 = random_formula(rng, names, depth=2)
            f2 = random_formula(rng, names, depth=2)
            left = sp(op, f_or(f1, f2))
            right = f_or(sp(op, f1), sp(op, f2))
            assert equivalent_modulo_indexed(left, right, solver), (op, f1, f2)

    def test_summarized_edges_cover_folded_paths(self, solver):
        # loop-free programs: the postcondition of each summarized edge is
        # the disjunction of the postconditions over the folded paths
        for seed in range(12):
            src = random_program(900 + seed, loop_depth=0, max_stmts=8)
            p = parse_program(src)
            q, _ = summarize(p)
            originals = enum_paths(p, len(p.cfa.edges))
            for edge in q.cfa.edges:
                if edge.source != q.entry:
                    continue
                folded = [
                    path for path in originals
                    if path[-1].target == edge.target
                    and all(step.target != edge.target for step in path[:-1])
                ]
                assert folded, edge
                lhs = sp(edge.op, TRUE)
                rhs = f_or(*(
                    _sp_path(path, TRUE) for path in folded
                ))
                assert equivalent_modulo_indexed(lhs, rhs, solver), (seed, edge)


def _sp_path(path, phi):
    for edge in path:
        phi = sp(edge.op, phi)
    return phi


class TestReplay:
    def test_guided_replay_reaches_error(self, solver):
        src = "int x; x = nondet(); if (x > 3) { error(); }"
        p = parse_program(src)
        from lbemc.engine import build_art, check_path
        from lbemc.abstraction import Abstractor, ProgramPrecision

        outcome = build_art(p, ProgramPrecision(), "boolean", Abstractor(solver))
        assert outcome[0] == "error"
        path = outcome[2]
        status, model = check_path(path, program_variables(p), solver)
        assert status == "feasible"
        assert replay_path(p, [e for e, _ in path], model)

    def test_models_of_encode_edge_replay(self):
        # every integral model of a one-edge program's path formula runs
        # from the entry to the error location
        rng = random.Random(17)
        names = ["a", "b", "c"]
        ops = [random_operation(rng, names, depth=4) for _ in range(300)]
        solver = InternalSolver()
        replayed = nested = 0
        for op in ops:
            p = Program(CFA((0, 1), (Edge(0, op, 1),)), entry=0, error=1)
            f, _ = encode_edge(op, {n: 0 for n in program_variables(p)})
            res = solver.check_sat(f)
            if res.is_sat and all(v.denominator == 1 for v in res.model.values()):
                assert replay_path(p, list(p.cfa.edges), res.model), op
                replayed += 1
                nested += _choice_depth(op) >= 2
        assert replayed > 200 and nested > 20

    def test_a_model_the_path_formula_does_not_hold_in_is_not_replayed(self):
        # x@1 = 1 takes the first branch, and then x == 2 fails; the other
        # branch would reach the error, but the model does not take it
        src = "int x; if (*) { x = 1; } else { x = 2; } if (x == 2) { error(); }"
        p, _ = summarize(parse_program(src))
        path = [e for e in p.cfa.edges if e.target == p.error]
        assert len(path) == 1 and path[0].source == p.entry
        model = {VariableRef("x", 0): 0, VariableRef("x", 1): 1}
        assert not replay_path(p, path, model)
        assert replay_path(p, path, {VariableRef("x", 0): 0, VariableRef("x", 1): 2})

    def test_replay_work_is_linear_in_the_lock_count(self, monkeypatch):
        # the joins of a summarized bug twin copy their shared prefix into
        # both arms; running it once per index map and values keeps replay
        # linear, where resolving every choice is exponential
        from lbemc import engine
        from lbemc.cli import gen_test_locks
        from lbemc.engine import verify

        calls = []
        real = engine.evaluate
        monkeypatch.setattr(engine, "evaluate",
                            lambda *args: calls.append(None) or real(*args))
        for n in range(1, 13):
            p, _ = summarize(parse_program(gen_test_locks(n, bug=True)))
            result = verify(p, mode="boolean")
            assert result.verdict == "unsafe" and result.replayed
            calls.clear()
            assert replay_path(p, [e for e, _ in result.path], result.model)
            assert len(calls) <= 8 * n, (n, len(calls))


def _choice_depth(op) -> int:
    """Largest number of choices on one root-to-leaf path of op."""
    if isinstance(op, Seq):
        return max(_choice_depth(op.first), _choice_depth(op.second))
    if isinstance(op, Choice):
        return 1 + max(_choice_depth(op.left), _choice_depth(op.right))
    return 0


class TestRandomProgram:
    def test_deterministic(self):
        assert random_program(42) == random_program(42)
        assert random_program(42) != random_program(43)

    def test_parses(self):
        for seed in range(30):
            parse_program(random_program(seed))
