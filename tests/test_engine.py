import gc
import weakref

import pytest

from lbemc.abstraction import Abstractor, BOOLEAN, CARTESIAN, Precision, ProgramPrecision
from lbemc.cfa import program_variables, summarize
from lbemc.cli import gen_test_locks
from lbemc.engine import (
    Art,
    art_to_dot,
    build_art,
    check_path,
    extract_predicates,
    is_covered,
    verify,
)
from lbemc.formula import EQ, Atom, Term, VariableRef, compare, f_and
from lbemc.frontend import parse_program
from lbemc.semantics import encode_edge
from lbemc.smt import InternalSolver
from lbemc.oracle import (
    NOT_REACHABLE,
    REACHABLE,
    BUDGET_EXCEEDED,
    DomainBound,
    explicit_reachable,
    random_program,
)

from conftest import const, tvar


@pytest.fixture
def ab(solver):
    return Abstractor(solver)


class TestBuildArt:
    def test_summarized_locks_is_complete_without_precision(self, ab):
        # every edge into the error location is infeasible inside its block,
        # so the empty precision already proves the program
        p, _ = summarize(parse_program(gen_test_locks(3)))
        outcome = build_art(p, ProgramPrecision(), BOOLEAN, ab)
        assert outcome[0] == "complete"
        art = outcome[1]
        assert len(art) <= 5
        assert not any(n.location == p.error for n in art.nodes)

    def test_precision_blocks_dead_branch(self, ab):
        p = parse_program("int x; x = 0; assume(x > 0); error();")
        pos = compare(">", tvar("x"), const(0))
        pi = ProgramPrecision({loc: Precision([pos]) for loc in p.cfa.locations})
        outcome = build_art(p, pi, BOOLEAN, ab)
        assert outcome[0] == "complete"
        assert not any(n.location == p.error for n in outcome[1].nodes)
        # the conjunctive abstraction cannot express "not (x > 0)" after the
        # assignment, so the same precision leaves the error reachable
        assert build_art(p, pi, CARTESIAN, ab)[0] == "error"
        neg = compare("<=", tvar("x"), const(0))
        pi2 = ProgramPrecision({loc: Precision([neg]) for loc in p.cfa.locations})
        assert build_art(p, pi2, CARTESIAN, ab)[0] == "complete"

    def test_empty_precision_reaches_error(self, ab):
        p = parse_program("int x; x = 0; assume(x > 0); error();")
        outcome = build_art(p, ProgramPrecision(), BOOLEAN, ab)
        assert outcome[0] == "error"
        _, art, path = outcome
        assert path[-1][0].target == p.error


class TestCoverage:
    def _node(self, art, ab, location, formula_node):
        from lbemc.abstraction import AbstractFormula

        return art.add(location, AbstractFormula(ab, formula_node), Precision([]))

    def test_conjunction_covered_by_conjunct(self, ab):
        art = Art()
        p1, p2 = ab.bdd.var(0), ab.bdd.var(1)
        older = self._node(art, ab, 7, p1)
        newer = self._node(art, ab, 7, ab.bdd.apply_and(p1, p2))
        assert is_covered(newer, art) == older.id

    def test_weaker_state_not_covered(self, ab):
        art = Art()
        p1, p2 = ab.bdd.var(0), ab.bdd.var(1)
        self._node(art, ab, 7, ab.bdd.apply_and(p1, p2))
        newer = self._node(art, ab, 7, p1)
        assert is_covered(newer, art) is None

    def test_equal_states_later_covered_by_earlier(self, ab):
        art = Art()
        p1 = ab.bdd.var(0)
        older = self._node(art, ab, 7, p1)
        duplicate = self._node(art, ab, 7, p1)
        assert is_covered(duplicate, art) == older.id
        assert is_covered(older, art) is None or is_covered(older, art) != older.id

    def test_different_location_never_covers(self, ab):
        art = Art()
        p1 = ab.bdd.var(0)
        self._node(art, ab, 3, p1)
        other = self._node(art, ab, 7, p1)
        assert is_covered(other, art) is None


class TestCheckPath:
    def _error_path(self, source, solver, mode=BOOLEAN):
        p = parse_program(source)
        outcome = build_art(p, ProgramPrecision(), mode, Abstractor(solver))
        assert outcome[0] == "error"
        return p, outcome[2]

    def test_infeasible(self, solver):
        p, path = self._error_path("int x; x = 0; assume(x > 0); error();", solver)
        assert check_path(path, program_variables(p), solver)[0] == "infeasible"

    def test_feasible_with_model(self, solver):
        p, path = self._error_path("int x; x = nondet(); assume(x > 0); error();", solver)
        status, model = check_path(path, program_variables(p), solver)
        assert status == "feasible"
        assert model[VariableRef("x", 1)] >= 1

    def test_empty_path_is_feasible(self, solver):
        status, model = check_path([], ["x"], solver)
        assert status == "feasible"


class TestExtractPredicates:
    def test_assignment_fact_at_intermediate_location(self, solver):
        p = parse_program("int x; x = 0; assume(x > 0); error();")
        outcome = build_art(p, ProgramPrecision(), BOOLEAN, Abstractor(solver))
        path = outcome[2]
        harvest = extract_predicates(path, program_variables(p))
        mid_location = path[0][0].target
        assert compare("==", tvar("x"), const(0)) in harvest[mid_location]
        err_location = path[-1][0].target
        assert compare(">", tvar("x"), const(0)) in harvest[err_location]

    def test_lock_discipline_predicates(self, solver):
        p = parse_program(gen_test_locks(1))
        outcome = build_art(p, ProgramPrecision(), BOOLEAN, Abstractor(solver))
        assert outcome[0] == "error"
        harvest = extract_predicates(outcome[2], program_variables(p))
        all_preds = {q for preds in harvest.values() for q in preds}
        assert compare("==", tvar("p1"), const(0)) in all_preds
        assert compare("==", tvar("lk1"), const(0)) in all_preds

    def test_feasible_path_rejected(self, solver):
        p = parse_program("int x; x = nondet(); assume(x > 0); error();")
        outcome = build_art(p, ProgramPrecision(), BOOLEAN, Abstractor(solver))
        with pytest.raises(ValueError):
            extract_predicates(outcome[2], program_variables(p), solver=solver)

    def test_lazy_refinement_touches_only_path_locations(self, solver):
        p = parse_program(gen_test_locks(2))
        outcome = build_art(p, ProgramPrecision(), CARTESIAN, Abstractor(solver))
        assert outcome[0] == "error"
        path = outcome[2]
        harvest = extract_predicates(path, program_variables(p))
        path_locations = {edge.target for edge, _ in path}
        assert set(harvest) <= path_locations


class TestVerify:
    def test_straightline_safe(self):
        p = parse_program("int x; x = 0; assume(x > 0); error();")
        r = verify(p, mode=BOOLEAN)
        assert r.verdict == "safe"
        assert r.stats.refinement_steps >= 1

    def test_unsummarized_locks_cartesian_needs_refinement(self):
        p = parse_program(gen_test_locks(2))
        r = verify(p, mode=CARTESIAN)
        assert r.verdict == "safe"
        assert r.stats.refinement_steps >= 1
        assert r.stats.predicates_total > 0

    def test_bug_detected_in_both_encodings(self):
        src = gen_test_locks(3, bug=True)
        p = parse_program(src)
        q, trace = summarize(p)
        for program, mode in ((p, CARTESIAN), (q, BOOLEAN)):
            r = verify(program, mode=mode)
            assert r.verdict == "unsafe"
            assert r.path is not None and r.model is not None
            assert r.integral_witness and r.replayed

    def test_lbe_boolean_headline_at_twenty_locks(self):
        p, _ = summarize(parse_program(gen_test_locks(20)))
        r = verify(p, mode=BOOLEAN)
        assert r.verdict == "safe"
        assert r.stats.art_size == 4
        assert r.stats.refinement_steps == 0
        assert r.stats.solver_queries == 4

    @pytest.mark.parametrize("condition", ["2*x == 1", "2*x + 2*y == 3"])
    @pytest.mark.parametrize("lbe, mode", [(False, CARTESIAN), (False, BOOLEAN),
                                           (True, CARTESIAN), (True, BOOLEAN)])
    def test_equality_without_integer_solutions_is_safe(self, condition, lbe, mode):
        p = parse_program("int x; int y; x = nondet(); y = nondet(); "
                          f"if ({condition}) {{ error(); }}")
        if lbe:
            p, _ = summarize(p)
        assert verify(p, mode=mode).verdict == "safe"

    def test_refinement_bound_returns_unknown(self):
        p, _ = summarize(parse_program(gen_test_locks(3)))
        r = verify(p, mode=CARTESIAN, max_refinements=50)
        assert r.verdict == "unknown"
        assert r.stats.refinement_steps <= 50
        assert r.reason is not None

    def test_safe_art_is_complete_and_covered(self):
        p, _ = summarize(parse_program(gen_test_locks(2)))
        r = verify(p, mode=BOOLEAN)
        assert r.verdict == "safe"
        art = r.art
        assert not art.waitlist
        for node in art.nodes:
            if node.covered_by is not None:
                coverer = art.nodes[node.covered_by]
                assert coverer.location == node.location
                assert coverer.covered_by is None
                assert node.abstract.entails(coverer.abstract)

    def test_verdicts_match_oracle_on_random_programs(self):
        # the checker reasons over unbounded integers, the oracle over a
        # bounded domain: a safe verdict must cover everything the oracle
        # can reach, an unsafe verdict must come with a replayable witness
        bound_cfg = DomainBound(default=(-5, 5), budget=120_000)
        checked = 0
        for seed in range(25):
            p = parse_program(random_program(seed))
            ground = explicit_reachable(p, bound_cfg)
            if ground == BUDGET_EXCEEDED:
                continue
            q, _ = summarize(p)
            r = verify(q, mode=BOOLEAN, max_refinements=25)
            if r.verdict == "unknown":
                continue
            checked += 1
            if r.verdict == "safe":
                assert ground == NOT_REACHABLE, seed
            else:
                assert not r.integral_witness or r.replayed, seed
                if ground == REACHABLE:
                    pass  # both sides agree
        assert checked >= 15

    def test_stats_populated(self):
        p, trace = summarize(parse_program(gen_test_locks(2)))
        r = verify(p, mode=BOOLEAN, rule_applications=7)
        s = r.stats
        assert s.art_size == 4
        assert s.rule_applications == 7
        assert s.solver_queries > 0
        assert s.wall_time_ms >= 0
        d = s.as_dict()
        assert set(d) == {
            "art_size", "refinement_steps", "predicates", "solver_queries",
            "rule_applications", "wall_time_ms",
        }
        assert set(d["predicates"]) == {"total", "avg", "max"}


@pytest.mark.parametrize("lbe", [False, True])
@pytest.mark.parametrize("mode", [CARTESIAN, BOOLEAN])
def test_a_run_is_freed_by_reference_counting(lbe, mode):
    # nothing the Abstractor holds points back at it, so dropping the
    # result frees the run without the cycle collector
    p = parse_program(gen_test_locks(3))
    if lbe:
        p, _ = summarize(p)
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = verify(p, mode=mode)
        abstractor = weakref.ref(result.art.nodes[0].abstract.abstractor)
        assert abstractor() is not None
        del result
        assert abstractor() is None
    finally:
        if enabled:
            gc.enable()


def test_art_dot_export(solver):
    p, _ = summarize(parse_program(gen_test_locks(2)))
    r = verify(p, mode=BOOLEAN)
    dot = art_to_dot(r.art)
    assert dot.startswith("digraph art {")
    assert "style=dashed" in dot  # the covered loop-head unrolling


def _quadratic_harvest(path, variable_names):
    """Reference harvest: at every position, rescan the atoms of every
    earlier edge for liveness at that position."""
    from lbemc.formula import Atom, _dag_nodes, strip_indices_atom
    from lbemc.semantics import encode_edge

    ssa = {n: 0 for n in variable_names}
    per_edge = []
    maps = [dict(ssa)]
    for edge, _ in path:
        f, ssa = encode_edge(edge.op, ssa)
        per_edge.append(f)
        maps.append(dict(ssa))
    harvested = {}
    for i in range(1, len(path) + 1):
        current = maps[i]
        bucket = harvested.setdefault(path[i - 1][0].target, [])
        for j in range(i):
            for atom in (g for g in _dag_nodes(per_edge[j]) if isinstance(g, Atom)):
                if not all((v.index or 0) == current.get(v.name, 0)
                           for v in atom.term.variables()):
                    continue
                stripped = strip_indices_atom(atom)
                if isinstance(stripped, Atom) and stripped not in bucket:
                    bucket.append(stripped)
    return {loc: preds for loc, preds in harvested.items() if preds}


def test_harvest_matches_quadratic_reference_in_order(monkeypatch):
    import lbemc.engine as engine

    calls = []
    original = engine.extract_predicates

    def recording(path, variable_names, solver=None, **kwargs):
        out = original(path, variable_names, solver, **kwargs)
        calls.append((path, variable_names, out))
        return out

    monkeypatch.setattr(engine, "extract_predicates", recording)
    ladder = [(gen_test_locks(n), ((False, CARTESIAN), (True, BOOLEAN), (True, CARTESIAN)))
              for n in range(1, 5)]
    corpus = [(random_program(k), ((False, CARTESIAN), (False, BOOLEAN),
                                   (True, CARTESIAN), (True, BOOLEAN)))
              for k in range(200)]
    for source, configurations in ladder + corpus:
        p = parse_program(source)
        q, _ = summarize(p)
        for lbe, mode in configurations:
            verify(q if lbe else p, mode=mode)
    assert len(calls) >= 80
    for path, names, got in calls:
        want = _quadratic_harvest(path, names)
        assert list(got.items()) == list(want.items())


def test_each_checked_path_is_encoded_once(monkeypatch):
    import lbemc.engine as engine

    encoded, checked = [], []
    original_encode, original_check = engine.encode_edge, engine.check_path

    def counting_encode(op, ssa, encoder=None):
        encoded.append(op)
        return original_encode(op, ssa, encoder=encoder)

    def recording_check(path, *args, **kwargs):
        checked.append(len(path))
        return original_check(path, *args, **kwargs)

    monkeypatch.setattr(engine, "encode_edge", counting_encode)
    monkeypatch.setattr(engine, "check_path", recording_check)
    result = verify(parse_program(gen_test_locks(2)), mode=CARTESIAN)
    assert result.stats.refinement_steps == 4
    # one SSA encoding per path serves the check and the harvest
    assert len(checked) == 4 and len(encoded) == sum(checked)


def test_counterexample_search_is_linear_in_the_lock_count(monkeypatch):
    # the path formula drops the pads nothing reads, as the posts do; with
    # every pad the search of the bug twin's path grew as n squared (555
    # theory checks at n = 20)
    import lbemc.engine as engine

    original_check = engine.check_path
    path_checks = []

    def recording_check(path, variable_names, solver, *args, **kwargs):
        before = solver.theory_checks
        out = original_check(path, variable_names, solver, *args, **kwargs)
        path_checks.append(solver.theory_checks - before)
        return out

    monkeypatch.setattr(engine, "check_path", recording_check)
    for n in (10, 20, 40):
        p, _ = summarize(parse_program(gen_test_locks(n, bug=True)))
        solver = InternalSolver()
        path_checks.clear()
        result = verify(p, mode=BOOLEAN, solver=solver)
        assert result.verdict == "unsafe" and result.replayed
        assert len(path_checks) == 1 and path_checks[0] <= 6 * n, (n, path_checks)
        assert solver.theory_checks <= 12 * n, (n, solver.theory_checks)


def test_witness_leaves_out_an_unread_copy_assignment():
    # random_program(197) runs `a = a;`, whose copy a@0 - a@1 = 0 nothing
    # reads, so the path formula drops it as it drops an unread pad
    for lbe in (False, True):
        for mode in (CARTESIAN, BOOLEAN):
            p = parse_program(random_program(197))
            if lbe:
                p, _ = summarize(p)
            result = verify(p, mode=mode)
            assert result.verdict == "unsafe", (lbe, mode)
            assert not {VariableRef("a", 0), VariableRef("a", 1)} & set(result.model)
            assert VariableRef("d", 0) in result.model
            assert result.integral_witness and result.replayed, (lbe, mode)


def _unsafe_results():
    for n in range(2, 9):
        source = gen_test_locks(n, bug=True)
        yield source, True, BOOLEAN
        yield source, False, CARTESIAN
    for k in range(200):
        for lbe in (False, True):
            for mode in (CARTESIAN, BOOLEAN):
                yield random_program(k), lbe, mode


def test_pruned_witnesses_extend_to_the_full_path_formula():
    # the witness is a model of the path formula without its dead pads;
    # the path with every pad, encoded one edge at a time, has a model
    # that agrees with it wherever it has a value
    checked = 0
    for source, lbe, mode in _unsafe_results():
        p = parse_program(source)
        if lbe:
            p, _ = summarize(p)
        solver = InternalSolver()
        result = verify(p, mode=mode, solver=solver)
        if result.verdict != "unsafe":
            continue
        ssa = {n: 0 for n in program_variables(p)}
        full = []
        for edge, _ in result.path:
            f, ssa = encode_edge(edge.op, ssa)
            full.append(f)
        # q*v - p = 0 built as it is: canon_eq would turn a rational value
        # p/q into FALSE, and the solver decides over the rationals
        pinned = [Atom(EQ, Term.of(-value.numerator, {v: value.denominator}))
                  for v, value in result.model.items()]
        assert solver.check_sat(f_and(*full, *pinned)).is_sat, (source, lbe, mode)
        if result.integral_witness:
            assert result.replayed, (source, lbe, mode)
        checked += 1
    assert checked > 100
