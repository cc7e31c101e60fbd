"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import os
import random
import shutil
import time

import pytest

from lbemc.abstraction import Abstractor, BOOLEAN, CARTESIAN, Precision
from lbemc.cfa import apply_rule0, program_variables, rule_count, summarize
from lbemc.cli import gen_test_locks
from lbemc.engine import verify
from lbemc.formula import TRUE, compare, f_and, f_not, f_or
from lbemc.frontend import parse_program
from lbemc.oracle import BUDGET_EXCEEDED, DomainBound, explicit_reachable, random_program
from lbemc.semantics import sp
from lbemc.smt import InternalSolver
from lbemc.smtlib import Smtlib2Solver

from conftest import const, tvar
from references import equivalent_modulo_indexed, random_formula, random_operation

RANDOM_PROGRAM_SEEDS = range(200)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


def corpus_programs():
    """Every program the suite exercises; used by the rule-bound criterion."""
    for seed in RANDOM_PROGRAM_SEEDS:
        yield f"random-{seed}", random_program(seed)
    for n in range(1, 7):
        yield f"test_locks_{n}", gen_test_locks(n)
        yield f"test_locks_{n}_bug", gen_test_locks(n, bug=True)
    yield "loop", """
        int i; int x; int z;
        while (i > 0) {
          if (x == 1) { z = 0; } else { z = 1; }
          i = i - 1;
        }
        """


def formula_corpus():
    """Regression formulas for the solver-backend agreement criterion."""
    x, y = tvar("x"), tvar("y")
    fixed = [
        TRUE,
        f_and(compare(">", x, const(0)), compare("<", x, const(0))),
        f_and(f_or(compare("==", x, const(2)), compare("==", x, const(7))),
              compare("<", x, const(5))),
        f_not(compare("==", x, y)),
        f_and(compare("<=", x.scale(2) + y, const(3)), compare(">=", y, const(1))),
    ]
    rng = random.Random(777)
    randoms = [random_formula(rng, ["a", "b", "c"], depth=2) for _ in range(80)]
    posts = []
    for seed in range(10):
        names = ["a", "b"]
        op = random_operation(rng, names, depth=2)
        posts.append(sp(op, random_formula(rng, names, depth=1)))
    return fixed + randoms + posts


def test_criterion_1_summarization_preserves_reachability():
    start = time.perf_counter()
    disagreements = []
    skipped = 0
    for seed in RANDOM_PROGRAM_SEEDS:
        p = parse_program(random_program(seed))
        q, _ = summarize(p)
        bound = DomainBound(default=(0, 3), budget=50_000)
        before = explicit_reachable(p, bound)
        after = explicit_reachable(q, bound)
        if BUDGET_EXCEEDED in (before, after):
            skipped += 1
            continue
        if before != after:
            disagreements.append(seed)
    elapsed = time.perf_counter() - start
    ok = not disagreements and elapsed < 60
    report(1, ok, f"200 random programs, {len(disagreements)} disagreements, "
                  f"{skipped} over budget, {elapsed:.1f}s (< 60s)")
    assert not disagreements
    assert elapsed < 60


def test_criterion_2_postcondition_distributes_over_disjunction(solver):
    start = time.perf_counter()
    failures = []
    for case in range(100):
        rng = random.Random(10_000 + case)
        names = ["a", "b", "c"][: rng.randint(1, 3)]
        op = random_operation(rng, names, depth=3)
        f1 = random_formula(rng, names, depth=2)
        f2 = random_formula(rng, names, depth=2)
        left = sp(op, f_or(f1, f2))
        right = f_or(sp(op, f1), sp(op, f2))
        if not equivalent_modulo_indexed(left, right, solver):
            failures.append(case)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30
    report(2, ok, f"100 random (op, phi1, phi2) cases, {len(failures)} failures, "
                  f"{elapsed:.1f}s (< 30s)")
    assert not failures
    assert elapsed < 30


def test_criterion_3_boolean_abstraction_oracle(solver):
    start = time.perf_counter()
    failures = []
    ab = Abstractor(solver)
    for case in range(100):
        rng = random.Random(20_000 + case)
        names = ["a", "b", "c"]
        phi = random_formula(rng, names, depth=2)
        preds = []
        while len(preds) < rng.randint(1, 4):
            p = random_formula(rng, names, depth=rng.choice([0, 0, 1]))
            if p not in preds and p not in (TRUE,):
                preds.append(p)
        pi = Precision(preds)
        boolean = ab.boolean_abstract(phi, pi)
        brute = ab.bdd.FALSE
        for bits in itertools.product([True, False], repeat=len(pi.preds)):
            lits = [p if b else f_not(p) for p, b in zip(pi.preds, bits)]
            if solver.check_sat(f_and(phi, *lits)).is_sat:
                cube = ab.bdd.cube(
                    [(ab.pred_id(p), b) for p, b in zip(pi.preds, bits)]
                )
                brute = ab.bdd.apply_or(brute, cube)
        cartesian = ab.cartesian_abstract(phi, pi)
        if boolean.node != brute or not boolean.entails(cartesian):
            failures.append(case)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60
    report(3, ok, f"100 random (phi, pi) cases vs brute-force minterms, "
                  f"{len(failures)} failures, {elapsed:.1f}s (< 60s)")
    assert not failures
    assert elapsed < 60


def test_criterion_4_rule_application_bound():
    worst = 0.0
    violations = []
    for name, source in corpus_programs():
        p = parse_program(source)
        q, trace = summarize(p)
        edges_after_rule0 = len(apply_rule0(p).cfa.edges)
        applications = rule_count(trace)
        if edges_after_rule0 > 0 and applications > edges_after_rule0 - 1:
            violations.append(name)
        if edges_after_rule0 > 0:
            worst = max(worst, applications / edges_after_rule0)
    ok = not violations
    report(4, ok, f"rule applications <= |G|-1 on the whole corpus "
                  f"(worst ratio {worst:.2f}), violations: {violations}")
    assert not violations


def test_criterion_5_lbe_boolean_headline():
    rows = []
    failures = []
    for n in range(2, 11):
        p = parse_program(gen_test_locks(n))
        q, trace = summarize(p)
        start = time.perf_counter()
        r = verify(q, mode=BOOLEAN, rule_applications=rule_count(trace))
        elapsed = time.perf_counter() - start
        row = (n, r.verdict, r.stats.art_size, r.stats.refinement_steps,
               r.stats.predicates_total, elapsed)
        rows.append(row)
        if (r.verdict != "safe" or r.stats.refinement_steps != 0
                or r.stats.predicates_total != 0 or r.stats.art_size > 5
                or elapsed >= 5.0):
            failures.append(row)
    ok = not failures
    longest = max(r[-1] for r in rows)
    report(5, ok, f"LBE+Boolean on test_locks_2..10: all safe, 0 refinements, "
                  f"0 predicates, ART <= 5, slowest run {longest:.2f}s (< 5s)")
    assert not failures, failures


def test_criterion_6_sbe_blowup_trend():
    sizes = {}
    failures = []
    for n in range(2, 7):
        p = parse_program(gen_test_locks(n))
        r = verify(p, mode=CARTESIAN)
        sizes[n] = r.stats.art_size
        if r.verdict != "safe":
            failures.append((n, r.verdict))
    ratios = {n: sizes[n + 1] / sizes[n] for n in range(2, 6)}
    for n, ratio in ratios.items():
        if ratio < 1.4:
            failures.append((n, f"ratio {ratio:.2f}"))
    ok = not failures
    pretty = ", ".join(f"{n}:{sizes[n]}" for n in sorted(sizes))
    report(6, ok, f"SBE+Cartesian safe on test_locks_2..6, ART sizes {pretty}, "
                  f"ratios all >= 1.4: {[f'{r:.2f}' for r in ratios.values()]}")
    assert not failures, failures


def test_criterion_7_lbe_cartesian_insufficient():
    start = time.perf_counter()
    p, _ = summarize(parse_program(gen_test_locks(3)))
    r = verify(p, mode=CARTESIAN, max_refinements=50)
    elapsed = time.perf_counter() - start
    spurious_unsafe = r.verdict == "unsafe" and not r.replayed
    ok = (r.verdict == "unknown" or spurious_unsafe) and elapsed < 60
    report(7, ok, f"LBE+Cartesian on test_locks_3: {r.verdict} "
                  f"({r.reason or 'spurious counterexample'}) after "
                  f"{r.stats.refinement_steps} refinements, {elapsed:.1f}s (< 60s)")
    assert r.verdict != "safe"
    assert ok


def test_criterion_8_bug_detection_with_replay(solver):
    start = time.perf_counter()
    failures = []
    for n in (2, 3, 4):
        source = gen_test_locks(n, bug=True)
        p = parse_program(source)
        q, _ = summarize(p)
        for program, mode, label in ((p, CARTESIAN, "sbe"), (q, BOOLEAN, "lbe")):
            r = verify(program, mode=mode)
            if r.verdict != "unsafe":
                failures.append((n, label, r.verdict))
                continue
            from lbemc.engine import path_formula

            formula, _ = path_formula(r.path, program_variables(program))
            if not solver.check_sat(formula).is_sat:
                failures.append((n, label, "path formula not satisfiable"))
            if r.integral_witness and not r.replayed:
                failures.append((n, label, "integral witness did not replay"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30
    report(8, ok, f"bug-injected test_locks_2..4 unsafe under both encodings, "
                  f"witnesses replayed, {elapsed:.1f}s (< 30s)")
    assert not failures, failures
    assert elapsed < 30


def _discover_external_solver():
    command = os.environ.get("LBEMC_SOLVER")
    if command:
        return command
    for name in ("z3", "cvc5", "mathsat"):
        path = shutil.which(name)
        if path:
            return f"{path} -in" if name == "z3" else path
    return None


def test_criterion_9_backend_agreement():
    command = _discover_external_solver()
    if command is None:
        report(9, True, "skipped: no external SMT-LIB2 solver configured "
                        "(set LBEMC_SOLVER or install z3/cvc5/mathsat)")
        pytest.skip("no external SMT-LIB2 solver available")
    external = Smtlib2Solver(command)
    internal = InternalSolver()
    disagreements = []
    formulas = formula_corpus()
    try:
        for i, phi in enumerate(formulas):
            if external.check_sat(phi).status != internal.check_sat(phi).status:
                disagreements.append(i)
    finally:
        external.close()
    ok = not disagreements
    report(9, ok, f"{len(formulas)} corpus formulas through {command!r}: "
                  f"{len(disagreements)} verdict disagreements")
    assert not disagreements
