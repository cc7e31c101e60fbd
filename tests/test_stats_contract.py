"""Exact verdicts and deterministic `--stats` fields on a fixed task set.

The other tests bound these fields; this one pins them.  Each record is
(verdict, art_size, refinement_steps, solver_queries, rule_applications,
(predicates total, avg, max), reason, counterexample), where reason is
None or a key of REASONS and counterexample is None or, for `unsafe`,
(path length, integral_witness, replayed).  A change that moves any of
them changes observable behaviour and must say why.

A second table pins, on the lock ladders, what `--stats` does not show:
the solver's theory check count and, for `unsafe`, the witness model.
"""

from lbemc.cfa import rule_count, summarize
from lbemc.cli import gen_test_locks
from lbemc.engine import verify
from lbemc.formula import var_sort_key
from lbemc.frontend import parse_program
from lbemc.oracle import random_program
from lbemc.smt import InternalSolver

REASONS = {"refinement stagnation: no new predicates": "stagnation"}


def _configurations():
    for n in (1, 2, 3):
        for enc, mode in (("sbe", "cartesian"), ("lbe", "boolean"), ("lbe", "cartesian")):
            yield f"locks{n}", gen_test_locks(n), enc, mode
    for n in (2, 3):
        for enc, mode in (("lbe", "boolean"), ("sbe", "cartesian")):
            yield f"bug{n}", gen_test_locks(n, bug=True), enc, mode
    # larger ladders: hundreds of Cartesian posts with up to a dozen
    # predicates each, and the longest replayed counterexamples
    yield "locks4", gen_test_locks(4), "sbe", "cartesian"
    for n in (4, 5, 6):
        yield f"locks{n}", gen_test_locks(n), "lbe", "cartesian"
    for enc, mode in (("lbe", "boolean"), ("sbe", "cartesian")):
        yield "bug4", gen_test_locks(4, bug=True), enc, mode
    for k in range(50):
        for enc in ("sbe", "lbe"):
            for mode in ("cartesian", "boolean"):
                yield f"rand{k}", random_program(k), enc, mode


def _run(source: str, encoding: str, mode: str):
    program = parse_program(source)
    rules = 0
    if encoding == "lbe":
        program, trace = summarize(program)
        rules = rule_count(trace)
    solver = InternalSolver()
    return verify(program, mode=mode, solver=solver, rule_applications=rules), solver


def _record(source: str, encoding: str, mode: str) -> tuple:
    result, _ = _run(source, encoding, mode)
    s = result.stats
    cex = None
    if result.verdict == "unsafe":
        cex = (len(result.path), result.integral_witness, result.replayed)
    return (result.verdict, s.art_size, s.refinement_steps, s.solver_queries,
            s.rule_applications,
            (s.predicates_total, s.predicates_avg, s.predicates_max),
            REASONS.get(result.reason, result.reason), cex)


def test_stats_match_the_pinned_table():
    got = {
        f"{name}/{enc}/{mode}": _record(source, enc, mode)
        for name, source, enc, mode in _configurations()
    }
    assert got == CONTRACT


def _theory_record(source: str, encoding: str, mode: str) -> tuple:
    """(theory checks, witness as `var=value` words in variable order)."""
    result, solver = _run(source, encoding, mode)
    witness = None
    if result.model is not None:
        witness = " ".join(f"{v}={result.model[v]}"
                           for v in sorted(result.model, key=var_sort_key))
    return solver.theory_checks, witness


def test_theory_checks_and_witnesses_match_the_pinned_table():
    got = {
        f"{name}/{enc}/{mode}": _theory_record(source, enc, mode)
        for name, source, enc, mode in _configurations()
        if not name.startswith("rand")
    }
    assert got == THEORY



CONTRACT = {
    "locks1/sbe/cartesian": ('safe', 15, 2, 55, 0, (4, 2, 3), None, None),
    "locks1/lbe/boolean": ('safe', 4, 0, 4, 11, (0, 0, 0), None, None),
    "locks1/lbe/cartesian": ('unknown', 5, 1, 40, 11, (2, 2, 2), 'stagnation', None),
    "locks2/sbe/cartesian": ('safe', 41, 4, 339, 0, (7, 4, 6), None, None),
    "locks2/lbe/boolean": ('safe', 4, 0, 4, 22, (0, 0, 0), None, None),
    "locks2/lbe/cartesian": ('unknown', 5, 1, 84, 22, (3, 3, 3), 'stagnation', None),
    "locks3/sbe/cartesian": ('safe', 119, 7, 1499, 0, (10, 5, 9), None, None),
    "locks3/lbe/boolean": ('safe', 4, 0, 4, 33, (0, 0, 0), None, None),
    "locks3/lbe/cartesian": ('unknown', 4, 1, 141, 33, (4, 4, 4), 'stagnation', None),
    "bug2/lbe/boolean": ('unsafe', 5, 0, 5, 22, (0, 0, 0), None, (2, True, True)),
    "bug2/sbe/cartesian": ('unsafe', 21, 0, 15, 0, (0, 0, 0), None, (13, True, True)),
    "bug3/lbe/boolean": ('unsafe', 4, 0, 4, 33, (0, 0, 0), None, (2, True, True)),
    "bug3/sbe/cartesian": ('unsafe', 27, 0, 19, 0, (0, 0, 0), None, (17, True, True)),
    "locks4/sbe/cartesian": ('safe', 357, 11, 5136, 0, (13, 7, 12), None, None),
    "locks4/lbe/cartesian": ('unknown', 4, 1, 213, 44, (5, 5, 5), 'stagnation', None),
    "locks5/lbe/cartesian": ('unknown', 4, 1, 299, 55, (6, 6, 6), 'stagnation', None),
    "locks6/lbe/cartesian": ('unknown', 4, 1, 399, 66, (7, 7, 7), 'stagnation', None),
    "bug4/lbe/boolean": ('unsafe', 4, 0, 4, 44, (0, 0, 0), None, (2, True, True)),
    "bug4/sbe/cartesian": ('unsafe', 33, 0, 23, 0, (0, 0, 0), None, (21, True, True)),
    "rand0/sbe/cartesian": ('unsafe', 15, 0, 13, 0, (0, 0, 0), None, (7, True, True)),
    "rand0/sbe/boolean": ('unsafe', 15, 0, 13, 0, (0, 0, 0), None, (7, True, True)),
    "rand0/lbe/cartesian": ('unsafe', 5, 0, 11, 10, (0, 0, 0), None, (2, True, True)),
    "rand0/lbe/boolean": ('unsafe', 5, 0, 5, 10, (0, 0, 0), None, (2, True, True)),
    "rand1/sbe/cartesian": ('unknown', 9, 1, 18, 0, (2, 1, 2), 'stagnation', None),
    "rand1/sbe/boolean": ('safe', 17, 4, 50, 0, (4, 3, 4), None, None),
    "rand1/lbe/cartesian": ('unknown', 5, 1, 67, 11, (4, 4, 4), 'stagnation', None),
    "rand1/lbe/boolean": ('safe', 4, 0, 4, 11, (0, 0, 0), None, None),
    "rand2/sbe/cartesian": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand2/sbe/boolean": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand2/lbe/cartesian": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand2/lbe/boolean": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand3/sbe/cartesian": ('unsafe', 7, 0, 7, 0, (0, 0, 0), None, (5, True, True)),
    "rand3/sbe/boolean": ('unsafe', 7, 0, 7, 0, (0, 0, 0), None, (5, True, True)),
    "rand3/lbe/cartesian": ('unsafe', 3, 0, 7, 4, (0, 0, 0), None, (1, True, True)),
    "rand3/lbe/boolean": ('unsafe', 3, 0, 3, 4, (0, 0, 0), None, (1, True, True)),
    "rand4/sbe/cartesian": ('safe', 3, 0, 2, 0, (0, 0, 0), None, None),
    "rand4/sbe/boolean": ('safe', 3, 0, 2, 0, (0, 0, 0), None, None),
    "rand4/lbe/cartesian": ('safe', 2, 0, 2, 1, (0, 0, 0), None, None),
    "rand4/lbe/boolean": ('safe', 2, 0, 1, 1, (0, 0, 0), None, None),
    "rand5/sbe/cartesian": ('unsafe', 8, 0, 7, 0, (0, 0, 0), None, (5, True, True)),
    "rand5/sbe/boolean": ('unsafe', 8, 0, 7, 0, (0, 0, 0), None, (5, True, True)),
    "rand5/lbe/cartesian": ('unsafe', 2, 0, 14, 14, (0, 0, 0), None, (1, True, True)),
    "rand5/lbe/boolean": ('unsafe', 2, 0, 2, 14, (0, 0, 0), None, (1, True, True)),
    "rand6/sbe/cartesian": ('unsafe', 5, 0, 5, 0, (0, 0, 0), None, (3, True, True)),
    "rand6/sbe/boolean": ('unsafe', 5, 0, 5, 0, (0, 0, 0), None, (3, True, True)),
    "rand6/lbe/cartesian": ('unsafe', 3, 0, 5, 2, (0, 0, 0), None, (1, True, True)),
    "rand6/lbe/boolean": ('unsafe', 3, 0, 3, 2, (0, 0, 0), None, (1, True, True)),
    "rand7/sbe/cartesian": ('unsafe', 5, 0, 5, 0, (0, 0, 0), None, (3, True, True)),
    "rand7/sbe/boolean": ('unsafe', 5, 0, 5, 0, (0, 0, 0), None, (3, True, True)),
    "rand7/lbe/cartesian": ('unsafe', 3, 0, 5, 2, (0, 0, 0), None, (1, True, True)),
    "rand7/lbe/boolean": ('unsafe', 3, 0, 3, 2, (0, 0, 0), None, (1, True, True)),
    "rand8/sbe/cartesian": ('unsafe', 6, 0, 5, 0, (0, 0, 0), None, (4, True, True)),
    "rand8/sbe/boolean": ('unsafe', 6, 0, 5, 0, (0, 0, 0), None, (4, True, True)),
    "rand8/lbe/cartesian": ('unsafe', 3, 0, 5, 3, (0, 0, 0), None, (1, True, True)),
    "rand8/lbe/boolean": ('unsafe', 3, 0, 3, 3, (0, 0, 0), None, (1, True, True)),
    "rand9/sbe/cartesian": ('unsafe', 8, 0, 8, 0, (0, 0, 0), None, (5, True, True)),
    "rand9/sbe/boolean": ('unsafe', 8, 0, 8, 0, (0, 0, 0), None, (5, True, True)),
    "rand9/lbe/cartesian": ('unsafe', 3, 0, 8, 6, (0, 0, 0), None, (1, True, True)),
    "rand9/lbe/boolean": ('unsafe', 3, 0, 3, 6, (0, 0, 0), None, (1, True, True)),
    "rand10/sbe/cartesian": ('unsafe', 5, 0, 5, 0, (0, 0, 0), None, (3, True, True)),
    "rand10/sbe/boolean": ('unsafe', 5, 0, 5, 0, (0, 0, 0), None, (3, True, True)),
    "rand10/lbe/cartesian": ('unsafe', 3, 0, 5, 2, (0, 0, 0), None, (1, True, True)),
    "rand10/lbe/boolean": ('unsafe', 3, 0, 3, 2, (0, 0, 0), None, (1, True, True)),
    "rand11/sbe/cartesian": ('safe', 8, 0, 5, 0, (0, 0, 0), None, None),
    "rand11/sbe/boolean": ('safe', 8, 0, 5, 0, (0, 0, 0), None, None),
    "rand11/lbe/cartesian": ('safe', 4, 0, 5, 4, (0, 0, 0), None, None),
    "rand11/lbe/boolean": ('safe', 4, 0, 3, 4, (0, 0, 0), None, None),
    "rand12/sbe/cartesian": ('unknown', 7, 1, 18, 0, (2, 1, 2), 'stagnation', None),
    "rand12/sbe/boolean": ('unsafe', 12, 1, 17, 0, (2, 1, 2), None, (7, True, True)),
    "rand12/lbe/cartesian": ('unsafe', 3, 0, 8, 7, (0, 0, 0), None, (1, True, True)),
    "rand12/lbe/boolean": ('unsafe', 3, 0, 3, 7, (0, 0, 0), None, (1, True, True)),
    "rand13/sbe/cartesian": ('unknown', 7, 1, 17, 0, (2, 1, 2), 'stagnation', None),
    "rand13/sbe/boolean": ('unsafe', 13, 1, 18, 0, (2, 1, 2), None, (6, True, True)),
    "rand13/lbe/cartesian": ('unknown', 5, 1, 17, 7, (2, 1, 2), 'stagnation', None),
    "rand13/lbe/boolean": ('unsafe', 10, 1, 14, 7, (2, 1, 2), None, (4, True, True)),
    "rand14/sbe/cartesian": ('unsafe', 7, 0, 6, 0, (0, 0, 0), None, (4, True, True)),
    "rand14/sbe/boolean": ('unsafe', 7, 0, 6, 0, (0, 0, 0), None, (4, True, True)),
    "rand14/lbe/cartesian": ('unsafe', 3, 0, 9, 7, (0, 0, 0), None, (1, True, True)),
    "rand14/lbe/boolean": ('unsafe', 3, 0, 3, 7, (0, 0, 0), None, (1, True, True)),
    "rand15/sbe/cartesian": ('safe', 3, 1, 9, 0, (2, 1, 2), None, None),
    "rand15/sbe/boolean": ('safe', 3, 1, 8, 0, (2, 1, 2), None, None),
    "rand15/lbe/cartesian": ('safe', 2, 1, 9, 2, (2, 2, 2), None, None),
    "rand15/lbe/boolean": ('safe', 2, 0, 2, 2, (0, 0, 0), None, None),
    "rand16/sbe/cartesian": ('unsafe', 6, 0, 6, 0, (0, 0, 0), None, (4, True, True)),
    "rand16/sbe/boolean": ('unsafe', 6, 0, 6, 0, (0, 0, 0), None, (4, True, True)),
    "rand16/lbe/cartesian": ('unsafe', 3, 0, 6, 3, (0, 0, 0), None, (1, True, True)),
    "rand16/lbe/boolean": ('unsafe', 3, 0, 3, 3, (0, 0, 0), None, (1, True, True)),
    "rand17/sbe/cartesian": ('unsafe', 8, 0, 6, 0, (0, 0, 0), None, (5, True, True)),
    "rand17/sbe/boolean": ('unsafe', 8, 0, 6, 0, (0, 0, 0), None, (5, True, True)),
    "rand17/lbe/cartesian": ('unsafe', 5, 0, 8, 5, (0, 0, 0), None, (2, True, True)),
    "rand17/lbe/boolean": ('unsafe', 5, 0, 5, 5, (0, 0, 0), None, (2, True, True)),
    "rand18/sbe/cartesian": ('safe', 5, 0, 4, 0, (0, 0, 0), None, None),
    "rand18/sbe/boolean": ('safe', 5, 0, 4, 0, (0, 0, 0), None, None),
    "rand18/lbe/cartesian": ('safe', 2, 0, 4, 3, (0, 0, 0), None, None),
    "rand18/lbe/boolean": ('safe', 2, 0, 1, 3, (0, 0, 0), None, None),
    "rand19/sbe/cartesian": ('safe', 6, 0, 5, 0, (0, 0, 0), None, None),
    "rand19/sbe/boolean": ('safe', 6, 0, 5, 0, (0, 0, 0), None, None),
    "rand19/lbe/cartesian": ('safe', 4, 0, 5, 2, (0, 0, 0), None, None),
    "rand19/lbe/boolean": ('safe', 4, 0, 3, 2, (0, 0, 0), None, None),
    "rand20/sbe/cartesian": ('unsafe', 7, 0, 6, 0, (0, 0, 0), None, (4, True, True)),
    "rand20/sbe/boolean": ('unsafe', 7, 0, 6, 0, (0, 0, 0), None, (4, True, True)),
    "rand20/lbe/cartesian": ('unsafe', 5, 0, 6, 6, (0, 0, 0), None, (2, True, True)),
    "rand20/lbe/boolean": ('unsafe', 5, 0, 5, 6, (0, 0, 0), None, (2, True, True)),
    "rand21/sbe/cartesian": ('unsafe', 6, 0, 6, 0, (0, 0, 0), None, (3, True, True)),
    "rand21/sbe/boolean": ('unsafe', 6, 0, 6, 0, (0, 0, 0), None, (3, True, True)),
    "rand21/lbe/cartesian": ('unsafe', 3, 0, 12, 11, (0, 0, 0), None, (1, True, True)),
    "rand21/lbe/boolean": ('unsafe', 3, 0, 3, 11, (0, 0, 0), None, (1, True, True)),
    "rand22/sbe/cartesian": ('unsafe', 5, 0, 5, 0, (0, 0, 0), None, (3, True, True)),
    "rand22/sbe/boolean": ('unsafe', 5, 0, 5, 0, (0, 0, 0), None, (3, True, True)),
    "rand22/lbe/cartesian": ('unsafe', 3, 0, 5, 2, (0, 0, 0), None, (1, True, True)),
    "rand22/lbe/boolean": ('unsafe', 3, 0, 3, 2, (0, 0, 0), None, (1, True, True)),
    "rand23/sbe/cartesian": ('unsafe', 5, 0, 5, 0, (0, 0, 0), None, (3, True, True)),
    "rand23/sbe/boolean": ('unsafe', 5, 0, 5, 0, (0, 0, 0), None, (3, True, True)),
    "rand23/lbe/cartesian": ('unsafe', 3, 0, 5, 2, (0, 0, 0), None, (1, True, True)),
    "rand23/lbe/boolean": ('unsafe', 3, 0, 3, 2, (0, 0, 0), None, (1, True, True)),
    "rand24/sbe/cartesian": ('safe', 10, 0, 9, 0, (0, 0, 0), None, None),
    "rand24/sbe/boolean": ('safe', 10, 0, 9, 0, (0, 0, 0), None, None),
    "rand24/lbe/cartesian": ('safe', 4, 0, 9, 6, (0, 0, 0), None, None),
    "rand24/lbe/boolean": ('safe', 4, 0, 3, 6, (0, 0, 0), None, None),
    "rand25/sbe/cartesian": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand25/sbe/boolean": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand25/lbe/cartesian": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand25/lbe/boolean": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand26/sbe/cartesian": ('unsafe', 7, 0, 6, 0, (0, 0, 0), None, (5, True, True)),
    "rand26/sbe/boolean": ('unsafe', 7, 0, 6, 0, (0, 0, 0), None, (5, True, True)),
    "rand26/lbe/cartesian": ('unsafe', 3, 0, 6, 4, (0, 0, 0), None, (1, True, True)),
    "rand26/lbe/boolean": ('unsafe', 3, 0, 3, 4, (0, 0, 0), None, (1, True, True)),
    "rand27/sbe/cartesian": ('unsafe', 8, 0, 8, 0, (0, 0, 0), None, (5, True, True)),
    "rand27/sbe/boolean": ('unsafe', 8, 0, 8, 0, (0, 0, 0), None, (5, True, True)),
    "rand27/lbe/cartesian": ('unsafe', 5, 0, 9, 5, (0, 0, 0), None, (2, True, True)),
    "rand27/lbe/boolean": ('unsafe', 5, 0, 5, 5, (0, 0, 0), None, (2, True, True)),
    "rand28/sbe/cartesian": ('unsafe', 7, 0, 7, 0, (0, 0, 0), None, (5, True, True)),
    "rand28/sbe/boolean": ('unsafe', 7, 0, 7, 0, (0, 0, 0), None, (5, True, True)),
    "rand28/lbe/cartesian": ('unsafe', 3, 0, 7, 4, (0, 0, 0), None, (1, True, True)),
    "rand28/lbe/boolean": ('unsafe', 3, 0, 3, 4, (0, 0, 0), None, (1, True, True)),
    "rand29/sbe/cartesian": ('unsafe', 5, 0, 5, 0, (0, 0, 0), None, (3, True, True)),
    "rand29/sbe/boolean": ('unsafe', 5, 0, 5, 0, (0, 0, 0), None, (3, True, True)),
    "rand29/lbe/cartesian": ('unsafe', 3, 0, 5, 2, (0, 0, 0), None, (1, True, True)),
    "rand29/lbe/boolean": ('unsafe', 3, 0, 3, 2, (0, 0, 0), None, (1, True, True)),
    "rand30/sbe/cartesian": ('unsafe', 9, 0, 9, 0, (0, 0, 0), None, (5, True, True)),
    "rand30/sbe/boolean": ('unsafe', 9, 0, 9, 0, (0, 0, 0), None, (5, True, True)),
    "rand30/lbe/cartesian": ('unsafe', 2, 0, 18, 19, (0, 0, 0), None, (1, True, True)),
    "rand30/lbe/boolean": ('unsafe', 2, 0, 2, 19, (0, 0, 0), None, (1, True, True)),
    "rand31/sbe/cartesian": ('safe', 3, 0, 2, 0, (0, 0, 0), None, None),
    "rand31/sbe/boolean": ('safe', 3, 0, 2, 0, (0, 0, 0), None, None),
    "rand31/lbe/cartesian": ('safe', 2, 0, 2, 1, (0, 0, 0), None, None),
    "rand31/lbe/boolean": ('safe', 2, 0, 1, 1, (0, 0, 0), None, None),
    "rand32/sbe/cartesian": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand32/sbe/boolean": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand32/lbe/cartesian": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand32/lbe/boolean": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand33/sbe/cartesian": ('safe', 5, 1, 14, 0, (3, 2, 3), None, None),
    "rand33/sbe/boolean": ('safe', 5, 1, 11, 0, (3, 2, 3), None, None),
    "rand33/lbe/cartesian": ('safe', 2, 1, 16, 4, (3, 3, 3), None, None),
    "rand33/lbe/boolean": ('safe', 2, 0, 2, 4, (0, 0, 0), None, None),
    "rand34/sbe/cartesian": ('unsafe', 6, 0, 6, 0, (0, 0, 0), None, (4, True, True)),
    "rand34/sbe/boolean": ('unsafe', 6, 0, 6, 0, (0, 0, 0), None, (4, True, True)),
    "rand34/lbe/cartesian": ('unsafe', 3, 0, 6, 3, (0, 0, 0), None, (1, True, True)),
    "rand34/lbe/boolean": ('unsafe', 3, 0, 3, 3, (0, 0, 0), None, (1, True, True)),
    "rand35/sbe/cartesian": ('unsafe', 9, 0, 9, 0, (0, 0, 0), None, (5, False, False)),
    "rand35/sbe/boolean": ('unsafe', 9, 0, 9, 0, (0, 0, 0), None, (5, False, False)),
    "rand35/lbe/cartesian": ('unsafe', 3, 0, 9, 6, (0, 0, 0), None, (1, False, False)),
    "rand35/lbe/boolean": ('unsafe', 3, 0, 3, 6, (0, 0, 0), None, (1, False, False)),
    "rand36/sbe/cartesian": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand36/sbe/boolean": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand36/lbe/cartesian": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand36/lbe/boolean": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand37/sbe/cartesian": ('unsafe', 4, 0, 4, 0, (0, 0, 0), None, (2, True, True)),
    "rand37/sbe/boolean": ('unsafe', 4, 0, 4, 0, (0, 0, 0), None, (2, True, True)),
    "rand37/lbe/cartesian": ('unsafe', 3, 0, 4, 1, (0, 0, 0), None, (1, True, True)),
    "rand37/lbe/boolean": ('unsafe', 3, 0, 3, 1, (0, 0, 0), None, (1, True, True)),
    "rand38/sbe/cartesian": ('unsafe', 8, 0, 8, 0, (0, 0, 0), None, (4, True, True)),
    "rand38/sbe/boolean": ('unsafe', 8, 0, 8, 0, (0, 0, 0), None, (4, True, True)),
    "rand38/lbe/cartesian": ('unsafe', 3, 0, 9, 7, (0, 0, 0), None, (1, True, True)),
    "rand38/lbe/boolean": ('unsafe', 3, 0, 3, 7, (0, 0, 0), None, (1, True, True)),
    "rand39/sbe/cartesian": ('unsafe', 6, 0, 6, 0, (0, 0, 0), None, (4, True, True)),
    "rand39/sbe/boolean": ('unsafe', 6, 0, 6, 0, (0, 0, 0), None, (4, True, True)),
    "rand39/lbe/cartesian": ('unsafe', 3, 0, 6, 3, (0, 0, 0), None, (1, True, True)),
    "rand39/lbe/boolean": ('unsafe', 3, 0, 3, 3, (0, 0, 0), None, (1, True, True)),
    "rand40/sbe/cartesian": ('safe', 17, 0, 16, 0, (0, 0, 0), None, None),
    "rand40/sbe/boolean": ('safe', 17, 0, 16, 0, (0, 0, 0), None, None),
    "rand40/lbe/cartesian": ('safe', 7, 0, 16, 10, (0, 0, 0), None, None),
    "rand40/lbe/boolean": ('safe', 7, 0, 6, 10, (0, 0, 0), None, None),
    "rand41/sbe/cartesian": ('unsafe', 7, 0, 7, 0, (0, 0, 0), None, (4, True, True)),
    "rand41/sbe/boolean": ('unsafe', 7, 0, 7, 0, (0, 0, 0), None, (4, True, True)),
    "rand41/lbe/cartesian": ('unsafe', 3, 0, 7, 5, (0, 0, 0), None, (1, True, True)),
    "rand41/lbe/boolean": ('unsafe', 3, 0, 3, 5, (0, 0, 0), None, (1, True, True)),
    "rand42/sbe/cartesian": ('unsafe', 8, 0, 8, 0, (0, 0, 0), None, (5, True, True)),
    "rand42/sbe/boolean": ('unsafe', 8, 0, 8, 0, (0, 0, 0), None, (5, True, True)),
    "rand42/lbe/cartesian": ('unsafe', 3, 0, 9, 6, (0, 0, 0), None, (1, True, True)),
    "rand42/lbe/boolean": ('unsafe', 3, 0, 3, 6, (0, 0, 0), None, (1, True, True)),
    "rand43/sbe/cartesian": ('unknown', 8, 1, 22, 0, (3, 2, 3), 'stagnation', None),
    "rand43/sbe/boolean": ('unsafe', 11, 2, 27, 0, (3, 2, 3), None, (4, True, True)),
    "rand43/lbe/cartesian": ('unsafe', 5, 0, 6, 3, (0, 0, 0), None, (2, True, True)),
    "rand43/lbe/boolean": ('unsafe', 5, 0, 5, 3, (0, 0, 0), None, (2, True, True)),
    "rand44/sbe/cartesian": ('unsafe', 7, 0, 7, 0, (0, 0, 0), None, (5, True, True)),
    "rand44/sbe/boolean": ('unsafe', 7, 0, 7, 0, (0, 0, 0), None, (5, True, True)),
    "rand44/lbe/cartesian": ('unsafe', 3, 0, 7, 4, (0, 0, 0), None, (1, True, True)),
    "rand44/lbe/boolean": ('unsafe', 3, 0, 3, 4, (0, 0, 0), None, (1, True, True)),
    "rand45/sbe/cartesian": ('safe', 3, 0, 2, 0, (0, 0, 0), None, None),
    "rand45/sbe/boolean": ('safe', 3, 0, 2, 0, (0, 0, 0), None, None),
    "rand45/lbe/cartesian": ('safe', 2, 0, 2, 1, (0, 0, 0), None, None),
    "rand45/lbe/boolean": ('safe', 2, 0, 1, 1, (0, 0, 0), None, None),
    "rand46/sbe/cartesian": ('unsafe', 8, 0, 7, 0, (0, 0, 0), None, (5, True, True)),
    "rand46/sbe/boolean": ('unsafe', 8, 0, 7, 0, (0, 0, 0), None, (5, True, True)),
    "rand46/lbe/cartesian": ('unsafe', 5, 0, 7, 4, (0, 0, 0), None, (2, True, True)),
    "rand46/lbe/boolean": ('unsafe', 5, 0, 5, 4, (0, 0, 0), None, (2, True, True)),
    "rand47/sbe/cartesian": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand47/sbe/boolean": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand47/lbe/cartesian": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand47/lbe/boolean": ('safe', 2, 0, 1, 0, (0, 0, 0), None, None),
    "rand48/sbe/cartesian": ('unsafe', 7, 0, 7, 0, (0, 0, 0), None, (4, True, True)),
    "rand48/sbe/boolean": ('unsafe', 7, 0, 7, 0, (0, 0, 0), None, (4, True, True)),
    "rand48/lbe/cartesian": ('unsafe', 5, 0, 8, 3, (0, 0, 0), None, (2, True, True)),
    "rand48/lbe/boolean": ('unsafe', 5, 0, 5, 3, (0, 0, 0), None, (2, True, True)),
    "rand49/sbe/cartesian": ('safe', 3, 0, 1, 0, (0, 0, 0), None, None),
    "rand49/sbe/boolean": ('safe', 3, 0, 1, 0, (0, 0, 0), None, None),
    "rand49/lbe/cartesian": ('safe', 2, 0, 1, 1, (0, 0, 0), None, None),
    "rand49/lbe/boolean": ('safe', 2, 0, 1, 1, (0, 0, 0), None, None),
}


THEORY = {
    "locks1/sbe/cartesian": (36, None),
    "locks1/lbe/boolean": (8, None),
    "locks1/lbe/cartesian": (27, None),
    "locks2/sbe/cartesian": (175, None),
    "locks2/lbe/boolean": (13, None),
    "locks2/lbe/cartesian": (62, None),
    "locks3/sbe/cartesian": (633, None),
    "locks3/lbe/boolean": (19, None),
    "locks3/lbe/cartesian": (109, None),
    "bug2/lbe/boolean": (24,
        'cond@1=-1 lk1@1=0 lk1@2=0 lk1@3=0 lk1@4=0 '
        'lk2@1=0 lk2@2=0 lk2@3=0 p1@1=0 p2@1=0'),
    "bug2/sbe/cartesian": (13, 'cond@1=-1 lk1@1=0 lk2@1=0 p1@1=0 p2@1=0'),
    "bug3/lbe/boolean": (30,
        'cond@1=-1 lk1@1=0 lk1@2=0 lk1@3=0 lk1@4=0 lk2@1=0 lk2@2=0 '
        'lk2@3=0 lk2@4=0 lk3@1=0 lk3@2=0 lk3@3=0 p1@1=0 p2@1=0 p3@1=0'),
    "bug3/sbe/cartesian": (16, 'cond@1=-1 lk1@1=0 lk2@1=0 lk3@1=0 p1@1=0 p2@1=0 p3@1=0'),
    "locks4/sbe/cartesian": (1830, None),
    "locks4/lbe/cartesian": (169, None),
    "locks5/lbe/cartesian": (241, None),
    "locks6/lbe/cartesian": (325, None),
    "bug4/lbe/boolean": (42,
        'cond@1=-1 lk1@1=0 lk1@2=0 lk1@3=0 lk1@4=0 lk2@1=0 lk2@2=0 '
        'lk2@3=0 lk2@4=0 lk3@1=0 lk3@2=0 lk3@3=0 lk3@4=0 lk4@1=0 '
        'lk4@2=0 lk4@3=0 p1@1=0 p2@1=0 p3@1=0 p4@1=0'),
    "bug4/sbe/cartesian": (19,
        'cond@1=-1 lk1@1=0 lk2@1=0 lk3@1=0 lk4@1=0 p1@1=0 p2@1=0 '
        'p3@1=0 p4@1=0'),
}
