"""Workload definitions, task execution and checking of results.

A task is one program text plus one configuration (encoding, abstraction).
Running it calls lbemc in the order that `lbemc.cli.run` does:
`parse_program`, then `summarize` under LBE, then `verify` with a fresh
`InternalSolver`.  Every call goes through the module attribute, so the
tracer's wrappers see it.

Each task carries a reference answer, and `classify` turns the checker's
result into one of:

  decided   `safe`, or `unsafe` with an integral witness replayed to the
            error location;
  unknown   the checker gave up (refinement bound or stagnation);
  failed    an exception, `safe` where the error is reachable, or `unsafe`
            without a replayed integral witness.

`wrong` marks the failures that an exact reference contradicts (`safe` on
a reachable error, or `unsafe` on a program that is safe by construction);
any of them makes the run incorrect.  An unreplayed `unsafe` on a corpus
program fails without being wrong, because the bounded reference cannot
show that no integer witness exists outside its bound.
"""

from __future__ import annotations

import importlib
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

REACHABLE = "reachable"        # exact: the error location is reachable
UNREACHABLE = "unreachable"    # exact: safe by construction
BOUNDED_UNREACHABLE = "bounded-unreachable"  # no error within the bound
NO_REFERENCE = "none"          # the bounded search ran out of budget
PENDING = "pending"            # to be computed by with_references

# Domain of the explicit-state reference on the random corpus.
CORPUS_BOUND = (-2, 2)
CORPUS_BUDGET = 5_000

WORKLOADS = ("locks-lbe-boolean", "locks-sbe-cartesian", "locks-cex", "corpus")

# Lock counts per workload part; the reduced sizes serve the self-tests.
# Each full lock workload has an odd number of tasks, so that the median
# task time falls inside one task's cluster of samples, not on the edge
# between two tasks where it would jump from run to run.
SIZES = {
    "full": {
        "locks-lbe-boolean": range(4, 11),
        "locks-sbe-cartesian": range(1, 4),
        "cex-lbe-boolean": range(2, 5),
        "cex-sbe-cartesian": range(2, 5),
        "cex-lbe-cartesian": range(2, 7),
        "corpus": range(200),
    },
    "reduced": {
        "locks-lbe-boolean": range(2, 6),
        "locks-sbe-cartesian": range(1, 3),
        "cex-lbe-boolean": range(2, 4),
        "cex-sbe-cartesian": range(2, 4),
        "cex-lbe-cartesian": range(2, 4),
        "corpus": range(40),
    },
}


@dataclass(frozen=True)
class Task:
    name: str
    source: str
    encoding: str  # "sbe" | "lbe"
    mode: str      # "cartesian" | "boolean"
    reference: str


@dataclass
class Outcome:
    """What one task produced; `record` holds the deterministic fields."""

    task: Task
    seconds: float
    record: dict
    edges_out: int = 0
    bdd_nodes: int = 0
    theory_checks: int = 0
    status: str = "failed"  # "decided" | "unknown" | "failed"
    wrong: bool = False
    raw_seconds: float = 0.0           # before calibration scaling
    layers: dict | None = None         # traced: per span totals
    counts: Counter | None = None      # traced: per-layer counts


def load_lbemc(root: Path):
    """Import lbemc from `root/src`; refuse any other copy on sys.path."""
    src = (root / "src").resolve()
    if not (src / "lbemc" / "__init__.py").is_file():
        raise FileNotFoundError(f"no lbemc sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    lbemc = importlib.import_module("lbemc")
    if Path(lbemc.__file__).resolve().parent != src / "lbemc":
        raise ImportError(f"lbemc imported from {lbemc.__file__}, not {src}")
    for name in ("frontend", "cfa", "engine", "smt", "oracle", "abstraction", "cli"):
        importlib.import_module(f"lbemc.{name}")
    return lbemc


def build_tasks(lbemc, workload: str, scale: str = "full") -> list[Task]:
    """The tasks of one round of a workload, in canonical order."""
    sizes = SIZES[scale]
    locks = lbemc.cli.gen_test_locks
    if workload == "locks-lbe-boolean":
        return [Task(f"locks{n}", locks(n), "lbe", "boolean", UNREACHABLE)
                for n in sizes[workload]]
    if workload == "locks-sbe-cartesian":
        return [Task(f"locks{n}", locks(n), "sbe", "cartesian", UNREACHABLE)
                for n in sizes[workload]]
    if workload == "locks-cex":
        return (
            [Task(f"bug{n}", locks(n, bug=True), "lbe", "boolean", REACHABLE)
             for n in sizes["cex-lbe-boolean"]]
            + [Task(f"bug{n}", locks(n, bug=True), "sbe", "cartesian", REACHABLE)
               for n in sizes["cex-sbe-cartesian"]]
            + [Task(f"locks{n}", locks(n), "lbe", "cartesian", UNREACHABLE)
               for n in sizes["cex-lbe-cartesian"]]
        )
    if workload == "corpus":
        return [
            Task(f"random{k}", lbemc.oracle.random_program(k), enc, mode, PENDING)
            for k in sizes[workload]
            for enc in ("sbe", "lbe")
            for mode in ("cartesian", "boolean")
        ]
    raise KeyError(f"unknown workload {workload!r}")


def with_references(lbemc, tasks: list[Task]) -> list[Task]:
    """Replace PENDING references by bounded explicit-state answers."""
    oracle = lbemc.oracle
    bound = oracle.DomainBound(default=CORPUS_BOUND, budget=CORPUS_BUDGET)
    answers = {
        oracle.REACHABLE: REACHABLE,
        oracle.NOT_REACHABLE: BOUNDED_UNREACHABLE,
        oracle.BUDGET_EXCEEDED: NO_REFERENCE,
    }
    by_source: dict[str, str] = {}
    out = []
    for t in tasks:
        if t.reference == PENDING:
            if t.source not in by_source:
                program = lbemc.frontend.parse_program(t.source)
                by_source[t.source] = answers[oracle.explicit_reachable(program, bound)]
            t = Task(t.name, t.source, t.encoding, t.mode, by_source[t.source])
        out.append(t)
    return out


def round_order(tasks: list[Task], rng: random.Random) -> list[Task]:
    order = list(tasks)
    rng.shuffle(order)
    return order


def run_task(lbemc, task: Task) -> Outcome:
    """Source text to verdict; an exception is recorded, never raised."""
    start = time.perf_counter()
    solver = None
    try:
        program = lbemc.frontend.parse_program(task.source)
        rules = 0
        if task.encoding == "lbe":
            program, trace = lbemc.cfa.summarize(program)
            rules = lbemc.cfa.rule_count(trace)
        solver = lbemc.smt.InternalSolver()
        result = lbemc.engine.verify(
            program, mode=task.mode, solver=solver, rule_applications=rules
        )
        seconds = time.perf_counter() - start
    except Exception as exc:  # a crashing task is a result, not an abort
        seconds = time.perf_counter() - start
        return Outcome(task, seconds, {"exception": type(exc).__name__})
    finally:
        if solver is not None:
            solver.close()
    stats = result.stats.as_dict()
    del stats["wall_time_ms"]
    record = {"verdict": result.verdict, **stats}
    bdd_nodes = result.art.nodes[0].abstract.abstractor.bdd.size() if result.art else 0
    out = Outcome(task, seconds, record, len(program.cfa.edges), bdd_nodes,
                  solver.theory_checks)
    out.status, out.wrong = classify(task, result, program)
    return out


def classify(task: Task, result, program) -> tuple[str, bool]:
    """(status, wrong) for a finished run; see the module docstring."""
    if result.verdict == "safe":
        wrong = task.reference == REACHABLE
        return ("failed" if wrong else "decided"), wrong
    if result.verdict == "unsafe":
        if task.reference == UNREACHABLE:
            return "failed", True
        integral = result.model is not None and all(
            v.denominator == 1 for v in result.model.values()
        )
        ends_in_error = bool(result.path) and result.path[-1][0].target == program.error
        replayed = integral and result.integral_witness and result.replayed
        return ("decided" if replayed and ends_in_error else "failed"), False
    return "unknown", False
