"""Command-line driver: parse, encode, verify, report.

Exit codes: 0 safe, 1 unsafe, 2 unknown, 3 usage, I/O, solver or internal
error, 4 crosscheck disagreement.  The crosscheck oracle drops every value
outside its bound, so when it finds no error but the checker's `unsafe`
comes with an integral witness replayed to the error location (a concrete
run), the run only notes that the error lies beyond the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .abstraction import BOOLEAN, CARTESIAN
from .cfa import rule_count, summarize, to_dot, trace_to_json_lines
from .engine import VerificationResult, art_to_dot, verify
from .frontend import ParseError, parse_program
from .oracle import (
    BUDGET_EXCEEDED,
    NOT_REACHABLE,
    REACHABLE,
    DomainBound,
    explicit_reachable,
)
from .record import Record
from .semantics import op_label
from .smt import make_solver

SOLVER_ENV = "LBEMC_SOLVER"


class RunConfig(Record):
    __slots__ = _fields = ("input_path", "encoding", "abstraction", "max_refinements",
                           "solver_command", "stats_path", "dot_cfa_path", "dot_art_path",
                           "trace_path", "crosscheck")

    def __init__(self, input_path: str,
                 encoding: str = "lbe",  # "sbe" | "lbe"
                 abstraction: str = BOOLEAN,  # "cartesian" | "boolean"
                 max_refinements: int = 100,
                 solver_command: str | None = None,  # None = internal engine
                 stats_path: str | None = None, dot_cfa_path: str | None = None,
                 dot_art_path: str | None = None, trace_path: str | None = None,
                 crosscheck: int | None = None) -> None:
        if encoding not in ("sbe", "lbe"):
            raise ValueError(f"unknown encoding {encoding!r}")
        if abstraction not in (CARTESIAN, BOOLEAN):
            raise ValueError(f"unknown abstraction {abstraction!r}")
        if max_refinements < 0:
            raise ValueError("--max-refinements must be >= 0")
        if crosscheck is not None and crosscheck < 0:
            raise ValueError("--crosscheck must be >= 0")
        self.input_path, self.encoding, self.abstraction = input_path, encoding, abstraction
        self.max_refinements, self.solver_command = max_refinements, solver_command
        self.stats_path, self.dot_cfa_path = stats_path, dot_cfa_path
        self.dot_art_path, self.trace_path = dot_art_path, trace_path
        self.crosscheck = crosscheck


# ---------------------------------------------------------------------------
# benchmark generator
# ---------------------------------------------------------------------------

def gen_test_locks(n: int, bug: bool = False) -> str:
    """Lock-discipline benchmark with n independent acquire/check diamonds.

    Each loop iteration nondeterministically decides, per lock, whether to
    acquire it; the matching check asserts that a decided lock was indeed
    acquired before releasing it.  Safe by construction; with `bug` the
    last check's guard is flipped so the error location becomes reachable.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lines = ["int cond;"]
    for i in range(1, n + 1):
        lines.append(f"int p{i};")
        lines.append(f"int lk{i};")
    lines.append("cond = nondet();")
    lines.append("while (cond != 0) {")
    lines.append("  cond = nondet();")
    for i in range(1, n + 1):
        lines.append(f"  p{i} = nondet();")
    for i in range(1, n + 1):
        lines.append(f"  lk{i} = 0;")
    for i in range(1, n + 1):
        lines.append(f"  if (p{i} != 0) {{")
        lines.append(f"    lk{i} = 1;")
        lines.append("  }")
    for i in range(1, n + 1):
        guard = "==" if (bug and i == n) else "!="
        lines.append(f"  if (p{i} {guard} 0) {{")
        lines.append(f"    assert(lk{i} == 1);")
        lines.append(f"    lk{i} = 0;")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_outputs(outputs: list[tuple[str, str]]) -> bool:
    """Write each (path, text); on an I/O error print it and return False."""
    try:
        for path, text in outputs:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _counterexample_lines(result: VerificationResult) -> list[str]:
    out = ["counterexample path:"]
    for edge, _ in result.path or []:
        out.append(f"  {edge.source} -> {edge.target}: {op_label(edge.op, limit=200)}")
    if result.model:
        initial = {
            v.name: str(val)
            for v, val in sorted(result.model.items(), key=lambda kv: str(kv[0]))
            if v.index == 0
        }
        out.append(f"  initial values: {initial}")
    kind = "integral" if result.integral_witness else "rational (integrality not verified)"
    out.append(f"  witness: {kind}" + (", replayed to error" if result.replayed else ""))
    return out


def run(config: RunConfig) -> int:
    try:
        source = _read_input(config.input_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        program = parse_program(source)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3

    parsed = program  # summarization keeps reachability; the oracle runs here
    rule_applications = 0
    trace = []
    if config.encoding == "lbe":
        program, trace = summarize(program)
        rule_applications = rule_count(trace)

    solver = make_solver(config.solver_command)
    try:
        result = verify(
            program,
            mode=config.abstraction,
            max_refinements=config.max_refinements,
            solver=solver,
            rule_applications=rule_applications,
        )
    except RecursionError:
        raise  # a RuntimeError, but an internal error, not the solver's
    except (OSError, RuntimeError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    finally:
        solver.close()

    verdict_code = {"safe": 0, "unsafe": 1, "unknown": 2}[result.verdict]
    print(f"verdict: {result.verdict.upper()}")
    if result.verdict == "unsafe":
        print("\n".join(_counterexample_lines(result)))
    if result.verdict == "unknown" and result.reason:
        print(f"reason: {result.reason}")

    outputs = []
    if config.stats_path:
        payload = {"verdict": result.verdict, **result.stats.as_dict()}
        outputs.append((config.stats_path, json.dumps(payload, indent=2)))
    if config.dot_cfa_path:
        outputs.append((config.dot_cfa_path, to_dot(program)))
    if config.dot_art_path and result.art is not None:
        outputs.append((config.dot_art_path, art_to_dot(result.art)))
    if config.trace_path:
        outputs.append((config.trace_path, trace_to_json_lines(trace)))
    if not _write_outputs([(path, text + "\n") for path, text in outputs]):
        return 3

    if config.crosscheck is not None:
        bound = DomainBound(default=(-config.crosscheck, config.crosscheck))
        ground = explicit_reachable(parsed, bound)
        if ground == BUDGET_EXCEEDED:
            print("crosscheck: budget exceeded, skipped", file=sys.stderr)
        else:
            expected = {REACHABLE: "unsafe", NOT_REACHABLE: "safe"}[ground]
            if result.verdict == "unknown":
                print(f"crosscheck: oracle says {expected}, checker unknown",
                      file=sys.stderr)
            elif (ground == NOT_REACHABLE and result.integral_witness
                  and result.replayed):
                print(f"crosscheck: oracle finds no error within "
                      f"[-{config.crosscheck}, {config.crosscheck}], but the replayed "
                      f"integral witness is a concrete run outside it", file=sys.stderr)
            elif result.verdict != expected:
                print(
                    f"crosscheck FAILED: oracle says {expected}, "
                    f"checker says {result.verdict}",
                    file=sys.stderr,
                )
                return 4
            else:
                print("crosscheck: verdicts agree", file=sys.stderr)
    return verdict_code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 3 instead of argparse's 2
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="lbemc",
        description="Model checker for a small integer language "
                    "(single-block or large-block encoding, Cartesian or "
                    "Boolean predicate abstraction).",
    )
    p.add_argument("input", nargs="?", help="input program (.imp), or - for stdin")
    p.add_argument("--encoding", choices=["sbe", "lbe"], default="lbe")
    p.add_argument("--abstraction", choices=[CARTESIAN, BOOLEAN], default=BOOLEAN)
    p.add_argument("--max-refinements", type=int, default=100)
    p.add_argument("--solver", metavar="CMD",
                   help="external SMT-LIB2 solver command (default: internal)")
    p.add_argument("--stats", metavar="PATH", help="write stats JSON here")
    p.add_argument("--dot-cfa", metavar="PATH", help="write the analyzed CFA as DOT")
    p.add_argument("--dot-art", metavar="PATH", help="write the final ART as DOT")
    p.add_argument("--trace", metavar="PATH",
                   help="write the summarization trace as JSON lines")
    p.add_argument("--crosscheck", type=int, metavar="B",
                   help="also run the explicit-state oracle over [-B, B]; "
                        "exit 4 on verdict disagreement")
    p.add_argument("--gen-test-locks", type=int, metavar="N",
                   help="emit the N-lock benchmark program and exit")
    p.add_argument("--bug", action="store_true",
                   help="with --gen-test-locks: flip one guard to inject a bug")
    p.add_argument("-o", "--output", metavar="PATH",
                   help="with --gen-test-locks: write the program here")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3

    if args.gen_test_locks is not None:
        try:
            text = gen_test_locks(args.gen_test_locks, bug=args.bug)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        if not args.output:
            sys.stdout.write(text)
        elif not _write_outputs([(args.output, text)]):
            return 3
        return 0

    if not args.input:
        print("usage error: an input file is required", file=sys.stderr)
        return 3
    solver_command = os.environ.get(SOLVER_ENV) or args.solver
    try:
        config = RunConfig(
            input_path=args.input,
            encoding=args.encoding,
            abstraction=args.abstraction,
            max_refinements=args.max_refinements,
            solver_command=solver_command,
            stats_path=args.stats,
            dot_cfa_path=args.dot_cfa,
            dot_art_path=args.dot_art,
            trace_path=args.trace,
            crosscheck=args.crosscheck,
        )
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    try:
        return run(config)
    except Exception as exc:  # never let a crash exit 1, the "unsafe" code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
