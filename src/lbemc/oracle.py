"""Brute-force semantics used as ground truth.

Explicit-state reachability over bounded integer domains, and a seeded
generator of random source programs.  Tests use both as ground truth;
`lbemc --crosscheck` runs the reachability search, and the benchmark
builds its random corpus with the generator.

The module shares only the formula, program and operation data types
with the symbolic engine: it evaluates each operation on concrete values
and imports nothing of the solver, the abstraction or the engine.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import product

from .cfa import Program, program_variables
from .formula import VariableRef, evaluate
from .record import Record
from .semantics import Assign, Assume, Choice, Havoc, Operation, Seq
# unused here; perfbench/tracer.py wraps `encode_edge` in this module's
# namespace (looked up through __dict__), so the name has to stay
from .semantics import encode_edge  # noqa: F401

REACHABLE = "reachable"
NOT_REACHABLE = "not-reachable"
BUDGET_EXCEEDED = "budget-exceeded"


class DomainBound(Record):
    """Inclusive per-variable integer intervals plus a state-count budget."""

    __slots__ = _fields = ("default", "intervals", "budget")

    def __init__(self, default: tuple[int, int] = (0, 3),
                 intervals: dict[str, tuple[int, int]] | None = None,
                 budget: int = 200_000) -> None:
        self.default = default
        self.intervals = {} if intervals is None else intervals
        self.budget = budget
        for lo, hi in [default, *self.intervals.values()]:
            if lo > hi:
                raise ValueError("empty interval")
        if budget <= 0:
            raise ValueError("budget must be positive")

    def interval(self, name: str) -> tuple[int, int]:
        return self.intervals.get(name, self.default)


def op_successors(op: Operation, env: dict[str, int], bound: DomainBound) -> list[dict[str, int]]:
    """Concrete successor environments; values leaving the bound are dropped."""
    if isinstance(op, Assign):
        val = op.expr.evaluate({VariableRef(n): v for n, v in env.items()})
        assert val.denominator == 1
        val = int(val)
        lo, hi = bound.interval(op.var)
        if not lo <= val <= hi:
            return []
        return [{**env, op.var: val}]
    if isinstance(op, Assume):
        ref_env = {VariableRef(n): v for n, v in env.items()}
        return [env] if evaluate(op.cond, ref_env) else []
    if isinstance(op, Havoc):
        lo, hi = bound.interval(op.var)
        return [{**env, op.var: k} for k in range(lo, hi + 1)]
    if isinstance(op, Seq):
        out = []
        for mid in op_successors(op.first, env, bound):
            out.extend(op_successors(op.second, mid, bound))
        return out
    if isinstance(op, Choice):
        return op_successors(op.left, env, bound) + op_successors(op.right, env, bound)
    raise TypeError(f"not an operation: {op!r}")


def explicit_reachable(p: Program, bound: DomainBound) -> str:
    """BFS over concrete states from every initial environment in the bound.

    Returns BUDGET_EXCEEDED once more states than the budget are stored,
    the initial environments included, so a bound whose initial states
    alone exceed the budget is given up before they are all built.  A
    state is queued as the (location, values) pair that marks it visited,
    and its environment is rebuilt when it is taken from the queue.
    """
    names = program_variables(p)
    if p.entry == p.error:
        return REACHABLE
    visited: set[tuple] = set()
    queue: deque = deque()
    for values in product(*(range(lo, hi + 1) for lo, hi in map(bound.interval, names))):
        state = (p.entry, values)
        visited.add(state)
        if len(visited) > bound.budget:
            return BUDGET_EXCEEDED
        queue.append(state)
    while queue:
        if len(visited) > bound.budget:
            return BUDGET_EXCEEDED
        loc, values = queue.popleft()
        if loc == p.error:
            return REACHABLE
        env = dict(zip(names, values))
        for e in p.cfa.outgoing(loc):
            for env2 in op_successors(e.op, env, bound):
                state = (e.target, tuple(env2[n] for n in names))
                if state not in visited:
                    visited.add(state)
                    queue.append(state)
    return NOT_REACHABLE


def random_program(seed: int, n_vars: int = 4, max_stmts: int = 12,
                   loop_depth: int = 1) -> str:
    """Deterministic random source program: linear updates, guards, at most
    one level of loop nesting, and a sprinkling of error calls."""
    rng = random.Random(seed)
    names = ["a", "b", "c", "d"][: max(1, n_vars)]
    lines = [f"int {n};" for n in names]
    budget = [rng.randint(3, max_stmts)]

    def expr_text() -> str:
        pieces = []
        for i in range(rng.randint(1, 2)):
            c = rng.randint(1, 2)
            v = rng.choice(names)
            piece = v if c == 1 else f"{c} * {v}"
            if i == 0:
                pieces.append(piece if rng.random() < 0.8 else f"- {piece}")
            else:
                pieces.append(f"{rng.choice(['+', '-'])} {piece}")
        k = rng.randint(-3, 3)
        if k != 0:
            pieces.append(f"+ {k}" if k > 0 else f"- {abs(k)}")
        return " ".join(pieces)

    def cond_text() -> str:
        rel = rng.choice(["==", "!=", "<", "<=", ">", ">="])
        return f"{rng.choice(names)} {rel} {rng.randint(-2, 3)}"

    def stmts(depth: int, indent: str) -> list[str]:
        out = []
        n = rng.randint(1, 3)
        for _ in range(n):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            kind = rng.choices(
                ["assign", "nondet", "assume", "if", "while", "error", "skip"],
                weights=[30, 15, 12, 18, 10 if depth < loop_depth else 0, 6, 4],
            )[0]
            if kind == "assign":
                out.append(f"{indent}{rng.choice(names)} = {expr_text()};")
            elif kind == "nondet":
                out.append(f"{indent}{rng.choice(names)} = nondet();")
            elif kind == "assume":
                out.append(f"{indent}assume({cond_text()});")
            elif kind == "error":
                out.append(f"{indent}if ({cond_text()}) {{ error(); }}")
            elif kind == "skip":
                out.append(f"{indent}skip;")
            elif kind == "if":
                body = stmts(depth, indent + "  ")
                tail = [f"{indent}}}"]
                if rng.random() < 0.5:
                    els = stmts(depth, indent + "  ")
                    tail = [f"{indent}}} else {{", *els, f"{indent}}}"]
                out.extend([f"{indent}if ({cond_text()}) {{", *body, *tail])
            elif kind == "while":
                body = stmts(depth + 1, indent + "  ")
                out.extend([f"{indent}while ({cond_text()}) {{", *body, f"{indent}}}"])
        return out or [f"{indent}skip;"]

    lines.extend(stmts(0, ""))
    if rng.random() < 0.5:
        lines.append(f"if ({cond_text()}) {{ error(); }}")
    return "\n".join(lines) + "\n"
