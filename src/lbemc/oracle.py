"""Brute-force semantics used as ground truth, and counterexample replay.

Explicit-state reachability over bounded integer domains, syntactic path
enumeration, solver-backed equivalence, existential projection of indexed
variables, and model-guided concrete replay of counterexample paths.
Tests use all of it as ground truth; `lbemc --crosscheck` runs the
reachability search, and `engine.verify` replays every integral witness
before it calls it replayed.

Beyond the formula and operation data types, the module shares this with
the symbolic engine: projection splits a formula into cubes with the
solver's `smt._cubes` and eliminates with the theory's own `smt.project`
(substitution, then Fourier-Motzkin over the integer rows), and replay
joins choices with the path encoding's `semantics._merge`, so it reads a
model at the indices the path formula gave it.  That formula leaves out
the copies x@j = x@i nothing reads, choice pads and assignments x = x
alike (`semantics.drop_dead_pads`), so replay reads a variable the model
lacks as one nothing reads.  The reachability search and path enumeration
share nothing else.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import product

from .cfa import Edge, Program, program_variables
from .formula import (
    Formula,
    Not,
    Term,
    VariableRef,
    evaluate,
    f_and,
    f_or,
)
from .record import Record
from .semantics import (
    Assign,
    Assume,
    Choice,
    Havoc,
    Operation,
    Seq,
    _merge,
    seq_elements,
)
# unused here; perfbench/tracer.py wraps `encode_edge` in this module's
# namespace (looked up through __dict__), so the name has to stay
from .semantics import encode_edge  # noqa: F401
from .smt import _TheoryConflict, _atom_of_lin, _cubes, _lin_of_atom, normalize, project

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


def enum_paths(p: Program, max_len: int) -> list[tuple[Edge, ...]]:
    """All syntactic paths from the entry of length 1..max_len.

    Ordered by length first, then lexicographically by edge position.
    """
    index = {id(e): i for i, e in enumerate(p.cfa.edges)}
    out: list[tuple[Edge, ...]] = []

    def walk(loc: int, prefix: tuple[Edge, ...]) -> None:
        if len(prefix) == max_len:
            return
        for e in p.cfa.outgoing(loc):
            out.append(prefix + (e,))
            walk(e.target, prefix + (e,))

    walk(p.entry, ())
    out.sort(key=lambda path: (len(path), tuple(index[id(e)] for e in path)))
    return out


def semantically_equivalent(a: Formula, b: Formula, solver) -> bool:
    return solver.entails(a, b) and solver.entails(b, a)


# ---------------------------------------------------------------------------
# existential projection of indexed variables
# ---------------------------------------------------------------------------

def project_indexed(phi: Formula) -> Formula:
    """Quantifier elimination of the implicitly existential indexed variables.

    The result ranges over current-state variables only and is equivalent
    (over the rationals) to exists-indexed phi: each DNF cube is projected
    with `smt.project`, whose rows become atoms without integer tightening.
    DNF-based, so intended for test-sized formulas; raises ValueError for a
    propositional literal or more than 20000 cubes.
    """
    cubes = _cubes(normalize(phi), 20000)
    if cubes is None:
        raise ValueError("projection needs an arithmetic formula of at most 20000 DNF cubes")
    disjuncts = []
    for cube in cubes:
        targets = {v for a in cube for v, _ in a.term.coeffs if v.index is not None}
        try:
            residue = project([_lin_of_atom(a, 0) for a in cube], targets)
        except _TheoryConflict:
            continue
        disjuncts.append(f_and(*map(_atom_of_lin, residue)))
    return f_or(*disjuncts)


def equivalent_modulo_indexed(a: Formula, b: Formula, solver) -> bool:
    """Equivalence treating indexed variables as existential on both sides."""
    return semantically_equivalent(project_indexed(a), project_indexed(b), solver)


# ---------------------------------------------------------------------------
# model-guided replay of counterexample paths
# ---------------------------------------------------------------------------

def replay_path(p: Program, edges: list[Edge], model) -> bool:
    """Execute the path concretely, taking havoc values and choice
    resolutions from the model.

    Returns True when the run reaches the end of the path (whose last edge
    targets the error location).  It does whenever the model satisfies the
    path's SSA formula with or without its dead copies (`engine.path_formula`
    drops them); a havoc or initial value the model lacks is read as 0,
    and a joined index it lacks leaves the choice free (see `_run`).  A
    True answer means the run is a concrete execution.
    """
    if edges and edges[-1].target != p.error:
        return False
    names = program_variables(p)
    values = {n: model.get(VariableRef(n, 0), Fraction(0)) for n in names}
    ssa = {n: 0 for n in names}
    for edge in edges:
        values, ssa = _run(edge.op, values, ssa, model, {})
        if values is None:
            return False
    return True


def _run(op: Operation, values, ssa: dict[str, int], model, memo):
    """(values, index map) after running op from values at index map ssa.

    The index maps are `encode_edge`'s.  Once an assume fails the values
    are None, and the run goes on counting indices for the choices above.
    A choice runs both branches and goes on with the first whose values
    are the model's at the choice's output indices, so the run follows the
    model.  An output index the model has no value for constrains no
    branch: the path formula dropped its pads, so no atom reads it, nothing
    reads the variable before it is written again, and either branch is a
    concrete run.  Every choice is run once per index map and values, as
    `encode_edge` encodes it once per index map, so a join that the
    branches of a summarized edge share is run once.
    """
    if isinstance(op, (Assign, Havoc)):
        i = ssa.get(op.var, 0) + 1
        if values is not None:
            if isinstance(op, Assign):
                val = op.expr.evaluate({VariableRef(n): v for n, v in values.items()})
            else:
                val = model.get(VariableRef(op.var, i), Fraction(0))
            values = {**values, op.var: val}
        return values, {**ssa, op.var: i}
    if isinstance(op, Assume):
        if values is not None and not evaluate(
                op.cond, {VariableRef(n): v for n, v in values.items()}):
            values = None
        return values, ssa
    if isinstance(op, Seq):
        for element in seq_elements(op):
            values, ssa = _run(element, values, ssa, model, memo)
        return values, ssa
    if not isinstance(op, Choice):
        raise TypeError(f"not an operation: {op!r}")
    key = (op, tuple(sorted(ssa.items())),
           None if values is None else tuple(sorted(values.items())))
    cached = memo.get(key)
    if cached is not None:
        return cached
    left, m1 = _run(op.left, values, ssa, model, memo)
    right, m2 = _run(op.right, values, ssa, model, memo)
    merged = _merge(m1, m2)
    # a variable the model lacks leaves the branch free (v[n] == v[n])
    taken = next((v for v in (left, right) if v is not None and all(
        model.get(VariableRef(n, i), v[n]) == v[n] for n, i in merged.items())), None)
    result = memo[key] = taken, merged
    return result


# ---------------------------------------------------------------------------
# random generators (seeded; used by the property-test harnesses)
# ---------------------------------------------------------------------------

def random_term(rng: random.Random, names: list[str], max_vars: int = 2) -> Term:
    t = Term.constant(rng.randint(-3, 3))
    for name in rng.sample(names, k=min(len(names), rng.randint(0, max_vars))):
        c = rng.choice([-2, -1, 1, 2])
        t = t + Term.variable(name).scale(c)
    return t


def random_comparison(rng: random.Random, names: list[str]) -> Formula:
    rel = rng.choice(["==", "!=", "<", "<=", ">", ">="])
    from .formula import compare

    return compare(rel, random_term(rng, names), random_term(rng, names))


def random_formula(rng: random.Random, names: list[str], depth: int = 2) -> Formula:
    if depth == 0 or rng.random() < 0.4:
        return random_comparison(rng, names)
    kind = rng.choice(["and", "or", "not"])
    if kind == "not":
        return Not(random_formula(rng, names, depth - 1))
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    return f_and(left, right) if kind == "and" else f_or(left, right)


def random_operation(rng: random.Random, names: list[str], depth: int = 3) -> Operation:
    if depth == 0 or rng.random() < 0.45:
        kind = rng.choice(["assign", "assume", "havoc"])
        if kind == "assign":
            return Assign(rng.choice(names), random_term(rng, names))
        if kind == "havoc":
            return Havoc(rng.choice(names))
        return Assume(random_comparison(rng, names))
    if rng.random() < 0.5:
        return Seq(random_operation(rng, names, depth - 1),
                   random_operation(rng, names, depth - 1))
    return Choice(random_operation(rng, names, depth - 1),
                  random_operation(rng, names, depth - 1))


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
