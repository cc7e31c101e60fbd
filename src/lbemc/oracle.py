"""Independent brute-force semantics used as ground truth in tests.

Explicit-state reachability over bounded integer domains, syntactic path
enumeration, solver-backed equivalence, existential projection of indexed
variables, and model-guided concrete replay of counterexample paths.
Nothing here shares code with the symbolic engine it is meant to check,
except the formula data types themselves.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .cfa import Edge, Program, program_variables
from .formula import (
    And,
    Atom,
    EQ,
    FALSE,
    Formula,
    LE,
    Not,
    Or,
    PropVar,
    TRUE,
    Term,
    VariableRef,
    evaluate,
    f_and,
    f_or,
    var_sort_key,
)
from .semantics import Assign, Assume, Choice, Havoc, Operation, Seq, ssa_after
# unused here; perfbench/tracer.py wraps `encode_edge` in this module's
# namespace (looked up through __dict__), so the name has to stay
from .semantics import encode_edge  # noqa: F401
from .smt import _Lin, _TheoryConflict, _const_check, _lin_of_atom, _substitute, normalize

REACHABLE = "reachable"
NOT_REACHABLE = "not-reachable"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass
class DomainBound:
    """Inclusive per-variable integer intervals plus a state-count budget."""

    default: tuple[int, int] = (0, 3)
    intervals: dict[str, tuple[int, int]] = field(default_factory=dict)
    budget: int = 200_000

    def __post_init__(self) -> None:
        for lo, hi in [self.default, *self.intervals.values()]:
            if lo > hi:
                raise ValueError("empty interval")
        if self.budget <= 0:
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
    """BFS over concrete states from every initial environment in the bound."""
    names = program_variables(p)
    if p.entry == p.error:
        return REACHABLE

    def envs(prefix: dict[str, int], rest: list[str]):
        if not rest:
            yield dict(prefix)
            return
        name, *tail = rest
        lo, hi = bound.interval(name)
        for v in range(lo, hi + 1):
            prefix[name] = v
            yield from envs(prefix, tail)
        del prefix[name]

    edges_from: dict[int, list[Edge]] = {}
    for e in p.cfa.edges:
        edges_from.setdefault(e.source, []).append(e)

    visited: set[tuple] = set()
    queue: deque = deque()
    for env in envs({}, names):
        key = (p.entry, tuple(env[n] for n in names))
        if key not in visited:
            visited.add(key)
            queue.append((p.entry, env))
    while queue:
        if len(visited) > bound.budget:
            return BUDGET_EXCEEDED
        loc, env = queue.popleft()
        if loc == p.error:
            return REACHABLE
        for e in edges_from.get(loc, []):
            for env2 in op_successors(e.op, env, bound):
                key = (e.target, tuple(env2[n] for n in names))
                if key not in visited:
                    visited.add(key)
                    queue.append((e.target, env2))
    return NOT_REACHABLE


def enum_paths(p: Program, max_len: int) -> list[tuple[Edge, ...]]:
    """All syntactic paths from the entry of length 1..max_len.

    Ordered by length first, then lexicographically by edge position.
    """
    index = {id(e): i for i, e in enumerate(p.cfa.edges)}
    edges_from: dict[int, list[Edge]] = {}
    for e in p.cfa.edges:
        edges_from.setdefault(e.source, []).append(e)
    out: list[tuple[Edge, ...]] = []

    def walk(loc: int, prefix: tuple[Edge, ...]) -> None:
        if len(prefix) == max_len:
            return
        for e in edges_from.get(loc, []):
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

def _dnf_cubes(f: Formula, cap: int = 20000) -> list[list]:
    """Cubes (lists of atoms / propvar literals) of a normalized formula."""
    if isinstance(f, Or):
        out = []
        for a in f.args:
            out.extend(_dnf_cubes(a, cap))
            if len(out) > cap:
                raise ValueError("DNF expansion too large")
        return out
    if isinstance(f, And):
        cubes: list[list] = [[]]
        for a in f.args:
            sub = _dnf_cubes(a, cap)
            cubes = [c + s for c in cubes for s in sub]
            if len(cubes) > cap:
                raise ValueError("DNF expansion too large")
        return cubes
    if f == TRUE:
        return [[]]
    if f == FALSE:
        return []
    return [[f]]


def _exact_atom(lin: _Lin) -> Formula:
    """Integer-scaled atom preserving the rational meaning exactly."""
    denom = 1
    for c in lin.coeffs.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    denom = denom * lin.const.denominator // gcd(denom, lin.const.denominator)
    coeffs = {v: int(c * denom) for v, c in lin.coeffs.items()}
    const = int(lin.const * denom)
    g = abs(const)
    for c in coeffs.values():
        g = gcd(g, abs(c))
    if g > 1:
        coeffs = {v: c // g for v, c in coeffs.items()}
        const //= g
    term = Term.of(const, coeffs)
    if not term.coeffs:
        if lin.is_eq:
            return TRUE if const == 0 else FALSE
        return TRUE if const <= 0 else FALSE
    if lin.is_eq and term.coeffs[0][1] < 0:
        term = -term
    return Atom(EQ if lin.is_eq else LE, term)


def _eliminate(constraints: list[_Lin], targets: set[VariableRef]) -> list[_Lin]:
    """Existentially eliminate the target variables; raises on contradiction."""
    eqs = [c for c in constraints if c.is_eq]
    ineqs = [c for c in constraints if not c.is_eq]
    kept: list[_Lin] = []
    while eqs:
        eq = eqs.pop(0)
        if _const_check(eq):
            continue
        tvars = sorted((v for v in eq.coeffs if v in targets), key=var_sort_key)
        if not tvars:
            kept.append(eq)
            continue
        v = next((w for w in tvars if abs(eq.coeffs[w]) == 1), tvars[0])
        a = eq.coeffs[v]
        expr = {w: -c / a for w, c in eq.coeffs.items() if w != v}
        expr_const = -eq.const / a
        eqs = [_substitute(c, v, expr, expr_const, eq.origins) for c in eqs]
        new_ineqs = []
        for c in ineqs:
            c2 = _substitute(c, v, expr, expr_const, eq.origins)
            if not _const_check(c2):
                new_ineqs.append(c2)
        ineqs = new_ineqs
    remaining = sorted(
        {v for c in ineqs for v in c.coeffs if v in targets}, key=var_sort_key
    )
    for v in remaining:
        with_v = [c for c in ineqs if v in c.coeffs]
        rest = [c for c in ineqs if v not in c.coeffs]
        uppers = [c for c in with_v if c.coeffs[v] > 0]
        lowers = [c for c in with_v if c.coeffs[v] < 0]
        derived = []
        for up in uppers:
            for lo in lowers:
                a, b = up.coeffs[v], lo.coeffs[v]
                coeffs: dict[VariableRef, Fraction] = {}
                for w, cw in up.coeffs.items():
                    if w != v:
                        coeffs[w] = cw * -b
                for w, cw in lo.coeffs.items():
                    if w == v:
                        continue
                    coeffs[w] = coeffs.get(w, Fraction(0)) + cw * a
                    if coeffs[w] == 0:
                        del coeffs[w]
                comb = _Lin(coeffs, up.const * -b + lo.const * a, False,
                            up.origins | lo.origins)
                if not _const_check(comb):
                    derived.append(comb)
        ineqs = rest + derived
    return kept + ineqs


def project_indexed(phi: Formula) -> Formula:
    """Quantifier elimination of the implicitly existential indexed variables.

    The result ranges over current-state variables only and is equivalent
    (over the rationals) to exists-indexed phi.  DNF-based, so intended for
    test-sized formulas.
    """
    prep = normalize(phi)
    disjuncts = []
    for cube in _dnf_cubes(prep):
        atoms = []
        for lit in cube:
            if isinstance(lit, Atom):
                atoms.append(lit)
            elif isinstance(lit, (PropVar, Not)):
                raise ValueError("projection defined for arithmetic formulas only")
            else:
                raise AssertionError(lit)
        targets = {
            v for a in atoms for v in a.term.variables() if v.index is not None
        }
        try:
            residue = _eliminate(
                [_lin_of_atom(a, i) for i, a in enumerate(atoms)], targets
            )
        except _TheoryConflict:
            continue
        disjuncts.append(f_and(*(_exact_atom(lin) for lin in residue)))
    return f_or(*disjuncts)


def equivalent_modulo_indexed(a: Formula, b: Formula, solver) -> bool:
    """Equivalence treating indexed variables as existential on both sides."""
    return semantically_equivalent(project_indexed(a), project_indexed(b), solver)


# ---------------------------------------------------------------------------
# model-guided replay of counterexample paths
# ---------------------------------------------------------------------------

def _exec_guided(op: Operation, env: dict[str, Fraction], ssa: dict[str, int], model,
                 maps: dict):
    """Yield (env', ssa') resolutions of op, reading havoc values from model;
    maps is the `ssa_after` memo of the replay."""
    if isinstance(op, Assign):
        ref_env = {VariableRef(n): v for n, v in env.items()}
        val = op.expr.evaluate(ref_env)
        out = dict(ssa)
        out[op.var] = out.get(op.var, 0) + 1
        yield {**env, op.var: val}, out
        return
    if isinstance(op, Assume):
        ref_env = {VariableRef(n): v for n, v in env.items()}
        if evaluate(op.cond, ref_env):
            yield env, ssa
        return
    if isinstance(op, Havoc):
        out = dict(ssa)
        i = out.get(op.var, 0) + 1
        out[op.var] = i
        val = model.get(VariableRef(op.var, i), Fraction(0))
        yield {**env, op.var: val}, out
        return
    if isinstance(op, Seq):
        for env1, m1 in _exec_guided(op.first, env, ssa, model, maps):
            yield from _exec_guided(op.second, env1, m1, model, maps)
        return
    if isinstance(op, Choice):
        merged = ssa_after(op, ssa, maps)
        for env1, _ in _exec_guided(op.left, env, ssa, model, maps):
            yield env1, merged
        for env2, _ in _exec_guided(op.right, env, ssa, model, maps):
            yield env2, merged
        return
    raise TypeError(f"not an operation: {op!r}")


def replay_path(p: Program, edges: list[Edge], model) -> bool:
    """Execute the path concretely with havoc values taken from the model.

    Returns True when some resolution of the choices reaches the end of the
    path (whose last edge targets the error location).
    """
    names = program_variables(p)
    env0 = {n: model.get(VariableRef(n, 0), Fraction(0)) for n in names}
    ssa0 = {n: 0 for n in names}
    maps: dict = {}

    def go(i: int, env: dict[str, Fraction], ssa: dict[str, int]) -> bool:
        if i == len(edges):
            return True
        for env2, ssa2 in _exec_guided(edges[i].op, env, ssa, model, maps):
            if go(i + 1, env2, ssa2):
                return True
        return False

    if edges and edges[-1].target != p.error:
        return False
    return go(0, env0, ssa0)


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
