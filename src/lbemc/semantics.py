"""Edge operations and their strongest-postcondition semantics.

An operation is the label of a control-flow edge:

    Assign(x, e)   deterministic update
    Assume(p)      blocks executions not satisfying p
    Havoc(x)       x receives an arbitrary integer
    Seq(a, b)      run a then b
    Choice(a, b)   run a or b

``sp`` computes postconditions directly, introducing a fresh indexed
variable for each overwritten value.  ``encode_edge`` produces the SSA form
used for path feasibility: every constraint ranges over indexed variables
and an index map is threaded through the operation.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .formula import (
    And,
    Atom,
    Formula,
    Not,
    Or,
    Term,
    TRUE,
    VariableRef,
    _dag_nodes,
    at_indices,
    canon_eq,
    f_and,
    f_or,
    formula_infix,
    max_index,
    rename,
    term_infix,
    variables,
)


class Operation:
    """Edge label; immutable, structurally compared, hash cached per node.

    Composite operations share subtrees heavily after summarization, so
    the hash must not be recomputed recursively on every use.
    """

    __slots__ = ("_h",)

    def __hash__(self) -> int:
        return self._h

    def __repr__(self) -> str:
        return f"<{op_label(self, limit=60)}>"


class Assign(Operation):
    __slots__ = ("var", "expr")

    def __init__(self, var: str, expr: Term) -> None:
        self.var = var
        self.expr = expr
        self._h = hash(("assign", var, expr))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, Assign) and self._h == other._h
                and self.var == other.var and self.expr == other.expr)

    __hash__ = Operation.__hash__


class Assume(Operation):
    __slots__ = ("cond",)

    def __init__(self, cond: Formula) -> None:
        self.cond = cond
        self._h = hash(("assume", cond))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, Assume) and self._h == other._h
                and self.cond == other.cond)

    __hash__ = Operation.__hash__


class Havoc(Operation):
    __slots__ = ("var",)

    def __init__(self, var: str) -> None:
        self.var = var
        self._h = hash(("havoc", var))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, Havoc) and self._h == other._h
                and self.var == other.var)

    __hash__ = Operation.__hash__


class Seq(Operation):
    __slots__ = ("first", "second")

    def __init__(self, first: Operation, second: Operation) -> None:
        self.first = first
        self.second = second
        self._h = hash(("seq", first._h, second._h))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, Seq) and self._h == other._h
                and self.first == other.first and self.second == other.second)

    __hash__ = Operation.__hash__


class Choice(Operation):
    __slots__ = ("left", "right")

    def __init__(self, left: Operation, right: Operation) -> None:
        self.left = left
        self.right = right
        self._h = hash(("choice", left._h, right._h))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, Choice) and self._h == other._h
                and self.left == other.left and self.right == other.right)

    __hash__ = Operation.__hash__


def seq(first: Operation, second: Operation) -> Seq:
    """Sequence constructor keeping the tree right-associated."""
    if isinstance(first, Seq):
        return seq(first.first, seq(first.second, second))
    return Seq(first, second)


def op_variables(op: Operation) -> set[str]:
    out: set[str] = set()
    seen: set[int] = set()
    stack = [op]
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, Assign):
            out.add(o.var)
            out.update(v.name for v in o.expr.variables())
        elif isinstance(o, Assume):
            out.update(v.name for v in variables(o.cond))
        elif isinstance(o, Havoc):
            out.add(o.var)
        elif isinstance(o, Seq):
            stack.extend((o.first, o.second))
        elif isinstance(o, Choice):
            stack.extend((o.left, o.right))
        else:
            raise TypeError(f"not an operation: {o!r}")
    return out


def op_label(op: Operation, seq_sep: str = "; ", limit: int | None = None) -> str:
    """Short rendering for DOT output and traces; assume(p) prints as [p].

    Summarized operations can be huge, so a character limit truncates the
    rendering with an ellipsis.
    """
    parts: list[str] = []
    length = 0

    def emit(text: str) -> bool:
        nonlocal length
        parts.append(text)
        length += len(text)
        return limit is None or length <= limit

    def walk(o: Operation) -> bool:
        if isinstance(o, Assign):
            return emit(f"{o.var} = {term_infix(o.expr)}")
        if isinstance(o, Assume):
            return emit(f"[{formula_infix(o.cond)}]")
        if isinstance(o, Havoc):
            return emit(f"{o.var} = *")
        if isinstance(o, Seq):
            return walk(o.first) and emit(seq_sep) and walk(o.second)
        if isinstance(o, Choice):
            return (emit("(") and walk(o.left) and emit(" || ")
                    and walk(o.right) and emit(")"))
        raise TypeError(f"not an operation: {o!r}")

    if walk(op):
        return "".join(parts)
    return "".join(parts)[: (limit or 0)] + "..."


# ---------------------------------------------------------------------------
# strongest postcondition
# ---------------------------------------------------------------------------

def sp(op: Operation, phi: Formula) -> Formula:
    """Strongest postcondition of phi under op.

    The result ranges over current-state variables plus fresh indexed
    variables holding overwritten values; the indexed variables are
    implicitly existential.
    """
    if isinstance(op, Assume):
        return f_and(phi, op.cond)
    if isinstance(op, Assign):
        cur = VariableRef(op.var)
        fresh = VariableRef(op.var, max_index(phi, op.var) + 1)
        shifted = rename(phi, {cur: fresh}) if cur in variables(phi) else phi
        rhs = op.expr.rename({cur: fresh})
        return f_and(shifted, canon_eq(Term.variable(cur) - rhs))
    if isinstance(op, Havoc):
        cur = VariableRef(op.var)
        if cur in variables(phi):
            fresh = VariableRef(op.var, max_index(phi, op.var) + 1)
            return rename(phi, {cur: fresh})
        return phi
    if isinstance(op, Seq):
        return sp(op.second, sp(op.first, phi))
    if isinstance(op, Choice):
        return f_or(sp(op.left, phi), sp(op.right, phi))
    raise TypeError(f"not an operation: {op!r}")


# ---------------------------------------------------------------------------
# SSA path encoding
# ---------------------------------------------------------------------------

SsaMap = Mapping[str, int]


def encode_edge(op: Operation, ssa: SsaMap,
                pads: list[Formula] | None = None) -> tuple[Formula, dict[str, int]]:
    """SSA constraint for op starting at index map ssa.

    Returns (formula over indexed variables, output index map).  The
    conjunction of the incoming constraints with the returned formula is
    satisfiable exactly when some concrete execution of op exists.  Choice
    branches are padded with equalities `x@j = x@i` onto fresh indices so
    both end at a common output map.  The formula keeps every pad; when
    `pads` is a list, the pad atoms are also appended to it, for
    `drop_dead_pads` to remove the ones nothing reads where only the
    models over other variables matter.

    Summarized operations share subtrees heavily; encoding is memoized per
    (subtree, index map) so the output formula is shared the same way.
    """
    memo: dict[tuple[int, tuple], tuple[Formula, dict[str, int]]] = {}
    return _encode(op, dict(ssa), memo, [] if pads is None else pads)


def _encode(op: Operation, ssa: dict[str, int], memo,
            pads: list[Formula]) -> tuple[Formula, dict[str, int]]:
    key = (id(op), tuple(sorted(ssa.items())))
    cached = memo.get(key)
    if cached is not None:
        return cached
    if isinstance(op, Assign):
        out = dict(ssa)
        i = out.get(op.var, 0) + 1
        rhs = op.expr.at_indices(out)
        out[op.var] = i
        lhs = Term.variable(VariableRef(op.var, i))
        result = canon_eq(lhs - rhs), out
    elif isinstance(op, Assume):
        result = at_indices(op.cond, ssa), ssa
    elif isinstance(op, Havoc):
        out = dict(ssa)
        out[op.var] = out.get(op.var, 0) + 1
        result = TRUE, out
    elif isinstance(op, Seq):
        f1, mid = _encode(op.first, ssa, memo, pads)
        f2, end = _encode(op.second, mid, memo, pads)
        result = f_and(f1, f2), end
    elif isinstance(op, Choice):
        f1, m1 = _encode(op.left, ssa, memo, pads)
        f2, m2 = _encode(op.right, ssa, memo, pads)
        merged = _merge(m1, m2)
        pads1: list[Formula] = []
        pads2: list[Formula] = []
        for name, j in merged.items():
            i1, i2 = m1.get(name, 0), m2.get(name, 0)
            if i1 != i2:
                fresh = Term.variable(VariableRef(name, j))
                pads1.append(canon_eq(fresh - Term.variable(VariableRef(name, i1))))
                pads2.append(canon_eq(fresh - Term.variable(VariableRef(name, i2))))
        pads += pads1
        pads += pads2
        result = f_or(f_and(f1, *pads1), f_and(f2, *pads2)), merged
    else:
        raise TypeError(f"not an operation: {op!r}")
    memo[key] = result
    return result


def _merge(m1: dict[str, int], m2: dict[str, int]) -> dict[str, int]:
    """Output map of a choice whose branches end at m1 and m2: a variable
    they leave at different indices moves to a fresh index above both."""
    merged: dict[str, int] = {}
    for name in sorted(set(m1) | set(m2)):
        i1, i2 = m1.get(name, 0), m2.get(name, 0)
        merged[name] = i1 if i1 == i2 else max(i1, i2) + 1
    return merged


def ssa_after(op: Operation, ssa: SsaMap, memo: dict) -> dict[str, int]:
    """The output index map of encode_edge(op, ssa), without the formula.

    memo is keyed like encode_edge's, by subtree identity and index map, so
    calls may share it only while every operation they saw is alive.  The
    maps returned are shared and must not be modified.
    """
    key = (id(op), tuple(sorted(ssa.items())))
    cached = memo.get(key)
    if cached is not None:
        return cached
    if isinstance(op, (Assign, Havoc)):
        out = dict(ssa)
        out[op.var] = out.get(op.var, 0) + 1
    elif isinstance(op, Assume):
        out = dict(ssa)
    elif isinstance(op, Seq):
        out = ssa_after(op.second, ssa_after(op.first, ssa, memo), memo)
    elif isinstance(op, Choice):
        out = _merge(ssa_after(op.left, ssa, memo), ssa_after(op.right, ssa, memo))
    else:
        raise TypeError(f"not an operation: {op!r}")
    memo[key] = out
    return out


def drop_dead_pads(f: Formula, pads: list[Formula],
                   targets: Iterable[Formula] = ()) -> Formula:
    """f without the pads of the variables nothing reads.

    `pads` holds the pad atoms `encode_edge` reported for f.  A pad
    x@j = x@i is dead when x@j occurs in no other atom of f (pads that
    define x@j aside), in no pad of a live variable and in none of
    `targets`, the formulas read over f's output indices.  Dead pads become
    TRUE, which is exact for the models over the other variables: the SSA
    encoding defines x@j once on each path through the choices, so on the
    path a model of the pruned formula takes, one pad at most mentions
    x@j, and giving x@j the value of that pad's x@i satisfies it.  `f`
    itself is returned when no pad is dead.

    The rebuild is memoized per node, so shared subformulas stay shared,
    and keeps a node itself where nothing below it changed.
    """
    if not pads:
        return f
    is_pad = {id(a) for a in pads}
    defined: dict[int, VariableRef] = {}  # id of a pad -> its variable
    reads: dict[VariableRef, list[VariableRef]] = {}  # pad variable -> x@i
    live: set[VariableRef] = set()
    for g in _dag_nodes(f):
        if isinstance(g, Atom):
            if id(g) in is_pad:
                (u, _), (v, _) = g.term.coeffs  # in variable order: u = x@i
                defined[id(g)] = v
                reads.setdefault(v, []).append(u)
            else:
                live.update(w for w, _ in g.term.coeffs)
        elif isinstance(g, Not) and isinstance(g.arg, Atom):
            live.update(w for w, _ in g.arg.term.coeffs)  # kept as it is
    for t in targets:
        live.update(variables(t))
    stack = [v for v in live if v in reads]
    while stack:
        for u in reads[stack.pop()]:
            if u not in live:
                live.add(u)
                if u in reads:
                    stack.append(u)
    if live.issuperset(reads):
        return f
    # rebuilt bottom-up with an explicit stack: LBE formulas nest deeper
    # than the interpreter's recursion limit
    memo: dict[int, Formula] = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in memo:
            stack.pop()
            continue
        if isinstance(g, (And, Or)):
            todo = [a for a in g.args if id(a) not in memo]
            if todo:
                stack.extend(todo)
                continue
            args = [memo[id(a)] for a in g.args]
            if all(a is b for a, b in zip(args, g.args)):
                out = g
            else:
                out = (f_and if isinstance(g, And) else f_or)(*args)
        else:
            v = defined.get(id(g))
            out = g if v is None or v in live else TRUE
        memo[id(g)] = out
        stack.pop()
    return memo[id(f)]
