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
and an index map is threaded through the operation.  ``drop_dead_pads``
removes from such an encoding the copies ``x@j = x@i`` that nothing reads;
it knows a copy by its form, so the encoder keeps no record of its pads.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .formula import (
    EQ,
    And,
    Atom,
    Formula,
    Interned,
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
    rebuild,
    rename,
    term_infix,
    variables,
)


class Operation(Interned):
    """Edge label; immutable and hash-consed like formulas
    (`formula.Interned`), so an operation built twice is one object."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"<{op_label(self, limit=60)}>"


class Assign(Operation):
    __slots__ = ("var", "expr")

    def __init__(self, var: str, expr: Term) -> None:
        self.var = var
        self.expr = expr


class Assume(Operation):
    __slots__ = ("cond",)

    def __init__(self, cond: Formula) -> None:
        self.cond = cond


class Havoc(Operation):
    __slots__ = ("var",)

    def __init__(self, var: str) -> None:
        self.var = var


class Seq(Operation):
    __slots__ = ("first", "second")

    def __init__(self, first: Operation, second: Operation) -> None:
        self.first = first
        self.second = second


class Choice(Operation):
    __slots__ = ("left", "right")

    def __init__(self, left: Operation, right: Operation) -> None:
        self.left = left
        self.right = right


def seq_elements(op: Operation) -> list[Operation]:
    """The operations op runs in sequence: the leaves of its Seq nodes, in
    order (op itself when it is no Seq)."""
    out: list[Operation] = []
    stack = [op]
    while stack:
        o = stack.pop()
        if isinstance(o, Seq):
            stack.append(o.second)
            stack.append(o.first)
        else:
            out.append(o)
    return out


def seq_chain(ops: list[Operation]) -> Operation:
    """The right-associated sequence of ops, built once from the right.

    Every operation but the last contributes its `seq_elements`; the last
    one is the tail, kept whole.  Folding `seq` over ops from the left
    gives an equal operation, but copies the incoming spine at every step;
    this builds one Seq node per element.
    """
    out = ops[-1]
    for op in reversed(ops[:-1]):
        for element in reversed(seq_elements(op)):
            out = Seq(element, out)
    return out


def seq(first: Operation, second: Operation) -> Operation:
    """Sequence constructor keeping the tree right-associated: the
    elements of first, then second."""
    return seq_chain([first, second])


def op_variables(op: Operation) -> set[str]:
    """The names of the variables op mentions.  One walk visits each
    distinct operation and condition subformula once, and reads the names
    off the atoms' coefficients."""
    out: set[str] = set()
    seen: set[Operation | Formula] = set()
    stack: list[Operation | Formula] = [op]
    while stack:
        o = stack.pop()
        if o in seen:
            continue
        seen.add(o)
        if isinstance(o, Atom):
            out.update(v.name for v, _ in o.term.coeffs)
        elif isinstance(o, (And, Or)):
            stack.extend(o.args)
        elif isinstance(o, Not):
            stack.append(o.arg)
        elif isinstance(o, Formula):
            pass  # a constant or propositional variable
        elif isinstance(o, Assign):
            out.add(o.var)
            out.update(v.name for v, _ in o.expr.coeffs)
        elif isinstance(o, Assume):
            stack.append(o.cond)
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
    # an explicit stack of operations and separators still to print:
    # summarized sequences are longer than the interpreter's recursion limit
    stack: list[Operation | str] = [op]
    while stack:
        o = stack.pop()
        if isinstance(o, str):
            text = o
        elif isinstance(o, Assign):
            text = f"{o.var} = {term_infix(o.expr)}"
        elif isinstance(o, Assume):
            text = f"[{formula_infix(o.cond)}]"
        elif isinstance(o, Havoc):
            text = f"{o.var} = *"
        elif isinstance(o, Seq):
            stack += (o.second, seq_sep, o.first)
            continue
        elif isinstance(o, Choice):
            stack += (")", o.right, " || ", o.left, "(")
            continue
        else:
            raise TypeError(f"not an operation: {o!r}")
        parts.append(text)
        length += len(text)
        if limit is not None and length > limit:
            return "".join(parts)[:limit] + "..."
    return "".join(parts)


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
        for element in seq_elements(op):
            phi = sp(element, phi)
        return phi
    if isinstance(op, Choice):
        return f_or(sp(op.left, phi), sp(op.right, phi))
    raise TypeError(f"not an operation: {op!r}")


# ---------------------------------------------------------------------------
# SSA path encoding
# ---------------------------------------------------------------------------

SsaMap = Mapping[str, int]


def encode_edge(op: Operation, ssa: SsaMap,
                encoder: SsaEncoder | None = None) -> tuple[Formula, dict[str, int]]:
    """SSA constraint for op starting at index map ssa.

    Returns (formula over indexed variables, output index map).  The
    conjunction of the incoming constraints with the returned formula is
    satisfiable exactly when some concrete execution of op exists.  Choice
    branches are padded with copies `x@j = x@i` onto fresh indices so both
    end at a common output map.  The formula keeps every pad;
    `drop_dead_pads` removes the ones nothing reads where only the models
    over other variables matter.

    Without an `encoder` the encoding is one-shot: a fresh `SsaEncoder`
    encodes op alone.  With one, op is encoded on that encoder's memo, so
    choices it shares with operations encoded before come back as the same
    formula objects.
    """
    if encoder is None:
        encoder = SsaEncoder()
    return encoder.encode(op, ssa)


class SsaEncoder:
    """One SSA encoding shared by every operation it encodes.

    Summarized operations share subtrees heavily, within one edge and
    across the edges of a program (the loop edge and the error edge of a
    large-block program share most of their body); encoding is memoized
    per (operation, index map), so the output formulas are shared the same
    way.  Every choice is keyed, and so is every operation encoded as a
    root (a Cartesian post encodes its leaf once per precision).  Operations
    are hash-consed, so equal operations built apart are one object and
    share an entry, and the keys keep the operations alive.  A sequence is
    encoded over its elements, with one conjunction for the sequence.
    """

    def __init__(self) -> None:
        self.memo: dict[tuple[Operation, tuple], tuple[Formula, dict[str, int]]] = {}

    def encode(self, op: Operation, ssa: SsaMap) -> tuple[Formula, dict[str, int]]:
        """op's SSA constraint from ssa and its output index map."""
        key = (op, tuple(sorted(ssa.items())))
        result = self.memo.get(key)
        if result is None:
            result = self.memo[key] = _encode(op, dict(ssa), self.memo)
        return result


def _encode(op: Operation, ssa: dict[str, int], memo) -> tuple[Formula, dict[str, int]]:
    if isinstance(op, Assign):
        out = dict(ssa)
        i = out.get(op.var, 0) + 1
        rhs = op.expr.at_indices(out)
        out[op.var] = i
        lhs = Term.variable(VariableRef(op.var, i))
        return canon_eq(lhs - rhs), out
    if isinstance(op, Assume):
        return at_indices(op.cond, ssa), ssa
    if isinstance(op, Havoc):
        out = dict(ssa)
        out[op.var] = out.get(op.var, 0) + 1
        return TRUE, out
    if isinstance(op, Seq):
        parts = []
        for element in seq_elements(op):
            f, ssa = _encode(element, ssa, memo)
            parts.append(f)
        return f_and(*parts), ssa
    if not isinstance(op, Choice):
        raise TypeError(f"not an operation: {op!r}")
    key = (op, tuple(sorted(ssa.items())))
    cached = memo.get(key)
    if cached is not None:
        return cached
    f1, m1 = _encode(op.left, ssa, memo)
    f2, m2 = _encode(op.right, ssa, memo)
    merged = _merge(m1, m2)
    pads1: list[Formula] = []
    pads2: list[Formula] = []
    for name, j in merged.items():
        i1, i2 = m1.get(name, 0), m2.get(name, 0)
        if i1 != i2:
            fresh = VariableRef(name, j)
            pads1.append(_pad(VariableRef(name, i1), fresh))
            pads2.append(_pad(VariableRef(name, i2), fresh))
    result = memo[key] = f_or(f_and(f1, *pads1), f_and(f2, *pads2)), merged
    return result


def _pad(old: VariableRef, fresh: VariableRef) -> Atom:
    """The pad x@j = x@i from fresh = x@j and old = x@i, i < j, built
    directly in the form `canon_eq` gives it: x@i - x@j = 0, the copy
    `drop_dead_pads` knows."""
    return Atom(EQ, Term(0, ((old, 1), (fresh, -1))))


def _merge(m1: dict[str, int], m2: dict[str, int]) -> dict[str, int]:
    """Output map of a choice whose branches end at m1 and m2: a variable
    they leave at different indices moves to a fresh index above both."""
    merged: dict[str, int] = {}
    for name in sorted(set(m1) | set(m2)):
        i1, i2 = m1.get(name, 0), m2.get(name, 0)
        merged[name] = i1 if i1 == i2 else max(i1, i2) + 1
    return merged


def drop_dead_pads(f: Formula, targets: Iterable[Formula] = ()) -> Formula:
    """f, an SSA encoding, without the copies of the variables nothing reads.

    A copy is an atom x@i - x@j = 0 with i < j: the form `_pad` gives the
    pads of a choice, and `canon_eq` the assignment x = x.  A copy is dead
    when x@j occurs in no other atom of f (copies that define x@j aside),
    in no copy of a live variable and in none of `targets`, the formulas
    read over f's output indices.  Dead copies become TRUE, which is exact
    for the models over the other variables: the SSA encoding defines x@j
    once on each path through the choices, so on the path a model of the
    pruned formula takes, one copy at most mentions x@j, and giving x@j the
    value of that copy's x@i satisfies it.  `f` itself is returned when no
    copy is dead, before `targets` is read when f has no copy.

    Shared subformulas stay shared, and a node that nothing below it
    changed is kept itself (`formula.rebuild`).
    """
    defined: dict[Atom, VariableRef] = {}  # a copy -> its x@j
    reads: dict[VariableRef, list[VariableRef]] = {}  # x@j -> the x@i copied
    readers: list[Atom] = []  # the atoms that read each of their variables
    for g in _dag_nodes(f):
        if isinstance(g, Atom):
            coeffs = g.term.coeffs
            if (len(coeffs) == 2 and g.rel == EQ and g.term.const == 0
                    and coeffs[0][1] == 1 and coeffs[1][1] == -1
                    and coeffs[0][0].name == coeffs[1][0].name):
                (u, _), (v, _) = coeffs  # in variable order: u = x@i
                defined[g] = v
                reads.setdefault(v, []).append(u)
            else:
                readers.append(g)
        elif isinstance(g, Not) and isinstance(g.arg, Atom):
            readers.append(g.arg)  # read by the negation, even a copy
    if not reads:
        return f
    live = {w for g in readers for w, _ in g.term.coeffs}
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
    dead = {g for g, v in defined.items() if v not in live}
    return rebuild(f, lambda g: TRUE if g in dead else g)
