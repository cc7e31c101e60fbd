"""Terms, atoms, and quantifier-free Boolean formulas over linear integer arithmetic.

A variable reference is either current-state (``x``) or indexed (``x@3``).
Indexed variables stand for history values introduced by postcondition
computations and path encodings; they are implicitly existentially
quantified and never bound by an explicit quantifier.

Atoms are kept in a canonical form ``t = 0`` or ``t <= 0`` where ``t`` is a
linear term with gcd-reduced integer coefficients.  Strict comparisons are
tightened at construction (``t < 0`` becomes ``t + 1 <= 0``), and an
equality whose coefficient gcd does not divide its constant (``2x = 1``) is
FALSE, which is exact because all program variables range over integers;
``!=``, ``>=``, ``>`` are rewritten.  Everything in this module is
immutable.

Formulas, and the edge operations of `lbemc.semantics`, are hash-consed
(Filliatre & Conchon, "Type-Safe Modular Hash-Consing", 2006): a
constructor returns the live node of the same class and fields when there
is one, through one intern table of weak references, so there is one object
per structure.  Equality and hashing are therefore Python's identity
defaults, and the formula walks key nodes by themselves.  Terms and
variable references are value records, compared and hashed by their
fields; an atom's key holds its term.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd
from operator import is_
from weakref import ref

from .record import Record

EQ = "="
LE = "<="


class VariableRef(Record):
    __slots__ = ("name", "index", "_h", "_sort_key")
    _fields = ("name", "index")

    def __init__(self, name: str, index: int | None = None) -> None:
        self.name, self.index = name, index
        self._h = hash((name, index))
        self._sort_key = (name, -1 if index is None else index)

    def __eq__(self, other) -> bool:
        return self is other or (other.__class__ is VariableRef and self._h == other._h
                                 and self.name == other.name and self.index == other.index)

    def __hash__(self) -> int:
        return self._h

    def __str__(self) -> str:
        if self.index is None:
            return self.name
        return f"{self.name}@{self.index}"

    @property
    def current(self) -> bool:
        return self.index is None


def var_sort_key(v: VariableRef) -> tuple[str, int]:
    """Variables in name order, a current one before its indexed ones."""
    return v._sort_key


# ---------------------------------------------------------------------------
# linear terms
# ---------------------------------------------------------------------------

class Term(Record):
    """const + sum of coeff * var, integer coefficients, one entry per var."""

    __slots__ = ("const", "coeffs", "_h")
    _fields = ("const", "coeffs")

    def __init__(self, const: int = 0,
                 coeffs: tuple[tuple[VariableRef, int], ...] = ()) -> None:
        self.const, self.coeffs = const, coeffs
        self._h = hash((const, coeffs))

    def __eq__(self, other) -> bool:
        return self is other or (other.__class__ is Term and self._h == other._h
                                 and self.const == other.const and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return self._h

    @staticmethod
    def of(const: int = 0, coeffs: Mapping[VariableRef, int] | None = None) -> "Term":
        items = []
        for v in sorted(coeffs or {}, key=var_sort_key):
            c = coeffs[v]
            if c != 0:
                items.append((v, c))
        return Term(const, tuple(items))

    @staticmethod
    def constant(c: int) -> "Term":
        return Term(c, ())

    @staticmethod
    def variable(v: VariableRef | str) -> "Term":
        if isinstance(v, str):
            v = VariableRef(v)
        return Term(0, ((v, 1),))

    def _as_dict(self) -> dict[VariableRef, int]:
        return dict(self.coeffs)

    def __add__(self, other: "Term | int") -> "Term":
        if isinstance(other, int):
            return Term(self.const + other, self.coeffs)
        d = self._as_dict()
        for v, c in other.coeffs:
            d[v] = d.get(v, 0) + c
        return Term.of(self.const + other.const, d)

    def __sub__(self, other: "Term | int") -> "Term":
        if isinstance(other, int):
            return Term(self.const - other, self.coeffs)
        return self + (-other)

    def __neg__(self) -> "Term":
        return Term(-self.const, tuple((v, -c) for v, c in self.coeffs))

    def scale(self, k: int) -> "Term":
        if k == 0:
            return Term(0, ())
        return Term(self.const * k, tuple((v, c * k) for v, c in self.coeffs))

    def variables(self) -> set[VariableRef]:
        return {v for v, _ in self.coeffs}

    def rename(self, mapping: Mapping[VariableRef, VariableRef]) -> "Term":
        d: dict[VariableRef, int] = {}
        for v, c in self.coeffs:
            w = mapping.get(v, v)
            d[w] = d.get(w, 0) + c
        return Term.of(self.const, d)

    def at_indices(self, ssa: Mapping[str, int]) -> "Term":
        """Replace every current-state variable x by x@ssa[x] (default 0)."""
        d: dict[VariableRef, int] = {}
        for v, c in self.coeffs:
            w = VariableRef(v.name, ssa.get(v.name, 0)) if v.current else v
            d[w] = d.get(w, 0) + c
        return Term.of(self.const, d)

    def evaluate(self, env: Mapping[VariableRef, int | Fraction]) -> Fraction:
        total = self.const
        for v, c in self.coeffs:
            val = env.get(v)
            if val:
                total += c * val
        return Fraction(total)

    def __str__(self) -> str:
        return term_infix(self)


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------

# `repr` writes the whole text of a formula of at most REPR_WHOLE characters;
# of a longer one it keeps the first REPR_LIMIT characters of each node's
# text.  The whole text repeats a shared subformula once per path to it, so
# it can grow exponentially with the depth of a formula small as a DAG.
REPR_WHOLE = 2**18
REPR_LIMIT = 200


class _Entry(ref):
    """An intern table entry: a weak reference to a node that keeps the
    node's key, so that one callback, shared by every entry, can remove it."""

    __slots__ = ("key",)


# The intern table: the key of every live formula and operation, its class
# and fields, maps to a weak reference to it.  The table keeps no node
# alive, so a node lives as long as its users.
_table: dict[tuple, _Entry] = {}


def _forget(entry: _Entry) -> None:
    """The callback of every entry, run when its node dies: remove entry,
    unless its key was entered again for a new node in between (a garbage
    collection clears the references to the nodes it frees before it runs
    their callbacks)."""
    if _table.get(entry.key) is entry:
        del _table[entry.key]


class Interned:
    """Base of the hash-consed classes (formulas, operations and
    precisions): constructing one returns the live node of the same class
    and fields when there is one, and enters a new node in the table
    otherwise, so equality and hashing are identity.  A subclass's
    `__init__` sets the fields; on a node found in the table it writes back
    values equal to its own.  A subclass whose arguments are not its fields
    computes them in its own `__new__`, keys the node on them and sets
    them there, with no `__init__`: an iterator argument is read once."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        key = (cls, *fields)
        entry = _table.get(key)
        node = None if entry is None else entry()
        if node is None:
            node = object.__new__(cls)
            entry = _table[key] = _Entry(node, _forget)
            entry.key = key
        return node


class Formula(Interned):
    """Base class: True | False | Atom | PropVar | Not | And | Or."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_sexpr(self)

    def __repr__(self) -> str:
        whole = _render_length(self, _sexpr_node(str, str)) <= REPR_WHOLE
        return f"<{to_sexpr(self, limit=None if whole else REPR_LIMIT)}>"


class TrueF(Formula):
    """The formula true; TRUE is its only object."""

    __slots__ = ()


class FalseF(Formula):
    """The formula false; FALSE is its only object."""

    __slots__ = ()


TRUE = TrueF()
FALSE = FalseF()


class Atom(Formula):
    """Canonical linear atom: term = 0 or term <= 0."""

    __slots__ = ("rel", "term")

    def __init__(self, rel: str, term: Term) -> None:
        assert rel in (EQ, LE)
        self.rel = rel
        self.term = term


class PropVar(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class Not(Formula):
    __slots__ = ("arg",)

    def __init__(self, arg: Formula) -> None:
        self.arg = arg


class And(Formula):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Formula, ...]) -> None:
        self.args = args


class Or(Formula):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Formula, ...]) -> None:
        self.args = args


def f_not(f: Formula) -> Formula:
    if f is TRUE:
        return FALSE
    if f is FALSE:
        return TRUE
    if isinstance(f, Not):
        return f.arg
    return Not(f)


def _assoc(cls, absorb: Formula, unit: Formula, args: Iterable[Formula]) -> Formula:
    """cls over args flattened one level, without repeats or the unit;
    absorb if an argument is."""
    flat: list[Formula] = []
    seen: set[Formula] = set()
    for a in args:
        if isinstance(a, cls):
            inner = a.args
        else:
            inner = (a,)
        for x in inner:
            if x is absorb:
                return absorb
            if x is unit:
                continue
            if x not in seen:
                seen.add(x)
                flat.append(x)
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    return cls(tuple(flat))


def f_and(*args: Formula) -> Formula:
    return _assoc(And, FALSE, TRUE, args)


def f_or(*args: Formula) -> Formula:
    return _assoc(Or, TRUE, FALSE, args)


def f_iff(a: Formula, b: Formula) -> Formula:
    return f_and(f_or(f_not(a), b), f_or(a, f_not(b)))


# ---------------------------------------------------------------------------
# atom construction / canonicalization
# ---------------------------------------------------------------------------

def _ceil_div(a: int, b: int) -> int:
    # b > 0
    return -((-a) // b)


def canon_le(term: Term) -> Formula:
    """Canonical form of term <= 0."""
    if not term.coeffs:
        return TRUE if term.const <= 0 else FALSE
    g = 0
    for _, c in term.coeffs:
        g = gcd(g, abs(c))
    if g > 1:
        coeffs = tuple((v, c // g) for v, c in term.coeffs)
        # integer tightening of the constant: t <= 0 iff sum + ceil(const/g) <= 0
        term = Term(_ceil_div(term.const, g), coeffs)
    return Atom(LE, term)


def canon_eq(term: Term) -> Formula:
    """Canonical form of term = 0; FALSE when the gcd of the coefficients
    does not divide the constant, as then no integers satisfy it."""
    if not term.coeffs:
        return TRUE if term.const == 0 else FALSE
    g = 0
    for _, c in term.coeffs:
        g = gcd(g, abs(c))
    if term.const % g:
        return FALSE
    if g > 1:
        term = Term(term.const // g, tuple((v, c // g) for v, c in term.coeffs))
    if term.coeffs[0][1] < 0:
        term = -term
    return Atom(EQ, term)


def compare(rel: str, lhs: Term, rhs: Term) -> Formula:
    """Build the canonical formula for lhs <rel> rhs; rel in ==,!=,<,<=,>,>=."""
    t = lhs - rhs
    if rel == ">":
        rel, t = "<", -t
    if rel == ">=":
        rel, t = "<=", -t
    if rel == "!=":
        return f_not(canon_eq(t))
    if rel == "<":
        return canon_le(t + 1)
    if rel == "<=":
        return canon_le(t)
    if rel == "==":
        return canon_eq(t)
    raise ValueError(f"unknown relation {rel!r}")


def negate_atom(atom: Atom) -> Formula:
    """Integer-exact complement of a canonical atom (no Not wrapper)."""
    if atom.rel == LE:
        # not(t <= 0)  ==  t >= 1  ==  -t + 1 <= 0
        return canon_le(-atom.term + 1)
    # not(t = 0)  ==  t <= -1 or t >= 1
    return f_or(canon_le(atom.term + 1), canon_le(-atom.term + 1))


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def _postorder(root, children):
    """Iterate each distinct node under root once, after its children, in
    the order a memoized left-to-right recursive walk finishes them.

    `children(node)` is asked when the walk first reaches node, as the
    recursive walk would ask.  The walk runs on an explicit stack, so it
    goes as deep as the formula nests.
    """
    seen = {root}
    stack = [(root, iter(children(root)))]
    while stack:
        node, todo = stack[-1]
        for child in todo:
            if child not in seen:
                seen.add(child)
                below = children(child)
                if below:
                    stack.append((child, iter(below)))
                    break
                yield child
        else:
            stack.pop()
            yield node


def _args(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (And, Or)):
        return f.args
    if isinstance(f, Not):
        return (f.arg,)
    return ()


def rebuild(f: Formula, leaf) -> Formula:
    """f with every leaf g (atom, propositional variable or constant)
    replaced by leaf(g), and Not/And/Or rebuilt with f_not/f_and/f_or.

    Each shared subformula is rebuilt once, so shared subformulas stay
    shared, and a node that nothing below it changed is kept itself.
    """
    if not isinstance(f, (Not, And, Or)):
        return leaf(f)
    out: dict[Formula, Formula] = {}
    for g in _postorder(f, _args):
        if isinstance(g, Not):
            arg = out[g.arg]
            out[g] = g if arg is g.arg else f_not(arg)
        elif isinstance(g, (And, Or)):
            args = [out[a] for a in g.args]
            if all(map(is_, args, g.args)):
                out[g] = g
            else:
                out[g] = (f_and if isinstance(g, And) else f_or)(*args)
        else:
            out[g] = leaf(g)
    return out[f]


def _dag_nodes(f: Formula):
    """Iterate each distinct subformula once (formulas may share)."""
    seen: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        yield g
        if isinstance(g, (And, Or)):
            stack.extend(g.args)
        elif isinstance(g, Not):
            stack.append(g.arg)


def variables(f: Formula) -> set[VariableRef]:
    out: set[VariableRef] = set()
    for g in _dag_nodes(f):
        if isinstance(g, Atom):
            out.update(g.term.variables())
    return out


def propvars(f: Formula) -> set[str]:
    out: set[str] = set()
    for g in _dag_nodes(f):
        if isinstance(g, PropVar):
            out.add(g.name)
    return out


def _map_terms(f: Formula, term_map) -> Formula:
    """Rebuild f with every atom's term replaced by term_map(term)."""
    return rebuild(f, lambda g: Atom(g.rel, term_map(g.term)) if isinstance(g, Atom) else g)


def rename(f: Formula, mapping: Mapping[VariableRef, VariableRef]) -> Formula:
    """Simultaneous capture-free substitution of variables.

    Raises ValueError if the effective map is not injective on f's variables.
    """
    occurring = variables(f)
    image = {v: mapping.get(v, v) for v in occurring}
    if len(set(image.values())) != len(image):
        raise ValueError("non-injective rename")
    return _map_terms(f, lambda t: t.rename(mapping))


def at_indices(f: Formula, ssa: Mapping[str, int]) -> Formula:
    """Map every current-state variable x to x@ssa[x] (missing names -> 0)."""
    return _map_terms(f, lambda t: t.at_indices(ssa))


def max_index(f: Formula, name: str) -> int:
    """Largest SSA index of `name` in f; current-state occurrences count as 0."""
    best = 0
    for v in variables(f):
        if v.name == name:
            best = max(best, v.index or 0)
    return best


def strip_indices_atom(atom: Atom) -> Formula:
    """Collapse x@i to x and re-canonicalize; may degenerate to True/False."""
    d: dict[VariableRef, int] = {}
    for v, c in atom.term.coeffs:
        w = VariableRef(v.name)
        d[w] = d.get(w, 0) + c
    t = Term.of(atom.term.const, d)
    return canon_eq(t) if atom.rel == EQ else canon_le(t)


def atoms(f: Formula) -> frozenset[Atom]:
    """Distinct atoms of f, canonicalized with SSA indices stripped."""
    out: set[Atom] = set()
    for g in _dag_nodes(f):
        if isinstance(g, Atom):
            stripped = strip_indices_atom(g)
            if isinstance(stripped, Atom):
                out.add(stripped)
    return frozenset(out)


def evaluate(
    f: Formula,
    env: Mapping[VariableRef, int | Fraction],
    bools: Mapping[str, bool] | None = None,
) -> bool:
    if f is TRUE:
        return True
    if f is FALSE:
        return False
    if isinstance(f, Atom):
        val = f.term.evaluate(env)
        return val == 0 if f.rel == EQ else val <= 0
    if isinstance(f, PropVar):
        if bools is None or f.name not in bools:
            raise KeyError(f"no value for propositional variable {f.name}")
        return bools[f.name]
    if isinstance(f, Not):
        return not evaluate(f.arg, env, bools)
    if isinstance(f, And):
        return all(evaluate(a, env, bools) for a in f.args)
    if isinstance(f, Or):
        return any(evaluate(a, env, bools) for a in f.args)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# text form (s-expressions) and infix pretty-printing
# ---------------------------------------------------------------------------

def _term_sexpr(t: Term, symbol, integer) -> str:
    parts = []
    for v, c in t.coeffs:
        parts.append(symbol(v) if c == 1 else f"(* {integer(c)} {symbol(v)})")
    if t.const != 0 or not parts:
        parts.append(integer(t.const))
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def to_sexpr(f: Formula, symbol=str, integer=str, limit: int | None = None) -> str:
    """f as an s-expression, e.g. `(<= (+ x@1 (* -2 y) 3) 0)`.

    `symbol` renders variables and propositional variables and `integer`
    the numbers; the defaults give the text `parse_sexpr` reads, and the
    SMT-LIB backend passes its own (`|x@1|`, `(- 3)`).  One string is built
    per distinct node (see `_render`), so any depth prints.  The text
    still repeats a shared subformula once per path to it, unless `limit`
    cuts each node's text (see `_render`).
    """
    return _render(f, _sexpr_node(symbol, integer), limit)


def _sexpr_node(symbol, integer):
    """The `_render` node function of `to_sexpr`."""
    def node(g: Formula, parts: list[str]) -> str:
        if isinstance(g, Not):
            return f"(not {parts[0]})"
        if isinstance(g, (And, Or)):
            return ("(and " if isinstance(g, And) else "(or ") + " ".join(parts) + ")"
        if g is TRUE:
            return "true"
        if g is FALSE:
            return "false"
        if isinstance(g, PropVar):
            return symbol(g.name)
        if isinstance(g, Atom):
            return f"({g.rel} {_term_sexpr(g.term, symbol, integer)} 0)"
        raise TypeError(f"not a formula: {g!r}")

    return node


def _render(f: Formula, node, limit: int | None = None) -> str:
    """The text of f, built as `node(g, texts of g's arguments)` for each
    distinct node g on the post-order walk; a node's text is dropped once
    its last parent has used it.

    With `limit`, a node's text longer than that is cut to its first
    `limit` characters and `...`, so each node costs at most its argument
    count times the limit, whatever the depth.
    """
    uses = Counter(a for g in _dag_nodes(f) for a in _args(g))
    text: dict[Formula, str] = {}

    def take(a: Formula) -> str:
        uses[a] -= 1
        return text[a] if uses[a] else text.pop(a)

    for g in _postorder(f, _args):
        t = node(g, [take(a) for a in _args(g)])
        text[g] = t if limit is None or len(t) <= limit else t[:limit] + "..."
    return text[f]


def _render_length(f: Formula, node) -> int:
    """len(_render(f, node)) without building the text: a node's own
    characters, its text around empty argument texts, plus the lengths of
    its arguments' texts."""
    length: dict[Formula, int] = {}
    for g in _postorder(f, _args):
        args = _args(g)
        length[g] = len(node(g, [""] * len(args))) + sum(length[a] for a in args)
    return length[f]


_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_VAR = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:@(\d+))?$")
_INT = re.compile(r"-?\d+$")


def _read(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise ValueError("unexpected end of s-expression")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise ValueError("unbalanced '(' in s-expression")
            if tokens[pos] == ")":
                break
            item, pos = _read(tokens, pos)
            items.append(item)
        return items, pos + 1
    if tok == ")":
        raise ValueError("unbalanced ')'")
    return tok, pos + 1


def _parse_term(node) -> Term:
    if isinstance(node, str):
        if _INT.match(node):
            return Term.constant(int(node))
        m = _VAR.match(node)
        if m:
            idx = int(m.group(2)) if m.group(2) is not None else None
            return Term.variable(VariableRef(m.group(1), idx))
        raise ValueError(f"bad term token {node!r}")
    head, *rest = node
    if head == "+":
        out = Term.constant(0)
        for r in rest:
            out = out + _parse_term(r)
        return out
    if head == "-":
        if len(rest) == 1:
            return -_parse_term(rest[0])
        if len(rest) == 2:
            return _parse_term(rest[0]) - _parse_term(rest[1])
        raise ValueError("'-' takes one or two arguments")
    if head == "*":
        if len(rest) != 2 or not isinstance(rest[0], str) or not _INT.match(rest[0]):
            raise ValueError("'*' takes an integer and a variable")
        return _parse_term(rest[1]).scale(int(rest[0]))
    raise ValueError(f"bad term head {head!r}")


def _parse_formula(node) -> Formula:
    if isinstance(node, str):
        if node == "true":
            return TRUE
        if node == "false":
            return FALSE
        if _VAR.match(node):
            return PropVar(node)
        raise ValueError(f"bad formula token {node!r}")
    head, *rest = node
    if head == "not":
        (arg,) = rest
        return f_not(_parse_formula(arg))
    if head == "and":
        return f_and(*(_parse_formula(r) for r in rest))
    if head == "or":
        return f_or(*(_parse_formula(r) for r in rest))
    if head in ("=", "==", "!=", "<", "<=", ">", ">="):
        lhs, rhs = rest
        rel = "==" if head == "=" else head
        return compare(rel, _parse_term(lhs), _parse_term(rhs))
    raise ValueError(f"bad formula head {head!r}")


def parse_sexpr(text: str) -> Formula:
    tokens = _TOKEN.findall(text)
    node, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise ValueError("trailing tokens after s-expression")
    return _parse_formula(node)


def term_infix(t: Term) -> str:
    if not t.coeffs:
        return str(t.const)
    bits: list[str] = []
    for v, c in t.coeffs:
        if not bits:
            if c == 1:
                bits.append(str(v))
            elif c == -1:
                bits.append(f"-{v}")
            else:
                bits.append(f"{c}*{v}")
        else:
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            bits.append(f" {sign} {v}" if mag == 1 else f" {sign} {mag}*{v}")
    if t.const:
        sign = "+" if t.const > 0 else "-"
        bits.append(f" {sign} {abs(t.const)}")
    return "".join(bits)


def formula_infix(f: Formula) -> str:
    """Human-oriented rendering used in DOT labels and traces; built
    iteratively like `to_sexpr`, so any depth prints."""
    def node(g: Formula, parts: list[str]) -> str:
        if g is TRUE:
            return "true"
        if g is FALSE:
            return "false"
        if isinstance(g, PropVar):
            return g.name
        if isinstance(g, Atom):
            vars_part = Term(0, g.term.coeffs)
            if g.rel == LE and all(c < 0 for _, c in g.term.coeffs):
                return f"{term_infix(-vars_part)} >= {g.term.const}"
            op = "==" if g.rel == EQ else "<="
            return f"{term_infix(vars_part)} {op} {-g.term.const}"
        if isinstance(g, Not):
            return f"!({parts[0]})"
        if isinstance(g, (And, Or)):
            return "(" + (" && " if isinstance(g, And) else " || ").join(parts) + ")"
        raise TypeError(f"not a formula: {g!r}")

    return _render(f, node)
