"""Parser for the input language and translation to a control-flow automaton.

Grammar (UTF-8 text, `//` comments):

    program := decl* stmt*
    decl    := "int" IDENT ";"
    stmt    := IDENT "=" (expr | "nondet" "(" ")") ";"
             | "assume" "(" cond ")" ";"
             | "assert" "(" cond ")" ";"
             | "if" "(" ( "*" | cond ) ")" block ( "else" block )?
             | "while" "(" ( "*" | cond ) ")" block
             | "error" "(" ")" ";"
             | "skip" ";"
    block   := "{" stmt* "}"
    expr    := INT | IDENT | expr ("+"|"-") expr | INT "*" IDENT
             | "-" expr | "(" expr ")"
    cond    := comparisons ("=="|"!="|"<"|"<="|">"|">=") combined with
               "&&", "||", "!", parentheses

`assert(c)` is sugar for `if (!(c)) { error(); }`.  Translation produces
one edge per atomic statement and two assume edges per branch or loop
condition; a single fresh error location is created even if unused, and
statements following `error();` continue from the error location (they are
unreachable once the error location is made a sink).
"""

from __future__ import annotations

from .cfa import CFA, Edge, Program
from .formula import Formula, Term, TRUE, compare, f_and, f_not, f_or
from .record import Record
from .semantics import Assign, Assume, Havoc


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

KEYWORDS = {"int", "assume", "assert", "if", "else", "while", "error", "skip",
            "nondet"}
SYMBOLS = ("&&", "||", "==", "!=", "<=", ">=", "=", "<", ">", "!", "+", "-",
           "*", "(", ")", "{", "}", ";")
# longest match first: a two-character symbol, then a one-character one
_SYMBOLS2 = frozenset(sym for sym in SYMBOLS if len(sym) == 2)
_SYMBOLS1 = frozenset(sym for sym in SYMBOLS if len(sym) == 1)


class Token(Record):
    __slots__ = _fields = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        self.kind = kind  # "ident" | "int" | keyword | symbol | "eof"
        self.text, self.line, self.col = text, line, col


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = word if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        sym = source[i:i + 2]
        if sym not in _SYMBOLS2:
            sym = ch
            if sym not in _SYMBOLS1:
                raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append(Token(sym, sym, line, col))
        col += len(sym)
        i += len(sym)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# statement tree
# ---------------------------------------------------------------------------

class SAssign(Record):
    __slots__ = _fields = ("var", "expr")

    def __init__(self, var: str, expr: Term | None) -> None:
        self.var = var
        self.expr = expr  # None means nondet()


class SAssume(Record):
    __slots__ = _fields = ("cond",)

    def __init__(self, cond: Formula) -> None:
        self.cond = cond


class SIf(Record):
    __slots__ = _fields = ("cond", "then", "els")

    def __init__(self, cond: Formula | None, then: list, els: list) -> None:
        self.cond = cond  # None means `*`
        self.then, self.els = then, els


class SWhile(Record):
    __slots__ = _fields = ("cond", "body")

    def __init__(self, cond: Formula | None, body: list) -> None:
        self.cond, self.body = cond, body


class SError(Record):
    __slots__ = ()


class SSkip(Record):
    __slots__ = ()


class SourceProgram(Record):
    __slots__ = _fields = ("declarations", "body")

    def __init__(self, declarations: list[str], body: list) -> None:
        self.declarations, self.body = declarations, body


# ---------------------------------------------------------------------------
# recursive-descent parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.declared: list[str] = []

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return self.next()

    def error(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.col)

    def _check_declared(self, t: Token) -> str:
        if t.text not in self.declared:
            raise ParseError(f"undeclared variable {t.text!r}", t.line, t.col)
        return t.text

    # program --------------------------------------------------------------

    def program(self) -> SourceProgram:
        while self.peek().kind == "int":
            self.next()
            name = self.expect("ident")
            if name.text in self.declared:
                raise ParseError(f"redeclaration of {name.text!r}", name.line, name.col)
            self.declared.append(name.text)
            self.expect(";")
        body = []
        while self.peek().kind != "eof":
            body.append(self.statement())
        return SourceProgram(list(self.declared), body)

    def block(self) -> list:
        self.expect("{")
        out = []
        while self.peek().kind != "}":
            out.append(self.statement())
        self.expect("}")
        return out

    def statement(self):
        t = self.peek()
        if t.kind == "ident":
            self.next()
            var = self._check_declared(t)
            self.expect("=")
            if self.peek().kind == "nondet":
                self.next()
                self.expect("(")
                self.expect(")")
                self.expect(";")
                return SAssign(var, None)
            expr = self.expr()
            self.expect(";")
            return SAssign(var, expr)
        if t.kind == "assume":
            self.next()
            self.expect("(")
            cond = self.cond()
            self.expect(")")
            self.expect(";")
            return SAssume(cond)
        if t.kind == "assert":
            self.next()
            self.expect("(")
            cond = self.cond()
            self.expect(")")
            self.expect(";")
            return SIf(f_not(cond), [SError()], [])
        if t.kind == "if":
            self.next()
            self.expect("(")
            cond = self._cond_or_star()
            self.expect(")")
            then = self.block()
            els = []
            if self.peek().kind == "else":
                self.next()
                els = self.block()
            return SIf(cond, then, els)
        if t.kind == "while":
            self.next()
            self.expect("(")
            cond = self._cond_or_star()
            self.expect(")")
            body = self.block()
            return SWhile(cond, body)
        if t.kind == "error":
            self.next()
            self.expect("(")
            self.expect(")")
            self.expect(";")
            return SError()
        if t.kind == "skip":
            self.next()
            self.expect(";")
            return SSkip()
        raise self.error(f"unexpected token {t.text!r}")

    def _cond_or_star(self) -> Formula | None:
        if self.peek().kind == "*":
            self.next()
            return None
        return self.cond()

    # conditions -----------------------------------------------------------

    def cond(self) -> Formula:
        return self._or_cond()

    def _or_cond(self) -> Formula:
        out = self._and_cond()
        while self.peek().kind == "||":
            self.next()
            out = f_or(out, self._and_cond())
        return out

    def _and_cond(self) -> Formula:
        out = self._not_cond()
        while self.peek().kind == "&&":
            self.next()
            out = f_and(out, self._not_cond())
        return out

    def _not_cond(self) -> Formula:
        if self.peek().kind == "!":
            self.next()
            return f_not(self._not_cond())
        if self.peek().kind == "(":
            # parenthesized condition or a comparison starting with (expr
            saved = self.pos
            try:
                self.next()
                inner = self.cond()
                self.expect(")")
                return inner
            except ParseError:
                self.pos = saved
        return self._comparison()

    def _comparison(self) -> Formula:
        lhs = self.expr()
        t = self.peek()
        if t.kind not in ("==", "!=", "<", "<=", ">", ">="):
            raise self.error("expected comparison operator")
        self.next()
        rhs = self.expr()
        return compare(t.kind, lhs, rhs)

    # expressions ----------------------------------------------------------

    def expr(self) -> Term:
        out = self._unary()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self._unary()
            out = out + rhs if op == "+" else out - rhs
        return out

    def _unary(self) -> Term:
        if self.peek().kind == "-":
            self.next()
            return -self._unary()
        return self._primary()

    def _primary(self) -> Term:
        t = self.peek()
        if t.kind == "int":
            self.next()
            # the lexer's `str.isdigit` also accepts digits such as "²" and "٣"
            if not (t.text.isascii() and t.text.isdigit()):
                raise ParseError(f"invalid integer literal {t.text!r}", t.line, t.col)
            value = int(t.text)
            if self.peek().kind == "*":
                self.next()
                name = self.expect("ident")
                return Term.variable(self._check_declared(name)).scale(value)
            return Term.constant(value)
        if t.kind == "ident":
            self.next()
            return Term.variable(self._check_declared(t))
        if t.kind == "(":
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        raise self.error(f"expected expression, found {t.text!r}")


def parse(source: str) -> SourceProgram:
    """Parse source text; raises ParseError with line/column on bad input,
    and on input nested more deeply than the recursive descent can go
    ("nesting too deep", at the token where it stopped)."""
    parser = _Parser(tokenize(source))
    try:
        return parser.program()
    except RecursionError:
        raise parser.error("nesting too deep") from None


# ---------------------------------------------------------------------------
# CFA construction
# ---------------------------------------------------------------------------

class _Builder:
    def __init__(self) -> None:
        self.entry = 0
        self.error = 1
        self.next_loc = 2
        self.edges: list[Edge] = []

    def fresh(self) -> int:
        loc = self.next_loc
        self.next_loc += 1
        return loc

    def edge(self, src: int, op, dst: int) -> None:
        self.edges.append(Edge(src, op, dst))

    def block(self, stmts: list, start: int, target: int) -> None:
        """Compile stmts between start and target without inserting skips."""
        cur = start
        for i, s in enumerate(stmts):
            nxt = target if i == len(stmts) - 1 else self.fresh()
            cur = self.statement(s, cur, nxt)

    def statement(self, s, cur: int, target: int) -> int:
        """Compile one statement from cur toward target; returns the location
        from which the *next* statement proceeds (normally target)."""
        if isinstance(s, SAssign):
            op = Havoc(s.var) if s.expr is None else Assign(s.var, s.expr)
            self.edge(cur, op, target)
            return target
        if isinstance(s, SAssume):
            self.edge(cur, Assume(s.cond), target)
            return target
        if isinstance(s, SSkip):
            self.edge(cur, Assume(TRUE), target)
            return target
        if isinstance(s, SError):
            # control jumps to the error location; any following statements
            # chain from there (rule 0 later cuts them loose)
            self.edge(cur, Assume(TRUE), self.error)
            return self.error
        if isinstance(s, SIf):
            pos_cond = Assume(TRUE) if s.cond is None else Assume(s.cond)
            neg_cond = Assume(TRUE) if s.cond is None else Assume(f_not(s.cond))
            if s.then:
                t0 = self.fresh()
                self.edge(cur, pos_cond, t0)
                self.block(s.then, t0, target)
            else:
                self.edge(cur, pos_cond, target)
            if s.els:
                e0 = self.fresh()
                self.edge(cur, neg_cond, e0)
                self.block(s.els, e0, target)
            else:
                self.edge(cur, neg_cond, target)
            return target
        if isinstance(s, SWhile):
            head = cur
            if cur == self.entry:
                # the entry location must stay free of incoming back edges
                head = self.fresh()
                self.edge(cur, Assume(TRUE), head)
            pos_cond = Assume(TRUE) if s.cond is None else Assume(s.cond)
            neg_cond = Assume(TRUE) if s.cond is None else Assume(f_not(s.cond))
            if s.body:
                b0 = self.fresh()
                self.edge(head, pos_cond, b0)
                self.block(s.body, b0, head)
            else:
                self.edge(head, pos_cond, head)
            self.edge(head, neg_cond, target)
            return target
        raise TypeError(f"unknown statement {s!r}")


def to_cfa(sp: SourceProgram) -> Program:
    """Build the one-operation-per-edge automaton for a parsed program."""
    b = _Builder()
    if sp.body:
        exit_loc = b.fresh()
        b.block(sp.body, b.entry, exit_loc)
    locations = {b.entry, b.error}
    for e in b.edges:
        locations.add(e.source)
        locations.add(e.target)
    return Program(CFA(tuple(sorted(locations)), tuple(b.edges)), b.entry, b.error)


def parse_program(source: str) -> Program:
    return to_cfa(parse(source))
