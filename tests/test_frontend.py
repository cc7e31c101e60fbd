import pytest
from hypothesis import given, settings, strategies as st

from lbemc.cfa import program_variables
from lbemc.formula import TRUE, compare, f_and, f_not, f_or
from lbemc.frontend import (
    KEYWORDS,
    SYMBOLS,
    ParseError,
    SAssign,
    SError,
    SIf,
    SWhile,
    parse,
    parse_program,
)
from lbemc.semantics import Assume, Havoc

from conftest import const, tvar


class TestParse:
    def test_basic_statement_counts(self):
        sp = parse("int x; x = 0; assume(x > 0); error();")
        assert sp.declarations == ["x"]
        assert len(sp.body) == 3

    def test_nondet_assignment(self):
        sp = parse("int x; x = nondet();")
        stmt = sp.body[0]
        assert isinstance(stmt, SAssign) and stmt.expr is None

    def test_undeclared_variable(self):
        with pytest.raises(ParseError) as err:
            parse("x = 0;")
        assert "undeclared" in str(err.value)
        assert err.value.line == 1

    def test_redeclaration(self):
        with pytest.raises(ParseError) as err:
            parse("int x; int x;")
        assert "redeclaration" in str(err.value)

    def test_lexical_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("int x;\nx = $;")
        assert err.value.line == 2

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            parse("int x; if x > 0 { }")

    @pytest.mark.parametrize("source", ["int x; x = \u00b2;", "int x; x = 1\u00b2;"])
    def test_digit_that_int_refuses_is_a_parse_error(self, source):
        # str.isdigit accepts a superscript two, so the lexer makes it an
        # integer token; the parser must reject it at the literal
        with pytest.raises(ParseError) as err:
            parse(source)
        assert (err.value.line, err.value.col) == (1, 12)

    @pytest.mark.parametrize("source", ["int x; x = \u0663;", "int x; x = 1\u0663;"])
    def test_non_ascii_decimal_digit_is_a_parse_error(self, source):
        # int() reads an Arabic-Indic three as 3, so only the parser's own
        # check keeps `x = \u0663;` from being the literal 3
        with pytest.raises(ParseError) as err:
            parse(source)
        assert (err.value.line, err.value.col) == (1, 12)
        assert "invalid integer literal" in str(err.value)

    def test_nesting_too_deep_is_a_parse_error(self):
        depth = 5_000
        for source in ("int x;\n" + "if (x < 1) {\n" * depth + "}\n" * depth,
                       "int x;\nassume(" + "(" * depth + "x < 1" + ")" * depth + ");"):
            with pytest.raises(ParseError) as err:
                parse(source)
            assert str(err.value).endswith(": nesting too deep")

    def test_assert_desugars_to_guarded_error(self):
        sp = parse("int x; assert(x == 1);")
        stmt = sp.body[0]
        assert isinstance(stmt, SIf)
        assert stmt.cond == f_not(compare("==", tvar("x"), const(1)))
        assert len(stmt.then) == 1 and isinstance(stmt.then[0], SError)
        assert stmt.els == []

    def test_comments_ignored(self):
        sp = parse("int x; // trailing words $ ! @\nx = 1; // more\n")
        assert len(sp.body) == 1

    def test_compound_conditions(self):
        sp = parse("int x; int y; assume(x > 0 && (y < 1 || !(x == y)));")
        cond = sp.body[0].cond
        expected = f_and(
            compare(">", tvar("x"), const(0)),
            f_or(
                compare("<", tvar("y"), const(1)),
                f_not(compare("==", tvar("x"), tvar("y"))),
            ),
        )
        assert cond == expected

    def test_expression_grammar(self):
        sp = parse("int x; int y; x = 2 * x + y - 3; y = -(x + 1);")
        assert sp.body[0].expr == tvar("x").scale(2) + tvar("y") - 3
        assert sp.body[1].expr == -(tvar("x") + 1)

    def test_star_conditions(self):
        sp = parse("int x; if (*) { x = 1; } while (*) { skip; }")
        assert isinstance(sp.body[0], SIf) and sp.body[0].cond is None
        assert isinstance(sp.body[1], SWhile) and sp.body[1].cond is None


class TestToCfa:
    def test_minimal_error_program(self):
        p = parse_program("int x; error();")
        assert set(p.cfa.locations) == {p.entry, p.error}
        assert len(p.cfa.edges) == 1
        edge = p.cfa.edges[0]
        assert edge.source == p.entry and edge.target == p.error
        assert edge.op == Assume(TRUE)

    def test_fresh_error_location_even_if_unused(self):
        p = parse_program("int x; x = 0;")
        assert p.error in p.cfa.locations
        assert not any(e.target == p.error for e in p.cfa.edges)

    def test_nondet_becomes_havoc(self):
        p = parse_program("int x; x = nondet();")
        assert p.cfa.edges[0].op == Havoc("x")

    def test_one_edge_per_operation(self):
        src = """
        int x; int y;
        x = 0;
        y = nondet();
        skip;
        assume(x <= y);
        if (x == y) { x = 1; } else { skip; }
        while (x > 0) { x = x - 1; }
        assert(y >= 0);
        """
        p = parse_program(src)
        # 4 straight-line statements + 2 per if + (then+else bodies: 2)
        # + 2 per while + loop body 1 + assert (2 cond edges + error edge)
        assert len(p.cfa.edges) == 4 + 2 + 2 + 2 + 1 + 3

    def test_entry_has_no_incoming_edges(self):
        p = parse_program("int i; while (i > 0) { i = i - 1; }")
        assert all(e.target != p.entry for e in p.cfa.edges)

    def test_while_as_first_statement_gets_fresh_head(self):
        p = parse_program("int i; while (i > 0) { i = i - 1; }")
        skip_edges = [e for e in p.cfa.edges if e.source == p.entry]
        assert len(skip_edges) == 1 and skip_edges[0].op == Assume(TRUE)

    def test_statements_after_error_chain_from_error_location(self):
        p = parse_program("int x; error(); x = 0;")
        assign = [e for e in p.cfa.edges if e.op != Assume(TRUE)]
        assert len(assign) == 1
        assert assign[0].source == p.error

    def test_every_nonfinal_location_has_outgoing(self):
        src = "int x; x = 0; if (x > 0) { x = 1; } x = 2;"
        p = parse_program(src)
        sinks = {
            loc for loc in p.cfa.locations
            if not any(e.source == loc for e in p.cfa.edges)
        }
        # only the error location and the final exit are sinks
        assert sinks == {p.error, 2}

    def test_test_locks_structure(self):
        from lbemc.cli import gen_test_locks

        for n in (1, 2):
            p = parse_program(gen_test_locks(n))
            error_edges = [e for e in p.cfa.edges if e.target == p.error]
            assert len(error_edges) == n  # one guarded error edge per lock
            assert program_variables(p) == sorted(
                ["cond"] + [f"p{i}" for i in range(1, n + 1)]
                + [f"lk{i}" for i in range(1, n + 1)]
            )


# ---------------------------------------------------------------------------
# reference lexer: symbols tried in table order with startswith
# ---------------------------------------------------------------------------

_REF_KEYWORDS = {"int", "assume", "assert", "if", "else", "while", "error", "skip",
                 "nondet"}
_REF_SYMBOLS = ("&&", "||", "==", "!=", "<=", ">=", "=", "<", ">", "!", "+", "-",
                "*", "(", ")", "{", "}", ";")


def _ref_tokenize(source):
    """(kind, text, line, col) tuples, or ("error", message, line, col)."""
    tokens = []
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
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            tokens.append((word if word in _REF_KEYWORDS else "ident", word, line, col))
            col += j - i
            i = j
            continue
        for sym in _REF_SYMBOLS:
            if source.startswith(sym, i):
                tokens.append((sym, sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            return tokens + [("error", f"unexpected character {ch!r}", line, col)]
    return tokens + [("eof", "", line, col)]


def _lex(source):
    from lbemc.frontend import tokenize

    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(source)]
    except ParseError as exc:
        # the tokens before the error are not observable; compare the error
        ref = _ref_tokenize(source)
        return ref[:-1] + [("error", str(exc).split(": ", 1)[1], exc.line, exc.col)]


_MALFORMED = [
    "", "\n", "//", "// only a comment", "int x;\n//", "x", "$", "int x; x = $;",
    "a & b", "a | b", "a&&b||c", "x==y!=z<=w>=v", "x=<y", "x=>y", "!!x", "a/b",
    "a / / b", "int x;\r\n\tx = 1;\r\n", "int x; x = 1; // c $ @\n x = 2;",
    "12ab", "_a1_ = 3;", "é = 1;", "x² = 1;", "٣ + 1", "int x;",
    "tab\there", "  \t  @", "{}();;*-+<>=!", "int x; // a\n// b\n  #", "x = 1;\n\n\n  ~",
    "if (x < 1) {\n  y = -2 * z;\n}\n", "éé", "a​b",
]


def test_tokenizer_matches_reference_lexer():
    from lbemc.cli import gen_test_locks
    from lbemc.oracle import random_program

    sources = [random_program(k) for k in range(200)]
    sources += [gen_test_locks(n, bug=bug) for n in range(1, 21) for bug in (False, True)]
    sources += _MALFORMED
    for text in list(sources[:40]):  # comments and damage inside real programs
        sources.append(text.replace(";", "; // note ;\n", 3))
        sources.append(text.replace("(", "$", 1))
        sources.append(text[: len(text) // 2] + "&" + text[len(text) // 2:])
    for text in sources:
        assert _lex(text) == _ref_tokenize(text), text


def test_parse_error_positions_match_reference_lexer():
    for text in _MALFORMED:
        ref = _ref_tokenize(text)
        if ref[-1][0] == "error":
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (err.value.line, err.value.col) == ref[-1][2:], text


# Reproducible, bounded fuzzing: the same examples on every run, and no
# example database written.
_FUZZ = settings(derandomize=True, database=None, max_examples=500, deadline=None)
_TOKENS = sorted(KEYWORDS) + list(SYMBOLS) + ["x", "y", "_z1", "0", "7", "123",
                                             " ", "\n", "//", "$"]


def _parses_or_raises_parse_error(source: str) -> None:
    try:
        parse_program(source)
    except ParseError:
        pass


class TestFuzz:
    """Every input either parses or raises ParseError."""

    @_FUZZ
    @given(st.text(max_size=200))
    def test_arbitrary_text(self, source):
        _parses_or_raises_parse_error(source)

    @_FUZZ
    @given(st.booleans(), st.lists(st.sampled_from(_TOKENS), max_size=80))
    def test_token_soup(self, declare, tokens):
        # tokens are joined without spaces, so neighbours may fuse ("=" "="
        # lexes as "=="); the declarations let assignments get past the
        # variable check
        _parses_or_raises_parse_error(("int x; int y; " if declare else "") + "".join(tokens))
