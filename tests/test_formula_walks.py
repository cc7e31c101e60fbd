"""The formula walks against the recursive walks they replaced.

`normalize`, `at_indices`, `rename`, `drop_dead_pads` and `_Cnf.literal`
must build the same formulas and the same CNF as the recursive versions
kept here, and `to_sexpr` and `formula_infix` must print what the
recursive printers printed, on seeded random formulas and on every solver query of the
lock ladders of 1..10 locks, their bug twins and corpus programs 0..199
(see `_runs` for the configurations).
"""

import functools
import random

from lbemc import abstraction, smt
from lbemc.cfa import summarize
from lbemc.cli import gen_test_locks
from lbemc.engine import verify
from lbemc.formula import (
    And,
    Atom,
    EQ,
    FALSE,
    FalseF,
    LE,
    Not,
    Or,
    PropVar,
    TRUE,
    Term,
    TrueF,
    VariableRef,
    _args,
    _dag_nodes,
    at_indices,
    compare,
    f_and,
    f_not,
    f_or,
    formula_infix,
    negate_atom,
    rename,
    term_infix,
    to_sexpr,
    variables,
)
from lbemc.frontend import parse_program
from lbemc.oracle import random_comparison, random_formula, random_operation, random_program
from lbemc.semantics import drop_dead_pads, encode_edge
from lbemc.smt import InternalSolver, _Cnf, normalize

from conftest import const, is_copy, tvar

NAMES = ["a", "b", "c"]


# ---------------------------------------------------------------------------
# references: the recursive walks
# ---------------------------------------------------------------------------

def _ref_nnf(f):
    memo = {}

    def walk(g, neg):
        key = (id(g), neg)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(g, TrueF):
            out = FALSE if neg else TRUE
        elif isinstance(g, FalseF):
            out = TRUE if neg else FALSE
        elif isinstance(g, (Atom, PropVar)):
            out = Not(g) if neg else g
        elif isinstance(g, Not):
            out = walk(g.arg, not neg)
        elif isinstance(g, And):
            parts = tuple(walk(a, neg) for a in g.args)
            out = f_or(*parts) if neg else f_and(*parts)
        else:
            parts = tuple(walk(a, neg) for a in g.args)
            out = f_and(*parts) if neg else f_or(*parts)
        memo[key] = out
        return out

    return walk(f, False)


def _ref_positivize(f):
    memo = {}

    def walk(g):
        cached = memo.get(id(g))
        if cached is not None:
            return cached
        if isinstance(g, Not):
            assert isinstance(g.arg, (Atom, PropVar)), "input not in NNF"
            out = negate_atom(g.arg) if isinstance(g.arg, Atom) else g
        elif isinstance(g, And):
            out = f_and(*(walk(a) for a in g.args))
        elif isinstance(g, Or):
            out = f_or(*(walk(a) for a in g.args))
        else:
            out = g
        memo[id(g)] = out
        return out

    return walk(f)


def _ref_normalize(f):
    return _ref_positivize(_ref_nnf(f))


def _ref_map_terms(f, term_map):
    memo = {}

    def walk(g):
        cached = memo.get(id(g))
        if cached is not None:
            return cached
        if isinstance(g, Atom):
            out = Atom(g.rel, term_map(g.term))
        elif isinstance(g, Not):
            out = f_not(walk(g.arg))
        elif isinstance(g, And):
            out = f_and(*(walk(a) for a in g.args))
        elif isinstance(g, Or):
            out = f_or(*(walk(a) for a in g.args))
        else:
            out = g
        memo[id(g)] = out
        return out

    return walk(f)


def _ref_drop_dead_pads(f, targets=()):
    """drop_dead_pads with its rebuild on an explicit stack of nodes."""
    defined = {}
    reads = {}
    live = set()
    for g in _dag_nodes(f):
        if is_copy(g):
            (u, _), (v, _) = g.term.coeffs
            defined[id(g)] = v
            reads.setdefault(v, []).append(u)
        elif isinstance(g, Atom):
            live.update(w for w, _ in g.term.coeffs)
        elif isinstance(g, Not) and isinstance(g.arg, Atom):
            live.update(w for w, _ in g.arg.term.coeffs)
    if not reads:
        return f
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
    memo = {}
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


def _ref_term_sexpr(t, symbol, integer):
    parts = []
    for v, c in t.coeffs:
        parts.append(symbol(v) if c == 1 else f"(* {integer(c)} {symbol(v)})")
    if t.const != 0 or not parts:
        parts.append(integer(t.const))
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def _ref_to_sexpr(f):
    """The recursive `formula.to_sexpr`."""
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, PropVar):
        return f.name
    if isinstance(f, Atom):
        return f"({f.rel} {_ref_term_sexpr(f.term, str, str)} 0)"
    if isinstance(f, Not):
        return f"(not {_ref_to_sexpr(f.arg)})"
    if isinstance(f, And):
        return "(and " + " ".join(_ref_to_sexpr(a) for a in f.args) + ")"
    return "(or " + " ".join(_ref_to_sexpr(a) for a in f.args) + ")"


def _ref_smt_formula(f):
    """The recursive SMT-LIB printer of the external backend."""
    def symbol(v):
        return f"|{v}|"

    def integer(n):
        return str(n) if n >= 0 else f"(- {-n})"

    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, PropVar):
        return f"|{f.name}|"
    if isinstance(f, Atom):
        op = "=" if f.rel == EQ else "<="
        return f"({op} {_ref_term_sexpr(f.term, symbol, integer)} 0)"
    if isinstance(f, Not):
        return f"(not {_ref_smt_formula(f.arg)})"
    if isinstance(f, And):
        return "(and " + " ".join(_ref_smt_formula(a) for a in f.args) + ")"
    return "(or " + " ".join(_ref_smt_formula(a) for a in f.args) + ")"


def _ref_formula_infix(f):
    """The recursive `formula.formula_infix`."""
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, PropVar):
        return f.name
    if isinstance(f, Atom):
        vars_part = Term(0, f.term.coeffs)
        if f.rel == LE and all(c < 0 for _, c in f.term.coeffs):
            return f"{term_infix(-vars_part)} >= {f.term.const}"
        op = "==" if f.rel == EQ else "<="
        return f"{term_infix(vars_part)} {op} {-f.term.const}"
    if isinstance(f, Not):
        return f"!({_ref_formula_infix(f.arg)})"
    if isinstance(f, And):
        return "(" + " && ".join(_ref_formula_infix(a) for a in f.args) + ")"
    return "(" + " || ".join(_ref_formula_infix(a) for a in f.args) + ")"


def _smtlib(f):
    return to_sexpr(f, smt._smt_symbol, smt._smt_int)


class _RefCnf(_Cnf):
    """_Cnf with the recursive Tseitin encoding."""

    def literal(self, f):
        if isinstance(f, TrueF):
            return self.true_lit()
        if isinstance(f, FalseF):
            return -self.true_lit()
        if isinstance(f, (Atom, PropVar)):
            return self.input_var(f)
        if isinstance(f, Not):
            return -self.input_var(f.arg)
        gate = self._gate.get(f)
        if gate is not None:
            return gate
        args = [self.literal(a) for a in f.args]
        g = self.new_var()
        if isinstance(f, And):
            for a in args:
                self.add_clause([-g, a])
            self.add_clause([g] + [-a for a in args])
        else:
            for a in args:
                self.add_clause([g, -a])
            idx = self.add_clause([-g] + args)
            if idx is not None:
                self.select_guard[g] = idx
        self._gate[f] = g
        return g


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _mixed_formula(rng, depth, pool):
    """A random formula over NAMES and the propositional variables p, q, r,
    with constants, Not over compound arguments and subformulas shared
    through `pool`.

    Every node is one f_not, f_and or f_or would build: the rewrites keep
    a node that nothing below it changed, where the recursive `_map_terms`
    rebuilt it, so on a node such as Not(TRUE) with no atom below they
    differ.
    """
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.25:
            return PropVar(rng.choice("pqr"))
        if r < 0.3:
            return rng.choice([TRUE, FALSE])
        if r < 0.45 and pool:
            return rng.choice(pool)
        return random_comparison(rng, NAMES)
    kind = rng.choice(["and", "or", "not"])
    if kind == "not":
        g = f_not(_mixed_formula(rng, depth - 1, pool))
    else:
        args = [_mixed_formula(rng, depth - 1, pool) for _ in range(rng.randint(2, 3))]
        g = f_and(*args) if kind == "and" else f_or(*args)
    pool.append(g)
    return g


@functools.lru_cache(maxsize=None)
def _random_formulas():
    rng = random.Random(59)
    return [_mixed_formula(rng, rng.randint(1, 6), []) for _ in range(2000)]


def _runs():
    """(source, encoding, mode) of every recorded verify run.

    Every ladder of 1..10 locks and its bug twin run under LBE; SBE runs
    every bug twin and the safe ladders of at most 3 (Boolean) and 4
    (Cartesian) locks, as the next size takes seconds.  Corpus programs
    run in all four configurations.
    """
    limits = {("lbe", "boolean"): (10, 10), ("lbe", "cartesian"): (10, 10),
              ("sbe", "boolean"): (3, 10), ("sbe", "cartesian"): (4, 10)}
    for (encoding, mode), (safe, bug) in limits.items():
        for n in range(1, 11):
            if n <= safe:
                yield gen_test_locks(n), encoding, mode
            if n <= bug:
                yield gen_test_locks(n, bug=True), encoding, mode
        for k in range(200):
            yield random_program(k), encoding, mode


@functools.lru_cache(maxsize=None)
def _recorded():
    """What the verify runs of `_runs` hand to the rewrites and the solver:
      - `sessions`: per solver call, the formula and the complements
        (`f_not(q)`) it normalizes, in that order;
      - `at_calls`: the (formula, index map) of each `at_indices` call of
        the abstract post;
      - `pad_calls`: the (formula, targets) of each `drop_dead_pads`
        call.
    """
    sessions, at_calls, pad_calls = [], [], []
    real_at, real_drop = abstraction.at_indices, abstraction.drop_dead_pads

    def recording_at(f, ssa):
        at_calls.append((f, dict(ssa)))
        return real_at(f, ssa)

    def recording_drop(f, targets=()):
        targets = list(targets)
        pad_calls.append((f, targets))
        return real_drop(f, targets)

    abstraction.at_indices = recording_at
    abstraction.drop_dead_pads = recording_drop
    try:
        for source, encoding, mode in _runs():
            program = parse_program(source)
            if encoding == "lbe":
                program, _ = summarize(program)
            verify(program, mode=mode, solver=_recording_solver(sessions))
    finally:
        abstraction.at_indices = real_at
        abstraction.drop_dead_pads = real_drop
    return sessions, at_calls, pad_calls


def _recording_solver(sessions):
    solver = InternalSolver()
    check_sat, all_sat, entailed = solver.check_sat, solver.all_sat, solver.entailed

    def recording_check_sat(phi):
        sessions.append([phi])
        return check_sat(phi)

    def recording_all_sat(phi, important):
        sessions.append([phi])
        return all_sat(phi, important)

    def recording_entailed(phi, qs):
        sessions.append([phi, *(f_not(q) for q in qs)])
        return entailed(phi, qs)

    solver.check_sat = recording_check_sat
    solver.all_sat = recording_all_sat
    solver.entailed = recording_entailed
    return solver


def _queries():
    sessions, _, _ = _recorded()
    return [f for session in sessions for f in session]


def _shift(f):
    """An injective renaming of f's variables: every index moves up by one,
    a current-state variable to index 0."""
    return {v: VariableRef(v.name, 0 if v.index is None else v.index + 1)
            for v in variables(f)}


def _tree_size(f, memo):
    """The node count of f written out as a tree, as `str` writes it."""
    size = memo.get(id(f))
    if size is None:
        size = memo[id(f)] = 1 + sum(_tree_size(a, memo) for a in _args(f))
    return size


# the text of a formula repeats each shared subformula once per path to it,
# and some bug-twin queries written out have millions of nodes
STR_NODES = 10_000


def _same(got, want):
    assert got == want
    if _tree_size(want, {}) <= STR_NODES:
        assert str(got) == str(want)


# ---------------------------------------------------------------------------
# the rewrites against the references
# ---------------------------------------------------------------------------

class TestAgainstRecursiveWalks:
    def test_inputs(self):
        sessions, at_calls, pad_calls = _recorded()
        assert len(_random_formulas()) >= 2000
        assert any(isinstance(g, PropVar) for f in _random_formulas() for g in _dag_nodes(f))
        assert any(isinstance(g, Not) and isinstance(g.arg, (And, Or))
                   for f in _random_formulas() for g in _dag_nodes(f))
        assert len(sessions) > 1000 and len(at_calls) > 1000 and len(pad_calls) > 100

    def test_normalize(self):
        for f in _random_formulas() + _queries():
            _same(normalize(f), _ref_normalize(f))

    def test_at_indices(self):
        _, at_calls, _ = _recorded()
        rng = random.Random(61)
        ssa = {name: rng.randint(0, 4) for name in NAMES}
        calls = at_calls + [(f, ssa) for f in _random_formulas() + _queries()]
        for f, m in calls:
            _same(at_indices(f, m), _ref_map_terms(f, lambda t, m=m: t.at_indices(m)))

    def test_rename(self):
        for f in _random_formulas() + _queries():
            mapping = _shift(f)
            _same(rename(f, mapping), _ref_map_terms(f, lambda t: t.rename(mapping)))

    def test_drop_dead_pads(self):
        _, _, pad_calls = _recorded()
        rng = random.Random(67)
        calls = list(pad_calls)
        for _ in range(2000):
            f, out = encode_edge(random_operation(rng, NAMES, depth=5), {})
            targets = [at_indices(random_formula(rng, NAMES, depth=1), out)
                       for _ in range(rng.randint(0, 2))]
            calls.append((f, targets))
        pruned = 0
        for f, targets in calls:
            got = drop_dead_pads(f, targets)
            want = _ref_drop_dead_pads(f, targets)
            _same(got, want)
            assert (got is f) == (want is f)
            pruned += got is not f
        assert pruned > 100

    def test_cnf(self):
        sessions, _, _ = _recorded()
        sessions = sessions + [[f] for f in _random_formulas()]
        for session in sessions:
            # one CNF per session, as the solver encodes phi and then each
            # complement, so later formulas meet gates already built
            got, want = _Cnf(), _RefCnf()
            for f in session:
                prep = normalize(f)
                assert got.literal(prep) == want.literal(prep)
            assert got.clauses == want.clauses
            assert list(got.atom_of.items()) == list(want.atom_of.items())
            assert list(got.select_guard.items()) == list(want.select_guard.items())

    def test_sexpr(self):
        formulas = _random_formulas()
        for f in formulas:
            assert to_sexpr(f) == str(f) == _ref_to_sexpr(f)
            assert _smtlib(f) == _ref_smt_formula(f)
            assert formula_infix(f) == _ref_formula_infix(f)
        texts = [_smtlib(f) for f in formulas]
        assert any("(- " in t for t in texts) and any("|p|" in t for t in texts)


# ---------------------------------------------------------------------------
# depth: the walks run on an explicit stack
# ---------------------------------------------------------------------------

DEPTH = 5_000


def _deep_formula(negations=True):
    """A formula nested DEPTH deep, alternating And and Or, with Not over
    the compound formula below every third level and, every 100 levels, a
    disjunction shared by the levels above.  Each And level holds a dead
    pad z{k}@1 = z{k}@0, k < 10, that no other atom reads.  Without
    `negations` no pad is under a Not, as in the formulas `encode_edge`
    builds."""
    f = compare("<=", tvar("x"), const(0))
    shared = PropVar("p")
    for i in range(DEPTH):
        if negations and i % 3 == 0:
            f = f_not(f)
        atom = compare("<=", tvar("x") + tvar("y"), const(i))
        if i % 2 == 0:
            pad = compare("==", tvar(f"z{i % 10}", 1), tvar(f"z{i % 10}", 0))
            f = f_and(f, atom, pad, shared)
        else:
            f = f_or(f, atom, f_not(shared) if negations else shared)
        if i % 100 == 1:  # an Or, which the And levels do not flatten
            shared = f
    return f


def _compound_nodes(f):
    return sum(isinstance(g, (And, Or)) for g in _dag_nodes(f))


class TestDepth:
    """Every rewrite takes a formula nested far deeper than the default
    recursion limit allows a recursive walk to go."""

    def test_nesting(self):
        f = _deep_formula()
        assert _compound_nodes(f) == DEPTH

    def test_normalize(self):
        f = _deep_formula()
        g = normalize(f)
        assert _compound_nodes(g) >= DEPTH
        assert all(isinstance(h.arg, PropVar) for h in _dag_nodes(g) if isinstance(h, Not))
        assert normalize(g) == g

    def test_at_indices_and_rename(self):
        f = _deep_formula()
        g = at_indices(f, {"x": 3, "y": 4})
        assert {VariableRef("x", 3), VariableRef("y", 4)} <= variables(g)
        assert all(v.index is not None for v in variables(g))
        h = rename(g, _shift(g))
        assert VariableRef("x", 4) in variables(h) and VariableRef("x", 3) not in variables(h)
        assert _compound_nodes(h) == DEPTH

    def test_drop_dead_pads(self):
        f = _deep_formula(negations=False)
        g = drop_dead_pads(f)
        assert not any(v.name.startswith("z") for v in variables(g))
        assert {VariableRef("x"), VariableRef("y")} <= variables(g)
        assert _compound_nodes(g) == DEPTH and g == _ref_drop_dead_pads(f)
        assert drop_dead_pads(f, [f]) is f

    def test_str_and_repr(self):
        # no sharing here: the text repeats a shared subformula once per
        # path to it, and the shared levels of `_deep_formula` would write
        # out to far more text than memory holds
        f = compare("<=", tvar("x"), const(0))
        want, want_smt, want_infix = str(f), _ref_smt_formula(f), _ref_formula_infix(f)
        for i in range(DEPTH):
            atom = compare("<=", tvar("y"), const(i))
            if i % 2:
                f = f_and(f_not(f), atom)
                want = f"(and (not {want}) {atom})"
                want_smt = f"(and (not {want_smt}) {_ref_smt_formula(atom)})"
                want_infix = f"(!({want_infix}) && {_ref_formula_infix(atom)})"
            else:
                f = f_or(f, atom)
                want = f"(or {want} {atom})"
                want_smt = f"(or {want_smt} {_ref_smt_formula(atom)})"
                want_infix = f"({want_infix} || {_ref_formula_infix(atom)})"
        assert _compound_nodes(f) == DEPTH
        assert str(f) == want and repr(f) == f"<{want}>"
        assert _smtlib(f) == want_smt
        assert formula_infix(f) == want_infix

    def test_cnf(self):
        f = _deep_formula()
        cnf = _Cnf()
        lit = cnf.literal(normalize(f))
        assert len(cnf._gate) >= DEPTH and cnf._gate[normalize(f)] == lit
        assert cnf.literal(normalize(f)) == lit

    def test_check_sat(self):
        # each level is a conjunction, so check_sat first asks whether the
        # formula is one cube, and must not descend through every level
        f = compare("<=", tvar("x"), const(0))
        for i in range(DEPTH):
            f = f_and(compare("<=", tvar("y", i), const(i)),
                      f_or(compare("==", tvar("z", i), const(i)), f))
        res = InternalSolver().check_sat(f)
        assert res.is_sat and res.model[VariableRef("z", DEPTH - 1)] == DEPTH - 1

    def test_cnf_walk_stops_at_encoded_gates(self, monkeypatch):
        f = _deep_formula()
        prep = normalize(f)
        cnf = _Cnf()
        cnf.literal(prep)
        visited = []
        postorder = smt._postorder

        def recording(root, children, key=id):
            for g in postorder(root, children, key):
                visited.append(g)
                yield g

        monkeypatch.setattr(smt, "_postorder", recording)
        atom = compare("<=", tvar("w"), const(0))
        top = (f_and if isinstance(prep, Or) else f_or)(prep, atom)
        cnf.literal(top)
        assert visited == [prep, atom, top]
