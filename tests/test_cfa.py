import json

import pytest

from lbemc.cfa import (
    CFA,
    Edge,
    Program,
    apply_rule0,
    program_variables,
    rule_count,
    summarize,
    to_dot,
    trace_to_json_lines,
    try_rule1,
    try_rule2,
)
from lbemc.formula import TRUE, compare, f_not
from lbemc.frontend import parse_program
from lbemc.oracle import DomainBound, explicit_reachable
from lbemc.semantics import Assign, Assume, Choice, Havoc, Seq, seq

from conftest import const, tvar

A = Assume(TRUE)


def prog(locations, edges, entry=0, error=1):
    return Program(CFA(tuple(locations), tuple(edges)), entry, error)


FIG2_SOURCE = """
int i; int x; int z;
while (i > 0) {
  if (x == 1) {
    z = 0;
  } else {
    z = 1;
  }
  i = i - 1;
}
"""


class TestRule0:
    def test_drops_error_outgoing(self):
        p = prog([0, 1, 2], [Edge(1, A, 2), Edge(2, Assign("x", const(0)), 1)])
        q = apply_rule0(p)
        assert q.cfa.edges == (Edge(2, Assign("x", const(0)), 1),)

    def test_noop_when_error_is_sink(self):
        p = prog([0, 1, 2], [Edge(0, A, 2), Edge(2, A, 1)])
        assert apply_rule0(p) is p

    def test_loop_program_unchanged(self):
        p = parse_program(FIG2_SOURCE)
        assert apply_rule0(p).cfa.edges == p.cfa.edges


class TestRule1:
    def test_chain_fuses(self):
        a, b = Assign("x", const(1)), Assign("y", const(2))
        p = prog([0, 1, 2, 3], [Edge(0, a, 2), Edge(2, b, 3)])
        q = try_rule1(p, 2)
        assert q is not None
        assert q.cfa.edges == (Edge(0, Seq(a, b), 3),)
        assert 2 not in q.cfa.locations

    def test_back_edge_becomes_self_loop(self):
        a, b, c = Assign("x", const(1)), Assign("x", const(2)), Assign("x", const(3))
        entry_op = Havoc("x")
        p = prog([0, 1, 2, 3, 4],
                 [Edge(0, entry_op, 2), Edge(2, a, 3), Edge(3, b, 2), Edge(3, c, 4)])
        q = try_rule1(p, 3)
        assert q is not None
        assert set(q.cfa.edges) == {
            Edge(0, entry_op, 2), Edge(2, Seq(a, b), 2), Edge(2, Seq(a, c), 4)
        }

    def test_blocked_cases(self):
        a = Assign("x", const(1))
        two_in = prog([0, 1, 2, 3],
                      [Edge(0, a, 2), Edge(3, a, 2), Edge(2, a, 3)])
        assert try_rule1(two_in, 2) is None
        sink = prog([0, 1, 2], [Edge(0, a, 2)])
        assert try_rule1(sink, 2) is None  # sinks survive
        assert try_rule1(sink, 0) is None  # entry survives
        assert try_rule1(sink, 1) is None  # error survives
        with pytest.raises(KeyError):
            try_rule1(sink, 99)


class TestRule2:
    def test_smallest_instance(self):
        c = compare(">", tvar("x"), const(0))
        e1, e2 = Edge(0, Assume(c), 2), Edge(0, Assume(f_not(c)), 2)
        p = prog([0, 1, 2], [e1, e2])
        q = try_rule2(p, 0, 2)
        assert q is not None
        assert q.cfa.edges == (Edge(0, Choice(e1.op, e2.op), 2),)

    def test_three_parallel_merge_in_age_order(self):
        a, b, c = Assign("x", const(1)), Assign("x", const(2)), Assign("x", const(3))
        p = prog([0, 1, 2], [Edge(0, a, 2), Edge(0, b, 2), Edge(0, c, 2)])
        q = try_rule2(p, 0, 2)
        assert set(q.cfa.edges) == {Edge(0, Choice(a, b), 2), Edge(0, c, 2)}
        q2 = try_rule2(q, 0, 2)
        assert q2.cfa.edges == (Edge(0, Choice(Choice(a, b), c), 2),)

    def test_no_parallel_pair(self):
        p = prog([0, 1, 2], [Edge(0, A, 2)])
        assert try_rule2(p, 0, 2) is None


class TestSummarize:
    def test_loop_program_shape(self):
        p = parse_program(FIG2_SOURCE)
        q, trace = summarize(p)
        # entry, error, exit, and the loop head survive
        assert len(q.cfa.locations) == 4
        assert q.entry in q.cfa.locations and q.error in q.cfa.locations
        self_loops = [e for e in q.cfa.edges if e.source == e.target]
        assert len(self_loops) == 1
        head = self_loops[0].source
        ci = compare(">", tvar("i"), const(0))
        cx = compare("==", tvar("x"), const(1))
        # the loop body folds into the single self-loop operation; rule order
        # may distribute the guard over the branch choice, so the check is
        # semantic (the summarized shape is not asserted to be unique)
        reference = seq(
            Assume(ci),
            seq(
                Choice(
                    seq(Assume(cx), Assign("z", const(0))),
                    seq(Assume(f_not(cx)), Assign("z", const(1))),
                ),
                Assign("i", tvar("i") - 1),
            ),
        )
        from lbemc.formula import TRUE as T
        from lbemc.oracle import equivalent_modulo_indexed
        from lbemc.semantics import sp
        from lbemc.smt import InternalSolver

        assert equivalent_modulo_indexed(
            sp(self_loops[0].op, T), sp(reference, T), InternalSolver()
        )
        exits = [e for e in q.cfa.edges
                 if e.source == head and e.target not in (head, q.error)]
        assert len(exits) == 1
        assert exits[0].op == Assume(f_not(ci))
        assert rule_count(trace) <= len(apply_rule0(p).cfa.edges) - 1

    def test_fixpoint_has_empty_trace(self):
        c = compare(">", tvar("i"), const(0))
        p = prog(
            [0, 1, 2, 3],
            [Edge(0, Havoc("i"), 2),
             Edge(2, Seq(Assume(c), Assign("i", tvar("i") - 1)), 2),
             Edge(2, Assume(f_not(c)), 3)],
        )
        q, trace = summarize(p)
        assert q.cfa.edges == p.cfa.edges
        assert trace == []

    def test_preserves_reachability_on_branchy_program(self):
        src = """
        int a; int b;
        a = nondet();
        if (a > 0) { b = 1; } else { b = 2; }
        if (b == 2) { if (a > 0) { error(); } }
        """
        p = parse_program(src)
        q, _ = summarize(p)
        bound = DomainBound(default=(-1, 2), budget=10_000)
        assert explicit_reachable(p, bound) == explicit_reachable(q, bound)
        assert explicit_reachable(p, bound) == "not-reachable"


class TestDot:
    def test_minimal(self):
        p = prog([0, 1, 2], [Edge(0, Assume(TRUE), 2)])
        dot = to_dot(p)
        assert dot.startswith("digraph cfa {")
        assert dot.count("->") == 1
        assert '[label="[true]"]' in dot

    def test_loop_program_node_count(self):
        p = parse_program(FIG2_SOURCE)
        dot = to_dot(p)
        # one node line per location (entry skip and error included)
        assert len(p.cfa.locations) == 8
        assert sum(1 for line in dot.splitlines() if line.strip().endswith(";")
                   and "->" not in line and "node [" not in line) == 8

    def test_deterministic(self):
        p = parse_program(FIG2_SOURCE)
        assert to_dot(p) == to_dot(parse_program(FIG2_SOURCE))

    def test_summarized_locks_node_count(self):
        from lbemc.cli import gen_test_locks

        p = parse_program(gen_test_locks(3))
        q, _ = summarize(p)
        dot = to_dot(q)
        node_lines = [line for line in dot.splitlines()
                      if line.strip().endswith(";") and "->" not in line
                      and "node [" not in line]
        assert len(node_lines) == 4  # entry + loop head + exit + error


def test_trace_serializes_as_json_lines():
    p = parse_program(FIG2_SOURCE)
    _, trace = summarize(p)
    lines = trace_to_json_lines(trace).splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        assert record["rule"] in (0, 1, 2)


def test_program_invariants_enforced():
    with pytest.raises(ValueError):
        prog([0, 1], [Edge(1, A, 0)])  # edge into the entry
    with pytest.raises(ValueError):
        Program(CFA((0,), ()), 0, 1)  # error not a location
    with pytest.raises(ValueError):
        CFA((0, 0), ())  # duplicate ids
    with pytest.raises(ValueError):
        CFA((0,), (Edge(0, A, 5),))  # unknown target


def test_program_variables(monkeypatch):
    import lbemc.cfa

    walked = []
    op_variables = lbemc.cfa.op_variables
    monkeypatch.setattr(lbemc.cfa, "op_variables",
                        lambda op: walked.append(op) or op_variables(op))
    p = parse_program(FIG2_SOURCE)
    names = program_variables(p)
    assert names == ["i", "x", "z"]
    walks = len(walked)
    names.append("y")  # each call returns a list of its own
    assert program_variables(p) == ["i", "x", "z"]
    assert len(walked) == walks  # computed once per program


# ---------------------------------------------------------------------------
# reference: the restart-the-scan summarization the worklist must reproduce
# ---------------------------------------------------------------------------

def _ref_seq(first, second):
    if isinstance(first, Seq):
        return _ref_seq(first.first, _ref_seq(first.second, second))
    return Seq(first, second)


def _ref_rule1(p, l2):
    if l2 in (p.entry, p.error):
        return None
    incoming = p.cfa.incoming(l2)
    if len(incoming) != 1 or incoming[0].source == l2:
        return None
    outgoing = p.cfa.outgoing(l2)
    if not outgoing:
        return None
    l1, op1 = incoming[0].source, incoming[0].op
    removed = {incoming[0]} | set(outgoing)
    new_edges = [e for e in p.cfa.edges if e not in removed]
    for e in outgoing:
        new_edges.append(Edge(l1, _ref_seq(op1, e.op), e.target))
    locations = tuple(l for l in p.cfa.locations if l != l2)
    return Program(CFA(locations, tuple(new_edges)), p.entry, p.error)


def _ref_rule2(p, l1, l2):
    parallel = [e for e in p.cfa.edges if e.source == l1 and e.target == l2]
    if len(parallel) < 2:
        return None
    first, second = parallel[0], parallel[1]
    merged = Edge(l1, Choice(first.op, second.op), l2)
    new_edges = [merged if e is first else e for e in p.cfa.edges if e is not second]
    return Program(CFA(p.cfa.locations, tuple(new_edges)), p.entry, p.error)


def _ref_summarize(p):
    """Rule 0 once; then scan locations in ascending order, at each one
    exhaust rule 2, then try rule 1; restart the scan after any change."""
    from lbemc.cfa import TraceEntry

    trace = []
    q = apply_rule0(p)
    removed0 = len(p.cfa.edges) - len(q.cfa.edges)
    if removed0:
        trace.append(TraceEntry(0, {"removed_edges": removed0}))
    changed = True
    while changed:
        changed = False
        for loc in sorted(q.cfa.locations):
            while True:
                targets = {}
                merged = None
                for e in q.cfa.outgoing(loc):
                    if e.target in targets:
                        merged = _ref_rule2(q, loc, e.target)
                        trace.append(TraceEntry(2, {"source": loc, "target": e.target}))
                        q = merged
                        break
                    targets[e.target] = e
                if merged is None:
                    break
                changed = True
            fused = _ref_rule1(q, loc)
            if fused is not None:
                via = q.cfa.incoming(loc)[0].source
                trace.append(TraceEntry(1, {"removed_loc": loc, "via": via}))
                q = fused
                changed = True
            if changed:
                break
    return q, trace


def _random_cfa(seed):
    """Seeded CFA with parallel edges, self-loops, sinks and locations with
    several exits; entry 0 has no incoming edge, error is 1."""
    import random

    from lbemc.oracle import random_operation

    rng = random.Random(seed)
    names = ["a", "b", "c"]
    n = rng.randint(3, 12)
    locs = list(range(n))
    edges = []

    def op():
        return random_operation(rng, names, depth=rng.choice([0, 0, 1, 2]))

    for loc in range(2, n):  # a spine from the entry through every location
        edges.append(Edge(rng.randrange(0, loc), op(), loc))
    for _ in range(rng.randint(0, 2 * n)):
        kind = rng.random()
        src = rng.randrange(0, n)
        if kind < 0.15:
            dst = src if src != 0 else 1  # self-loop
        elif kind < 0.35 and edges:  # parallel to an earlier edge
            e = rng.choice(edges)
            src, dst = e.source, e.target
        else:
            dst = rng.randrange(1, n)
        if dst == 0:
            continue
        edges.append(Edge(src, op(), dst))
    rng.shuffle(edges)
    return prog(locs, edges)


def _summarize_inputs():
    from lbemc.cli import gen_test_locks
    from lbemc.oracle import random_program

    for n in range(1, 41):
        yield f"locks{n}", parse_program(gen_test_locks(n))
        yield f"locks{n}bug", parse_program(gen_test_locks(n, bug=True))
    for k in range(200):
        yield f"random{k}", parse_program(random_program(k))
    yield "fig2", parse_program(FIG2_SOURCE)
    for seed in range(300):
        yield f"cfa{seed}", _random_cfa(seed)


def test_random_cfas_exercise_every_shape():
    shapes = {"parallel": 0, "self_loop": 0, "sink": 0, "multi_exit": 0}
    for seed in range(300):
        p = _random_cfa(seed)
        pairs = [(e.source, e.target) for e in p.cfa.edges]
        shapes["parallel"] += len(pairs) != len(set(pairs))
        shapes["self_loop"] += any(s == t for s, t in pairs)
        shapes["sink"] += any(not p.cfa.outgoing(loc) for loc in p.cfa.locations
                              if loc != p.error)
        shapes["multi_exit"] += any(len({t for s, t in pairs if s == loc}) > 1
                                    for loc in p.cfa.locations)
    assert all(count >= 30 for count in shapes.values()), shapes


def test_outgoing_is_indexed_once_in_edge_order():
    for seed in range(50):
        cfa = _random_cfa(seed).cfa
        for loc in cfa.locations:
            assert list(cfa.outgoing(loc)) == [e for e in cfa.edges if e.source == loc]
            assert cfa.outgoing(loc) is cfa.outgoing(loc)


def test_summarize_matches_restart_scan_reference():
    for name, p in _summarize_inputs():
        want, want_trace = _ref_summarize(p)
        got, got_trace = summarize(p)
        assert trace_to_json_lines(got_trace) == trace_to_json_lines(want_trace), name
        assert got.cfa.locations == want.cfa.locations, name
        assert [(e.source, e.target) for e in got.cfa.edges] == \
            [(e.source, e.target) for e in want.cfa.edges], name
        assert all(a.op == b.op for a, b in zip(got.cfa.edges, want.cfa.edges)), name
        assert to_dot(got) == to_dot(want), name


def test_straight_line_builds_one_seq_per_statement(monkeypatch):
    k = 300
    p = parse_program("int x;\n" + "x = x + 1;\n" * k)
    built = []
    init = Seq.__init__

    def counting_init(self, first, second):
        built.append(self)
        init(self, first, second)

    monkeypatch.setattr(Seq, "__init__", counting_init)
    q, trace = summarize(p)
    assert len(built) <= 2 * k
    (edge,) = q.cfa.edges
    assert rule_count(trace) == k - 1
    assert edge.op == _ref_summarize(p)[0].cfa.edges[0].op
