"""Control-flow automata and their summarization into large-block form.

Summarization rewrites the CFA so that every loop-free region collapses
into a single edge carrying a composite operation:

  rule 0:  the error location loses its outgoing edges (it becomes a sink);
  rule 1:  a location with exactly one incoming edge is fused into its
           predecessor, sequencing the operations;
  rule 2:  two parallel edges between the same pair of locations merge into
           one edge carrying the choice of the two operations.

Rule 0 runs once, then rules 1 and 2 run to fixpoint under a deterministic
schedule.  Entry, error, loop heads (several incoming edges) and sink
locations survive; everything else is folded away.  Since every rule 1/2
application removes at least one edge, at most |G|-1 of them can fire.

The schedule always works on the lowest location where a rule applies:
all of its rule-2 merges first, then rule 1 (`summarize`).  The order is
observable: `--trace` prints the rule applications, and the edge order
and operation shapes of the result fix the order in which the ART
explores edges, and so the stats.  `summarize` keeps this order in one
worklist pass over edges indexed by location, building each large block's
sequence once, so its cost grows linearly with the automaton.
"""

from __future__ import annotations

import heapq
import json
from functools import cached_property
from typing import Optional

from .record import FrozenRecord, Record
from .semantics import Choice, Operation, Seq, op_label, op_variables


class Edge(FrozenRecord):
    __slots__ = _fields = ("source", "op", "target")

    def __init__(self, source: int, op: Operation, target: int) -> None:
        self.source, self.op, self.target = source, op, target


class CFA(FrozenRecord):
    _fields = ("locations", "edges")  # no __slots__: the cached property needs a __dict__

    def __init__(self, locations: tuple[int, ...], edges: tuple[Edge, ...]) -> None:
        self.locations, self.edges = locations, edges
        locs = set(locations)
        if len(locs) != len(locations):
            raise ValueError("duplicate location ids")
        for e in edges:
            if e.source not in locs or e.target not in locs:
                raise ValueError(f"edge {e} mentions unknown location")

    @cached_property
    def _edges_from(self) -> dict[int, tuple[Edge, ...]]:
        """Each source location's outgoing edges in edge order, indexed
        once per automaton."""
        out: dict[int, list[Edge]] = {}
        for e in self.edges:
            out.setdefault(e.source, []).append(e)
        return {loc: tuple(es) for loc, es in out.items()}

    def outgoing(self, loc: int) -> tuple[Edge, ...]:
        return self._edges_from.get(loc, ())

    def incoming(self, loc: int) -> list[Edge]:
        return [e for e in self.edges if e.target == loc]


class Program(FrozenRecord):
    _fields = ("cfa", "entry", "error")  # no __slots__, as for CFA

    def __init__(self, cfa: CFA, entry: int, error: int) -> None:
        self.cfa, self.entry, self.error = cfa, entry, error
        locs = set(cfa.locations)
        if entry not in locs or error not in locs:
            raise ValueError("entry/error must be CFA locations")
        if any(e.target == entry for e in cfa.edges):
            raise ValueError("entry location must have no incoming edges")

    @cached_property
    def variable_names(self) -> tuple[str, ...]:
        """The sorted names of the variables the edge operations mention,
        computed once per program."""
        names: set[str] = set()
        for e in self.cfa.edges:
            names |= op_variables(e.op)
        return tuple(sorted(names))


def program_variables(p: Program) -> list[str]:
    return list(p.variable_names)


# ---------------------------------------------------------------------------
# rewriting rules
# ---------------------------------------------------------------------------

def apply_rule0(p: Program) -> Program:
    """Make the error location a sink: drop all of its outgoing edges."""
    kept = tuple(e for e in p.cfa.edges if e.source != p.error)
    if len(kept) == len(p.cfa.edges):
        return p
    return Program(CFA(p.cfa.locations, kept), p.entry, p.error)


class _Rewriter:
    """A program under rules 1 and 2, its edges indexed by location.

    Edges live under position keys in `edges`, whose insertion order is
    the edge order of the program: a merged edge keeps the earlier edge's
    key and fused edges get fresh keys, so they come last, in the order of
    the fused location's outgoing edges.  `out` and `inc` map each location
    to the keys of its outgoing and incoming edges, in the same order.

    Fused operations are kept as pairs (first, second) until the end or
    until a choice takes them in, and only then built into one Seq of
    their leaves: splicing a Seq at every fusion would copy its elements
    each time, quadratic along a straight line.
    """

    def __init__(self, p: Program) -> None:
        self.p = p
        self.edges: dict[int, tuple] = {}  # key -> (source, op or pair, target)
        self.out: dict[int, dict[int, None]] = {l: {} for l in p.cfa.locations}
        self.inc: dict[int, dict[int, None]] = {l: {} for l in p.cfa.locations}
        self.next_key = 0
        for e in p.cfa.edges:
            self._add(e.source, e.op, e.target)

    def _add(self, source: int, op, target: int) -> None:
        key = self.next_key
        self.next_key += 1
        self.edges[key] = (source, op, target)
        self.out[source][key] = None
        self.inc[target][key] = None

    def _remove(self, key: int) -> tuple:
        edge = self.edges.pop(key)
        del self.out[edge[0]][key], self.inc[edge[2]][key]
        return edge

    def merge(self, first: int, second: int) -> None:
        """Rule 2 on two parallel edges: first becomes their choice."""
        source, op1, target = self.edges[first]
        op2 = self._remove(second)[1]
        self.edges[first] = (source, Choice(_build(op1), _build(op2)), target)

    def merge_all(self, loc: int) -> list[int]:
        """Rule 2 at loc until no parallel edges leave it; the target of
        each merge, in order.

        Each merge takes the first outgoing edge whose target an earlier
        edge shares, and that earlier edge: one pass over the edges finds
        them all, as the merged edge keeps the earlier one's place.
        """
        first_to: dict[int, int] = {}
        merged = []
        for key in list(self.out[loc]):
            target = self.edges[key][2]
            if target in first_to:
                self.merge(first_to[target], key)
                merged.append(target)
            else:
                first_to[target] = key
        return merged

    def fuse(self, l2: int) -> Optional[int]:
        """Rule 1 at l2: its predecessor, or None when blocked."""
        p = self.p
        if l2 in (p.entry, p.error) or len(self.inc[l2]) != 1 or not self.out[l2]:
            return None
        (key,) = self.inc[l2]
        l1, op1, _ = self.edges[key]
        if l1 == l2:
            return None
        self._remove(key)
        for key in list(self.out[l2]):
            _, op, target = self._remove(key)
            self._add(l1, (op1, op), target)
        del self.out[l2], self.inc[l2]
        return l1

    def program(self) -> Program:
        locations = tuple(l for l in self.p.cfa.locations if l in self.out)
        edges = tuple(Edge(s, _build(op), t) for s, op, t in self.edges.values())
        return Program(CFA(locations, edges), self.p.entry, self.p.error)


def _build(op) -> Operation:
    """The operation of a fused pair tree: its leaves in sequence."""
    if isinstance(op, Operation):
        return op
    leaves = []
    stack = [op]
    while stack:
        o = stack.pop()
        if isinstance(o, Operation):
            leaves.append(o)
        else:
            stack += (o[1], o[0])
    return Seq(*leaves)


def try_rule1(p: Program, l2: int) -> Optional[Program]:
    """Fuse l2 into its unique predecessor; None when the rule does not apply.

    Blocked when l2 is the entry or error location, has a self-loop or more
    than one incoming edge, or has no outgoing edges (sinks are kept so the
    summarized automaton retains its exit locations).
    """
    if l2 not in p.cfa.locations:
        raise KeyError(f"unknown location {l2}")
    rw = _Rewriter(p)
    return None if rw.fuse(l2) is None else rw.program()


def try_rule2(p: Program, l1: int, l2: int) -> Optional[Program]:
    """Merge the two earliest parallel edges l1 -> l2 into a single choice.

    The merged edge takes the earlier edge's position, so repeated merges
    nest left: three parallel operations a, b, c fold to (a || b) || c.
    """
    if l1 not in p.cfa.locations or l2 not in p.cfa.locations:
        raise KeyError(f"unknown location {l1 if l1 not in p.cfa.locations else l2}")
    rw = _Rewriter(p)
    parallel = [key for key in rw.out[l1] if rw.edges[key][2] == l2]
    if len(parallel) < 2:
        return None
    rw.merge(parallel[0], parallel[1])
    return rw.program()


class TraceEntry(Record):
    __slots__ = _fields = ("rule", "detail")

    def __init__(self, rule: int, detail: dict) -> None:
        self.rule, self.detail = rule, detail

    def to_json(self) -> str:
        return json.dumps({"rule": self.rule, **self.detail}, sort_keys=True)


def rule_count(trace: list[TraceEntry]) -> int:
    return sum(1 for t in trace if t.rule in (1, 2))


def summarize(p: Program) -> tuple[Program, list[TraceEntry]]:
    """Apply rule 0 once, then rules 1 and 2 to fixpoint.

    Schedule: take the lowest location where rule 1 or rule 2 applies;
    there, first exhaust rule 2 over its outgoing edges, then try rule 1
    with the location as the fused target; repeat.  This is the schedule
    of scanning locations in ascending order and restarting the scan after
    every change, and it fixes the trace (`--trace` prints it), the edge
    order of the result and so the order in which the ART explores edges.

    One worklist pass does it: a min-heap holds every location where a
    rule may apply, so the lowest queued location where one does is the
    lowest such location.  A location where none applies is dropped until
    a rewrite makes one applicable there, and only two rewrites can:
      - a merge lowers its target's in-degree (rule 1 may now apply);
      - a fusion gives the predecessor new outgoing edges (rule 2 may).
    A fusion leaves every other in-degree as it was; an incoming edge of a
    successor just starts at the predecessor, which can only block rule 1
    there (a self-loop).
    """
    trace: list[TraceEntry] = []
    q = apply_rule0(p)
    removed0 = len(p.cfa.edges) - len(q.cfa.edges)
    if removed0:
        trace.append(TraceEntry(0, {"removed_edges": removed0}))

    rw = _Rewriter(q)
    heap = sorted(q.cfa.locations)  # may hold a location twice: harmless
    while heap:
        loc = heapq.heappop(heap)
        if loc not in rw.out:
            continue
        for target in rw.merge_all(loc):
            trace.append(TraceEntry(2, {"source": loc, "target": target}))
            heapq.heappush(heap, target)
        via = rw.fuse(loc)
        if via is not None:
            trace.append(TraceEntry(1, {"removed_loc": loc, "via": via}))
            heapq.heappush(heap, via)
    return rw.program(), trace


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(p: Program) -> str:
    """GraphViz rendering; assume(c) edges are labeled [c]."""
    lines = ["digraph cfa {", "  node [shape=circle];"]
    for loc in sorted(p.cfa.locations):
        attrs = []
        if loc == p.entry:
            attrs.append("shape=doublecircle")
        if loc == p.error:
            attrs.append('shape=box label="ERR"')
        lines.append(f"  {loc}" + (f" [{' '.join(attrs)}]" if attrs else "") + ";")
    for e in p.cfa.edges:
        label = _dot_escape(op_label(e.op, seq_sep="\n", limit=400)).replace("\n", "\\n")
        lines.append(f'  {e.source} -> {e.target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def trace_to_json_lines(trace: list[TraceEntry]) -> str:
    return "\n".join(t.to_json() for t in trace)
