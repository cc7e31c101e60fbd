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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .semantics import Choice, Operation, op_label, op_variables, seq


@dataclass(frozen=True)
class Edge:
    source: int
    op: Operation
    target: int


@dataclass(frozen=True)
class CFA:
    locations: tuple[int, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        locs = set(self.locations)
        if len(locs) != len(self.locations):
            raise ValueError("duplicate location ids")
        for e in self.edges:
            if e.source not in locs or e.target not in locs:
                raise ValueError(f"edge {e} mentions unknown location")

    def outgoing(self, loc: int) -> list[Edge]:
        return [e for e in self.edges if e.source == loc]

    def incoming(self, loc: int) -> list[Edge]:
        return [e for e in self.edges if e.target == loc]


@dataclass(frozen=True)
class Program:
    cfa: CFA
    entry: int
    error: int

    def __post_init__(self) -> None:
        locs = set(self.cfa.locations)
        if self.entry not in locs or self.error not in locs:
            raise ValueError("entry/error must be CFA locations")
        if any(e.target == self.entry for e in self.cfa.edges):
            raise ValueError("entry location must have no incoming edges")


def program_variables(p: Program) -> list[str]:
    names: set[str] = set()
    for e in p.cfa.edges:
        names |= op_variables(e.op)
    return sorted(names)


# ---------------------------------------------------------------------------
# rewriting rules
# ---------------------------------------------------------------------------

def apply_rule0(p: Program) -> Program:
    """Make the error location a sink: drop all of its outgoing edges."""
    kept = tuple(e for e in p.cfa.edges if e.source != p.error)
    if len(kept) == len(p.cfa.edges):
        return p
    return Program(CFA(p.cfa.locations, kept), p.entry, p.error)


def try_rule1(p: Program, l2: int) -> Optional[Program]:
    """Fuse l2 into its unique predecessor; None when the rule does not apply.

    Blocked when l2 is the entry or error location, has a self-loop or more
    than one incoming edge, or has no outgoing edges (sinks are kept so the
    summarized automaton retains its exit locations).
    """
    if l2 not in p.cfa.locations:
        raise KeyError(f"unknown location {l2}")
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
        new_edges.append(Edge(l1, seq(op1, e.op), e.target))
    locations = tuple(l for l in p.cfa.locations if l != l2)
    return Program(CFA(locations, tuple(new_edges)), p.entry, p.error)


def try_rule2(p: Program, l1: int, l2: int) -> Optional[Program]:
    """Merge the two earliest parallel edges l1 -> l2 into a single choice.

    The merged edge takes the earlier edge's position, so repeated merges
    nest left: three parallel operations a, b, c fold to (a || b) || c.
    """
    if l1 not in p.cfa.locations or l2 not in p.cfa.locations:
        raise KeyError(f"unknown location {l1 if l1 not in p.cfa.locations else l2}")
    parallel = [e for e in p.cfa.edges if e.source == l1 and e.target == l2]
    if len(parallel) < 2:
        return None
    first, second = parallel[0], parallel[1]
    merged = Edge(l1, Choice(first.op, second.op), l2)
    new_edges = [
        merged if e is first else e
        for e in p.cfa.edges
        if e is not second
    ]
    return Program(CFA(p.cfa.locations, tuple(new_edges)), p.entry, p.error)


@dataclass(frozen=True)
class TraceEntry:
    rule: int
    detail: dict

    def to_json(self) -> str:
        return json.dumps({"rule": self.rule, **self.detail}, sort_keys=True)


def rule_count(trace: list[TraceEntry]) -> int:
    return sum(1 for t in trace if t.rule in (1, 2))


def summarize(p: Program) -> tuple[Program, list[TraceEntry]]:
    """Apply rule 0 once, then rules 1 and 2 to fixpoint.

    Schedule: scan locations in ascending id order; at each location first
    exhaust rule 2 over its outgoing edge pairs, then attempt rule 1 with
    the location as the fused target; restart the scan after any change.
    """
    trace: list[TraceEntry] = []
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
                        merged = try_rule2(q, loc, e.target)
                        if merged is not None:
                            trace.append(
                                TraceEntry(2, {"source": loc, "target": e.target})
                            )
                            q = merged
                        break
                    targets[e.target] = e
                if merged is None:
                    break
                changed = True
            fused = try_rule1(q, loc) if loc in q.cfa.locations else None
            if fused is not None:
                via = q.cfa.incoming(loc)[0].source
                trace.append(TraceEntry(1, {"removed_loc": loc, "via": via}))
                q = fused
                changed = True
            if changed:
                break
    return q, trace


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
