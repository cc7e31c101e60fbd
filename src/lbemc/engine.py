"""Lazy reachability-tree construction with CEGAR refinement.

The tree is explored depth first; a frontier node is first checked for
coverage (an older node at the same location whose abstract state is
entailed by the new node's) and otherwise expanded along every CFA edge.
Successors whose abstraction is False are pruned and never become nodes.
Construction stops at the first error node; the corresponding path is then
checked for feasibility on its SSA encoding, without the copies x@j = x@i
nothing reads (choice pads among them), as the abstract posts drop them.
Infeasible paths refine the per-location precisions with atoms harvested
from the path constraints, and the tree is rebuilt from scratch.  A
feasible path with an integral model is replayed concretely
(`replay_path`): the run takes havoc values and choice resolutions from
the model, joining choices with the path encoding's `semantics._merge`, so
it reads the model at the indices the path formula gave it.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .abstraction import (
    AbstractFormula,
    Abstractor,
    BOOLEAN,
    CARTESIAN,
    Precision,
    ProgramPrecision,
)
from .cfa import Edge, Program, _dot_escape, program_variables
from .formula import (
    Atom, Formula, VariableRef, _dag_nodes, evaluate, f_and, formula_infix,
    strip_indices_atom,
)
from .record import Record
from .semantics import (
    Assign,
    Assume,
    Choice,
    Havoc,
    Operation,
    Seq,
    SsaEncoder,
    _merge,
    drop_dead_pads,
    encode_edge,
    op_label,
    seq_elements,
)
from .smt import make_solver


class ArtNode(Record):
    __slots__ = _fields = ("id", "location", "abstract", "precision", "parent", "covered_by")

    def __init__(self, id: int, location: int, abstract: AbstractFormula,
                 precision: Precision, parent: tuple[int, Edge] | None = None,
                 covered_by: int | None = None) -> None:
        self.id, self.location, self.abstract = id, location, abstract
        self.precision, self.parent, self.covered_by = precision, parent, covered_by


class Art:
    """Tree of abstract states with coverage links and a DFS waitlist."""

    def __init__(self) -> None:
        self.nodes: list[ArtNode] = []
        self.by_location: dict[int, list[ArtNode]] = {}  # in id order
        self.waitlist: list[int] = []

    def add(self, location: int, abstract: AbstractFormula, precision: Precision,
            parent: tuple[int, Edge] | None = None) -> ArtNode:
        node = ArtNode(len(self.nodes), location, abstract, precision, parent)
        self.nodes.append(node)
        self.by_location.setdefault(location, []).append(node)
        return node

    def __len__(self) -> int:
        return len(self.nodes)

    def path_to(self, node_id: int) -> list[tuple[Edge, int]]:
        """Edge/node pairs from the root to the given node."""
        out: list[tuple[Edge, int]] = []
        node = self.nodes[node_id]
        while node.parent is not None:
            parent_id, edge = node.parent
            out.append((edge, node.id))
            node = self.nodes[parent_id]
        out.reverse()
        return out


def is_covered(node: ArtNode, art: Art) -> int | None:
    """Lowest-id non-covered node at the same location whose abstract state
    is entailed by node's; None when no such coverer exists."""
    for cand in art.by_location[node.location]:
        if cand.id == node.id or cand.covered_by is not None:
            continue
        if node.abstract.entails(cand.abstract):
            return cand.id
    return None


def build_art(p: Program, precisions: ProgramPrecision, mode: str,
              abstractor: Abstractor):
    """Returns ("complete", art) or ("error", art, path-to-error-node)."""
    art = Art()
    root = art.add(p.entry, abstractor.true_state(), precisions.at(p.entry))
    if p.entry == p.error:
        return "error", art, art.path_to(root.id)
    art.waitlist.append(root.id)
    while art.waitlist:
        node = art.nodes[art.waitlist.pop()]
        coverer = is_covered(node, art)
        if coverer is not None:
            node.covered_by = coverer
            continue
        for edge in p.cfa.outgoing(node.location):
            succ_pi = precisions.at(edge.target)
            succ = abstractor.abstract_post(node.abstract, edge.op, succ_pi, mode)
            if succ.is_false:
                continue
            child = art.add(edge.target, succ, succ_pi, parent=(node.id, edge))
            if edge.target == p.error:
                return "error", art, art.path_to(child.id)
            art.waitlist.append(child.id)
    return "complete", art


# ---------------------------------------------------------------------------
# counterexample analysis
# ---------------------------------------------------------------------------

def _encode_path(path: list[tuple[Edge, int]], variable_names: list[str]):
    """Per-edge SSA constraints of the path and the index map at each
    position (maps[i] holds after the first i edges).

    The path is encoded on an encoder of its own: it starts at index 0 for
    every variable where the posts start at `{}`, so it would find nothing
    of theirs in the `Abstractor`'s memo.
    """
    encoder = SsaEncoder()
    ssa = {n: 0 for n in variable_names}
    maps = [dict(ssa)]
    per_edge = []
    for edge, _ in path:
        f, ssa = encode_edge(edge.op, ssa, encoder=encoder)
        per_edge.append(f)
        maps.append(dict(ssa))
    return per_edge, maps


def path_formula(path: list[tuple[Edge, int]], variable_names: list[str],
                 *, _encoded=None):
    """The formula `check_path` decides and the per-position index maps.

    The formula is the conjunction of the path's SSA constraints without
    the copies nothing reads (`drop_dead_pads`), as the abstract posts drop
    them.  Each of its models extends to a model of the path with every
    copy that agrees with it on every variable it keeps, so the two are
    satisfiable together.  `_encoded` is as for `check_path`.
    """
    per_edge, maps = _encoded or _encode_path(path, variable_names)
    return drop_dead_pads(f_and(*per_edge)), maps


def check_path(path: list[tuple[Edge, int]], variable_names: list[str], solver,
               *, _encoded=None):
    """("feasible", model) when the path formula (`path_formula`) is
    satisfiable, else ("infeasible", None).

    The model has no value for the variables the dropped copies alone
    defined.  `_encoded` is private to `verify`, which passes the same
    path's `_encode_path(path, variable_names)` result to this and to
    `extract_predicates`, so the path is encoded once while both calls stay
    visible under their public names.
    """
    formula, _ = path_formula(path, variable_names, _encoded=_encoded)
    res = solver.check_sat(formula)
    if res.is_sat:
        return "feasible", res.model
    return "infeasible", None


def extract_predicates(path: list[tuple[Edge, int]], variable_names: list[str],
                       solver=None, *, _encoded=None) -> dict[int, list[Formula]]:
    """Atoms harvested from the path constraints, per location.

    At every path position the constraints contributed so far are scanned;
    an atom whose variables are all at their current SSA index at that
    position is stripped of indices and attached to the position's
    location.  Intended for infeasible paths; passing a solver enforces
    that precondition (ValueError on a feasible path).  `_encoded` is as
    for `check_path`.  The harvest reads the per-edge constraints with
    every pad, but a pad x@j = x@i reads an older index of its variable,
    so it is never live and gives no predicate.

    SSA indices never decrease along the path, so an atom that is not live
    at one position is not live at any later one: the scan keeps the live
    atoms of the edges seen so far, in edge order, and drops the dead ones.
    """
    encoded = _encoded or _encode_path(path, variable_names)
    if (solver is not None
            and check_path(path, variable_names, solver, _encoded=encoded)[0] == "feasible"):
        raise ValueError("refinement requires an infeasible path")
    per_edge, maps = encoded
    harvested: dict[int, list[Formula]] = {}
    live: list[tuple[Atom, Atom]] = []  # (indexed atom, stripped atom)
    for (edge, _), f, current in zip(path, per_edge, maps[1:]):
        live = [(atom, stripped) for atom, stripped in live if _is_live(atom, current)]
        for g in _dag_nodes(f):
            if isinstance(g, Atom) and _is_live(g, current):
                stripped = strip_indices_atom(g)
                if isinstance(stripped, Atom):
                    live.append((g, stripped))
        bucket = harvested.setdefault(edge.target, [])
        for _, stripped in live:
            if stripped not in bucket:
                bucket.append(stripped)
    return {loc: preds for loc, preds in harvested.items() if preds}


def _is_live(atom: Atom, ssa: dict[str, int]) -> bool:
    """Every variable of atom is at its index in ssa."""
    return all((v.index or 0) == ssa.get(v.name, 0) for v in atom.term.variables())


# ---------------------------------------------------------------------------
# model-guided replay of counterexample paths
# ---------------------------------------------------------------------------

def replay_path(p: Program, edges: list[Edge], model) -> bool:
    """Execute the path concretely, taking havoc values and choice
    resolutions from the model.

    Returns True when the run reaches the end of the path (whose last edge
    targets the error location).  It does whenever the model satisfies the
    path's SSA formula with or without its dead copies (`path_formula`
    drops them); a havoc or initial value the model lacks is read as 0,
    and a joined index it lacks leaves the choice free (see `_run`).  A
    True answer means the run is a concrete execution.
    """
    if edges and edges[-1].target != p.error:
        return False
    names = program_variables(p)
    values = {n: model.get(VariableRef(n, 0), Fraction(0)) for n in names}
    ssa = {n: 0 for n in names}
    for edge in edges:
        values, ssa = _run(edge.op, values, ssa, model, {})
        if values is None:
            return False
    return True


def _run(op: Operation, values, ssa: dict[str, int], model, memo):
    """(values, index map) after running op from values at index map ssa.

    The index maps are `encode_edge`'s.  Once an assume fails the values
    are None, and the run goes on counting indices for the choices above.
    A choice runs both branches and goes on with the first whose values
    are the model's at the choice's output indices, so the run follows the
    model.  An output index the model has no value for constrains no
    branch: the path formula dropped its pads, so no atom reads it, nothing
    reads the variable before it is written again, and either branch is a
    concrete run.  Every choice is run once per index map and values, as
    `encode_edge` encodes it once per index map, so a join that the
    branches of a summarized edge share is run once.
    """
    if isinstance(op, (Assign, Havoc)):
        i = ssa.get(op.var, 0) + 1
        if values is not None:
            if isinstance(op, Assign):
                val = op.expr.evaluate({VariableRef(n): v for n, v in values.items()})
            else:
                val = model.get(VariableRef(op.var, i), Fraction(0))
            values = {**values, op.var: val}
        return values, {**ssa, op.var: i}
    if isinstance(op, Assume):
        if values is not None and not evaluate(
                op.cond, {VariableRef(n): v for n, v in values.items()}):
            values = None
        return values, ssa
    if isinstance(op, Seq):
        for element in seq_elements(op):
            values, ssa = _run(element, values, ssa, model, memo)
        return values, ssa
    if not isinstance(op, Choice):
        raise TypeError(f"not an operation: {op!r}")
    key = (op, tuple(sorted(ssa.items())),
           None if values is None else tuple(sorted(values.items())))
    cached = memo.get(key)
    if cached is not None:
        return cached
    left, m1 = _run(op.left, values, ssa, model, memo)
    right, m2 = _run(op.right, values, ssa, model, memo)
    merged = _merge(m1, m2)
    # a variable the model lacks leaves the branch free (v[n] == v[n])
    taken = next((v for v in (left, right) if v is not None and all(
        model.get(VariableRef(n, i), v[n]) == v[n] for n, i in merged.items())), None)
    result = memo[key] = taken, merged
    return result


# ---------------------------------------------------------------------------
# statistics and results
# ---------------------------------------------------------------------------

class Stats(Record):
    __slots__ = _fields = ("art_size", "refinement_steps", "predicates_total",
                           "predicates_avg", "predicates_max", "solver_queries",
                           "rule_applications", "wall_time_ms")

    def __init__(self, art_size: int = 0, refinement_steps: int = 0,
                 predicates_total: int = 0, predicates_avg: int = 0,
                 predicates_max: int = 0, solver_queries: int = 0,
                 rule_applications: int = 0, wall_time_ms: float = 0.0) -> None:
        self.art_size, self.refinement_steps = art_size, refinement_steps
        self.predicates_total, self.predicates_avg = predicates_total, predicates_avg
        self.predicates_max, self.solver_queries = predicates_max, solver_queries
        self.rule_applications, self.wall_time_ms = rule_applications, wall_time_ms

    def as_dict(self) -> dict:
        return {
            "art_size": self.art_size,
            "refinement_steps": self.refinement_steps,
            "predicates": {
                "total": self.predicates_total,
                "avg": self.predicates_avg,
                "max": self.predicates_max,
            },
            "solver_queries": self.solver_queries,
            "rule_applications": self.rule_applications,
            "wall_time_ms": self.wall_time_ms,
        }


class VerificationResult(Record):
    __slots__ = _fields = ("verdict", "stats", "path", "model", "integral_witness",
                           "replayed", "reason", "art")

    def __init__(self, verdict: str,  # "safe" | "unsafe" | "unknown"
                 stats: Stats, path: list[tuple[Edge, int]] | None = None,
                 model: dict[VariableRef, Fraction] | None = None,
                 integral_witness: bool = False, replayed: bool = False,
                 reason: str | None = None, art: Art | None = None) -> None:
        self.verdict, self.stats, self.path, self.model = verdict, stats, path, model
        self.integral_witness, self.replayed = integral_witness, replayed
        self.reason, self.art = reason, art


def _precision_stats(precisions: ProgramPrecision, stats: Stats) -> None:
    sizes = precisions.nonempty_sizes()
    stats.predicates_total = len(precisions.distinct_predicates())
    stats.predicates_avg = sum(sizes) // len(sizes) if sizes else 0
    stats.predicates_max = max(sizes) if sizes else 0


def verify(p: Program, mode: str = BOOLEAN, max_refinements: int = 100,
           solver=None, rule_applications: int = 0) -> VerificationResult:
    """CEGAR loop: build, check the counterexample, refine lazily, rebuild.

    Refinement touches only locations on the analyzed path.  Ends with
    "unknown" when the refinement bound is hit or no refinement makes
    progress (stagnation).
    """
    if mode not in (BOOLEAN, CARTESIAN):
        raise ValueError(f"unknown abstraction mode {mode!r}")
    start = time.perf_counter()
    solver = solver if solver is not None else make_solver()
    abstractor = Abstractor(solver)
    precisions = ProgramPrecision()
    names = program_variables(p)
    stats = Stats(rule_applications=rule_applications)

    def finish(result: VerificationResult) -> VerificationResult:
        _precision_stats(precisions, stats)
        stats.solver_queries = solver.queries
        stats.wall_time_ms = (time.perf_counter() - start) * 1000.0
        return result

    while True:
        outcome = build_art(p, precisions, mode, abstractor)
        if outcome[0] == "complete":
            _, art = outcome
            stats.art_size = len(art)
            return finish(VerificationResult("safe", stats, art=art))
        _, art, path = outcome
        stats.art_size = len(art)
        encoded = _encode_path(path, names)
        status, model = check_path(path, names, solver, _encoded=encoded)
        if status == "feasible":
            integral = all(v.denominator == 1 for v in model.values())
            replayed = False
            if integral:
                replayed = replay_path(p, [e for e, _ in path], model)
            return finish(
                VerificationResult(
                    "unsafe", stats, path=path, model=model,
                    integral_witness=integral, replayed=replayed, art=art,
                )
            )
        harvest = extract_predicates(path, names, _encoded=encoded)
        fresh = {
            loc: [q for q in preds if q not in precisions.at(loc)]
            for loc, preds in harvest.items()
        }
        fresh = {loc: preds for loc, preds in fresh.items() if preds}
        if not fresh:
            return finish(
                VerificationResult(
                    "unknown", stats, path=path, art=art,
                    reason="refinement stagnation: no new predicates",
                )
            )
        if stats.refinement_steps >= max_refinements:
            return finish(
                VerificationResult(
                    "unknown", stats, path=path, art=art,
                    reason=f"refinement bound {max_refinements} reached",
                )
            )
        for loc, preds in fresh.items():
            precisions = precisions.with_added(loc, preds)
        stats.refinement_steps += 1


# ---------------------------------------------------------------------------
# ART export
# ---------------------------------------------------------------------------

def art_to_dot(art: Art) -> str:
    lines = ["digraph art {", "  node [shape=ellipse];"]
    for n in art.nodes:
        label = f"{n.id}: L{n.location}\\n{_dot_escape(_short(formula_infix(_concrete(n))))}"
        style = ' style=dashed' if n.covered_by is not None else ""
        lines.append(f'  n{n.id} [label="{label}"{style}];')
    for n in art.nodes:
        if n.parent is not None:
            pid, edge = n.parent
            label = _dot_escape(_short(op_label(edge.op, limit=80)))
            lines.append(f'  n{pid} -> n{n.id} [label="{label}"];')
        if n.covered_by is not None:
            lines.append(f"  n{n.id} -> n{n.covered_by} [style=dotted];")
    lines.append("}")
    return "\n".join(lines)


def _concrete(node: ArtNode) -> Formula:
    return node.abstract.abstractor.concretize(node.abstract)


def _short(text: str, limit: int = 60) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."
