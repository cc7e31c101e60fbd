"""Cartesian and Boolean predicate abstraction over BDD-represented states.

A precision is an ordered list of predicate formulas over current-state
variables.  Predicates get stable global ids (registration order) inside an
Abstractor, and abstract states are BDDs over those ids, so semantically
equal abstract states are pointer-equal and entailment between abstract
states is a propositional BDD check even when the two precisions differ.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .bdd import Bdd
from .formula import Formula, PropVar, TRUE, at_indices, f_and, f_iff, f_not, f_or
from .semantics import Choice, Operation, Seq, encode_edge

CARTESIAN = "cartesian"
BOOLEAN = "boolean"


class Precision:
    """Ordered, duplicate-free list of predicates."""

    __slots__ = ("preds",)

    def __init__(self, preds: Iterable[Formula] = ()) -> None:
        out: list[Formula] = []
        seen: set[Formula] = set()
        for p in preds:
            if p not in seen:
                seen.add(p)
                out.append(p)
        self.preds: tuple[Formula, ...] = tuple(out)

    def merged(self, more: Iterable[Formula]) -> "Precision":
        return Precision(list(self.preds) + list(more))

    def __iter__(self):
        return iter(self.preds)

    def __len__(self) -> int:
        return len(self.preds)

    def __contains__(self, p: Formula) -> bool:
        return p in self.preds

    def __eq__(self, other) -> bool:
        return isinstance(other, Precision) and self.preds == other.preds

    def __hash__(self) -> int:
        return hash(self.preds)

    def __repr__(self) -> str:
        return f"Precision({list(map(str, self.preds))})"


EMPTY_PRECISION = Precision()


class ProgramPrecision:
    """Per-location precisions; locations without an entry are empty."""

    def __init__(self, by_location: dict[int, Precision] | None = None) -> None:
        self._by_loc = dict(by_location or {})

    def at(self, location: int) -> Precision:
        return self._by_loc.get(location, EMPTY_PRECISION)

    def with_added(self, location: int, preds: Iterable[Formula]) -> "ProgramPrecision":
        new = dict(self._by_loc)
        new[location] = self.at(location).merged(preds)
        return ProgramPrecision(new)

    def locations(self) -> list[int]:
        return sorted(self._by_loc)

    def nonempty_sizes(self) -> list[int]:
        return [len(p) for loc, p in sorted(self._by_loc.items()) if len(p) > 0]

    def distinct_predicates(self) -> set[Formula]:
        out: set[Formula] = set()
        for p in self._by_loc.values():
            out.update(p.preds)
        return out


@dataclass(frozen=True, eq=False)
class AbstractFormula:
    """Canonical propositional combination of predicate ids (a BDD node)."""

    abstractor: "Abstractor"
    node: int = 0

    @property
    def is_false(self) -> bool:
        return self.node == Bdd.FALSE

    @property
    def is_true(self) -> bool:
        return self.node == Bdd.TRUE

    def entails(self, other: "AbstractFormula") -> bool:
        assert self.abstractor is other.abstractor
        return self.abstractor.bdd.implies(self.node, other.node)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AbstractFormula)
            and self.abstractor is other.abstractor
            and self.node == other.node
        )

    def __hash__(self) -> int:
        return hash(("af", id(self.abstractor), self.node))

    def __str__(self) -> str:
        from .formula import formula_infix

        return formula_infix(self.abstractor.concretize(self))


class Abstractor:
    """Shared predicate registry, BDD manager, and abstraction operators."""

    def __init__(self, solver) -> None:
        self.solver = solver
        self.bdd = Bdd()
        self._ids: dict[Formula, int] = {}
        self._preds: list[Formula] = []
        self._concretize_memo: dict[int, Formula] = {}
        self._post_memo: dict[tuple, AbstractFormula] = {}

    # -- predicate registry --------------------------------------------------

    def pred_id(self, p: Formula) -> int:
        i = self._ids.get(p)
        if i is None:
            i = len(self._preds)
            self._ids[p] = i
            self._preds.append(p)
        return i

    def predicate(self, i: int) -> Formula:
        return self._preds[i]

    def true_state(self) -> AbstractFormula:
        return AbstractFormula(self, Bdd.TRUE)

    def false_state(self) -> AbstractFormula:
        return AbstractFormula(self, Bdd.FALSE)

    # -- abstraction operators -----------------------------------------------

    def cartesian_abstract(self, phi: Formula, pi: Precision) -> AbstractFormula:
        """Conjunction of exactly the precision predicates entailed by phi."""
        return self._cartesian_on(phi, pi.preds, pi)

    def boolean_abstract(self, phi: Formula, pi: Precision) -> AbstractFormula:
        """Strongest Boolean combination of precision predicates entailed by phi."""
        return self._boolean_on(phi, pi.preds, pi)

    def concretize(self, state: AbstractFormula) -> Formula:
        """Substitute predicate formulas for their ids (Shannon expansion)."""
        return self._concretize_node(state.node)

    def _concretize_node(self, node: int) -> Formula:
        if node == Bdd.FALSE:
            from .formula import FALSE

            return FALSE
        if node == Bdd.TRUE:
            return TRUE
        cached = self._concretize_memo.get(node)
        if cached is not None:
            return cached
        v, lo, hi = self.bdd.node(node)
        p = self._preds[v]
        out = f_or(
            f_and(p, self._concretize_node(hi)),
            f_and(f_not(p), self._concretize_node(lo)),
        )
        self._concretize_memo[node] = out
        return out

    def abstract_post(
        self, state: AbstractFormula, op: Operation, pi: Precision, mode: str
    ) -> AbstractFormula:
        """Abstract successor of `state` under `op` over the precision `pi`.

        Boolean mode abstracts the postcondition of the whole operation in
        one enumeration, computed on the operation's SSA encoding: the
        incoming region is pinned at index 0, the operation contributes its
        constraint, and the successor predicates are read at the output
        indices (satisfiability-equivalent to abstracting sp directly, but
        linear in the operation size).

        Cartesian mode applies the single-operation Cartesian postoperator
        compositionally: sequencing composes, and a choice joins the two
        branch results to their common conjuncts.  The join is where the
        conjunctive representation loses branch correlations, which is the
        observable difference between the two abstractions on summarized
        edges; collapsing a composite operation into one Cartesian
        abstraction query would hide it.
        """
        # nested Cartesian posts recurse through _post, so a wrapper around
        # abstract_post sees exactly one call per tree edge
        return self._post(state, op, pi, mode)

    def _post(self, state: AbstractFormula, op: Operation, pi: Precision,
              mode: str) -> AbstractFormula:
        if state.is_false:
            return self.false_state()
        key = (state.node, op, pi, mode)
        out = self._post_memo.get(key)
        if out is not None:
            return out
        if mode == CARTESIAN:
            out = self._cartesian_post(state, op, pi)
        elif mode == BOOLEAN:
            out = self._boolean_on(*self._post_query(state, op, pi), pi)
        else:
            raise ValueError(f"unknown abstraction mode {mode!r}")
        self._post_memo[key] = out
        return out

    def _cartesian_post(self, state: AbstractFormula, op: Operation,
                        pi: Precision) -> AbstractFormula:
        if isinstance(op, Seq):
            return self._post(self._post(state, op.first, pi, CARTESIAN),
                              op.second, pi, CARTESIAN)
        if isinstance(op, Choice):
            return self._conjunction_join(
                self._post(state, op.left, pi, CARTESIAN),
                self._post(state, op.right, pi, CARTESIAN),
                pi,
            )
        return self._cartesian_on(*self._post_query(state, op, pi), pi)

    def _post_query(self, state: AbstractFormula, op: Operation, pi: Precision):
        """The incoming region at index 0 conjoined with op's SSA constraint,
        and the precision predicates read at op's output indices."""
        edge_formula, out_map = encode_edge(op, {})
        base = f_and(at_indices(self.concretize(state), {}), edge_formula)
        return base, [at_indices(p, out_map) for p in pi]

    def _conjunction_join(self, a: AbstractFormula, b: AbstractFormula,
                          pi: Precision) -> AbstractFormula:
        """Weakest conjunction of precision predicates covering both states."""
        if a.is_false:
            return b
        if b.is_false:
            return a
        node = Bdd.TRUE
        for p in pi:
            v = self.bdd.var(self.pred_id(p))
            if self.bdd.implies(a.node, v) and self.bdd.implies(b.node, v):
                node = self.bdd.apply_and(node, v)
        return AbstractFormula(self, node)

    def _cartesian_on(self, phi: Formula, shifted, pi: Precision) -> AbstractFormula:
        """Conjunction of the predicates of pi whose shifted form phi entails."""
        verdicts = self.solver.entailed(phi, shifted)
        if verdicts is None:
            return self.false_state()
        node = Bdd.TRUE
        for p, holds in zip(pi, verdicts):
            if holds:
                node = self.bdd.apply_and(node, self.bdd.var(self.pred_id(p)))
        return AbstractFormula(self, node)

    def _boolean_on(self, phi: Formula, shifted, pi: Precision) -> AbstractFormula:
        """Disjunction of one full minterm over pi per satisfying assignment.

        Each predicate of pi gets a propositional variable linked to its
        shifted form; every assignment to them that extends to a model of
        phi becomes a cube, negative literals included.
        """
        names = [f"@p{self.pred_id(p)}" for p in pi]
        query = f_and(phi, *(f_iff(q, PropVar(n)) for q, n in zip(shifted, names)))
        assignments = self.solver.all_sat(query, names)
        node = Bdd.FALSE
        ids = [self.pred_id(p) for p in pi]
        for assignment in assignments:
            cube = self.bdd.cube([(i, assignment[n]) for i, n in zip(ids, names)])
            node = self.bdd.apply_or(node, cube)
        return AbstractFormula(self, node)
