"""Cartesian and Boolean predicate abstraction over BDD-represented states.

A precision is an ordered list of predicate formulas over current-state
variables; a program's precision maps locations to precisions, and a
location without an entry has `EMPTY_PRECISION`.  Predicates get stable
global ids (registration order) inside an Abstractor, and abstract states
are BDDs over those ids, so semantically equal abstract states are
pointer-equal and entailment between abstract states is a propositional
BDD check even when the two precisions differ.  Precisions are
hash-consed like formulas: equal ones are one object.
"""

from __future__ import annotations

from collections.abc import Iterable

from .bdd import Bdd
from .formula import Formula, Interned, TRUE, at_indices, f_and, f_not, f_or
from .record import Record
from .semantics import Choice, Operation, Seq, SsaEncoder, drop_dead_pads, encode_edge

CARTESIAN = "cartesian"
BOOLEAN = "boolean"


class Precision(Interned):
    """Ordered, duplicate-free list of predicates; hash-consed like
    formulas (`formula.Interned`), so equal precisions are one object."""

    __slots__ = ("preds",)

    def __new__(cls, preds: Iterable[Formula] = ()) -> "Precision":
        unique = tuple(dict.fromkeys(preds))
        node = super().__new__(cls, unique)
        node.preds = unique
        return node

    def merged(self, more: Iterable[Formula]) -> "Precision":
        return Precision((*self.preds, *more))

    def __iter__(self):
        return iter(self.preds)

    def __len__(self) -> int:
        return len(self.preds)

    def __contains__(self, p: Formula) -> bool:
        return p in self.preds

    def __repr__(self) -> str:
        return f"Precision({list(map(str, self.preds))})"


EMPTY_PRECISION = Precision()


class AbstractFormula(Record):
    """Canonical propositional combination of predicate ids (a BDD node)."""

    __slots__ = _fields = ("abstractor", "node")

    def __init__(self, abstractor: "Abstractor", node: int = 0) -> None:
        self.abstractor, self.node = abstractor, node

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
    """Shared predicate registry, BDD manager, SSA encoder, and abstraction
    operators.

    Every post, Boolean and Cartesian alike, encodes its operation on the
    one `SsaEncoder`, which memoizes every choice per index map.  Choices
    that several edges share, such as the body the loop edge and the error
    edge of a large-block program have in common, are then encoded once
    per index map for the whole run.
    """

    def __init__(self, solver) -> None:
        self.solver = solver
        self.encoder = SsaEncoder()
        self.bdd = Bdd()
        self._ids: dict[Formula, int] = {}
        self._preds: list[Formula] = []
        self._concretize_memo: dict[int, Formula] = {}
        # BDD node -> its concretization with every variable at index 0
        self._at0_memo: dict[int, Formula] = {}
        # (state node, op, pi, mode) -> successor node, for every op but a
        # Cartesian Seq; nodes, not AbstractFormulas, so the memo holds no
        # reference back to self
        self._post_memo: dict[tuple, int] = {}
        # (op, pi) -> op's pruned SSA constraint, pi at op's output indices
        self._edge_memo: dict[tuple, tuple[Formula, list[Formula]]] = {}

    # -- predicate registry --------------------------------------------------

    def pred_id(self, p: Formula) -> int:
        i = self._ids.get(p)
        if i is None:
            i = len(self._preds)
            self._ids[p] = i
            self._preds.append(p)
        return i

    def true_state(self) -> AbstractFormula:
        return AbstractFormula(self, Bdd.TRUE)

    # -- abstraction operators -----------------------------------------------

    def cartesian_abstract(self, phi: Formula, pi: Precision) -> AbstractFormula:
        """Conjunction of exactly the precision predicates entailed by phi."""
        return AbstractFormula(self, self._cartesian_on(phi, pi.preds, pi))

    def boolean_abstract(self, phi: Formula, pi: Precision) -> AbstractFormula:
        """Strongest Boolean combination of precision predicates entailed by phi."""
        return AbstractFormula(self, self._boolean_on(phi, pi.preds, pi))

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
        compositionally: a sequence folds the post over its elements, and
        a choice joins the two branch results to their common conjuncts.
        The join is where the conjunctive representation loses branch
        correlations, which is the observable difference between the two
        abstractions on summarized edges; collapsing a composite operation
        into one Cartesian abstraction query would hide it.  The memo keys
        a Cartesian post per state on its leaves and choices only.
        """
        # nested Cartesian posts recurse through _post, so a wrapper around
        # abstract_post sees exactly one call per tree edge
        return AbstractFormula(self, self._post(state.node, op, pi, mode))

    def _post(self, node: int, op: Operation, pi: Precision, mode: str) -> int:
        """abstract_post on BDD nodes."""
        if node == Bdd.FALSE:
            return Bdd.FALSE
        if mode == CARTESIAN and isinstance(op, Seq):
            # no memo entry of its own: each element's is hit instead
            for element in op.ops:
                node = self._post(node, element, pi, CARTESIAN)
            return node
        key = (node, op, pi, mode)
        out = self._post_memo.get(key)
        if out is None:
            if mode == BOOLEAN:
                out = self._boolean_on(*self._post_query(node, op, pi), pi)
            elif mode != CARTESIAN:
                raise ValueError(f"unknown abstraction mode {mode!r}")
            elif isinstance(op, Choice):
                out = self._conjunction_join(
                    self._post(node, op.left, pi, CARTESIAN),
                    self._post(node, op.right, pi, CARTESIAN),
                    pi,
                )
            else:
                out = self._cartesian_on(*self._post_query(node, op, pi), pi)
            self._post_memo[key] = out
        return out

    def _post_query(self, node: int, op: Operation, pi: Precision):
        """The incoming region at index 0 conjoined with op's SSA constraint,
        and the precision predicates read at op's output indices.

        The constraint comes from the run's one encoder, so op is encoded
        once for every precision, and subtrees op shares with edges
        encoded before are not encoded again.  It leaves out the copies
        x@j = x@i nothing reads, choice pads among them (`drop_dead_pads`),
        which keeps the models over the predicates.  The incoming region
        reads only index 0, which no copy defines, so the pruned constraint
        depends on op and pi alone and is cached; the region at index 0
        depends on the state's BDD node alone, and is cached too.
        """
        edge = self._edge_memo.get((op, pi))
        if edge is None:
            edge_formula, out_map = encode_edge(op, {}, encoder=self.encoder)
            shifted = [at_indices(p, out_map) for p in pi]
            edge = self._edge_memo[op, pi] = (
                drop_dead_pads(edge_formula, shifted), shifted)
        edge_formula, shifted = edge
        region = self._at0_memo.get(node)
        if region is None:
            region = self._at0_memo[node] = at_indices(self._concretize_node(node), {})
        return f_and(region, edge_formula), shifted

    def _conjunction_join(self, a: int, b: int, pi: Precision) -> int:
        """Weakest conjunction of precision predicates covering both states."""
        if a == Bdd.FALSE:
            return b
        if b == Bdd.FALSE:
            return a
        node = Bdd.TRUE
        for p in pi:
            v = self.bdd.var(self.pred_id(p))
            if self.bdd.implies(a, v) and self.bdd.implies(b, v):
                node = self.bdd.apply_and(node, v)
        return node

    def _cartesian_on(self, phi: Formula, shifted, pi: Precision) -> int:
        """Conjunction of the predicates of pi whose shifted form phi entails."""
        verdicts = self.solver.entailed(phi, shifted)
        if verdicts is None:
            return Bdd.FALSE
        node = Bdd.TRUE
        for p, holds in zip(pi, verdicts):
            if holds:
                node = self.bdd.apply_and(node, self.bdd.var(self.pred_id(p)))
        return node

    def _boolean_on(self, phi: Formula, shifted, pi: Precision) -> int:
        """Disjunction of one full minterm over pi per valuation.

        The solver gives every valuation of the shifted predicates that
        extends to a model of phi; each becomes a cube over the predicates'
        ids, negative literals included.
        """
        ids = [self.pred_id(p) for p in pi]
        node = Bdd.FALSE
        for valuation in self.solver.valuations(phi, shifted):
            node = self.bdd.apply_or(node, self.bdd.cube(list(zip(ids, valuation))))
        return node
