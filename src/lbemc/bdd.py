"""Reduced ordered binary decision diagrams over integer-numbered variables.

Small canonical-representation library: nodes are hash-consed per manager,
so two BDDs denote the same Boolean function exactly when their node ids
are equal.  Variable order is the numeric order of the variable ids.
"""

from __future__ import annotations


class Bdd:
    FALSE = 0
    TRUE = 1

    def __init__(self) -> None:
        # node id -> (var, lo, hi); ids 0/1 are the terminals
        self._nodes: list[tuple[int, int, int]] = [(-1, 0, 0), (-1, 1, 1)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._memo: dict[tuple, int] = {}
        self._implies_memo: dict[tuple[int, int], bool] = {}

    def _mk(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(key)
            self._unique[key] = node
        return node

    def var(self, v: int) -> int:
        return self._mk(v, self.FALSE, self.TRUE)

    def literal(self, v: int, positive: bool) -> int:
        return self._mk(v, self.TRUE, self.FALSE) if not positive else self.var(v)

    def _top(self, u: int) -> int:
        return self._nodes[u][0] if u > 1 else 2**31

    def apply_and(self, a: int, b: int) -> int:
        return self._apply(self.FALSE, a, b)

    def apply_or(self, a: int, b: int) -> int:
        return self._apply(self.TRUE, a, b)

    def _apply(self, zero: int, a: int, b: int) -> int:
        """a AND b when zero is FALSE, a OR b when zero is TRUE: zero absorbs,
        the other terminal is the identity, and inner nodes are combined by
        Shannon expansion on the lower top variable."""
        if a == zero or b == zero:
            return zero
        if a == 1 - zero or a == b:
            return b
        if b == 1 - zero:
            return a
        key = (zero, min(a, b), max(a, b))
        out = self._memo.get(key)
        if out is None:
            va, vb = self._top(a), self._top(b)
            v = min(va, vb)
            a_lo, a_hi = (self._nodes[a][1], self._nodes[a][2]) if va == v else (a, a)
            b_lo, b_hi = (self._nodes[b][1], self._nodes[b][2]) if vb == v else (b, b)
            out = self._mk(v, self._apply(zero, a_lo, b_lo), self._apply(zero, a_hi, b_hi))
            self._memo[key] = out
        return out

    def apply_not(self, a: int) -> int:
        if a == self.FALSE:
            return self.TRUE
        if a == self.TRUE:
            return self.FALSE
        key = ("not", a)
        out = self._memo.get(key)
        if out is None:
            v, lo, hi = self._nodes[a]
            out = self._mk(v, self.apply_not(lo), self.apply_not(hi))
            self._memo[key] = out
        return out

    def implies(self, a: int, b: int) -> bool:
        """Whether a AND NOT b is empty, decided without building a node.

        The pairs of cofactors are walked depth first on an explicit stack.
        A pair holds when both of its cofactor pairs do, and fails when one
        of them fails, and then so do the expanded pairs still on the stack,
        which are its ancestors.  Answers are memoized per pair across
        calls.  In a reduced BDD only FALSE is empty and only TRUE is valid,
        so a pair with a terminal side is decided at once.
        """
        memo = self._implies_memo
        known = memo.get((a, b))
        if known is not None:
            return known
        nodes = self._nodes
        stack = [(a, b, False)]
        while stack:
            a, b, expanded = stack.pop()
            if a == self.FALSE or b == self.TRUE or a == b:
                continue
            known = False if a == self.TRUE or b == self.FALSE else memo.get((a, b))
            if known:
                continue
            if known is False:
                for x, y, ancestor in stack:
                    if ancestor:
                        memo[x, y] = False
                return False
            if expanded:
                memo[a, b] = True
                continue
            stack.append((a, b, True))
            va, a_lo, a_hi = nodes[a]
            vb, b_lo, b_hi = nodes[b]
            if va < vb:
                stack += ((a_hi, b, False), (a_lo, b, False))
            elif vb < va:
                stack += ((a, b_hi, False), (a, b_lo, False))
            else:
                stack += ((a_hi, b_hi, False), (a_lo, b_lo, False))
        return True

    def cube(self, literals: list[tuple[int, bool]]) -> int:
        """Conjunction of literals, given as (var, polarity) pairs."""
        out = self.TRUE
        for v, positive in sorted(literals, reverse=True):
            out = self.apply_and(out, self.literal(v, positive))
        return out

    def support(self, u: int) -> list[int]:
        seen: set[int] = set()
        out: set[int] = set()

        def walk(n: int) -> None:
            if n <= 1 or n in seen:
                return
            seen.add(n)
            v, lo, hi = self._nodes[n]
            out.add(v)
            walk(lo)
            walk(hi)

        walk(u)
        return sorted(out)

    def evaluate(self, u: int, assignment: dict[int, bool]) -> bool:
        while u > 1:
            v, lo, hi = self._nodes[u]
            u = hi if assignment.get(v, False) else lo
        return u == self.TRUE

    def node(self, u: int) -> tuple[int, int, int]:
        return self._nodes[u]

    def size(self) -> int:
        return len(self._nodes)
