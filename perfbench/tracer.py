"""Layer tracing for lbemc from outside the package.

`Tracer.install` replaces public functions of the lbemc modules with
wrappers that record one span per call (name, start, end, parent span)
plus a few per-layer counts, and `Tracer.restore` puts every original
back.  Nothing under `src/` is changed: the wrappers are set on the module
and class attributes that callers look up at call time, which is why
`encode_edge` and `replay_path` are wrapped at the names the importing
modules bound, not in `semantics` and `oracle` themselves.

A layer's inclusive time sums its outermost spans; its self time
subtracts the part of each span that child spans cover.  Time not inside
any span (task glue, code in layers that have no span) is what the
benchmark reports as `unattributed_s`.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


def _post_span(args, kwargs) -> str:
    mode = kwargs["mode"] if "mode" in kwargs else args[4]
    return f"abstraction.post.{mode}"


class Tracer:
    """Span recorder; at most one may be installed at a time."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen: set = set()  # formulas checked since the last take()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, owner, attr: str, span, before=None, after=None) -> None:
        original = owner.__dict__[attr]
        spans, open_ = self.spans, self._open

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = span(args, kwargs) if callable(span) else span
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            spans.append(record)
            open_.append(index)
            record[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                open_.pop()
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, lbemc) -> None:
        """Wrap the public layer functions of an imported lbemc package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        counts = self.counts
        m = lbemc
        self._wrap(m.frontend, "parse_program", "frontend.parse")
        self._wrap(m.cfa, "summarize", "cfa.summarize")
        for module in (m.abstraction, m.engine, m.oracle):
            self._wrap(module, "encode_edge", "semantics.encode_edge")
        self._wrap(m.abstraction.Abstractor, "abstract_post", _post_span)
        self._wrap(m.smt.InternalSolver, "check_sat", "smt.check_sat",
                   before=self._note_formula)
        self._wrap(
            m.smt.InternalSolver, "all_sat", "smt.all_sat",
            after=lambda r: counts.update({"smt.all_sat_models": len(r)}),
        )
        self._wrap(m.engine, "verify", "engine.verify")
        self._wrap(
            m.engine, "build_art", "engine.build_art",
            after=lambda r: counts.update({"engine.art_nodes": len(r[1])}),
        )
        self._wrap(
            m.engine, "is_covered", "engine.is_covered",
            after=lambda r: counts.update({"engine.covered": r is not None}),
        )
        self._wrap(
            m.engine, "check_path", "engine.check_path",
            after=lambda r: counts.update({"engine.feasible": r[0] == "feasible"}),
        )
        self._wrap(m.engine, "extract_predicates", "engine.extract_predicates")
        self._wrap(
            m.engine, "replay_path", "oracle.replay_path",
            after=lambda r: counts.update({"oracle.replayed": bool(r)}),
        )

    def restore(self) -> None:
        """Put back every attribute `install` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _note_formula(self, args, kwargs) -> None:
        # Each task uses one fresh solver and take() runs after every task,
        # so the formulas seen since then are the ones this solver has seen.
        phi = kwargs["phi"] if "phi" in kwargs else args[1]
        if phi in self._seen:
            self.counts["smt.check_sat_repeats"] += 1
        else:
            self._seen.add(phi)

    # -- aggregation --------------------------------------------------------

    def take(self) -> tuple[dict[str, dict[str, float]], Counter]:
        """Per span name {"calls", "inclusive", "self"} and the counts since
        the last call; clears both and the formulas seen."""
        if self._open:
            raise RuntimeError("spans still open")
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            entry = layers.setdefault(name, {"calls": 0, "inclusive": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["self"] += (end - start) - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry["inclusive"] += end - start
        counts = Counter(self.counts)
        spans.clear()
        self.counts.clear()
        self._seen.clear()
        return layers, counts
