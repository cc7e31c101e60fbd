"""Time lbemc from source text to a checked verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; lbemc is imported from `src/`.
A run sets up (import, task generation), computes reference answers
outside the timed region, then repeats rounds of the workload's tasks, one
task after another in this process, while another round still fits in
`--seconds`.  The seed fixes the task order of every round.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced rounds with rounds that run under the layer tracer (installed
for the round and restored after it) and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".  README.md describes
every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 7

# Times are reported in reference seconds: measured seconds scaled by
# CALIBRATION_REFERENCE_S over the duration of a calibration kernel run
# just before and just after them.  The kernel is interpreter work that
# shares no code with lbemc, so a change to lbemc moves the reported times
# while a change in host speed does not.  Shared hosts drift by up to 2x
# in throughput over minutes, far more than any bound a benchmark can use.
CALIBRATION_REFERENCE_S = 0.008
CALIBRATION_SAMPLES = 3
CALIBRATION_INTERVAL_S = 0.3

# Spans the tracer records.  Each gives "<name>_s" (inclusive time),
# "<name>_self_s" and "<name>_calls"; see _span_metric for the exceptions.
SPANS = (
    "frontend.parse",
    "cfa.summarize",
    "semantics.encode_edge",
    "abstraction.post.boolean",
    "abstraction.post.cartesian",
    "smt.all_sat",
    "smt.check_sat",
    "engine.verify",
    "engine.build_art",
    "engine.is_covered",
    "engine.check_path",
    "engine.extract_predicates",
    "oracle.replay_path",
)


def _span_metric(span: str, kind: str) -> str:
    if (span, kind) == ("engine.build_art", "calls"):
        return "engine.cegar_iterations"
    if span.startswith("abstraction.post."):
        return f"abstraction.post_{kind}.{span.rsplit('.', 1)[1]}"
    return f"{span}_{kind}"


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

class _Node:
    __slots__ = ("value", "key", "link")

    def __init__(self, value: int, key: tuple[int, int]) -> None:
        self.value, self.key, self.link = value, key, None


def _kernel() -> int:
    """About 8 ms of interpreter work in two parts: tuple-keyed dicts, sets
    and Fraction arithmetic, then building and walking a graph of small
    objects, which also tracks hosts that slow down memory-bound code."""
    table: dict[tuple[int, int], int] = {}
    seen = set()
    acc = Fraction(0)
    for i in range(1500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        seen.add(key)
        acc += Fraction(i % 7, 1 + i % 5)
    nodes = [_Node(i, (i, i % 31)) for i in range(3000)]
    for i in range(1, len(nodes)):
        nodes[i].link = nodes[(i * 7919) % i]
    for n in nodes:
        table[n.key] = table.get(n.key, 0) + n.value
    total = 0
    for n in nodes:
        for _ in range(3):
            if n.link is None:
                break
            n = n.link
        total += n.value
    return len(seen) + acc.denominator + total


class Meter:
    """Calibration samples taken between stretches of measured work."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        times = []
        for _ in range(CALIBRATION_SAMPLES):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
        value = statistics.median(times)
        self.samples.append(value)
        return value

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Reference seconds per measured second between two samples."""
        return 2 * CALIBRATION_REFERENCE_S / (before + after)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def measure_setup(workload: str, meter: Meter, fresh: set[str]) -> float:
    """Median time, in reference seconds, to set up again: import lbemc
    and the modules it first brought in (`fresh`), then generate the tasks.

    The set-up runs in this process with those modules dropped from
    `sys.modules`; the originals are put back afterwards.  The interpreter's
    own start is left out: lbemc cannot change it, and on shared hosts its
    page-fault cost varies more than any bound could allow.
    """
    originals = {name: sys.modules[name] for name in fresh}
    samples = []
    before = meter.sample()
    try:
        for _ in range(SETUP_REPEATS):
            for name in fresh:
                sys.modules.pop(name, None)
            start = time.perf_counter()
            workloads.build_tasks(workloads.load_lbemc(ROOT), workload)
            elapsed = time.perf_counter() - start
            after = meter.sample()
            samples.append(elapsed * Meter.factor(before, after))
            before = after
    finally:
        sys.modules.update(originals)
    return statistics.median(samples)


def _scale(outcomes, factor: float) -> None:
    for o in outcomes:
        o.raw_seconds = o.seconds
        o.seconds *= factor
        for entry in (o.layers or {}).values():
            entry["inclusive"] *= factor
            entry["self"] *= factor


def run_round(lbemc, tasks, rng: random.Random, meter: Meter,
              tracer: Tracer | None = None) -> list:
    """One round in seed order; times scaled by the calibration samples
    taken around every stretch of about CALIBRATION_INTERVAL_S."""
    gc.collect()
    outcomes, pending, since = [], [], 0.0
    if tracer is not None:
        tracer.install(lbemc)
    try:
        before = meter.sample()
        for task in workloads.round_order(tasks, rng):
            o = workloads.run_task(lbemc, task)
            if tracer is not None:
                o.layers, o.counts = tracer.take()
            outcomes.append(o)
            pending.append(o)
            since += o.seconds
            if since >= CALIBRATION_INTERVAL_S:
                after = meter.sample()
                _scale(pending, Meter.factor(before, after))
                before, pending, since = after, [], 0.0
        if pending:
            _scale(pending, Meter.factor(before, meter.sample()))
    finally:
        if tracer is not None:
            tracer.restore()
    return outcomes


@dataclass
class Round:
    """What the metrics need from one round.  Outcomes are dropped after
    each round, so the run's own memory does not grow with the number of
    rounds and `peak_rss_mb` stays lbemc's."""

    times: list[float]                 # reference seconds per task
    raw_wall: float                    # measured seconds, summed
    layers: dict[str, Counter] = field(default_factory=dict)  # traced only
    counts: Counter = field(default_factory=Counter)          # traced only

    @property
    def wall(self) -> float:
        return sum(self.times)


class Tally:
    """Checks over every task of every round.

    `correct` stays true while no result is contradicted by an exact
    reference and every task gives the same deterministic record in every
    round.
    """

    def __init__(self) -> None:
        self.correct = True
        self.attempted = self.failed = self.decided = 0
        self._first: dict[tuple, dict] = {}

    def add(self, outcomes, traced: bool) -> Round:
        for o in outcomes:
            self.attempted += 1
            self.failed += o.status == "failed"
            self.decided += o.status == "decided"
            self.correct &= not o.wrong
            key = (o.task.name, o.task.encoding, o.task.mode)
            self.correct &= self._first.setdefault(key, o.record) == o.record
        out = Round([o.seconds for o in outcomes], sum(o.raw_seconds for o in outcomes))
        if traced:
            for o in outcomes:
                for span, entry in o.layers.items():
                    out.layers.setdefault(span, Counter()).update(entry)
                out.counts.update(o.counts)
                out.counts.update({
                    "cfa.rule_applications": o.record.get("rule_applications", 0),
                    "cfa.edges_out": o.edges_out,
                    "bdd.nodes": o.bdd_nodes,
                    "smt.theory_checks": o.theory_checks,
                    "smt.queries": o.record.get("solver_queries", 0),
                    "engine.refinements": o.record.get("refinement_steps", 0),
                    "engine.predicates_total": o.record.get("predicates", {}).get("total", 0),
                })
        return out


def run_rounds(lbemc, tasks, rng: random.Random, meter: Meter, seconds: float,
               tally: Tally, traced: bool = False):
    """Rounds while another one still fits in `seconds` (at least one).

    Traced, every untraced round is followed by a traced one, so both see
    the same host conditions; returns (untraced rounds, traced rounds).
    """
    untraced, with_trace = [], []
    tracer = Tracer() if traced else None
    start = time.perf_counter()
    while True:
        untraced.append(tally.add(run_round(lbemc, tasks, rng, meter), False))
        if tracer is not None:
            with_trace.append(
                tally.add(run_round(lbemc, tasks, rng, meter, tracer), True))
        n = len(untraced)
        if (time.perf_counter() - start) * (n + 1) / n > seconds:
            return untraced, with_trace


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(rounds: list[Round], tally: Tally,
               setup_s: float) -> dict[str, tuple[float, str]]:
    # Percentiles are taken per round and their median over rounds is
    # reported, like wall_s: pooled over all rounds, p95 of a lock ladder
    # lands in the upper tail of its largest task's times, which is host
    # noise more than lbemc.  "inclusive" keeps p95 of a short round
    # between its two slowest tasks instead of extrapolating past them.
    def percentile(r: Round, q: int) -> float:
        return statistics.quantiles(r.times, n=100, method="inclusive")[q - 1] * 1000.0

    n = tally.attempted
    return {
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "time_to_verdict_ms.p50": (statistics.median(percentile(r, 50) for r in rounds), "ms"),
        "time_to_verdict_ms.p95": (statistics.median(percentile(r, 95) for r in rounds), "ms"),
        "ok_ratio": (1.0 - _ratio(tally.failed, n), "ratio"),
        "decided_ratio": (_ratio(tally.decided, n), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(untraced: list[Round], traced: list[Round], reference_s: float,
              meter: Meter) -> dict[str, tuple[float, str]]:
    """Per-round means over the traced rounds, plus the run's overheads."""
    k = len(traced)
    layers: dict[str, Counter] = {span: Counter() for span in SPANS}
    counts: Counter = Counter()
    for r in traced:
        for span, entry in r.layers.items():
            layers[span].update(entry)
        counts.update(r.counts)

    out: dict[str, tuple[float, str]] = {}
    for span, entry in layers.items():
        out[_span_metric(span, "s")] = (entry["inclusive"] / k, "s")
        out[_span_metric(span, "self_s")] = (entry["self"] / k, "s")
        out[_span_metric(span, "calls")] = (entry["calls"] / k, "count")
    for name in ("cfa.rule_applications", "cfa.edges_out", "bdd.nodes",
                 "smt.theory_checks", "smt.queries", "smt.all_sat_models",
                 "engine.art_nodes", "engine.refinements", "engine.predicates_total"):
        out[name] = (counts[name] / k, "count")
    out["smt.check_sat_repeat_ratio"] = (
        _ratio(counts["smt.check_sat_repeats"], layers["smt.check_sat"]["calls"]), "ratio")
    out["engine.covered_ratio"] = (
        _ratio(counts["engine.covered"], layers["engine.is_covered"]["calls"]), "ratio")
    out["engine.check_path_feasible_ratio"] = (
        _ratio(counts["engine.feasible"], layers["engine.check_path"]["calls"]), "ratio")
    out["oracle.replayed_ratio"] = (
        _ratio(counts["oracle.replayed"], layers["oracle.replay_path"]["calls"]), "ratio")
    out["oracle.reference_s"] = (reference_s, "s")

    traced_wall = statistics.fmean(r.wall for r in traced)
    untraced_wall = statistics.fmean(r.wall for r in untraced)
    self_total = sum(entry["self"] for entry in layers.values()) / k
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["unattributed_s"] = (traced_wall - self_total, "s")
    out["trace_overhead_s"] = (traced_wall - untraced_wall, "s")
    out["calibration.kernel_ms"] = (statistics.median(meter.samples) * 1000.0, "ms")
    return out


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    loaded = set(sys.modules)
    try:
        lbemc = workloads.load_lbemc(ROOT)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tasks = workloads.build_tasks(lbemc, args.workload)
    meter = Meter()
    setup_s = measure_setup(args.workload, meter, set(sys.modules) - loaded)
    start = time.perf_counter()
    tasks = workloads.with_references(lbemc, tasks)
    reference_s = (time.perf_counter() - start) * Meter.factor(meter.samples[-1],
                                                              meter.sample())

    rng = random.Random(args.seed)
    tally = Tally()
    untraced, traced = run_rounds(lbemc, tasks, rng, meter, args.seconds, tally,
                                  traced=bool(args.trace))
    if args.trace:
        metrics = per_layer(untraced, traced, reference_s, meter)
    else:
        metrics = end_to_end(untraced, tally, setup_s)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}", file=sys.stderr)
    raw = statistics.median(r.raw_wall for r in untraced)
    print(f"rounds {len(untraced) + len(traced)}  attempted {tally.attempted}  "
          f"failed {tally.failed}  correct {tally.correct}  measured wall_s "
          f"{raw:.4f}  calibration kernel "
          f"{statistics.median(meter.samples) * 1000:.3f} ms", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
