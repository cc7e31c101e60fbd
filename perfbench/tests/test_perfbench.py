"""Self-tests of the benchmark on reduced workload sizes.

    python3 -m pytest perfbench/tests -q

Run as a script, this file prints the deterministic snapshot that the
determinism test compares across processes and hash seeds.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = workloads.WORKLOADS  # in BENCHMARK.json order


def _lbemc():
    return workloads.load_lbemc(ROOT)


def _reduced(lbemc, name):
    return workloads.with_references(
        lbemc, workloads.build_tasks(lbemc, name, scale="reduced"))


class Pair:
    """One untraced and one traced round of a reduced workload."""

    def __init__(self, lbemc, name, seed=0):
        tasks = _reduced(lbemc, name)
        self.meter, self.tally, rng = run.Meter(), run.Tally(), random.Random(seed)
        self.outcomes = run.run_round(lbemc, tasks, rng, self.meter)
        self.traced_outcomes = run.run_round(lbemc, tasks, rng, self.meter, Tracer())
        self.untraced = [self.tally.add(self.outcomes, False)]
        self.traced = [self.tally.add(self.traced_outcomes, True)]

    def end_to_end(self):
        return run.end_to_end(self.untraced, self.tally, 0.1)

    def per_layer(self):
        return run.per_layer(self.untraced, self.traced, 0.0, self.meter)


def snapshot() -> dict:
    """Deterministic fields per task and per-layer counts per workload."""
    lbemc = _lbemc()
    out = {}
    for name in WORKLOADS:
        pair = Pair(lbemc, name)
        layer = pair.per_layer()
        out[name] = {
            "records": sorted(
                ([o.task.name, o.task.encoding, o.task.mode, o.status, o.record]
                 for o in pair.outcomes + pair.traced_outcomes),
                key=json.dumps,
            ),
            "counts": {k: v for k, (v, unit) in layer.items() if unit in ("count", "ratio")},
        }
    return out


def test_benchmark_json_names_every_metric_the_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pair = Pair(_lbemc(), "locks-cex")
    e2e, layer = pair.end_to_end(), pair.per_layer()
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    assert [m["name"] for m in bench["per_layer"]] == list(layer)
    for spec, (_, unit) in zip(bench["end_to_end"] + bench["per_layer"],
                               list(e2e.values()) + list(layer.values())):
        assert spec["unit"] == unit
    assert tuple(w["name"] for w in bench["workloads"]) == WORKLOADS


def test_determinism_across_runs_and_hash_seeds():
    def probe(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        proc = subprocess.run([sys.executable, str(Path(__file__))], env=env,
                              capture_output=True, text=True, timeout=600, check=True)
        return json.loads(proc.stdout)

    first = probe(0)
    assert probe(0) == first
    assert probe(4711) == first
    for name in WORKLOADS:
        counts = first[name]["counts"]
        assert counts["frontend.parse_calls"] > 0
        # each traced task round repeats the untraced one exactly
        records = first[name]["records"]
        assert records[0::2] == records[1::2]


def test_layers_each_workload_exercises_or_skips():
    snap = snapshot()
    boolean = snap["locks-lbe-boolean"]["counts"]
    assert boolean["smt.all_sat_calls"] > 0
    for skipped in ("abstraction.post_calls.cartesian", "engine.check_path_calls",
                    "oracle.replay_path_calls", "engine.refinements",
                    "smt.check_sat_calls"):
        assert boolean[skipped] == 0, skipped
    cartesian = snap["locks-sbe-cartesian"]["counts"]
    assert cartesian["engine.refinements"] > 0
    assert cartesian["smt.all_sat_calls"] == 0
    assert cartesian["cfa.summarize_calls"] == 0
    cex = snap["locks-cex"]["counts"]
    assert 0 < cex["engine.check_path_feasible_ratio"] < 1
    assert cex["oracle.replayed_ratio"] == 1.0


def test_corpus_counts_the_unreplayed_witness_of_program_35():
    pair = Pair(_lbemc(), "corpus")
    failing = {o.task.name for o in pair.outcomes if o.status == "failed"}
    assert "random35" in failing
    assert pair.tally.correct and pair.tally.failed > 0
    assert pair.end_to_end()["ok_ratio"][0] < 1.0
    for o in pair.outcomes:
        if o.task.name == "random35":
            assert o.record["verdict"] == "unsafe" and not o.wrong


def test_a_crashing_task_is_recorded_and_the_round_goes_on():
    lbemc = _lbemc()
    long_program = "int x;\n" + "x = x + 1;\n" * 1500
    tasks = [
        workloads.Task("straight1500", long_program, "lbe", "boolean",
                       workloads.BOUNDED_UNREACHABLE),
        workloads.Task("locks2", lbemc.cli.gen_test_locks(2), "lbe", "boolean",
                       workloads.UNREACHABLE),
    ]
    outcomes = run.run_round(lbemc, tasks, random.Random(0), run.Meter())
    by_name = {o.task.name: o for o in outcomes}
    assert by_name["straight1500"].record == {"exception": "RecursionError"}
    assert by_name["straight1500"].status == "failed"
    assert by_name["locks2"].status == "decided"


def test_tracer_restores_every_wrapped_attribute():
    lbemc = _lbemc()
    m = lbemc
    targets = [
        (m.frontend, "parse_program"), (m.cfa, "summarize"),
        (m.abstraction, "encode_edge"), (m.engine, "encode_edge"),
        (m.oracle, "encode_edge"), (m.abstraction.Abstractor, "abstract_post"),
        (m.smt.InternalSolver, "check_sat"), (m.smt.InternalSolver, "all_sat"),
        (m.engine, "verify"), (m.engine, "build_art"), (m.engine, "is_covered"),
        (m.engine, "check_path"), (m.engine, "extract_predicates"),
        (m.engine, "replay_path"),
    ]
    before = [owner.__dict__[attr] for owner, attr in targets]
    tracer = Tracer()
    tracer.install(lbemc)
    assert all(owner.__dict__[attr] is not orig
               for (owner, attr), orig in zip(targets, before))
    tracer.restore()
    assert all(owner.__dict__[attr] is orig
               for (owner, attr), orig in zip(targets, before))

    class FailingMeter(run.Meter):
        def sample(self):
            if self.samples:
                raise RuntimeError("meter failed")
            return super().sample()

    tasks = _reduced(lbemc, "locks-lbe-boolean")
    with pytest.raises(RuntimeError):
        run.run_round(lbemc, tasks, random.Random(0), FailingMeter(), Tracer())
    assert all(owner.__dict__[attr] is orig
               for (owner, attr), orig in zip(targets, before))


def test_self_times_and_unattributed_add_up_to_the_traced_wall():
    lbemc = _lbemc()
    for name in ("locks-cex", "corpus"):
        layer = Pair(lbemc, name).per_layer()
        self_total = sum(v for k, (v, _) in layer.items()
                         if k.endswith("_self_s") or "post_self_s" in k)
        total = self_total + layer["unattributed_s"][0]
        assert abs(total - layer["trace.wall_s"][0]) < 1e-9
        assert layer["unattributed_s"][0] >= 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    print(json.dumps(snapshot(), sort_keys=True))
