"""Behaviour snapshot of lbemc on every benchmark task, for diffing commits.

    python3 tools/behaviour_dump.py > new.jsonl
    python3 tools/behaviour_dump.py --root path/to/other/checkout > old.jsonl
    diff old.jsonl new.jsonl

The task list is read from `perfbench/workloads.py` next to this file:
every workload at full size, in canonical order (821 tasks).  lbemc is
imported from `<root>/src`, by default this checkout's.  Each task runs the
way the benchmark runs it (`parse_program`, `summarize` under LBE, `verify`
with a fresh `InternalSolver`) and gives one JSON line with

  - the verdict, reason and the deterministic `--stats` fields;
  - the solver's theory check count and the model count of each `all_sat`;
  - for `unsafe`: the witness (values as exact rationals), whether it is
    integral and was replayed, and the path as (source, target) pairs.

Nothing is timed, so two runs on one commit write the same bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def dump_task(lbemc, workload: str, task) -> dict:
    record = {"task": f"{workload}/{task.name}/{task.encoding}/{task.mode}"}
    solver = lbemc.smt.InternalSolver()
    models: list[int] = []
    all_sat = solver.all_sat

    def counting_all_sat(phi, important):
        result = all_sat(phi, important)
        models.append(len(result))
        return result

    solver.all_sat = counting_all_sat
    try:
        program = lbemc.frontend.parse_program(task.source)
        rules = 0
        if task.encoding == "lbe":
            program, trace = lbemc.cfa.summarize(program)
            rules = lbemc.cfa.rule_count(trace)
        result = lbemc.engine.verify(program, mode=task.mode, solver=solver,
                                     rule_applications=rules)
    except Exception as exc:  # a crash is part of the behaviour
        record["exception"] = f"{type(exc).__name__}: {exc}"
        return record
    finally:
        solver.close()
    stats = result.stats.as_dict()
    del stats["wall_time_ms"]
    record.update(verdict=result.verdict, reason=result.reason, stats=stats,
                  theory_checks=solver.theory_checks, all_sat_models=models)
    if result.verdict == "unsafe":
        record.update(
            witness={str(v): str(x) for v, x in sorted(
                result.model.items(), key=lambda item: lbemc.formula.var_sort_key(item[0]))},
            integral_witness=result.integral_witness,
            replayed=result.replayed,
            path=[[edge.source, edge.target] for edge, _ in result.path],
        )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/lbemc is run (default: this one)")
    args = parser.parse_args(argv)
    lbemc = workloads.load_lbemc(args.root)
    for workload in workloads.WORKLOADS:
        for task in workloads.build_tasks(lbemc, workload):
            print(json.dumps(dump_task(lbemc, workload, task), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
