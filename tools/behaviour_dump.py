"""Behaviour snapshot of lbemc on every benchmark task, for diffing commits.

    python3 tools/behaviour_dump.py > new.jsonl
    python3 tools/behaviour_dump.py --root path/to/other/checkout > old.jsonl
    python3 tools/behaviour_dump.py --compare old.jsonl new.jsonl

The task list is read from `perfbench/workloads.py` next to this file:
every workload at full size, in canonical order (821 tasks).  lbemc is
imported from `<root>/src`, by default this checkout's.  Each task runs the
way the benchmark runs it (`parse_program`, `summarize` under LBE, `verify`
with a fresh `InternalSolver`) and gives one JSON line with

  - the verdict, reason and the deterministic `--stats` fields;
  - the solver's theory check, decision and conflict counts (None for a
    checkout whose solver has no such counter) and, per Boolean post, the
    number of valuations (`valuations`) or models (`all_sat`, for a
    checkout whose solver has no `valuations`) it found;
  - for `unsafe`: the witness (values as exact rationals), whether it is
    integral and was replayed, and the path as (source, target) pairs.

Nothing is timed, so two runs on one commit write the same bytes.

`--compare OLD NEW` reads two such files and prints each task whose record
differs, with its differing fields as `old -> new` (nested fields by dotted
name, such as `stats.solver_queries`), then a count of tasks per field.  It
exits 1 if any record differs, 0 if none does.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def dump_task(lbemc, workload: str, task) -> dict:
    record = {"task": f"{workload}/{task.name}/{task.encoding}/{task.mode}"}
    solver = lbemc.smt.InternalSolver()
    models: list[int] = []
    # one entry per Boolean post: `valuations`, or `all_sat` for a checkout
    # whose solver has no `valuations`
    method = "valuations" if hasattr(solver, "valuations") else "all_sat"
    post = getattr(solver, method)

    def counting(phi, qs):
        result = post(phi, qs)
        models.append(len(result))
        return result

    setattr(solver, method, counting)
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
                  theory_checks=solver.theory_checks,
                  decisions=getattr(solver, "decisions", None),
                  conflicts=getattr(solver, "conflicts", None), all_sat_models=models)
    if result.verdict == "unsafe":
        record.update(
            witness={str(v): str(x) for v, x in sorted(
                result.model.items(), key=lambda item: lbemc.formula.var_sort_key(item[0]))},
            integral_witness=result.integral_witness,
            replayed=result.replayed,
            path=[[edge.source, edge.target] for edge, _ in result.path],
        )
    return record


def _fields(record: dict, prefix: str = "") -> dict:
    """The record's leaves by dotted name; lists are leaves."""
    out = {}
    for key, value in record.items():
        if isinstance(value, dict):
            out.update(_fields(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _read(path: Path) -> dict[str, dict]:
    records = (json.loads(line) for line in path.read_text().splitlines() if line)
    return {r["task"]: _fields(r) for r in records}


def _shown(record: dict, field: str) -> str:
    return json.dumps(record[field]) if field in record else "(absent)"


def compare(old_path: Path, new_path: Path) -> int:
    """Print the records of new_path that differ from old_path's; 1 if any."""
    old, new = _read(old_path), _read(new_path)
    counts: Counter[str] = Counter()
    differ = 0
    for task in list(old) + [t for t in new if t not in old]:
        a, b = old.get(task), new.get(task)
        if a == b:
            continue
        differ += 1
        print(task)
        if a is None or b is None:
            print(f"  only in {'new' if a is None else 'old'}")
            counts["(task)"] += 1
            continue
        for field in sorted(a.keys() | b.keys()):
            if _shown(a, field) != _shown(b, field):
                print(f"  {field}: {_shown(a, field)} -> {_shown(b, field)}")
                counts[field] += 1
    print(f"{differ} of {len(old.keys() | new.keys())} tasks differ")
    for field, n in sorted(counts.items()):
        print(f"  {field}: {n}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/lbemc is run (default: this one)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="compare two dumps instead of writing one")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    lbemc = workloads.load_lbemc(args.root)
    for workload in workloads.WORKLOADS:
        for task in workloads.build_tasks(lbemc, workload):
            print(json.dumps(dump_task(lbemc, workload, task), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
