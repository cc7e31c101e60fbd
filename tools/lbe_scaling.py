"""How verification time grows with the lock count, LBE+Boolean by default.

    python3 tools/lbe_scaling.py
    python3 tools/lbe_scaling.py --label change --out BENCH_lbe_scaling.json
    python3 tools/lbe_scaling.py --root path/to/other/checkout --label parent \\
        --out BENCH_lbe_scaling.json
    python3 tools/lbe_scaling.py --encoding sbe --mode cartesian --sizes 4 5 6 \\
        --repeat 3 --label change --out BENCH_sbe_cartesian.json

For each lock count n, `test_locks_n` (`lbemc.cli.gen_test_locks`) is
parsed, summarized under LBE (`--encoding lbe`, the default; SBE leaves
the program as it is), and `verify` runs in the abstraction mode `--mode`
(default `boolean`) with a fresh `InternalSolver`.  `summarize` and
`verify` are timed.  One record per n holds

  - `summarize_s` (LBE only) and `verify_s`: the median `summarize` and
    `verify` times over `--repeat` runs;
  - `encode_s`: the median time the abstract posts spend in `encode_edge`
    during the timed `verify` (wrapped at `lbemc.abstraction.encode_edge`,
    the name the posts call, so a checkout of any version can be timed);
  - `prune_s`: the same for `drop_dead_pads`, the time the posts spend
    dropping the copies nothing reads, or None for a checkout whose posts
    do not call it;
  - `theory_checks`, `art_size` and `verdict` of the run;
  - `decisions` and `conflicts`: the search counters of the solver, or
    None for a checkout whose `InternalSolver` does not count them;
  - `query_atoms`: the distinct atoms of each Boolean post's formula
    after `smt.normalize`, in call order: the formula passed to
    `valuations`, or the `all_sat` query for a checkout whose solver has
    no `valuations`; empty in Cartesian mode, which makes no such query.

The run also holds its `encoding` and `mode`, `loglog_slope`, the
least-squares slope of log(verify_s) over log(n) for n >= 20, and the
interpreter and machine it ran on.  lbemc is imported from `<root>/src`,
by default this checkout's.  Without `--out` the run is printed as JSON;
with it, the run is stored under its label in that file, keeping the runs
of other labels, so one file can hold a parent's and a change's numbers
side by side.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SIZES = (10, 20, 40, 80, 160)


def measure(lbemc, n: int, repeat: int = 1, encoding: str = "lbe",
            mode: str = "boolean") -> dict:
    """The record of `test_locks_n` under the encoding and mode."""
    source = lbemc.cli.gen_test_locks(n)
    times = []
    summarize_times = []
    wrapped = [name for name in ("encode_edge", "drop_dead_pads")
               if hasattr(lbemc.abstraction, name)]
    spent: dict[str, list[float]] = {name: [] for name in wrapped}
    for _ in range(repeat):
        program = lbemc.frontend.parse_program(source)
        if encoding == "lbe":
            start = time.perf_counter()
            program, _ = lbemc.cfa.summarize(program)
            summarize_times.append(time.perf_counter() - start)
        solver = lbemc.smt.InternalSolver()
        queries = []
        # one query per Boolean post: `valuations`, or `all_sat` for a
        # checkout whose solver has no `valuations`
        method = "valuations" if hasattr(solver, "valuations") else "all_sat"
        post = getattr(solver, method)

        def recording(phi, qs, post=post):
            queries.append(phi)
            return post(phi, qs)

        setattr(solver, method, recording)
        originals = {name: getattr(lbemc.abstraction, name) for name in wrapped}
        totals = dict.fromkeys(wrapped, 0.0)
        for name, original in originals.items():
            setattr(lbemc.abstraction, name, _timed(original, totals, name))
        result = None  # frees the previous run before the clock starts
        try:
            start = time.perf_counter()
            result = lbemc.engine.verify(program, mode=mode, solver=solver)
            times.append(time.perf_counter() - start)
        finally:
            for name, original in originals.items():
                setattr(lbemc.abstraction, name, original)
        for name, total in totals.items():
            spent[name].append(total)
        solver.close()
    # counted after the timed run, on the last run's queries
    atoms = [len({g for g in lbemc.formula._dag_nodes(lbemc.smt.normalize(phi))
                  if isinstance(g, lbemc.formula.Atom)}) for phi in queries]
    prune = spent.get("drop_dead_pads")
    record = {"n": n, "verify_s": round(statistics.median(times), 4),
              "encode_s": round(statistics.median(spent["encode_edge"]), 5),
              "prune_s": round(statistics.median(prune), 5) if prune else None,
              "verdict": result.verdict, "art_size": result.stats.art_size,
              "theory_checks": solver.theory_checks,
              "decisions": getattr(solver, "decisions", None),
              "conflicts": getattr(solver, "conflicts", None), "query_atoms": atoms}
    if summarize_times:
        record["summarize_s"] = round(statistics.median(summarize_times), 5)
    return record


def _timed(function, totals: dict[str, float], name: str):
    """function, adding the time of each call to totals[name]."""
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            totals[name] += time.perf_counter() - start

    return timed


def loglog_slope(records: list[dict], n_min: int = 20) -> float | None:
    """Least-squares slope of log(verify_s) over log(n), for n >= n_min."""
    points = [(math.log(r["n"]), math.log(r["verify_s"]))
              for r in records if r["n"] >= n_min and r["verify_s"] > 0]
    if len(points) < 2:
        return None
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    sxy = sum((x - mx) * (y - my) for x, y in points)
    return round(sxy / sxx, 3)


def run(lbemc, sizes, repeat: int = 1, encoding: str = "lbe",
        mode: str = "boolean") -> dict:
    records = [measure(lbemc, n, repeat, encoding, mode) for n in sizes]
    return {
        "encoding": encoding,
        "mode": mode,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "repeat": repeat,
        "sizes": records,
        "loglog_slope": loglog_slope(records),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/lbemc is run (default: this one)")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES),
                        help="lock counts (default: %(default)s)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="verify runs per size; the median is recorded")
    parser.add_argument("--encoding", choices=("lbe", "sbe"), default="lbe",
                        help="block encoding (default: %(default)s)")
    parser.add_argument("--mode", choices=("boolean", "cartesian"), default="boolean",
                        help="abstraction mode (default: %(default)s)")
    parser.add_argument("--label", default="run", help="key of the run in --out")
    parser.add_argument("--out", type=Path, help="JSON file to store the run in")
    args = parser.parse_args(argv)
    result = run(workloads.load_lbemc(args.root), args.sizes, args.repeat,
                 args.encoding, args.mode)
    if args.out is None:
        print(json.dumps(result, indent=1))
        return 0
    stored = json.loads(args.out.read_text()) if args.out.exists() else {}
    stored[args.label] = result
    args.out.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
