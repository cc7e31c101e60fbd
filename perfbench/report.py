"""Collect, summarise and compare benchmark results.

    python3 perfbench/report.py collect OUT.json [--runs 10] [--trace 0|1]
    python3 perfbench/report.py show RESULTS.json [BASE.json]

`collect` runs perfbench/run.py once per workload of BENCHMARK.json and
seed 1..runs, one run after another, writes every result to OUT.json and
prints the summary.  `show` prints, per workload, every metric by name and
unit with its median, first and third quartile and spread (quartile
distance over median).  With
BASE.json it also prints the base median, the change, and for end-to-end
metrics a verdict against the bound in BENCHMARK.json: `ok`, `better`,
`REGRESSED`, or `unresolved` when either side spreads wider than the
bound and not every new run beats every base run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(out: Path, runs: int, trace: int) -> dict:
    bench = load_benchmark()
    results = []
    for name in (w["name"] for w in bench["workloads"]):
        for seed in range(1, runs + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                                   f"{proc.stderr[-2000:]}")
            results.append({"workload": name, "seed": seed, "trace": trace,
                            "result": json.loads(lines[-1])})
            print(f"{name} seed {seed} done", file=sys.stderr)
    data = {"runs": results}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(data, indent=1) + "\n")
    return data


def _summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def _by_workload(data: dict) -> dict[str, dict[str, list[float]]]:
    out: dict[str, dict[str, list[float]]] = {}
    for run in data["runs"]:
        metrics = out.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def _verdict(new: list[float], base: list[float], better: str, bound: float) -> str:
    new_med, *_, new_spread = _summary(new)
    base_med, *_, base_spread = _summary(base)
    if better == "lower":
        all_better = max(new) < min(base)
        worse_by = (new_med - base_med) / base_med if base_med else 0.0
    else:
        all_better = min(new) > max(base)
        worse_by = (base_med - new_med) / base_med if base_med else 0.0
    if all_better:
        return "better"
    if max(new_spread, base_spread) > bound:
        return "unresolved"
    return "REGRESSED" if worse_by > bound else "ok"


def show(data: dict, base: dict | None = None) -> None:
    bench = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    new_by, base_by = _by_workload(data), _by_workload(base) if base else {}
    for workload, metrics in new_by.items():
        runs = sum(1 for r in data["runs"] if r["workload"] == workload)
        failed = [r["result"]["failed"] for r in data["runs"] if r["workload"] == workload]
        correct = all(r["result"]["correct"] for r in data["runs"]
                      if r["workload"] == workload)
        print(f"\n== {workload}: {runs} runs, correct {correct}, "
              f"failed per run {failed}")
        header = f"{'metric':40s} {'unit':6s} {'median':>13s} {'q1':>13s} {'q3':>13s} {'spread':>7s}"
        if base:
            header += f" {'base median':>13s} {'change':>8s}  verdict"
        print(header)
        for name, values in metrics.items():
            med, q1, q3, spread = _summary(values)
            line = (f"{name:40s} {units.get(name, '?'):6s} {med:13.6g} "
                    f"{q1:13.6g} {q3:13.6g} {spread:7.3f}")
            base_values = base_by.get(workload, {}).get(name)
            if base_values:
                base_med = statistics.median(base_values)
                change = (med - base_med) / base_med if base_med else 0.0
                line += f" {base_med:13.6g} {change:+8.3f}"
                if name in e2e:
                    m = e2e[name]
                    line += "  " + _verdict(values, base_values, m["better"], m["bound"])
            print(line)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run the benchmark and summarise")
    c.add_argument("out", type=Path)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("show", help="summarise a result file, or compare two")
    s.add_argument("results", type=Path)
    s.add_argument("base", type=Path, nargs="?")
    args = p.parse_args(argv)

    if args.command == "collect":
        show(collect(args.out, args.runs, args.trace))
    else:
        base = json.loads(args.base.read_text()) if args.base else None
        show(json.loads(args.results.read_text()), base)
    return 0


if __name__ == "__main__":
    sys.exit(main())
