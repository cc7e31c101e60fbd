"""Alternating benchmark pairs: a base checkout against a change.

    python3 tools/perf_pairs.py --base path/to/parent --change . \\
        --workload locks-lbe-boolean --pairs 10 [--json OUT]

For seed k = 1..N it runs the base checkout's own
`perfbench/run.py --workload W --seed k --seconds S --trace 0` and the
change's, each from the root of its checkout and one process at a time, so
the two sides of a pair see the same host conditions; the base runs first
in odd pairs and the change in even ones.  S is the `run_seconds` of the
`BENCHMARK.json` next to this file, so every run lasts as long as a
benchmark run.  For every end-to-end metric of that file it then prints
the base and change medians, the base interquartile range, the relative
change of the median, the pairs the change won (strictly better in the
metric's direction) and whether every change run beat every base run.
`--json OUT` writes the raw run records as `{"base": [...], "change":
[...]}`, each in seed order and as `run.py` printed it.  A run that exits
non-zero or prints no result stops the tool with exit 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result record of one untraced benchmark run in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(metrics: list[dict], base: list[dict], change: list[dict]) -> list[dict]:
    """One row per metric from paired run records (pair i is base[i], change[i])."""
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        base_med, change_med = statistics.median(b), statistics.median(c)
        if lower:
            won = sum(y < x for x, y in zip(b, c))
            all_beat = max(c) < min(b)
        else:
            won = sum(y > x for x, y in zip(b, c))
            all_beat = min(c) > max(b)
        rows.append({
            "metric": name, "unit": m["unit"], "better": m["better"],
            "base_median": base_med, "change_median": change_med, "base_iqr": _iqr(b),
            "change": (change_med - base_med) / base_med if base_med else 0.0,
            "won": won, "pairs": len(b), "all_beat": all_beat,
        })
    return rows


def format_rows(workload: str, rows: list[dict]) -> str:
    lines = [f"== {workload}",
             f"{'metric':24s} {'unit':5s} {'base median':>12s} {'change median':>13s} "
             f"{'base IQR':>10s} {'change':>8s} {'won':>6s}  all beat"]
    for r in rows:
        lines.append(
            f"{r['metric']:24s} {r['unit']:5s} {r['base_median']:12.6g} "
            f"{r['change_median']:13.6g} {r['base_iqr']:10.4g} {r['change']:+8.2%} "
            f"{r['won']:>3d}/{r['pairs']:<2d}  {'yes' if r['all_beat'] else 'no'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", type=Path, required=True, help="root of the base checkout")
    p.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--json", type=Path, help="write the raw run records here")
    args = p.parse_args(argv)

    bench = load_benchmark()
    base, change = [], []
    try:
        for seed in range(1, args.pairs + 1):
            sides = [(args.base, base), (args.change, change)]
            for checkout, runs in sides if seed % 2 else sides[::-1]:
                runs.append(run_once(checkout, args.workload, seed, bench["run_seconds"]))
            print(f"pair {seed} done", file=sys.stderr)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        args.json.write_text(json.dumps({"base": base, "change": change}, indent=1) + "\n")
    print(format_rows(args.workload, summarize(bench["end_to_end"], base, change)))
    for side, runs in (("base", base), ("change", change)):
        shares = [round(r["failed"] / r["attempted"], 4) if r["attempted"] else 0.0
                  for r in runs]
        print(f"{side}: failed share per run {shares}, "
              f"correct in {sum(bool(r['correct']) for r in runs)}/{len(runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
