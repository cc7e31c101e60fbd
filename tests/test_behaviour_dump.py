"""The behaviour snapshot tool on a few benchmark tasks."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "behaviour_dump.py"


def _tool():
    spec = importlib.util.spec_from_file_location("behaviour_dump", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_records_of_safe_and_unsafe_tasks():
    tool = _tool()
    lbemc = tool.workloads.load_lbemc(tool.ROOT)
    tasks = tool.workloads.build_tasks(lbemc, "locks-cex", scale="reduced")
    records = [tool.dump_task(lbemc, "locks-cex", t) for t in tasks]
    unsafe = [r for r in records if r["verdict"] == "unsafe"]
    assert unsafe and len(unsafe) < len(records)
    for r in records:
        assert "wall_time_ms" not in r["stats"] and r["theory_checks"] > 0
        json.dumps(r)  # one JSON line per task
    for r in unsafe:
        assert r["integral_witness"] and r["replayed"] and r["path"]
        assert all(isinstance(v, str) for v in r["witness"].values())
    boolean = [r for r in records if r["task"].endswith("/boolean")]
    assert boolean and all(r["all_sat_models"] for r in boolean)
    assert all(r["decisions"] > 0 and r["conflicts"] >= 0 for r in boolean)
    # nothing is timed: a second run gives the same records
    assert [tool.dump_task(lbemc, "locks-cex", t) for t in tasks] == records


def _write(path, records):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    return path


def test_compare_names_each_moved_field(tmp_path, capsys):
    tool = _tool()
    a = {"task": "w/a/sbe/cartesian", "verdict": "safe", "theory_checks": 61,
         "stats": {"art_size": 15, "solver_queries": 55}}
    b = {"task": "w/b/lbe/boolean", "verdict": "safe", "theory_checks": 4,
         "stats": {"art_size": 4, "solver_queries": 4}}
    old = _write(tmp_path / "old.jsonl", [a, b])
    assert tool.main(["--compare", str(old), str(old)]) == 0
    assert capsys.readouterr().out == "0 of 2 tasks differ\n"

    moved = dict(a, theory_checks=45, stats={"art_size": 15, "solver_queries": 56})
    extra = {"task": "w/c/sbe/cartesian", "verdict": "unknown"}
    new = _write(tmp_path / "new.jsonl", [moved, b, extra])
    assert tool.main(["--compare", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "w/a/sbe/cartesian",
        "  stats.solver_queries: 55 -> 56",
        "  theory_checks: 61 -> 45",
        "w/c/sbe/cartesian",
        "  only in new",
        "2 of 3 tasks differ",
        "  (task): 1",
        "  stats.solver_queries: 1",
        "  theory_checks: 1",
    ]


def test_compare_shows_an_absent_field(tmp_path, capsys):
    tool = _tool()
    safe = {"task": "w/a/lbe/boolean", "verdict": "safe"}
    crash = {"task": "w/a/lbe/boolean", "exception": "RecursionError: deep"}
    old = _write(tmp_path / "old.jsonl", [safe])
    new = _write(tmp_path / "new.jsonl", [crash])
    assert tool.main(["--compare", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines()[1:3] == [
        '  exception: (absent) -> "RecursionError: deep"',
        '  verdict: "safe" -> (absent)',
    ]


# Dumps the records of `locks-cex` at reduced size and of corpus programs
# 0..19 under all four configurations, one JSON line each.
_SEEDED_DUMP = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("behaviour_dump", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
lbemc = tool.workloads.load_lbemc(tool.ROOT)
for workload, count in (("locks-cex", None), ("corpus", 80)):
    for task in tool.workloads.build_tasks(lbemc, workload, scale="reduced")[:count]:
        print(json.dumps(tool.dump_task(lbemc, workload, task), sort_keys=True))
"""


def test_records_do_not_depend_on_the_hash_seed():
    # formulas and operations hash by identity, so the order of a set or
    # dict of them follows memory addresses; no record may follow it
    outputs = []
    for seed in ("1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", _SEEDED_DUMP, str(TOOL)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    records = [json.loads(line) for line in outputs[0].splitlines()]
    assert len(records) == 6 + 80
    assert {r["verdict"] for r in records} >= {"safe", "unsafe"}
    assert all("witness" in r for r in records if r["verdict"] == "unsafe")
    assert outputs[0] == outputs[1]
