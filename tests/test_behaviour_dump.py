"""The behaviour snapshot tool on a few benchmark tasks."""

import importlib.util
import json
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
    # nothing is timed: a second run gives the same records
    assert [tool.dump_task(lbemc, "locks-cex", t) for t in tasks] == records
