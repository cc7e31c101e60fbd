"""The lock-ladder scaling tool at tiny lock counts."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "lbe_scaling.py"


def _tool():
    spec = importlib.util.spec_from_file_location("lbe_scaling", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_records_every_size(tmp_path):
    tool = _tool()
    out = tmp_path / "bench.json"
    assert tool.main(["--sizes", "2", "3", "--label", "a", "--out", str(out)]) == 0
    assert tool.main(["--sizes", "2", "--label", "b", "--out", str(out)]) == 0
    stored = json.loads(out.read_text())
    assert set(stored) == {"a", "b"}
    records = stored["a"]["sizes"]
    assert [r["n"] for r in records] == [2, 3]
    for r in records:
        assert r["verdict"] == "safe" and r["art_size"] == 4
        assert r["theory_checks"] > 0 and r["verify_s"] > 0 and r["summarize_s"] > 0
        assert 0 < r["encode_s"] <= r["verify_s"]
        assert 0 <= r["prune_s"] <= r["verify_s"]
        assert r["decisions"] > 0 and 0 < r["conflicts"] <= r["decisions"]
        assert len(r["query_atoms"]) == 4 and max(r["query_atoms"]) > 0
    # the slope is fitted over n >= 20 only
    assert stored["a"]["loglog_slope"] is None


def test_sbe_cartesian_run(tmp_path):
    tool = _tool()
    out = tmp_path / "bench.json"
    assert tool.main(["--encoding", "sbe", "--mode", "cartesian", "--sizes", "1", "2",
                      "--out", str(out)]) == 0
    run = json.loads(out.read_text())["run"]
    assert (run["encoding"], run["mode"]) == ("sbe", "cartesian")
    for r in run["sizes"]:
        assert r["verdict"] == "safe" and r["art_size"] > 4
        assert r["theory_checks"] > 0 and r["verify_s"] > 0
        assert 0 < r["encode_s"] <= r["verify_s"]
        assert 0 <= r["prune_s"] <= r["verify_s"]
        assert "summarize_s" not in r and r["query_atoms"] == []


def test_loglog_slope():
    tool = _tool()
    records = [{"n": n, "verify_s": 0.001 * n ** 2} for n in (10, 20, 40, 80)]
    assert tool.loglog_slope(records) == 2.0
