"""The alternating-pairs tool's summary on canned run records."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "perf_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("perf_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.001},
]


def _run(wall, ok=1.0):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "ok_ratio": {"value": ok, "unit": "ratio"}}}


def test_summary_of_paired_runs():
    tool = _tool()
    base = [_run(w) for w in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [_run(w) for w in (0.5, 2.5, 2.0, 3.0, 4.0)]
    wall, ok = tool.summarize(METRICS, base, change)
    assert wall["metric"] == "wall_s" and wall["unit"] == "s"
    assert (wall["base_median"], wall["change_median"]) == (3.0, 2.5)
    assert wall["base_iqr"] == pytest.approx(3.0)  # quartiles 1.5 and 4.5
    assert wall["change"] == pytest.approx(-1 / 6)
    assert (wall["won"], wall["pairs"], wall["all_beat"]) == (4, 5, False)
    # equal values win no pair in either direction
    assert (ok["won"], ok["all_beat"], ok["change"]) == (0, False, 0.0)


def test_every_change_run_beats_every_base_run():
    tool = _tool()
    base = [_run(w, ok=0.9) for w in (2.0, 2.1, 2.2)]
    change = [_run(w, ok=o) for w, o in ((1.9, 0.95), (1.0, 1.0), (1.5, 0.91))]
    wall, ok = tool.summarize(METRICS, base, change)
    assert wall["all_beat"] and wall["won"] == 3
    assert ok["all_beat"] and ok["won"] == 3 and ok["better"] == "higher"
    text = tool.format_rows("w", [wall, ok])
    assert text.splitlines()[0] == "== w"
    assert "3/3" in text and text.count("yes") == 2


def test_benchmark_metrics_are_read_from_the_repository():
    names = [m["name"] for m in _tool().load_benchmark()["end_to_end"]]
    assert "setup_s" in names and "wall_s" in names


def test_runs_alternate_and_last_as_long_as_the_benchmark(monkeypatch, capsys):
    tool = _tool()
    names = [m["name"] for m in tool.load_benchmark()["end_to_end"]]
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {name: {"value": 1.0} for name in names}}

    monkeypatch.setattr(tool, "run_once", fake_run)
    assert tool.main(["--base", "base", "--change", "change", "--workload", "w",
                      "--pairs", "2"]) == 0
    seconds = tool.load_benchmark()["run_seconds"]
    assert calls == [("base", "w", 1, seconds), ("change", "w", 1, seconds),
                     ("change", "w", 2, seconds), ("base", "w", 2, seconds)]
    assert "== w" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        tool.main(["--base", "b", "--change", "c", "--workload", "w", "--seconds", "8"])
