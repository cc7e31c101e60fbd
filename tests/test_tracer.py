"""The benchmark's layer tracer on this package.

`perfbench/tracer.py` wraps lbemc functions by the names the importing
modules bound (`oracle.encode_edge`, `engine.replay_path`, ...), so a
name it needs that goes missing fails here, not only in a benchmark run.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_trace_and_restore():
    workloads = _load("behaviour_dump", ROOT / "tools" / "behaviour_dump.py").workloads
    lbemc = workloads.load_lbemc(ROOT)
    tracer = _load("tracer", ROOT / "perfbench" / "tracer.py").Tracer()
    modules = (lbemc.frontend, lbemc.cfa, lbemc.abstraction, lbemc.engine, lbemc.oracle,
               lbemc.abstraction.Abstractor, lbemc.smt.InternalSolver)
    before = [dict(vars(m)) for m in modules]
    tasks = workloads.build_tasks(lbemc, "locks-cex", scale="reduced")
    tracer.install(lbemc)
    try:
        outcomes = [workloads.run_task(lbemc, t) for t in tasks]
        layers, counts = tracer.take()
    finally:
        tracer.restore()
    assert [dict(vars(m)) for m in modules] == before
    assert all(o.status != "failed" and not o.wrong for o in outcomes)
    for span in ("frontend.parse", "cfa.summarize", "semantics.encode_edge",
                 "abstraction.post.boolean", "abstraction.post.cartesian",
                 "smt.check_sat", "smt.all_sat", "engine.verify", "engine.build_art",
                 "engine.is_covered", "engine.check_path", "engine.extract_predicates",
                 "oracle.replay_path"):
        assert layers[span]["calls"] > 0, span
    assert counts["oracle.replayed"] > 0
