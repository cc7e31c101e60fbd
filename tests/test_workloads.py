"""The benchmark's task runner on this package.

`perfbench/workloads.py` reads lbemc outside the tracer's wrappers too: it
builds the lock ladders and the random corpus, computes the corpus's
reference answers with `oracle.explicit_reachable` and reads the BDD size
off the first ART node's abstract state.  A name it needs that goes missing
shows as an exception in a task's record, which this test rejects.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "behaviour_dump", ROOT / "tools" / "behaviour_dump.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.workloads


def test_a_few_tasks_of_every_workload_run_without_exception():
    workloads = _workloads()
    lbemc = workloads.load_lbemc(ROOT)
    for workload in workloads.WORKLOADS:
        tasks = workloads.build_tasks(lbemc, workload, scale="reduced")
        tasks = workloads.with_references(lbemc, tasks[:2] + tasks[-2:])
        assert all(t.reference != workloads.PENDING for t in tasks), workload
        for task in tasks:
            outcome = workloads.run_task(lbemc, task)
            assert "exception" not in outcome.record, (workload, task.name, outcome.record)
            assert outcome.status != "failed" and not outcome.wrong, (workload, task.name)
            assert outcome.bdd_nodes > 0, (workload, task.name)
