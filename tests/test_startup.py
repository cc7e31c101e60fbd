"""What `import lbemc` loads, which lbemc modules import which, and the
plain record classes it defines."""

import ast
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lbemc
from lbemc.cfa import CFA, Edge, Program, TraceEntry
from lbemc.cli import RunConfig
from lbemc.formula import Term, VariableRef
from lbemc.oracle import DomainBound
from lbemc.record import FrozenRecord, Record
from lbemc.semantics import Assign, Havoc

SRC = Path(lbemc.__file__).resolve().parent.parent

# Imports lbemc and the modules the benchmark loads, in a fresh interpreter.
_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import lbemc
for name in ("frontend", "cfa", "engine", "smt", "oracle", "abstraction", "cli"):
    __import__("lbemc." + name)
loaded = [m for m in ("subprocess", "shlex", "dataclasses") if m in sys.modules]
import lbemc.smtlib
dataclasses = sorted(
    f"{mod}.{name}"
    for mod, module in list(sys.modules.items()) if mod.startswith("lbemc")
    for name, value in vars(module).items()
    if isinstance(value, type) and hasattr(value, "__dataclass_fields__"))
backend = lbemc.smtlib.Smtlib2Solver
print(json.dumps({"loaded": loaded, "dataclasses": dataclasses,
                  "lazy": lbemc.Smtlib2Solver is backend}))
"""


def test_cold_import_loads_no_process_backend_or_dataclasses():
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["loaded"] == []
    assert got["dataclasses"] == []
    assert got["lazy"] is True


def test_backend_names_resolve_and_unknown_names_raise():
    from lbemc.smtlib import Smtlib2Solver

    assert Smtlib2Solver is lbemc.Smtlib2Solver
    for module in (lbemc, lbemc.smt):
        with pytest.raises(AttributeError):
            module.no_such_name


def _lbemc_imports(name: str) -> set[str]:
    """The lbemc modules that the import statements of `lbemc/<name>.py`
    name, anywhere in the file."""
    found = set()
    for node in ast.walk(ast.parse((SRC / "lbemc" / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            paths = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative, so inside lbemc
                module = f"lbemc.{module}".rstrip(".")
            paths = [f"{module}.{a.name}" for a in node.names] if module == "lbemc" else [module]
        else:
            continue
        found.update(p.split(".")[1] for p in paths if p.startswith("lbemc."))
    return found


def test_oracle_shares_only_data_types_and_engine_needs_no_oracle():
    oracle, engine = _lbemc_imports("oracle"), _lbemc_imports("engine")
    assert {"cfa", "formula", "semantics"} <= oracle
    assert not oracle & {"smt", "engine", "abstraction"}
    assert {"abstraction", "smt"} <= engine
    assert "oracle" not in engine


def _x(i=None):
    return Term.variable(VariableRef("x", i))


def _cfa(edges):
    return CFA((0, 1, 2), tuple(edges))


# (make(), make() with one field changed) per record class
_VARIANTS = {
    "VariableRef": (lambda: VariableRef("x", 1), lambda: VariableRef("x", 2)),
    "Term": (lambda: Term(3, ((VariableRef("x"), 2),)), lambda: Term(4, ((VariableRef("x"), 2),))),
    "Edge": (lambda: Edge(0, Havoc("x"), 1), lambda: Edge(0, Havoc("y"), 1)),
    "CFA": (lambda: _cfa([Edge(0, Havoc("x"), 2)]), lambda: _cfa([Edge(0, Havoc("x"), 1)])),
    "Program": (lambda: Program(_cfa([Edge(0, Assign("x", _x()), 2)]), 0, 1),
                lambda: Program(_cfa([Edge(0, Assign("x", _x()), 2)]), 0, 2)),
}


@pytest.mark.parametrize("name", sorted(_VARIANTS))
def test_equal_fields_compare_and_hash_equal(name):
    make, changed = _VARIANTS[name]
    a, b, c = make(), make(), changed()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    assert repr(a) == repr(b) and repr(a).startswith(f"{name}(")


def test_every_frozen_record_is_hashed_above():
    # a frozen record promises a hash of its fields, so a class with a dict
    # field, such as TraceEntry's detail, is a plain Record
    import lbemc.cli  # noqa: F401  (imports every module that defines records)

    assert {cls.__name__ for cls in FrozenRecord.__subclasses__()} <= set(_VARIANTS)
    assert issubclass(TraceEntry, Record) and not issubclass(TraceEntry, FrozenRecord)


def test_trace_entries_compare_by_fields_and_are_unhashable():
    # `detail` is a dict, so a trace entry has no hash, as a frozen dataclass had none
    a, b = TraceEntry(1, {"removed_loc": 3, "via": 2}), TraceEntry(1, {"removed_loc": 3, "via": 2})
    c = TraceEntry(1, {"removed_loc": 3, "via": 1})
    assert a is not b and a == b and a != c
    assert repr(a) == repr(b) == "TraceEntry(rule=1, detail={'removed_loc': 3, 'via': 2})"
    with pytest.raises(TypeError):
        hash(a)


def test_hashes_are_those_of_the_field_tuples():
    v = VariableRef("x", 1)
    t = Term(3, ((v, 2),))
    assert hash(v) == hash(("x", 1)) and hash(t) == hash((3, ((v, 2),)))
    e = Edge(0, Havoc("x"), 1)
    assert hash(e) == hash((0, Havoc("x"), 1))
    assert repr(VariableRef("x")) == "VariableRef(name='x', index=None)"
    assert VariableRef("x") != "x" and Term() == Term(0, ())


def test_records_of_different_classes_differ():
    assert _x() != VariableRef("x")
    assert Edge(0, Havoc("x"), 1) != (0, Havoc("x"), 1)


def test_constructor_checks_still_raise():
    with pytest.raises(ValueError):
        DomainBound(default=(3, 1))
    with pytest.raises(ValueError):
        DomainBound(intervals={"x": (2, 0)})
    for budget in (0, -1):
        with pytest.raises(ValueError):
            DomainBound(budget=budget)
    with pytest.raises(ValueError):
        RunConfig("p.imp", encoding="xbe")
    with pytest.raises(ValueError):
        CFA((0, 0), ())
    with pytest.raises(ValueError):
        Program(_cfa([Edge(1, Havoc("x"), 0)]), 0, 1)


def test_constructor_defaults_and_keywords():
    bound = DomainBound(default=(0, 1), budget=5)
    assert bound.intervals == {} and bound.interval("x") == (0, 1)
    assert DomainBound().intervals is not DomainBound().intervals
    config = RunConfig("p.imp", max_refinements=0)
    assert (config.encoding, config.abstraction, config.max_refinements) == ("lbe", "boolean", 0)
    assert config == RunConfig(input_path="p.imp", max_refinements=0)
    result = lbemc.VerificationResult("unsafe", lbemc.Stats())
    assert result.path is None and result.stats.art_size == 0 and not result.replayed
    sat = lbemc.SatResult("sat", {VariableRef("x"): Fraction(1)})
    assert sat.is_sat and sat.bools is None
