import json

import pytest

import lbemc.cli as cli
from lbemc.cli import gen_test_locks, main
from lbemc.engine import Stats, VerificationResult
from lbemc.frontend import parse_program
from lbemc.oracle import random_program
from lbemc.semantics import Assign, Assume, Havoc

from conftest import MOCK_SOLVER_CMD


@pytest.fixture
def locks_file(tmp_path):
    path = tmp_path / "test_locks_2.imp"
    path.write_text(gen_test_locks(2))
    return str(path)


@pytest.fixture
def bug_file(tmp_path):
    path = tmp_path / "test_locks_2_bug.imp"
    path.write_text(gen_test_locks(2, bug=True))
    return str(path)


class TestGenTestLocks:
    def test_structure(self):
        src = gen_test_locks(3)
        assert src.count("= nondet();") == 5  # cond + one per lock
        assert src.count("assert(") == 3
        assert "while (cond != 0)" in src
        parse_program(src)

    def test_bug_flips_last_guard(self):
        safe = gen_test_locks(2)
        bug = gen_test_locks(2, bug=True)
        assert "if (p2 == 0)" in bug and "if (p2 == 0)" not in safe
        assert safe.replace("if (p2 != 0) {\n    assert", "") != bug

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gen_test_locks(0)


class TestExitCodes:
    def test_safe_is_zero(self, locks_file):
        assert main([locks_file]) == 0

    def test_unsafe_is_one(self, bug_file, capsys):
        assert main([bug_file]) == 1
        out = capsys.readouterr().out
        assert "UNSAFE" in out and "counterexample" in out

    def test_unknown_is_two(self, tmp_path):
        path = tmp_path / "locks3.imp"
        path.write_text(gen_test_locks(3))
        code = main([str(path), "--abstraction", "cartesian",
                     "--max-refinements", "5"])
        assert code == 2

    def test_usage_error_is_three(self, capsys):
        assert main(["--no-such-flag"]) == 3
        assert main([]) == 3
        assert main(["--gen-test-locks", "0"]) == 3

    def test_missing_file_is_three(self):
        assert main(["/nonexistent/path.imp"]) == 3

    @pytest.mark.parametrize("flag", ["--max-refinements", "--crosscheck"])
    def test_negative_value_is_a_usage_error(self, locks_file, capsys, flag):
        assert main([locks_file, flag, "-1"]) == 3
        assert capsys.readouterr().err.startswith(f"usage error: {flag} must be >= 0")
        cli.RunConfig(locks_file, max_refinements=0, crosscheck=0)

    @pytest.mark.parametrize("flag", ["--stats", "--dot-cfa", "--dot-art", "--trace"])
    def test_unwritable_output_is_three(self, locks_file, tmp_path, capsys, flag):
        target = tmp_path / "no-such-dir" / "out"
        assert main([locks_file, flag, str(target)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err

    def test_unwritable_generator_output_is_three(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "locks.imp"
        assert main(["--gen-test-locks", "2", "-o", str(target)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err

    def test_parse_error_is_three(self, tmp_path):
        path = tmp_path / "bad.imp"
        path.write_text("x = 0;")
        assert main([str(path)]) == 3

    def test_broken_solver_is_three(self, locks_file, monkeypatch):
        monkeypatch.setenv(cli.SOLVER_ENV, "/nonexistent/solver --smt2")
        assert main([locks_file]) == 3

    def test_internal_error_is_three_without_traceback(self, locks_file, capsys,
                                                       monkeypatch):
        def deep_summarize(program):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "summarize", deep_summarize)
        assert main([locks_file]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: RecursionError: ")
        assert "Traceback" not in err

    def test_recursion_error_in_verify_is_internal(self, locks_file, capsys,
                                                   monkeypatch):
        # RecursionError is a RuntimeError, but no solver error
        def deep_verify(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "verify", deep_verify)
        assert main([locks_file]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: RecursionError: ")
        assert "solver error" not in err and "Traceback" not in err

    def test_nesting_too_deep_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.imp"
        path.write_text("int x;\n" + "if (x < 1) {\n" * 2000 + "}\n" * 2000)
        assert main([str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and err.rstrip().endswith("nesting too deep")

    @pytest.mark.parametrize("source", ["int x; x = \u00b2;", "int x; x = 1\u00b2;"])
    def test_digit_that_int_refuses_is_a_parse_error(self, tmp_path, capsys, source):
        path = tmp_path / "digit.imp"
        path.write_text(source, encoding="utf-8")
        assert main([str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error: 1:12: ") and "internal error" not in err

    @pytest.mark.parametrize("source", ["int x; x = \u0663; if (x == 3) { error(); }",
                                        "int x; x = 1\u0663; if (x == 13) { error(); }"])
    def test_non_ascii_decimal_digit_is_a_parse_error(self, tmp_path, capsys, source):
        path = tmp_path / "digit.imp"
        path.write_text(source, encoding="utf-8")
        assert main([str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("parse error: 1:12: ")
        assert "unsafe" not in captured.out

    def test_nested_program_is_verified(self, tmp_path, capsys):
        # no depth cap: what the recursive descent parses still verifies
        depth = 400
        path = tmp_path / "nested.imp"
        path.write_text("int x;\nx = nondet();\n"
                        + "".join(f"if (x > {i}) {{\n" for i in range(depth))
                        + "if (x < 0) { error(); }\n" + "}\n" * depth)
        assert main([str(path)]) == 0
        assert "SAFE" in capsys.readouterr().out

    def test_long_straight_line_is_verified(self, tmp_path, capsys):
        path = tmp_path / "long.imp"
        path.write_text("int x;\nx = 0;\n" + "x = x + 1;\n" * 2000
                        + "if (x < 0) { error(); }\n")
        assert main([str(path)]) == 0
        assert "SAFE" in capsys.readouterr().out

    @pytest.mark.parametrize("config", [["--encoding", "sbe", "--abstraction", "cartesian"],
                                        ["--encoding", "lbe", "--abstraction", "boolean"],
                                        ["--encoding", "lbe", "--abstraction", "cartesian"]])
    def test_long_straight_line_counterexample_replays(self, tmp_path, capsys, config):
        path = tmp_path / "long.imp"
        path.write_text("int x;\n" + "x = x + 1;\n" * 1500 + "if (x == 3) { error(); }\n")
        assert main([str(path), *config]) == 1
        out = capsys.readouterr().out
        assert "UNSAFE" in out and "replayed to error" in out

    def test_crosscheck_disagreement_is_four(self, locks_file, monkeypatch):
        bogus = VerificationResult("unsafe", Stats())

        def fake_verify(*args, **kwargs):
            return bogus

        monkeypatch.setattr(cli, "verify", fake_verify)
        assert main([locks_file, "--crosscheck", "1"]) == 4

    def test_crosscheck_accepts_a_replayed_witness_beyond_the_bound(self, tmp_path,
                                                                     capsys):
        # b reaches -3, outside [-2, 2], so the oracle finds no error there;
        # the integral witness a = 0, b = 0 is replayed, a concrete run
        path = tmp_path / "beyond.imp"
        path.write_text("int a; int b; int c; assume(b == 0); b = 2 * b + b - 3; "
                        "if (a != 2) { error(); }\n")
        assert main([str(path), "--crosscheck", "2"]) == 1
        captured = capsys.readouterr()
        assert "replayed to error" in captured.out
        assert "crosscheck FAILED" not in captured.err
        assert "crosscheck: oracle finds no error within [-2, 2]" in captured.err


class TestOutputs:
    def test_stats_json_schema(self, locks_file, tmp_path):
        stats = tmp_path / "out.json"
        assert main([locks_file, "--encoding", "lbe", "--abstraction", "boolean",
                     "--stats", str(stats)]) == 0
        payload = json.loads(stats.read_text())
        assert payload["verdict"] == "safe"
        assert payload["refinement_steps"] == 0
        assert payload["predicates"] == {"total": 0, "avg": 0, "max": 0}
        assert payload["art_size"] <= 5
        assert payload["rule_applications"] > 0
        assert payload["wall_time_ms"] > 0

    def test_stats_deterministic_modulo_wall_time(self, locks_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main([locks_file, "--stats", str(a)])
        main([locks_file, "--stats", str(b)])
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da.pop("wall_time_ms")
        db.pop("wall_time_ms")
        assert da == db

    def test_dot_and_trace_outputs(self, locks_file, tmp_path):
        cfa_dot = tmp_path / "cfa.dot"
        art_dot = tmp_path / "art.dot"
        trace = tmp_path / "trace.jsonl"
        main([locks_file, "--dot-cfa", str(cfa_dot), "--dot-art", str(art_dot),
              "--trace", str(trace)])
        assert cfa_dot.read_text().startswith("digraph cfa {")
        assert art_dot.read_text().startswith("digraph art {")
        for line in trace.read_text().strip().splitlines():
            assert json.loads(line)["rule"] in (0, 1, 2)

    def test_sbe_stats_differ(self, locks_file, tmp_path):
        stats = tmp_path / "sbe.json"
        assert main([locks_file, "--encoding", "sbe", "--abstraction",
                     "cartesian", "--stats", str(stats)]) == 0
        payload = json.loads(stats.read_text())
        assert payload["refinement_steps"] > 0
        assert payload["rule_applications"] == 0

    def test_generator_to_stdout_and_file(self, tmp_path, capsys):
        assert main(["--gen-test-locks", "2"]) == 0
        out = capsys.readouterr().out
        assert "int lk2;" in out
        target = tmp_path / "locks.imp"
        assert main(["--gen-test-locks", "2", "--bug", "-o", str(target)]) == 0
        assert "p2 == 0" in target.read_text()


class TestInputModes:
    def test_stdin(self, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(gen_test_locks(1)))
        assert main(["-"]) == 0

    def test_crosscheck_agreement(self, bug_file, capsys):
        assert main([bug_file, "--crosscheck", "1"]) == 1
        assert "verdicts agree" in capsys.readouterr().err

    def test_crosscheck_searches_the_parsed_program(self, locks_file, monkeypatch):
        # summarization keeps reachability, and the oracle's successors of
        # a large block would be every path through its shared choices
        seen = []
        real = cli.explicit_reachable

        def recording(program, bound):
            seen.append(program)
            return real(program, bound)

        monkeypatch.setattr(cli, "explicit_reachable", recording)
        assert main([locks_file, "--encoding", "lbe", "--crosscheck", "1"]) == 0
        (program,) = seen
        assert all(isinstance(e.op, (Assign, Assume, Havoc)) for e in program.cfa.edges)

    def test_external_solver_backend(self, locks_file, monkeypatch):
        monkeypatch.setenv(cli.SOLVER_ENV, MOCK_SOLVER_CMD)
        assert main([locks_file, "--encoding", "sbe",
                     "--abstraction", "cartesian"]) == 0


class TestFuzz:
    CONFIGS = [["--encoding", encoding, "--abstraction", abstraction]
               for encoding in ("sbe", "lbe") for abstraction in ("cartesian", "boolean")]

    def test_grammar_shaped_programs_end_in_a_verdict(self, tmp_path, capsys):
        path = tmp_path / "random.imp"
        for seed in range(1000, 1060):
            path.write_text(random_program(seed, n_vars=3, max_stmts=8))
            for config in self.CONFIGS:
                code = main([str(path), *config, "--crosscheck", "2",
                             "--max-refinements", "20"])
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (seed, config, err)
                assert "internal error" not in err and "Traceback" not in err, (seed, config)
