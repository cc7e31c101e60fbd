"""SMT-LIB2 backend: an external solver process behind the solver interface.

It receives the same literal-normalized formulas as the internal engine, so
the two agree verdict-for-verdict.  `smt.make_solver` imports this module
the first time an external backend is asked for, so a run on the internal
engine never loads it or `subprocess`.
"""

from __future__ import annotations

import shlex
import subprocess
from fractions import Fraction

from .formula import (FALSE, TRUE, Formula, VariableRef, _TOKEN, _read, f_not, propvars,
                      to_sexpr, var_sort_key, variables)
from .smt import UNSAT, SatResult, _SolverBase, _fill, _satisfies, normalize


def _smt_symbol(v: VariableRef | str) -> str:
    return f"|{v}|"


def _smt_int(n: int) -> str:
    return str(n) if n >= 0 else f"(- {-n})"


class Smtlib2Solver(_SolverBase):
    """Session with an external SMT-LIB2 solver process (logic QF_LRA).

    The process is spawned lazily and kept for the lifetime of the object;
    each query runs inside a push/pop frame.  Formulas are normalized with
    the same literal rewriting as the internal engine before emission.
    """

    def __init__(self, command: str | list[str]) -> None:
        super().__init__()
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.proc: subprocess.Popen | None = None
        self._declared: set[str] = set()

    def _start(self) -> None:
        if self.proc is not None:
            return
        self.proc = subprocess.Popen(
            self.command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self._send("(set-option :print-success false)")
        self._send("(set-logic QF_LRA)")

    def _send(self, line: str) -> None:
        assert self.proc and self.proc.stdin
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def _read_sexpr(self) -> str:
        assert self.proc and self.proc.stdout
        buf = []
        depth = 0
        started = False
        while True:
            ch = self.proc.stdout.read(1)
            if ch == "":
                raise RuntimeError("solver process closed its output")
            if not started and ch.isspace():
                continue
            started = True
            buf.append(ch)
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return "".join(buf)
            elif depth == 0 and ch == "\n":
                return "".join(buf).strip()
            elif depth == 0 and not ch.isspace():
                # bare word reply such as `sat`
                rest = self.proc.stdout.readline()
                return ("".join(buf) + rest).strip()

    def _declare(self, phi: Formula) -> None:
        for v in sorted(variables(phi), key=var_sort_key):
            sym = _smt_symbol(v)
            if sym not in self._declared:
                self._declared.add(sym)
                self._send(f"(declare-fun {sym} () Real)")
        for name in sorted(propvars(phi)):
            sym = _smt_symbol(name)
            if sym not in self._declared:
                self._declared.add(sym)
                self._send(f"(declare-fun {sym} () Bool)")

    def _is_sat(self) -> bool:
        self._send("(check-sat)")
        verdict = self._read_sexpr()
        if verdict not in ("sat", "unsat"):
            raise RuntimeError(f"unexpected solver reply: {verdict!r}")
        return verdict == "sat"

    def _model(self, prep: Formula):
        """The values of prep's variables after a sat answer."""
        arith = sorted(variables(prep), key=var_sort_key)
        bools = sorted(propvars(prep))
        model: dict[VariableRef, Fraction] = {}
        bvals: dict[str, bool] = {}
        if arith or bools:
            syms = [_smt_symbol(v) for v in arith] + [_smt_symbol(b) for b in bools]
            self._send(f"(get-value ({' '.join(syms)}))")
            reply = self._read_sexpr()
            values = _parse_value_reply(reply)
            for v, sym in zip(arith, syms[: len(arith)]):
                model[v] = _parse_rational(values[_unquote(sym)])
            for b in bools:
                bvals[b] = values[b] in ("true",)
        return model, bvals

    def check_sat(self, phi: Formula) -> SatResult:
        self.queries += 1
        self._start()
        prep = normalize(phi)
        self._declare(prep)
        self._send("(push 1)")
        try:
            self._send(f"(assert {to_sexpr(prep, _smt_symbol, _smt_int)})")
            if not self._is_sat():
                return UNSAT
            model, bvals = self._model(prep)
        finally:
            self._send("(pop 1)")
        return _fill(phi, model, bvals)

    def entailed(self, phi: Formula, qs) -> list[bool] | None:
        """None if phi is unsat, else for each q of qs whether phi entails q.

        Counts the queries of check_sat(phi) and one entails(phi, q) per q.
        phi is asserted once; each complement of q that phi's model does
        not satisfy is checked in a nested frame.
        """
        self.queries += 1
        self._start()
        prep = normalize(phi)
        nqs = [normalize(f_not(q)) for q in qs]
        for f in (prep, *nqs):
            self._declare(f)
        self._send("(push 1)")
        try:
            self._send(f"(assert {to_sexpr(prep, _smt_symbol, _smt_int)})")
            if not self._is_sat():
                return None
            env, bools = self._model(prep)
            self.queries += len(qs)
            out = []
            for nq in nqs:
                # the complement, not q: see InternalSolver._decide
                if _satisfies(nq, env, bools):
                    out.append(False)
                    continue
                self._send("(push 1)")
                self._send(f"(assert {to_sexpr(nq, _smt_symbol, _smt_int)})")
                try:
                    out.append(not self._is_sat())
                finally:
                    self._send("(pop 1)")
            return out
        finally:
            self._send("(pop 1)")

    def all_sat(self, phi: Formula, important: list[str]) -> list[dict[str, bool]]:
        self.queries += 1
        self._start()
        prep = normalize(phi)
        if prep == FALSE:
            return []
        for name in important:
            sym = _smt_symbol(name)
            if sym not in self._declared:
                self._declared.add(sym)
                self._send(f"(declare-fun {sym} () Bool)")
        self._declare(prep)
        results: list[dict[str, bool]] = []
        syms = [f"|{n}|" for n in important]
        self._send("(push 1)")
        try:
            if prep != TRUE:
                self._send(f"(assert {to_sexpr(prep, _smt_symbol, _smt_int)})")
            while self._is_sat():
                if not important:
                    results.append({})
                    break
                self._send(f"(get-value ({' '.join(syms)}))")
                values = _parse_value_reply(self._read_sexpr())
                assignment = {n: values[n] == "true" for n in important}
                results.append(assignment)
                lits = [
                    f"(not {s})" if assignment[n] else s for n, s in zip(important, syms)
                ]
                self._send(f"(assert (or {' '.join(lits)}))")
        finally:
            self._send("(pop 1)")
        return results

    def close(self) -> None:
        if self.proc is not None:
            try:
                self._send("(exit)")
            except Exception:
                pass
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:  # it ignores SIGTERM
                self.proc.kill()
                self.proc.wait()
            self.proc = None


def _unquote(sym: str) -> str:
    return sym[1:-1] if sym.startswith("|") and sym.endswith("|") else sym


def _parse_value_reply(reply: str) -> dict:
    """Parse ((sym val) (sym val) ...) into {name: val}, each val a token
    or a list of vals as `formula._read` reads them."""
    tree, _ = _read(_TOKEN.findall(reply), 0)
    return {_unquote(name): value for name, value in tree}


def _parse_rational(value) -> Fraction:
    """The rational a `get-value` val denotes: a numeral, (- x) or (/ a b)."""
    if isinstance(value, str):
        return Fraction(value)
    if len(value) == 2 and value[0] == "-":
        return -_parse_rational(value[1])
    if len(value) == 3 and value[0] == "/":
        return _parse_rational(value[1]) / _parse_rational(value[2])
    raise ValueError(f"cannot parse rational {value!r}")
