import random

from lbemc.formula import (
    TRUE,
    VariableRef,
    compare,
    f_and,
    f_or,
    variables,
)
from lbemc.oracle import equivalent_modulo_indexed, random_formula, random_operation
from lbemc.semantics import (
    Assign,
    Assume,
    Choice,
    Havoc,
    Seq,
    encode_edge,
    op_label,
    op_variables,
    seq,
    sp,
    ssa_after,
)
from lbemc.smt import InternalSolver

from conftest import const, tvar


class TestSp:
    def test_assume_conjoins(self):
        g = compare(">", tvar("x"), const(0))
        assert sp(Assume(g), TRUE) == g

    def test_assign_introduces_fresh_value(self, solver):
        pre = compare("==", tvar("x"), const(0))
        post = sp(Assign("x", tvar("x") + 1), pre)
        # x@1 = 0 and x = x@1 + 1
        expected = f_and(
            compare("==", tvar("x", 1), const(0)),
            compare("==", tvar("x"), tvar("x", 1) + 1),
        )
        assert post == expected
        assert equivalent_modulo_indexed(post, compare("==", tvar("x"), const(1)), solver)

    def test_choice_disjoins(self):
        a = Assume(compare(">", tvar("x"), const(0)))
        b = Assume(compare("<", tvar("x"), const(0)))
        assert sp(Choice(a, b), TRUE) == f_or(
            compare(">", tvar("x"), const(0)), compare("<", tvar("x"), const(0))
        )

    def test_havoc_drops_constraint(self, solver):
        pre = compare("==", tvar("x"), const(5))
        post = sp(Havoc("x"), pre)
        assert VariableRef("x") not in variables(post)
        assert solver.check_sat(
            f_and(post, compare("==", tvar("x"), const(0)))
        ).is_sat

    def test_seq_composes(self, solver):
        op = Seq(Assign("x", const(0)), Assume(compare(">", tvar("x"), const(0))))
        assert not solver.check_sat(sp(op, TRUE)).is_sat


class TestEncodeEdge:
    def test_assign(self):
        f, out = encode_edge(Assign("x", tvar("x") + 1), {"x": 0})
        assert f == compare("==", tvar("x", 1), tvar("x", 0) + 1)
        assert out == {"x": 1}

    def test_seq_unsat(self, solver):
        op = Seq(Assign("x", const(0)), Assume(compare(">", tvar("x"), const(0))))
        f, out = encode_edge(op, {"x": 0})
        assert out == {"x": 1}
        assert not solver.check_sat(f).is_sat

    def test_choice_aligned_branches(self, solver):
        op = Choice(Assign("x", const(1)), Assign("x", const(2)))
        f, out = encode_edge(op, {"x": 0})
        assert out == {"x": 1}
        assert f == f_or(
            compare("==", tvar("x", 1), const(1)),
            compare("==", tvar("x", 1), const(2)),
        )
        for v in (1, 2):
            m = solver.check_sat(f_and(f, compare("==", tvar("x", 1), const(v))))
            assert m.is_sat

    def test_choice_padding_on_uneven_branches(self, solver):
        op = Choice(Assign("x", const(1)), Assume(compare(">", tvar("y"), const(0))))
        f, out = encode_edge(op, {"x": 0, "y": 0})
        # the branches end at different x indices, so both pad onto a fresh one
        assert out["x"] == 2
        assert out["y"] == 0
        res = solver.check_sat(f_and(f, compare("==", tvar("x", 2), const(1))))
        assert res.is_sat

    def test_agreement_with_sp(self, solver):
        # sat(phi@0 and encode(op)) == sat(sp(op, phi)) on random operations
        rng = random.Random(7)
        names = ["a", "b"]
        for _ in range(60):
            op = random_operation(rng, names, depth=2)
            phi = random_formula(rng, names, depth=1)
            from lbemc.formula import at_indices

            enc, _ = encode_edge(op, {n: 0 for n in names})
            lhs = solver.check_sat(f_and(at_indices(phi, {}), enc)).is_sat
            rhs = solver.check_sat(sp(op, phi)).is_sat
            assert lhs == rhs, (op, phi)


def test_ssa_after_matches_encode_edge_output_map():
    rng = random.Random(17)
    names = ["a", "b", "c"]
    shared: dict = {}  # keyed by id(op): every op must stay alive
    ops = [random_operation(rng, names, depth=4) for _ in range(300)]
    nested = 0
    for op in ops:
        ssa = {n: rng.randint(0, 3) for n in rng.sample(names, rng.randint(0, 3))}
        want = encode_edge(op, ssa)[1]
        assert ssa_after(op, ssa, {}) == want, op
        assert ssa_after(op, ssa, shared) == want, op
        nested += _choice_depth(op) >= 2
    assert nested > 20


def _choice_depth(op) -> int:
    """Largest number of choices on one root-to-leaf path of op."""
    if isinstance(op, Seq):
        return max(_choice_depth(op.first), _choice_depth(op.second))
    if isinstance(op, Choice):
        return 1 + max(_choice_depth(op.left), _choice_depth(op.right))
    return 0


def test_seq_constructor_right_associates():
    a, b, c = Havoc("a"), Havoc("b"), Havoc("c")
    s = seq(Seq(a, b), c)
    assert s == Seq(a, Seq(b, c))


def test_op_label_and_variables():
    op = Seq(
        Assume(compare(">", tvar("i"), const(0))),
        Choice(Assign("z", const(0)), Assign("z", const(1))),
    )
    assert op_label(op) == "[i >= 1]; (z = 0 || z = 1)"
    assert op_variables(op) == {"i", "z"}
    assert op_label(op, limit=8).endswith("...")
