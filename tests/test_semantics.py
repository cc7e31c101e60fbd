import random

from lbemc.formula import (
    And,
    Atom,
    Not,
    Or,
    PropVar,
    TRUE,
    Term,
    VariableRef,
    _dag_nodes,
    at_indices,
    canon_eq,
    compare,
    f_and,
    f_iff,
    f_or,
    variables,
)
from lbemc.semantics import (
    Assign,
    Assume,
    Choice,
    Havoc,
    Seq,
    SsaEncoder,
    drop_dead_pads,
    encode_edge,
    op_label,
    op_variables,
    seq,
    seq_chain,
    sp,
)
from lbemc.smt import InternalSolver

from conftest import const, is_copy, tvar
from references import equivalent_modulo_indexed, random_formula, random_operation


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


def test_seq_constructor_right_associates():
    a, b, c = Havoc("a"), Havoc("b"), Havoc("c")
    s = seq(Seq(a, b), c)
    assert s == Seq(a, Seq(b, c))


def test_seq_chain_equals_folding_seq():
    rng = random.Random(3)
    for _ in range(100):
        ops = [random_operation(rng, ["a", "b"], depth=2) for _ in range(rng.randint(1, 5))]
        folded = ops[0]
        for op in ops[1:]:
            folded = seq(folded, op)
        assert seq_chain(ops) == folded


def test_long_sequences_need_no_recursion():
    k = 3000  # beyond the interpreter's default recursion limit
    ops = [Assign("x", tvar("x") + 1) for _ in range(k)]
    op = seq_chain(ops)
    assert op == seq_chain(list(ops))
    f, out = encode_edge(op, {})
    assert out == {"x": k} and len(f.args) == k
    assert op_label(op).count(";") == k - 1
    assert len(op_label(op, limit=50)) == 53


def test_op_label_and_variables():
    op = Seq(
        Assume(compare(">", tvar("i"), const(0))),
        Choice(Assign("z", const(0)), Assign("z", const(1))),
    )
    assert op_label(op) == "[i >= 1]; (z = 0 || z = 1)"
    assert op_variables(op) == {"i", "z"}
    assert op_label(op, limit=8).endswith("...")


def _op_variables_reference(op):
    """op_variables as it asked `formula.variables` of each condition."""
    if isinstance(op, Assign):
        return {op.var} | {v.name for v in op.expr.variables()}
    if isinstance(op, Assume):
        return {v.name for v in variables(op.cond)}
    if isinstance(op, Havoc):
        return {op.var}
    left, right = (op.first, op.second) if isinstance(op, Seq) else (op.left, op.right)
    return _op_variables_reference(left) | _op_variables_reference(right)


def test_op_variables_matches_a_walk_per_condition():
    rng = random.Random(23)
    names = ["a", "b", "c", "d", "e"]
    for _ in range(300):
        op = random_operation(rng, names)
        # compound conditions, shared subformulas, propositional leaves
        cond = random_formula(rng, names)
        op = Choice(Seq(Assume(f_and(cond, PropVar("v"))), op), Assume(f_or(cond, TRUE)))
        assert op_variables(op) == _op_variables_reference(op)


class TestDropDeadPads:
    # x ends at x@2 on the left and at x@1 on the right; both pad onto x@3
    OP = Choice(Seq(Assign("x", const(1)), Assign("x", tvar("x") + 1)),
                Assign("x", const(5)))

    def test_pads_are_reported(self):
        # the formula holds each pad in the form of a copy x@i - x@j = 0
        f, out = encode_edge(self.OP, {})
        assert out == {"x": 3}
        pads = [g for g in _dag_nodes(f) if is_copy(g)]
        assert sorted(pads, key=str) == sorted(
            [compare("==", tvar("x", 3), tvar("x", 2)),
             compare("==", tvar("x", 3), tvar("x", 1))], key=str)

    def test_pads_read_at_the_output_stay(self):
        f, out = encode_edge(self.OP, {})
        assert out == {"x": 3}
        assert drop_dead_pads(f, [compare("<=", tvar("x", 3), const(0))]) is f

    def test_pads_read_by_a_later_atom_stay(self):
        f, _ = encode_edge(Seq(self.OP, Assume(compare("<=", tvar("x"), const(0)))), {})
        assert drop_dead_pads(f) is f

    def test_unread_pads_become_true(self):
        f, _ = encode_edge(self.OP, {})
        assert drop_dead_pads(f) == f_or(
            f_and(compare("==", tvar("x", 1), const(1)),
                  compare("==", tvar("x", 2), tvar("x", 1) + 1)),
            compare("==", tvar("x", 1), const(5)))

    def test_pads_read_by_live_pads_stay(self):
        # each choice sets x in one branch only, so x@2 and x@4 are defined
        # by pads alone and read only by the pads of the next choice
        op = Choice(Assign("y", const(0)), Assign("x", const(0)))
        for k in (1, 2):
            op = Seq(op, Choice(Assign("y", const(k)), Assign("x", const(k))))
        f, out = encode_edge(op, {})
        assert out == {"x": 6, "y": 6}
        xs = {v for v in variables(f) if v.name == "x"}
        assert {VariableRef("x", 2), VariableRef("x", 4)} <= xs
        kept = variables(drop_dead_pads(f, [compare("<=", tvar("x", 6), const(0))]))
        assert xs <= kept and VariableRef("y", 6) not in kept
        assert not {VariableRef("x", 6), VariableRef("y", 6)} & variables(drop_dead_pads(f))

    def test_copy_assignments_are_pads_by_form(self):
        # x = x encodes as the copy x@0 - x@1 = 0, the form of a pad
        y_nonpos = Assume(compare("<=", tvar("y"), const(0)))
        f, _ = encode_edge(Seq(Assign("x", tvar("x")), y_nonpos), {})
        copy = compare("==", tvar("x", 1), tvar("x", 0))
        assert f == f_and(copy, compare("<=", tvar("y", 0), const(0))) and is_copy(copy)
        assert drop_dead_pads(f) == compare("<=", tvar("y", 0), const(0))
        assert drop_dead_pads(f, [compare("<=", tvar("x", 1), const(0))]) is f
        x_nonpos = Assume(compare("<=", tvar("x"), const(0)))
        f, _ = encode_edge(Seq(Assign("x", tvar("x")), x_nonpos), {})
        assert drop_dead_pads(f) is f

    def test_a_formula_without_copies_is_returned_before_the_targets_are_read(self):
        f, _ = encode_edge(Assign("x", tvar("y") + 1), {})

        def unread():
            raise AssertionError("targets read")
            yield

        assert drop_dead_pads(f, unread()) is f

    def test_models_over_the_targets_are_kept(self, solver):
        rng = random.Random(23)
        names = ["a", "b", "c"]
        pruned_count = copies_dropped = 0
        for _ in range(150):
            op = _with_copies(rng, random_operation(rng, names, depth=4), names)
            f, out = encode_edge(op, {})
            targets = [at_indices(random_formula(rng, names, depth=1), out)
                       for _ in range(rng.randint(0, 2))]
            pruned = drop_dead_pads(f, targets)
            pruned_count += pruned is not f
            copies_dropped += bool(_copy_assignments(f) - _copy_assignments(pruned))
            marks = [f"t{i}" for i in range(len(targets))]
            links = [f_iff(t, PropVar(m)) for t, m in zip(targets, marks)]
            want = solver.all_sat(f_and(f, *links), marks)
            got = solver.all_sat(f_and(pruned, *links), marks)
            assert sorted(map(str, got)) == sorted(map(str, want)), op
        assert pruned_count > 20 and copies_dropped > 10


def _with_copies(rng, op, names):
    """op with an assignment x = x after about a third of its leaves."""
    if isinstance(op, Seq):
        return Seq(_with_copies(rng, op.first, names), _with_copies(rng, op.second, names))
    if isinstance(op, Choice):
        return Choice(_with_copies(rng, op.left, names), _with_copies(rng, op.right, names))
    if rng.random() < 0.3:
        name = rng.choice(names)
        return Seq(op, Assign(name, tvar(name)))
    return op


def _copy_assignments(f):
    """The copies x@0 - x@1 = 0 of f: an assignment x = x makes them, and
    never a pad, whose fresh index lies above two different indices."""
    return {g for g in _dag_nodes(f) if is_copy(g) and g.term.coeffs[1][0].index == 1}


# ---------------------------------------------------------------------------
# reference: the encoder that recursed along sequences and keyed every node
# ---------------------------------------------------------------------------

def _ref_encode(op, ssa, memo):
    key = (id(op), tuple(sorted(ssa.items())))
    if key in memo:
        return memo[key]
    if isinstance(op, Assign):
        out = dict(ssa)
        i = out.get(op.var, 0) + 1
        rhs = op.expr.at_indices(out)
        out[op.var] = i
        result = canon_eq(Term.variable(VariableRef(op.var, i)) - rhs), out
    elif isinstance(op, Assume):
        result = at_indices(op.cond, ssa), ssa
    elif isinstance(op, Havoc):
        result = TRUE, {**ssa, op.var: ssa.get(op.var, 0) + 1}
    elif isinstance(op, Seq):
        f1, mid = _ref_encode(op.first, ssa, memo)
        f2, end = _ref_encode(op.second, mid, memo)
        result = f_and(f1, f2), end
    else:
        f1, m1 = _ref_encode(op.left, ssa, memo)
        f2, m2 = _ref_encode(op.right, ssa, memo)
        merged, pads1, pads2 = {}, [], []
        for name in sorted(set(m1) | set(m2)):
            i1, i2 = m1.get(name, 0), m2.get(name, 0)
            merged[name] = j = i1 if i1 == i2 else max(i1, i2) + 1
            if i1 != i2:
                fresh = Term.variable(VariableRef(name, j))
                pads1.append(canon_eq(fresh - Term.variable(VariableRef(name, i1))))
                pads2.append(canon_eq(fresh - Term.variable(VariableRef(name, i2))))
        result = f_or(f_and(f1, *pads1), f_and(f2, *pads2)), merged
    memo[key] = result
    return result


def _encoding_cases():
    """Groups of (operation, index map): the edges of each summarized lock
    ladder 1..12, bug twin and corpus program 0..59, then 200 seeded
    random operations."""
    from lbemc.cli import gen_test_locks
    from lbemc.oracle import random_program

    rng = random.Random(29)
    names = ["a", "b", "c"]
    sources = [gen_test_locks(n, bug=bug) for n in range(1, 13) for bug in (False, True)]
    sources += [random_program(k) for k in range(60)]
    groups = [[(e.op, {}) for e in _summarized(source).cfa.edges] for source in sources]
    randoms = []
    for _ in range(200):
        ssa = {n: rng.randint(0, 3) for n in rng.sample(names, rng.randint(0, 3))}
        randoms.append((random_operation(rng, names, depth=5), ssa))
    return groups + [randoms]


def _copy_ids(f):
    """The ids of f's distinct copy atom objects."""
    return {id(g) for g in _dag_nodes(f) if is_copy(g)}


def _structures(f):
    """The number of distinct structures among f's subformulas: each node
    is numbered by its class and fields, its arguments by their numbers,
    so the count does not rest on object identity."""
    number, structures = {}, {}

    def visit(g):
        if id(g) not in number:
            if isinstance(g, Atom):
                key = ("atom", g.rel, g.term)
            elif isinstance(g, Not):
                key = ("not", visit(g.arg))
            elif isinstance(g, (And, Or)):
                key = (type(g).__name__, tuple(visit(a) for a in g.args))
            else:
                key = ("leaf", str(g))
            number[id(g)] = structures.setdefault(key, len(structures))
        return number[id(g)]

    visit(f)
    return len(structures)


def _summarized(source):
    from lbemc.cfa import summarize
    from lbemc.frontend import parse_program

    return summarize(parse_program(source))[0]


def test_encoding_matches_reference_encoder():
    for cases in _encoding_cases():
        for op, ssa in cases:
            # the formula holds the pads
            assert encode_edge(op, ssa) == _ref_encode(op, dict(ssa), {}), op


# ---------------------------------------------------------------------------
# one encoder for every edge of a program
# ---------------------------------------------------------------------------

class TestSharedEncoder:
    def test_every_edge_as_one_shot(self):
        # one encoder per group, edges in order and reversed: each gives the
        # formula, output map and pruned formula of a one-shot encode_edge
        for cases in _encoding_cases():
            for order in (cases, cases[::-1]):
                encoder = SsaEncoder()
                for op, ssa in order:
                    want = encode_edge(op, ssa)
                    got = encode_edge(op, ssa, encoder=encoder)
                    assert got == want, op
                    f, out = got
                    reads = [at_indices(compare("<=", tvar(n), const(0)), out)
                             for n in sorted(op_variables(op))[:2]]
                    for targets in ([], reads):
                        assert (drop_dead_pads(f, targets)
                                == drop_dead_pads(want[0], targets)), op

    def test_loop_edge_reuses_the_error_edge_encoding(self):
        from lbemc.cli import gen_test_locks

        program = _summarized(gen_test_locks(10))
        ops = [e.op for e in program.cfa.edges]
        (error_op,) = [e.op for e in program.cfa.edges if e.target == program.error]
        (loop_op,) = [e.op for e in program.cfa.edges if e.source == e.target]
        fresh = SsaEncoder()
        alone, _ = encode_edge(loop_op, {}, encoder=fresh)
        encoder = SsaEncoder()
        error, _ = encode_edge(error_op, {}, encoder=encoder)
        entries = len(encoder.memo)
        loop, _ = encode_edge(loop_op, {}, encoder=encoder)
        assert len(encoder.memo) - entries <= 0.1 * len(fresh.memo)
        # the copy atoms (pads) the loop formula adds to the error formula's
        assert len(_copy_ids(loop) - _copy_ids(error)) <= 0.1 * len(_copy_ids(alone))

    def test_a_root_is_encoded_once(self):
        # op has one parent, but a Cartesian post encodes it as a root once
        # per precision
        op = Assign("x", tvar("x") + 1)
        encoder = SsaEncoder()
        first = encode_edge(op, {}, encoder=encoder)
        assert encode_edge(op, {}, encoder=encoder)[0] is first[0]

    def test_equal_choices_built_apart_share_an_encoding(self):
        # choices built apart are one object, so they share a memo entry
        def choice():
            return Choice(Assign("x", tvar("x") + 1), Assume(compare(">", tvar("x"), const(5))))

        one, two = choice(), choice()
        assert one is two
        encoder = SsaEncoder()
        # the assumes read z and w but write nothing: both choices start at {}
        first, _ = encode_edge(Seq(Assume(compare(">", tvar("z"), const(0))), one), {},
                               encoder=encoder)
        second, _ = encode_edge(Seq(Assume(compare(">", tvar("w"), const(0))), two), {},
                                encoder=encoder)
        assert first.args[1] is second.args[1]

    def test_each_structure_is_one_object(self):
        # the error edge and the loop edge of a summarized ladder, encoded on
        # one encoder: no two node objects of either formula have one
        # structure, so each walk visits each distinct formula once
        from lbemc.cli import gen_test_locks

        program = _summarized(gen_test_locks(10))
        (error_op,) = [e.op for e in program.cfa.edges if e.target == program.error]
        (loop_op,) = [e.op for e in program.cfa.edges if e.source == e.target]
        encoder = SsaEncoder()
        counts = []
        for op in (error_op, loop_op):
            f, _ = encode_edge(op, {}, encoder=encoder)
            counts.append((len(list(_dag_nodes(f))), _structures(f)))
        assert counts == [(283, 283), (162, 162)]

    def test_memo_size_is_linear_in_the_lock_count(self):
        from lbemc.cli import gen_test_locks

        for n in range(1, 13):
            encoder = SsaEncoder()
            for edge in _summarized(gen_test_locks(n)).cfa.edges:
                encode_edge(edge.op, {}, encoder=encoder)
            assert len(encoder.memo) <= 3 * n + 2, (n, len(encoder.memo))
