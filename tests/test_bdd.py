import itertools
import random

from lbemc.bdd import Bdd


def test_canonicity_same_function_same_node():
    b = Bdd()
    # (v0 and v1) or (v0 and not v1)  ==  v0
    left = b.apply_or(
        b.apply_and(b.var(0), b.var(1)),
        b.apply_and(b.var(0), b.apply_not(b.var(1))),
    )
    assert left == b.var(0)


def test_terminals():
    b = Bdd()
    assert b.apply_and(b.TRUE, b.FALSE) == b.FALSE
    assert b.apply_or(b.TRUE, b.FALSE) == b.TRUE
    assert b.apply_not(b.apply_not(b.var(3))) == b.var(3)


def test_implies():
    b = Bdd()
    conj = b.apply_and(b.var(0), b.var(1))
    assert b.implies(conj, b.var(0))
    assert not b.implies(b.var(0), conj)
    assert b.implies(b.FALSE, conj)
    assert b.implies(conj, b.TRUE)


def test_cube_and_evaluate():
    b = Bdd()
    cube = b.cube([(0, True), (2, False)])
    for v0, v2 in itertools.product([False, True], repeat=2):
        assert b.evaluate(cube, {0: v0, 2: v2}) == (v0 and not v2)


def test_support():
    b = Bdd()
    f = b.apply_or(b.apply_and(b.var(1), b.var(4)), b.var(2))
    assert b.support(f) == [1, 2, 4]


def test_exhaustive_equivalence_small():
    # every binary boolean combination built two different ways collapses
    b = Bdd()
    v0, v1 = b.var(0), b.var(1)
    demorgan = b.apply_not(b.apply_and(b.apply_not(v0), b.apply_not(v1)))
    assert demorgan == b.apply_or(v0, v1)
    for bits in itertools.product([False, True], repeat=2):
        env = {0: bits[0], 1: bits[1]}
        assert b.evaluate(demorgan, env) == (bits[0] or bits[1])


def _random_bdd(b, rng, nvars, depth):
    """A random BDD over variables 0..nvars-1 built by and/or/not."""
    if depth == 0 or rng.random() < 0.2:
        return b.literal(rng.randrange(nvars), rng.random() < 0.5)
    op = rng.randrange(3)
    if op == 2:
        return b.apply_not(_random_bdd(b, rng, nvars, depth - 1))
    x, y = _random_bdd(b, rng, nvars, depth - 1), _random_bdd(b, rng, nvars, depth - 1)
    return b.apply_and(x, y) if op == 0 else b.apply_or(x, y)


def test_implies_matches_the_built_difference_and_builds_no_node():
    rng = random.Random(7)
    b = Bdd()
    pairs = []
    for _ in range(300):
        nvars = rng.randint(1, 6)
        x = _random_bdd(b, rng, nvars, rng.randint(0, 5))
        # every third y is weakened from x, so that many pairs do imply
        y = (b.apply_or(x, _random_bdd(b, rng, nvars, 2)) if len(pairs) % 3 == 0
             else _random_bdd(b, rng, nvars, rng.randint(0, 5)))
        pairs.append((x, y))
    size = b.size()
    answers = [b.implies(x, y) for x, y in pairs]
    assert b.size() == size
    # answers are memoized per pair: a second pass in reverse order reads
    # the memo of the first
    assert [b.implies(x, y) for x, y in reversed(pairs)] == answers[::-1]
    reference = [b.apply_and(x, b.apply_not(y)) == b.FALSE for x, y in pairs]
    assert answers == reference
    assert 50 < sum(answers) < len(answers) - 50
    assert {b.TRUE, b.FALSE} & {u for pair in pairs for u in pair}
