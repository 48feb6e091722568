import random

import pytest

from centrallift import engines, words
from centrallift.presentation import parse_presentation
from centrallift.words import FreeWord, parse_word


def inverse(word: FreeWord) -> FreeWord:
    return FreeWord(tuple((g, -e) for g, e in reversed(word.letters)))


def test_parse_two_generator_word():
    w = parse_word("x^2*y^-1*x^-5*y^-1", ("x", "y"))
    assert w.letters == ((0, 2), (1, -1), (0, -5), (1, -1))


def test_parse_cancels():
    assert parse_word("x*x^-1", ("x",)).is_identity()


def test_parse_already_reduced():
    w = parse_word("y^-1*x*y*x^-4", ("x", "y"))
    assert w.letters == ((1, -1), (0, 1), (1, 1), (0, -4))


def test_parse_identity_and_whitespace():
    assert parse_word("1", ("x",)).is_identity()
    assert parse_word(" x ^ 2 * y ", ("x", "y")).letters == ((0, 2), (1, 1))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("z", "unknown generator"),
        ("x^", "malformed exponent"),
        ("x**y", "empty token"),
        ("x^2^3", "malformed exponent"),
        ("", "empty word"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(words.WordSyntaxError) as err:
        parse_word(text, ("x", "y"))
    assert fragment in str(err.value)


def test_reduce_examples():
    assert words.reduce([(0, 2), (0, -2)]).is_identity()
    assert words.reduce([(0, 1), (1, 2), (1, -1), (0, 3)]).letters == (
        (0, 1),
        (1, 1),
        (0, 3),
    )
    assert words.reduce([(0, 1), (1, 1), (1, -1), (0, -1)]).is_identity()


def _stack_oracle(raw):
    # letter-by-letter reduction over single +/-1 letters
    letters = []
    for gen, exp in raw:
        sign = 1 if exp > 0 else -1
        letters.extend([(gen, sign)] * abs(exp))
    stack = []
    for gen, sign in letters:
        if stack and stack[-1] == (gen, -sign):
            stack.pop()
        else:
            stack.append((gen, sign))
    out = []
    for gen, sign in stack:
        if out and out[-1][0] == gen:
            out[-1][1] += sign
        else:
            out.append([gen, sign])
    return tuple((g, e) for g, e in out)


def test_reduce_matches_stack_oracle():
    rng = random.Random(1234)
    for _ in range(500):
        raw = [
            (rng.randint(0, 2), rng.randint(-3, 3)) for _ in range(rng.randint(0, 12))
        ]
        assert words.reduce(raw).letters == _stack_oracle(raw)


def test_reduce_idempotent():
    rng = random.Random(99)
    for _ in range(200):
        raw = [(rng.randint(0, 2), rng.randint(-3, 3)) for _ in range(10)]
        once = words.reduce(raw)
        assert words.reduce(once.letters) == once


def test_concat():
    assert words.concat(FreeWord(((0, 1),)), FreeWord(((0, -1),))).is_identity()
    assert words.concat(FreeWord(((0, 2),)), FreeWord(((1, 1),))).letters == (
        (0, 2),
        (1, 1),
    )
    u = FreeWord(((0, 2), (1, 1)))
    v = FreeWord(((1, -1), (0, 3)))
    assert words.concat(u, v).letters == ((0, 5),)


def test_concat_inverse_cancels():
    rng = random.Random(5)
    for _ in range(200):
        raw = [(rng.randint(0, 2), rng.randint(-3, 3)) for _ in range(8)]
        w = words.reduce(raw)
        assert words.concat(w, inverse(w)).is_identity()


def test_exponent_vector_examples():
    r1 = parse_word("x^2*y^-1*x^-5*y^-1", ("x", "y"))
    assert words.exponent_vector(r1, 2) == (-3, -2)
    comm = parse_word("x^-1*y^-1*x*y", ("x", "y"))
    assert words.exponent_vector(comm, 2) == (0, 0)
    r2 = parse_word("x*y^-3*x^7", ("x", "y"))
    assert words.exponent_vector(r2, 2) == (8, -3)


def test_exponent_vector_additive():
    rng = random.Random(17)
    for _ in range(200):
        u = words.reduce([(rng.randint(0, 2), rng.randint(-3, 3)) for _ in range(6)])
        v = words.reduce([(rng.randint(0, 2), rng.randint(-3, 3)) for _ in range(6)])
        eu = words.exponent_vector(u, 3)
        ev = words.exponent_vector(v, 3)
        assert words.exponent_vector(words.concat(u, v), 3) == tuple(
            a + b for a, b in zip(eu, ev)
        )
        assert words.exponent_vector(inverse(u), 3) == tuple(-a for a in eu)


@pytest.fixture(scope="module")
def c4():
    return engines.todd_coxeter(parse_presentation("generators: x\nrelator: x^4"), 100)


def test_evaluate_identity_word(c4):
    assert words.evaluate(words.IDENTITY, [c4.generator(0)], c4) == c4.identity()


def test_evaluate_order_relation(c4):
    w = FreeWord(((0, 4),))
    assert words.evaluate(w, [c4.generator(0)], c4) == c4.identity()


def test_evaluate_metacyclic_relator():
    pres = parse_presentation(
        "generators: x y\nrelator: x^27\nrelator: y^3\nrelator: y^-1*x*y*x^-10"
    )
    engine = engines.todd_coxeter(pres, 2000)
    gens = [engine.generator(0), engine.generator(1)]
    for rel in pres.relators:
        assert words.evaluate(rel, gens, engine) == engine.identity()


def test_evaluate_is_homomorphic(c4):
    rng = random.Random(3)
    images = [c4.generator(0)]
    for _ in range(100):
        u = words.reduce([(0, rng.randint(-5, 5)) for _ in range(4)])
        v = words.reduce([(0, rng.randint(-5, 5)) for _ in range(4)])
        lhs = words.evaluate(words.concat(u, v), images, c4)
        rhs = c4.multiply(
            words.evaluate(u, images, c4), words.evaluate(v, images, c4)
        )
        assert lhs == rhs
        assert words.evaluate(inverse(u), images, c4) == c4.inverse(
            words.evaluate(u, images, c4)
        )


def test_format_round_trip():
    rng = random.Random(77)
    names = ("x", "y", "z")
    for _ in range(200):
        w = words.reduce(
            [(rng.randint(0, 2), rng.randint(-4, 4)) for _ in range(rng.randint(0, 6))]
        )
        assert parse_word(words.format_word(w, names), names) == w
