"""The index-level paths against naive references on Elements: memoized
inverses, closure by column walk and word evaluation on indices; plus the
errors `words.evaluate` raises at the Element boundary, and how often a
`verify` run crosses that boundary."""

import os
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import configuration, given, settings, strategies as st

import corpus
from centrallift import cli, engines, words
from centrallift.engines import EngineMismatch, GroupEngine, PermutationEngine
from centrallift.presentation import parse_presentation

# as in test_properties: no hypothesis cache files under the working tree
configuration.set_hypothesis_home_dir(os.devnull)

ENGINES = {
    "C6": lambda: engines.todd_coxeter(parse_presentation("generators: x\nrelator: x^6")),
    "Q8": lambda: engines.todd_coxeter(parse_presentation(corpus.Q8)),
    "Heisenberg27": lambda: engines.todd_coxeter(parse_presentation(corpus.HEISENBERG)),
    "S3": lambda: PermutationEngine([(1, 2, 0), (1, 0, 2)]),
}

engine_names = st.sampled_from(sorted(ENGINES))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_memoized_inverse_matches_column_scan(data):
    name = data.draw(engine_names)
    engine, fresh = ENGINES[name](), ENGINES[name]()
    visit = data.draw(st.permutations(range(engine.order())))
    for i in visit:
        assert engine._inv_index(i) == fresh.perm(fresh.element(i)).index(0)


def naive_closure(engine, seeds):
    # close {1} + seeds under products of pairs until nothing new appears
    group = {engine.identity(), *seeds}
    while True:
        bigger = group | {engine.multiply(a, b) for a in group for b in group}
        if bigger == group:
            return tuple(sorted(group))
        group = bigger


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closure_and_generates_match_naive_closure(data):
    name = data.draw(engine_names)
    engine = ENGINES[name]()
    picks = data.draw(st.lists(st.integers(0, engine.order() - 1), max_size=4))
    seeds = [engine.element(i) for i in picks]
    expected = naive_closure(engine, seeds)
    assert engines.subgroup_closure(engine, seeds) == expected
    assert engines.generates(engine, seeds) == (len(expected) == engine.order())


def naive_power(engine, el, exp):
    # el^|G| is the identity, so any exponent reduces mod the group order
    acc = engine.identity()
    for _ in range(exp % engine.order()):
        acc = engine.multiply(acc, el)
    return acc


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_evaluate_indices_matches_element_fold(data):
    name = data.draw(engine_names)
    engine = ENGINES[name]()
    ngens = data.draw(st.integers(1, 3))
    image_indices = data.draw(
        st.lists(st.integers(0, engine.order() - 1), min_size=ngens, max_size=ngens)
    )
    images = [engine.element(i) for i in image_indices]
    exponents = st.integers(-60, 60).filter(bool)  # beyond every order here
    raw = data.draw(st.lists(st.tuples(st.integers(0, ngens - 1), exponents), max_size=8))
    word = words.reduce(raw)
    expected = engine.identity()
    for gen, exp in word.letters:
        expected = engine.multiply(expected, naive_power(engine, images[gen], exp))
    assert words.evaluate_indices(word, image_indices, engine) == expected.index
    assert words.evaluate(word, images, engine) == expected


def test_evaluate_rejects_a_generator_past_the_images():
    engine = ENGINES["Q8"]()
    word = words.parse_word("x*y", ("x", "y"))
    with pytest.raises(IndexError, match="generator 1 but only 1 images"):
        words.evaluate(word, [engine.generator(0)], engine)


def test_evaluate_rejects_an_image_of_another_engine():
    engine, other = ENGINES["Q8"](), ENGINES["Q8"]()
    word = words.parse_word("x*y", ("x", "y"))
    with pytest.raises(EngineMismatch):
        words.evaluate(word, [engine.generator(0), other.generator(1)], engine)


def test_verify_checks_elements_at_the_boundary_and_scans_each_inverse_once(
    tmp_path, capsys, monkeypatch
):
    pres = tmp_path / "heis.grp"
    pres.write_text(corpus.HEISENBERG)
    real_check, real_inv, real_column = (
        GroupEngine.check,
        GroupEngine._inv_index,
        GroupEngine._column,
    )
    checks = 0
    scans: Counter = Counter()
    inverting: list[tuple[GroupEngine, int]] = []

    def check(self, el):
        nonlocal checks
        checks += 1
        return real_check(self, el)

    def inv_index(self, i):
        inverting.append((self, i))
        try:
            return real_inv(self, i)
        finally:
            inverting.pop()

    def column(self, j):
        # a column read while inverting the same element is its inverse scan
        if inverting and inverting[-1][0] is self and inverting[-1][1] == j:
            scans[(self, j)] += 1
        return real_column(self, j)

    monkeypatch.setattr(GroupEngine, "check", check)
    monkeypatch.setattr(GroupEngine, "_inv_index", inv_index)
    monkeypatch.setattr(GroupEngine, "_column", column)
    assert cli.main(["verify", str(pres)]) == 0
    assert '"match": true' in capsys.readouterr().out
    assert checks < 10_000
    assert scans and max(scans.values()) == 1
