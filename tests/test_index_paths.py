"""The index-level paths against naive references on Elements: memoized
inverses and powers, closure by column walk, word evaluation on indices
and the oracle's searches; plus the errors `words.evaluate` raises at the
Element boundary, and how often a `verify` run crosses that boundary."""

import itertools
import os
from collections import Counter
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import configuration, given, settings, strategies as st

import corpus
from centrallift import cli, engines, oracle, words
from centrallift.engines import EngineMismatch, GroupEngine, PermutationEngine
from centrallift.lifting import Endomorphism, LiftContext
from centrallift.presentation import Presentation, parse_presentation

# as in test_properties: no hypothesis cache files under the working tree
configuration.set_hypothesis_home_dir(os.devnull)

ENGINES = {
    "C6": lambda: engines.todd_coxeter(parse_presentation("generators: x\nrelator: x^6")),
    "Q8": lambda: engines.todd_coxeter(parse_presentation(corpus.Q8)),
    "Heisenberg27": lambda: engines.todd_coxeter(parse_presentation(corpus.HEISENBERG)),
    "S3": lambda: PermutationEngine([(1, 2, 0), (1, 0, 2)]),
}

engine_names = st.sampled_from(sorted(ENGINES))


@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_memoized_inverse_matches_column_scan(data):
    name = data.draw(engine_names)
    engine, fresh = ENGINES[name](), ENGINES[name]()
    visit = data.draw(st.permutations(range(engine.order())))
    for i in visit:
        assert engine._inv_index(i) == corpus.perm(fresh, fresh.element(i)).index(0)


def naive_closure(engine, seeds):
    # close {1} + seeds under products of pairs until nothing new appears
    group = {engine.identity(), *seeds}
    while True:
        bigger = group | {engine.multiply(a, b) for a in group for b in group}
        if bigger == group:
            return tuple(sorted(group))
        group = bigger


@settings(max_examples=60, deadline=None, database=None)
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


@settings(max_examples=20, deadline=None, database=None)
@given(st.data())
def test_memoized_power_matches_repeated_multiply(data):
    name = data.draw(engine_names)
    engine, fresh = ENGINES[name](), ENGINES[name]()
    picks = data.draw(st.lists(st.integers(0, engine.order() - 1), min_size=1, max_size=3))
    for i in picks:
        for k in data.draw(st.permutations(range(-60, 61))):
            expected = naive_power(fresh, fresh.element(i), k).index
            assert engine._power_index(i, k) == expected
            assert engine._power_index(i, k) == expected  # now from the store


@settings(max_examples=80, deadline=None, database=None)
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


S3 = "generators: x y\nrelator: x^3\nrelator: y^2\nrelator: x*y*x*y"


def heisenberg_quotient():
    pres, central, engine, _ = corpus.build(corpus.HEISENBERG)
    context = LiftContext(pres, engine, central)
    return Presentation(pres.names, pres.relators + central.z_words), context.quotient


def presented(text):
    pres = parse_presentation(text)
    return pres, engines.todd_coxeter(pres)


AUT_CASES = {
    "S3": lambda: presented(S3),
    "Q8": lambda: presented(corpus.Q8),
    "metacyclic81": lambda: presented(corpus.METACYCLIC34),
    "Heisenberg27_mod_center": heisenberg_quotient,
}


def order_preserving_endomorphisms(pres, engine):
    """Image tuples, order-preserving on the generators, at which each
    relator holds: a plain product of the candidates, in index order."""
    orders = [engines.element_order(engine, el) for el in engine.elements()]
    pools = [
        [el for el in engine.elements() if orders[el.index] == orders[engine.generator(g).index]]
        for g in range(pres.n)
    ]
    return [
        images
        for images in itertools.product(*pools)
        if all(words.evaluate(rel, images, engine) == engine.identity() for rel in pres.relators)
    ]


def reference_automorphisms(pres, engine):
    """The endomorphisms whose images generate, each with its map built
    element by element from shortest words and plain _mult_index steps."""
    auts, maps = [], []
    for images in order_preserving_endomorphisms(pres, engine):
        if not engines.generates(engine, images):
            continue
        image_map = []
        for el in engine.elements():
            acc = 0
            for gen, exp in engines.word_for_element(engine, el).letters:
                step = images[gen].index if exp > 0 else engine._inv_index(images[gen].index)
                for _ in range(abs(exp)):
                    acc = engine._mult_index(acc, step)
            image_map.append(acc)
        auts.append(tuple(im.index for im in images))
        maps.append(tuple(image_map))
    return auts, maps


@settings(max_examples=12, deadline=None, database=None)
@given(st.data())
def test_bf_automorphism_group_matches_generates_reference(data):
    # the relator order of the presentation must not matter
    pres, engine = AUT_CASES[data.draw(st.sampled_from(sorted(AUT_CASES)))]()
    relators = data.draw(st.permutations(pres.relators))
    found = oracle.bf_automorphism_group(Presentation(pres.names, tuple(relators)), engine)
    auts, maps = reference_automorphisms(pres, engine)
    assert [endo.key() for endo in found] == auts
    assert [engines.map_images(engine, endo.images) for endo in found] == maps


def test_bf_automorphism_group_maps_each_endomorphism_once(monkeypatch):
    pres, engine = AUT_CASES["metacyclic81"]()
    calls = Counter()
    real_generates, real_map_images = engines.generates, engines.map_images

    def generates(*args):
        calls["generates"] += 1
        return real_generates(*args)

    def map_images(*args):
        calls["map_images"] += 1
        return real_map_images(*args)

    endomorphisms = len(order_preserving_endomorphisms(pres, engine))
    monkeypatch.setattr(engines, "generates", generates)
    monkeypatch.setattr(engines, "map_images", map_images)
    assert len(oracle.bf_automorphism_group(pres, engine)) == 162
    assert calls["generates"] == 0
    assert calls["map_images"] == endomorphisms


def test_bf_automorphism_group_checks_each_map_on_the_generators(monkeypatch):
    # a permutation that sends x elsewhere than its image in the leaf must
    # not pass as the map of that leaf
    pres, engine = AUT_CASES["metacyclic81"]()
    real_map_images = engines.map_images
    x = engine.generator(0).index

    def moved(*args):
        image_map = list(real_map_images(*args))
        other = image_map.index(0 if image_map[x] != 0 else 1)
        image_map[x], image_map[other] = image_map[other], image_map[x]
        return tuple(image_map)

    monkeypatch.setattr(engines, "map_images", moved)
    with pytest.raises(AssertionError, match="generator"):
        oracle.bf_automorphism_group(pres, engine)


@lru_cache(maxsize=None)
def corpus_context(text):
    pres, central, engine, _ = corpus.build(text)
    context = LiftContext(pres, engine, central)
    return context, oracle.bf_quotient_auts(context)


@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_bf_hom_lifts_matches_coset_product(data):
    _, text = data.draw(st.sampled_from(corpus.CORPUS))
    context, phis = corpus_context(text)
    problem = context.problem(data.draw(st.sampled_from(phis)))
    engine = problem.engine
    n_elements = problem.context.n_elements
    cosets = [[engine.multiply(x, z) for z in n_elements] for x in problem.xbar]
    expected = sorted(
        tuple(im.index for im in images)
        for images in itertools.product(*cosets)
        if all(
            words.evaluate(rel, images, engine) == engine.identity()
            for rel in problem.pres.relators
        )
    )
    assert [endo.key() for endo in oracle.bf_hom_lifts(problem)] == expected


def test_endomorphisms_of_different_engines_are_never_equal():
    engine, other = ENGINES["Q8"](), ENGINES["Q8"]()
    a = Endomorphism((engine.generator(0), engine.generator(1)))
    b = Endomorphism((engine.generator(0), engine.generator(1)))
    c = Endomorphism((other.generator(0), other.generator(1)))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.key() == c.key() and a != c and len({a, c}) == 2
