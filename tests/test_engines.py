import itertools
import random

import pytest

import corpus
from centrallift import cli, engines, metacyclic, words
from centrallift.engines import (
    CosetLimitExceeded,
    EngineMismatch,
    PermutationEngine,
    center,
    central_log_table,
    centralizer,
    element_order,
    generates,
    subgroup_closure,
    todd_coxeter,
    word_for_element,
)
from centrallift.lifting import LiftContext
from centrallift.presentation import Presentation, parse_presentation, parse_presentation_file


TC_CASES = [
    ("generators: x\nrelator: x^4", 4),
    ("generators: x y\nrelator: x^3\nrelator: y^2\nrelator: x*y*x*y", 6),
    ("generators: x y\nrelator: x^4\nrelator: x^2*y^-2\nrelator: y^-1*x*y*x", 8),
    (corpus.HEISENBERG, 27),
    (corpus.METACYCLIC34, 81),
]


def closure_order(engine):
    # independent oracle: close the generator permutations by composition
    perms = [corpus.perm(engine, engine.generator(i)) for i in range(engine.ngens)]
    seen = {tuple(range(engine.order()))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in perms:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


@pytest.mark.parametrize("text,expected", TC_CASES)
def test_todd_coxeter_orders(text, expected):
    pres = parse_presentation(text)
    engine = todd_coxeter(pres, max_cosets=1000)
    assert engine.order() == expected
    assert closure_order(engine) == expected


@pytest.mark.parametrize("text,expected", TC_CASES)
def test_relators_vanish(text, expected):
    pres = parse_presentation(text)
    engine = todd_coxeter(pres, max_cosets=1000)
    gens = [engine.generator(i) for i in range(pres.n)]
    for rel in pres.relators:
        assert words.evaluate(rel, gens, engine) == engine.identity()


def test_todd_coxeter_limit():
    pres = parse_presentation("generators: x y\nrelator: x^2")
    with pytest.raises(CosetLimitExceeded):
        todd_coxeter(pres, max_cosets=64)


def test_engine_group_axioms_sampled():
    _, _, engine, _ = corpus.build(corpus.Q8)
    els = engine.elements()
    assert len({corpus.perm(engine, e) for e in els}) == len(els)
    rng = random.Random(2)
    for _ in range(200):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert engine.multiply(engine.multiply(a, b), c) == engine.multiply(
            a, engine.multiply(b, c)
        )
        assert engine.multiply(a, engine.inverse(a)) == engine.identity()


def test_elements_of_different_engines_do_not_mix():
    _, _, e1, _ = corpus.build(corpus.C4)
    _, _, e2, _ = corpus.build(corpus.C6)
    a = e1.generator(0)
    b = e2.generator(0)
    assert a != b
    with pytest.raises(EngineMismatch):
        e1.multiply(a, b)
    with pytest.raises(EngineMismatch):
        _ = a < b


def test_subgroup_closure_examples():
    _, _, c4, _ = corpus.build(corpus.C4)
    assert subgroup_closure(c4, {c4.identity()}) == (c4.identity(),)
    sq = c4.power(c4.generator(0), 2)
    assert len(subgroup_closure(c4, {sq})) == 2

    _, _, meta, _ = corpus.build(corpus.METACYCLIC34)
    cube = meta.power(meta.generator(0), 3)
    assert len(subgroup_closure(meta, {cube})) == 9


S3 = "generators: x y\nrelator: x^3\nrelator: y^2\nrelator: x*y*x*y"


def test_generates_matches_subgroup_closure():
    s3 = todd_coxeter(parse_presentation(S3), 100)
    for engine in [corpus.build(text)[2] for _, text in corpus.CORPUS] + [s3]:
        elements = engine.elements()
        for a, b in itertools.combinations_with_replacement(elements, 2):
            for seeds in ((a,), (a, b)):
                expected = len(subgroup_closure(engine, seeds)) == engine.order()
                assert generates(engine, seeds) == expected


def test_generates_index_two_boundary():
    # subgroups of exactly half the order must not count as the whole group
    s3 = todd_coxeter(parse_presentation(S3), 100)
    x = s3.generator(0)
    assert len(subgroup_closure(s3, (x,))) == 3
    assert not generates(s3, (x,))
    assert generates(s3, (x, s3.generator(1)))
    _, _, c4, _ = corpus.build(corpus.C4)
    sq = c4.power(c4.generator(0), 2)
    assert len(subgroup_closure(c4, (sq,))) == 2
    assert not generates(c4, (sq,))
    assert generates(c4, (c4.generator(0),))


def test_generates_empty_and_identity_seeds():
    _, _, c4, _ = corpus.build(corpus.C4)
    assert not generates(c4, ())
    assert not generates(c4, (c4.identity(),))
    assert generates(c4, (c4.identity(), c4.generator(0)))
    trivial = todd_coxeter(parse_presentation("generators: x\nrelator: x"), 10)
    assert trivial.order() == 1
    assert generates(trivial, ())
    assert generates(trivial, (trivial.identity(),))


def test_element_order():
    _, _, c4, _ = corpus.build(corpus.C4)
    assert element_order(c4, c4.identity()) == 1
    assert element_order(c4, c4.generator(0)) == 4


def heisenberg(p):
    return parse_presentation(
        f"generators: x y z\nrelator: x^{p}\nrelator: y^{p}\nrelator: z^{p}\n"
        "relator: x^-1*y^-1*x*y*z^-1\nrelator: x^-1*z^-1*x*z\nrelator: y^-1*z^-1*y*z\n"
    )


def a_mod_z_presentation(case_study):
    """A/Z of the case study, presented as LiftContext presents it."""
    pres = case_study.pres_a
    z_words = metacyclic._central_spec(case_study.cfg).z_words
    return Presentation(pres.names, z_words + pres.relators)


def assert_centralizers_match_all_pairs(engine):
    # the centralizer of every set of generators against the elements that
    # commute with every element of the subgroup those generators generate
    els = engine.elements()
    for size in range(engine.ngens + 1):
        for gens in itertools.combinations(range(engine.ngens), size):
            sub = subgroup_closure(engine, [engine.generator(g) for g in gens])
            expected = tuple(
                h for h in els
                if all(engine.multiply(h, g) == engine.multiply(g, h) for g in sub)
            )
            assert centralizer(engine, gens) == expected
    assert center(engine) == centralizer(engine, range(engine.ngens))


def test_centralizer_matches_the_all_pairs_definition(case_study):
    corpus_engines = [corpus.build(text)[2] for _, text in corpus.CORPUS]
    heis = [todd_coxeter(heisenberg(p), max_cosets=20000) for p in (3, 5, 7)]
    a_mod_z = todd_coxeter(a_mod_z_presentation(case_study))
    case = [case_study.g_engine, case_study.a_engine, a_mod_z]
    for engine in corpus_engines + heis + case:
        assert_centralizers_match_all_pairs(engine)
    assert [len(center(e)) for e in corpus_engines] == [4, 6, 6, 2, 3, 16, 16, 9, 8]
    assert [len(center(e)) for e in heis + case] == [3, 5, 7, 9, 9, 1]


def test_centre_scans_read_no_column(case_study):
    # a fresh engine has only the identity's column; the centre and the
    # generators' centralizers walk left-multiplication rows instead
    cfg = case_study.cfg
    g = todd_coxeter(metacyclic.metacyclic_presentation(cfg))
    a_mod_z = todd_coxeter(a_mod_z_presentation(case_study))
    for engine in (g, a_mod_z):
        assert sum(col is not None for col in engine._columns) == 1
        center(engine)
        for gen in range(engine.ngens):
            centralizer(engine, (gen,))
        assert sum(col is not None for col in engine._columns) == 1


def test_central_log():
    _, _, c4, _ = corpus.build(corpus.C4)
    z = c4.power(c4.generator(0), 2)
    table = central_log_table(c4, [z], [2])
    assert table == {c4.identity().index: (0,), z.index: (1,)}
    assert c4.generator(0).index not in table


def test_central_log_heisenberg_commutator():
    pres, _, engine, _ = corpus.build(corpus.HEISENBERG)
    gens = [engine.generator(i) for i in range(3)]
    comm = words.evaluate(words.parse_word("x^-1*y^-1*x*y", pres.names), gens, engine)
    sq = engine.multiply(comm, comm)
    assert central_log_table(engine, [comm], [3])[sq.index] == (2,)


def test_central_log_reconstructs():
    pres, central, engine, n_elements = corpus.build(corpus.C2C2C4_AB)
    gens = [engine.generator(i) for i in range(pres.n)]
    z = [words.evaluate(w, gens, engine) for w in central.z_words]
    table = central_log_table(engine, z, [element_order(engine, zi) for zi in z])
    assert len(table) == len(n_elements)
    for h in n_elements:
        exps = table[h.index]
        acc = engine.identity()
        for zi, e in zip(z, exps):
            acc = engine.multiply(acc, engine.power(zi, e))
        assert acc == h


def test_central_log_lexicographically_least():
    # redundant generators: (z, z) for C2; identity must log to (0, 0)
    _, _, c4, _ = corpus.build(corpus.C4)
    z = c4.power(c4.generator(0), 2)
    table = central_log_table(c4, [z, z], [2, 2])
    assert table[c4.identity().index] == (0, 0)
    assert table[z.index] == (0, 1)


def corpus_context(text):
    pres, central, engine, _ = corpus.build(text)
    return LiftContext(pres, engine, central)


def assert_quotient_is_g_mod_n(context):
    engine, quotient, proj = context.engine, context.quotient, context.projection
    rng = random.Random(14)
    for _ in range(200):
        a, b = rng.randrange(engine.order()), rng.randrange(engine.order())
        assert proj[engine._mult_index(a, b)] == quotient._mult_index(proj[a], proj[b])
    assert set(proj) == set(range(quotient.order()))
    kernel = {i for i, q in enumerate(proj) if q == 0}
    assert kernel == {el.index for el in context.n_elements}


@pytest.mark.parametrize(
    "text", [text for _, text in corpus.CORPUS], ids=[name for name, _ in corpus.CORPUS]
)
def test_quotient_is_g_mod_n_on_corpus(text):
    assert_quotient_is_g_mod_n(corpus_context(text))


@pytest.mark.parametrize(
    "text", [text for _, text in corpus.CORPUS], ids=[name for name, _ in corpus.CORPUS]
)
def test_n_is_the_closure_of_the_z_elements_on_corpus(text):
    # LiftContext reads N off the central log table; the closure is the reference
    context = corpus_context(text)
    assert context.n_elements == subgroup_closure(context.engine, context.z_elements)


def test_quotient_is_a_mod_z_in_the_case_study(case_study):
    central = metacyclic._central_spec(case_study.cfg)
    context = LiftContext(case_study.pres_a, case_study.a_engine, central)
    assert context.quotient.order() == 18
    assert_quotient_is_g_mod_n(context)


def test_quotient_by_a_trivial_z_word_is_isomorphic():
    text = corpus.Q8.replace("central: x^2", "central: x^4")  # x^4 = 1 in Q8
    pres, central = parse_presentation_file(text)
    context = LiftContext(pres, todd_coxeter(pres, 100), central)
    assert context.n_order == 1
    assert context.quotient.order() == context.engine.order() == 8
    assert_quotient_is_g_mod_n(context)
    assert len(set(context.projection)) == 8


def test_word_for_element():
    _, _, c4, _ = corpus.build(corpus.C4)
    assert word_for_element(c4, c4.identity()).is_identity()
    x = c4.generator(0)
    w = word_for_element(c4, c4.power(x, 3))
    assert w.letters == ((0, -1),)  # length 1 beats length 3

    _, _, c4c2, _ = corpus.build(corpus.C4C2)
    target = c4c2.multiply(
        c4c2.power(c4c2.generator(0), 2), c4c2.generator(1)
    )
    w = word_for_element(c4c2, target)
    gens = [c4c2.generator(i) for i in range(2)]
    assert words.evaluate(w, gens, c4c2) == target
    assert w.length() <= 3


def test_word_for_element_round_trips_everywhere():
    pres, _, engine, _ = corpus.build(corpus.METACYCLIC34)
    gens = [engine.generator(i) for i in range(pres.n)]
    for el in engine.elements():
        w = word_for_element(engine, el)
        assert words.evaluate(w, gens, engine) == el


def test_power_matches_iteration():
    _, _, engine, _ = corpus.build(corpus.METACYCLIC34)
    x = engine.generator(0)
    acc = engine.identity()
    for k in range(30):
        assert engine.power(x, k) == acc
        acc = engine.multiply(acc, x)
    assert engine.power(x, -7) == engine.inverse(engine.power(x, 7))


def bfs_closure(perms, degree):
    # independent oracle: the closure of the permutations in BFS order,
    # right multiplication by each generator in turn
    found = [tuple(range(degree))]
    seen = set(found)
    for p in found:
        for g in perms:
            q = tuple(g[x] for x in p)
            if q not in seen:
                seen.add(q)
                found.append(q)
    return found


def regular_engines():
    for text, _ in TC_CASES:
        yield todd_coxeter(parse_presentation(text), max_cosets=1000)
    for _, text in corpus.CORPUS:
        yield corpus_context(text).quotient


def test_regular_engines_number_elements_in_closure_order():
    for engine in regular_engines():
        gens = [corpus.perm(engine, engine.generator(i)) for i in range(engine.ngens)]
        closure = bfs_closure(gens, engine.order())
        assert [corpus.perm(engine, el) for el in engine.elements()] == closure
        index = {p: i for i, p in enumerate(closure)}
        for i, p in enumerate(closure):
            for j, q in enumerate(closure):
                assert engine._mult_index(i, j) == index[tuple(q[x] for x in p)]


def test_permutation_engine_numbering_ignores_generators():
    by_cycles = PermutationEngine([(1, 2, 0), (1, 0, 2)])
    by_swaps = PermutationEngine([(1, 0, 2), (0, 2, 1)])
    perms = sorted(itertools.permutations(range(3)))
    for engine in (by_cycles, by_swaps):
        assert engine.order() == 6
        assert engine._perms == perms
        for i, p in enumerate(perms):
            for j, q in enumerate(perms):
                assert engine._mult_index(i, j) == perms.index(tuple(q[x] for x in p))


HEISENBERG7 = """\
generators: x y z
relator: x^7
relator: y^7
relator: z^7
relator: x^-1*y^-1*x*y*z^-1
relator: x^-1*z^-1*x*z
relator: y^-1*z^-1*y*z
central: z
"""


def test_auto_builds_few_columns(tmp_path, monkeypatch, capsys):
    # Cayley columns are built on demand: one auto run on Heisenberg mod 7
    # multiplies by few enough elements to leave most columns unbuilt
    built = []

    def recording(pres, max_cosets):
        built.append(todd_coxeter(pres, max_cosets))
        return built[-1]

    monkeypatch.setattr(engines, "todd_coxeter", recording)
    pres = tmp_path / "heis7.grp"
    pres.write_text(HEISENBERG7)
    phi = tmp_path / "phi.img"
    phi.write_text("image: x^2*y\nimage: x*y^3\nimage: 1\n")
    assert cli.main(["auto", str(pres), str(phi)]) == 0
    engine, quotient = built
    assert engine.order() == 343
    assert sum(col is not None for col in engine._columns) < engine.order() // 2
    assert quotient.order() == 49


def test_quotient_enumeration_is_bounded_by_max_cosets():
    pres, central = parse_presentation_file(HEISENBERG7)
    engine = todd_coxeter(pres)
    with pytest.raises(CosetLimitExceeded):
        LiftContext(pres, engine, central, max_cosets=10)
