import itertools
import random

import pytest

import corpus
from centrallift import cli, engines, words
from centrallift.engines import (
    CosetLimitExceeded,
    EngineMismatch,
    NotNormal,
    NotSubgroup,
    PermutationEngine,
    center,
    central_log_table,
    element_order,
    generates,
    is_central,
    quotient_engine,
    subgroup_closure,
    todd_coxeter,
    word_for_element,
)
from centrallift.presentation import parse_presentation


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


def test_is_central():
    _, _, c4, _ = corpus.build(corpus.C4)
    assert is_central(c4, c4.identity())
    assert is_central(c4, c4.power(c4.generator(0), 2))
    _, _, meta, _ = corpus.build(corpus.METACYCLIC34)
    assert not is_central(meta, meta.generator(1))
    # center against the all-pairs definition
    _, _, heis, _ = corpus.build(corpus.HEISENBERG)
    for engine in (c4, meta, heis):
        els = engine.elements()
        expected = tuple(
            h for h in els
            if all(engine.multiply(h, g) == engine.multiply(g, h) for g in els)
        )
        assert center(engine) == expected
    assert (len(center(c4)), len(center(meta)), len(center(heis))) == (4, 9, 3)


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


def test_quotient_engine_c4():
    _, _, c4, _ = corpus.build(corpus.C4)
    n = subgroup_closure(c4, {c4.power(c4.generator(0), 2)})
    q = quotient_engine(c4, n)
    assert q.order() == 2
    assert q.project(c4.power(c4.generator(0), 2)) == q.identity()
    assert q.project(c4.generator(0)) == q.generator(0)


def test_quotient_engine_heisenberg_abelian():
    _, _, engine, n_elements = corpus.build(corpus.HEISENBERG)
    q = quotient_engine(engine, n_elements)
    assert q.order() == 9
    for a in q.elements():
        for b in q.elements():
            assert q.multiply(a, b) == q.multiply(b, a)


def test_quotient_by_trivial_is_isomorphic():
    _, _, engine, _ = corpus.build(corpus.Q8)
    q = quotient_engine(engine, [engine.identity()])
    assert q.order() == engine.order()
    images = {q.project(el) for el in engine.elements()}
    assert len(images) == engine.order()


def test_quotient_projection_is_homomorphism():
    _, _, engine, n_elements = corpus.build(corpus.METACYCLIC34)
    q = quotient_engine(engine, n_elements)
    rng = random.Random(4)
    els = engine.elements()
    for _ in range(100):
        a, b = rng.choice(els), rng.choice(els)
        assert q.project(engine.multiply(a, b)) == q.multiply(
            q.project(a), q.project(b)
        )


def test_quotient_engine_rejects_bad_subsets():
    _, _, c4, _ = corpus.build(corpus.C4)
    x = c4.generator(0)
    with pytest.raises(NotSubgroup):
        quotient_engine(c4, [c4.identity(), x])  # {1, x} not closed


def test_quotient_engine_rejects_non_normal():
    pres = parse_presentation(
        "generators: x y\nrelator: x^3\nrelator: y^2\nrelator: x*y*x*y"
    )
    s3 = todd_coxeter(pres, 100)
    y = s3.generator(1)
    sub = subgroup_closure(s3, {y})  # order-2 subgroup, not normal in S3
    with pytest.raises(NotNormal):
        quotient_engine(s3, sub)


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
        _, _, engine, n_elements = corpus.build(text)
        yield quotient_engine(engine, n_elements)


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
        assert [engine.element_from_perm(p).index for p in perms] == list(range(6))
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
    (engine,) = built
    assert engine.order() == 343
    assert sum(col is not None for col in engine._columns) < engine.order() // 2
