import dataclasses
import itertools

import pytest

import corpus
from centrallift import cli, engines, lifting, metacyclic, oracle
from centrallift.lifting import LiftContext
from centrallift.presentation import (
    Presentation,
    QuotientAutSpec,
    parse_presentation,
    parse_presentation_file,
)
from centrallift.words import FreeWord, format_word


def identity_spec(pres):
    return QuotientAutSpec(tuple(FreeWord(((i, 1),)) for i in range(pres.n)))


def problem(text):
    pres, central, engine, _ = corpus.build(text)
    return LiftContext(pres, engine, central).problem(identity_spec(pres))


def test_bf_hom_lifts_c4():
    prob = problem(corpus.C4)
    lifts = oracle.bf_hom_lifts(prob)
    x = prob.engine.generator(0)
    assert {e.key() for e in lifts} == {
        (x.index,),
        (prob.engine.power(x, 3).index,),
    }


def test_bf_hom_lifts_heisenberg_matches_solver():
    prob = problem(corpus.HEISENBERG)
    assert len(oracle.bf_hom_lifts(prob)) == len(
        lifting.solve_hom_lifts(prob).lifts
    )


def test_bf_aut_lifts_subset():
    for text in (corpus.C4, corpus.C6, corpus.Q8):
        prob = problem(text)
        hom = oracle.bf_hom_lifts(prob)
        aut = [e for e in hom if oracle._bijective(prob.engine, e.images)]
        assert set(aut) <= set(hom)


def test_bf_aut_lifts_c6():
    prob = problem(corpus.C6)
    hom = oracle.bf_hom_lifts(prob)
    assert len(hom) == 3
    assert sum(oracle._bijective(prob.engine, e.images) for e in hom) == 2


@pytest.mark.parametrize(
    "text, hom_count, aut_count, group_aut_count",
    [(corpus.C6, 3, 2, 2), (corpus.C4C2, 4, 4, 8)],
    ids=["C6", "C4xC2"],
)
def test_oracle_never_calls_generates(
    text, hom_count, aut_count, group_aut_count, monkeypatch
):
    # the automorphy verdict compare checks must not come from the
    # function the solver's is_automorphism uses
    prob = problem(text)

    def forbidden(*args):
        raise AssertionError("the oracle called engines.generates")

    monkeypatch.setattr(engines, "generates", forbidden)
    hom = oracle.bf_hom_lifts(prob)
    assert len(hom) == hom_count
    assert sum(oracle._bijective(prob.engine, e.images) for e in hom) == aut_count
    auts = oracle.bf_automorphism_group(prob.pres, prob.engine)
    assert len(auts) == group_aut_count


def test_budget_exceeded():
    prob = problem(corpus.HEISENBERG)
    with pytest.raises(oracle.BudgetExceeded):
        oracle.bf_hom_lifts(prob, budget=5)


def test_bf_automorphism_group_c4():
    pres, _, engine, _ = corpus.build(corpus.C4)
    auts = oracle.bf_automorphism_group(pres, engine)
    assert len(auts) == 2


def test_bf_automorphism_group_s3():
    pres = parse_presentation(
        "generators: x y\nrelator: x^3\nrelator: y^2\nrelator: x*y*x*y"
    )
    engine = engines.todd_coxeter(pres, 100)
    auts = oracle.bf_automorphism_group(pres, engine)
    assert len(auts) == 6  # Inn(S3) = Aut(S3)


def test_bf_automorphism_group_metacyclic():
    pres, _, engine, _ = corpus.build(corpus.METACYCLIC34)
    auts = oracle.bf_automorphism_group(pres, engine)
    assert len(auts) == 162  # (p-1) * p^n


def test_aut_table_is_a_group():
    pres, _, engine, _ = corpus.build(corpus.Q8)
    auts = oracle.bf_automorphism_group(pres, engine)
    assert len(auts) == 24
    maps = {engines.map_images(engine, a.images) for a in auts}
    assert len(maps) == 24
    # identity present
    assert tuple(range(engine.order())) in maps
    # closure under composition (apply a, then b)
    for a in maps:
        for b in maps:
            assert tuple(b[x] for x in a) in maps
    # inverses
    for a in maps:
        inverse = [0] * len(a)
        for x, y in enumerate(a):
            inverse[y] = x
        assert tuple(inverse) in maps


def context_for(text):
    pres, central, engine, _ = corpus.build(text)
    return LiftContext(pres, engine, central)


def test_bf_quotient_auts_counts():
    assert len(oracle.bf_quotient_auts(context_for(corpus.C4))) == 1

    specs = oracle.bf_quotient_auts(context_for(corpus.HEISENBERG))
    assert len(specs) == 48  # |GL_2(F_3)|


def test_bf_quotient_auts_words_represent_automorphisms():
    context = context_for(corpus.C2C2C4_AC2)
    specs = oracle.bf_quotient_auts(context)
    q = context.quotient
    for spec in specs:
        context.problem(spec)
    # distinct induced maps
    qgens = [q.generator(i) for i in range(context.pres.n)]
    from centrallift.words import evaluate

    seen = set()
    for spec in specs:
        images = tuple(evaluate(w, qgens, q).index for w in spec.rep_words)
        seen.add(images)
    assert len(seen) == len(specs)


@pytest.mark.parametrize("name,text", corpus.CORPUS)
def test_compare_corpus(name, text):
    pres, central, engine, _ = corpus.build(text)
    context = LiftContext(pres, engine, central)
    for spec in oracle.bf_quotient_auts(context):
        report = oracle.compare(context.problem(spec))
        assert report.match


def inverted_z_words(text):
    """The same file with each central word replaced by its inverse."""
    pres, central = parse_presentation_file(text)
    lines = [line for line in text.splitlines() if not line.startswith("central:")]
    for word in central.z_words:
        inverse = FreeWord(tuple((g, -e) for g, e in reversed(word.letters)))
        lines.append("central: " + format_word(inverse, pres.names))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name,text", corpus.CORPUS)
def test_inverted_z_words_define_the_same_quotient(name, text, tmp_path, capsys):
    # any independent words generating N present the same G/N = <X | R, z-words>:
    # the inverted z-words give the same Aut(G/N) specs, accept each of them,
    # and verify writes the same report
    other = inverted_z_words(text)
    assert other != text
    specs = oracle.bf_quotient_auts(context_for(text))
    other_context = context_for(other)
    assert oracle.bf_quotient_auts(other_context) == specs
    for spec in specs:
        other_context.problem(spec)
    reports = []
    for i, version in enumerate((text, other)):
        path = tmp_path / f"{i}.grp"
        path.write_text(version)
        assert cli.main(["verify", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_compare_detects_injected_bug(monkeypatch):
    prob = problem(corpus.C6)
    real = lifting.solve_aut_lifts

    def broken(problem, hom):
        report = real(problem, hom)
        return dataclasses.replace(report, lifts=report.lifts[1:])  # drop one lift

    monkeypatch.setattr(lifting, "solve_aut_lifts", broken)
    with pytest.raises(oracle.Mismatch) as err:
        oracle.compare(prob)
    assert err.value.report.counterexample["side"] == "oracle_only"
    assert err.value.report.counterexample["kind"] == "automorphic"


def test_aut_group_times_fiber_counts_lifted_endos():
    # every endomorphism of G that lifts some phi is counted once per
    # (phi, solution); on the metacyclic fixture all phi lift
    pres, central, engine, _ = corpus.build(corpus.METACYCLIC34)
    context = LiftContext(pres, engine, central)
    specs = oracle.bf_quotient_auts(context)
    all_lifts = set()
    per_phi = []
    for spec in specs:
        prob = context.problem(spec)
        lifts = oracle.bf_hom_lifts(prob)
        per_phi.append(len(lifts))
        all_lifts.update(lifts)
    liftable = [c for c in per_phi if c]
    assert sum(per_phi) == len(all_lifts)
    assert len(set(liftable)) <= 1


def whole_relator_search(pres, engine, pools, depth_order):
    # the reference: each relator multiplied out letter by letter from the
    # identity at every candidate, as soon as its support is assigned
    mult, inv = engine._mult_index, engine._inv_index
    position = {g: d for d, g in enumerate(depth_order)}
    by_depth = [[] for _ in depth_order]
    for rel in pres.relators:
        if rel.letters:
            by_depth[max(position[g] for g, _ in rel.letters)].append(rel)

    def value(rel, images):
        acc = 0
        for g, e in rel.letters:
            x = images[g] if e > 0 else inv(images[g])
            for _ in range(abs(e)):
                acc = mult(acc, x)
        return acc

    images, out = [0] * pres.n, []

    def descend(depth):
        if depth == pres.n:
            out.append(tuple(images))
            return
        gen = depth_order[depth]
        for candidate in pools[gen]:
            images[gen] = candidate
            if all(value(rel, images) == 0 for rel in by_depth[depth]):
                descend(depth + 1)

    descend(0)
    return sorted(out)


def case_study_groups(p, n):
    # (presentation, engine) of G, A and A/Z for the demo at (p, n)
    cfg = metacyclic.CaseStudyConfig(p, n, order_budget=(p - 1) * p**n)
    pres_g = metacyclic.metacyclic_presentation(cfg)
    g = metacyclic.build_group(cfg, pres_g)
    a, _, pres_a, _ = metacyclic.build_aut_A(cfg, pres_g, g, metacyclic._inner_maps(g))
    z_words = metacyclic._central_spec(cfg).z_words
    pres_q = Presentation(pres_a.names, z_words + pres_a.relators)
    return [(pres_g, g), (pres_a, a), (pres_q, engines.todd_coxeter(pres_q))]


@pytest.mark.parametrize(
    "groups, every_order",
    [
        (lambda: [corpus.build(text)[::2] for _, text in corpus.CORPUS], True),
        (lambda: case_study_groups(3, 4), True),
        (lambda: case_study_groups(3, 5), False),
    ],
    ids=["corpus", "case-study-3-4", "case-study-3-5"],
)
def test_search_folds_to_the_whole_relator_search(groups, every_order):
    # relators folded per search node find the tuples that whole relators,
    # multiplied out at every candidate, find: on the order-matched pools
    # of the automorphism search, in every depth order (so every rotation
    # and split of a relator occurs), or in its own order and in reverse
    for pres, engine in groups():
        orders = [engines.element_order(engine, el) for el in engine.elements()]
        pools = [
            [j for j in range(engine.order()) if orders[j] == orders[g]]
            for g in engine._gen_indices
        ]
        greedy = oracle._greedy_depth_order(pres, pools)
        depth_orders = itertools.permutations(range(pres.n)) if every_order else (
            greedy,
            greedy[::-1],
        )
        for depth_order in map(list, depth_orders):
            folded = oracle._search_image_tuples(pres, engine, pools, depth_order)
            assert folded == whole_relator_search(pres, engine, pools, depth_order)
            assert folded
