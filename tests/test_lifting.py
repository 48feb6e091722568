import pytest

import corpus
from centrallift import lifting, modlinalg, oracle
from centrallift.lifting import (
    DependentCentralGenerators,
    LiftContext,
    LiftProblem,
    NotSquarefree,
    build_exponent_matrix,
    count_lifts,
    is_automorphism,
    materialize,
    report_to_dict,
    solve_aut_lifts,
    solve_hom_lifts,
    squarefree_existence,
)
from centrallift.presentation import (
    CentralSubgroupSpec,
    QuotientAutSpec,
    parse_presentation,
)
from centrallift.words import FreeWord, concat, parse_word


def identity_spec(pres) -> QuotientAutSpec:
    return QuotientAutSpec(tuple(FreeWord(((i, 1),)) for i in range(pres.n)))


def problem(text, images=None):
    pres, central, engine, _ = corpus.build(text)
    if images is None:
        spec = identity_spec(pres)
    else:
        spec = QuotientAutSpec(tuple(parse_word(t, pres.names) for t in images))
    return LiftContext(pres, engine, central).problem(spec)


def aut_report(prob):
    return solve_aut_lifts(prob, solve_hom_lifts(prob))


def image_keys(report):
    return sorted(lift.endo.key() for lift in report.lifts)


def test_exponent_matrix_worked_example():
    pres = parse_presentation(
        "generators: x y\nrelator: x^2*y^-1*x^-5*y^-1\nrelator: x*y^-3*x^7"
    )
    assert build_exponent_matrix(pres).to_rows() == [[-3, -2], [8, -3]]


def test_exponent_matrix_trivial_relator():
    pres = parse_presentation("generators: x y\nrelator: x*x^-1")
    assert build_exponent_matrix(pres).to_rows() == [[0, 0]]


def test_exponent_matrix_metacyclic():
    pres, _, _, _ = corpus.build(corpus.METACYCLIC34)
    assert build_exponent_matrix(pres).to_rows() == [[27, 0], [0, 3], [-9, 0]]


def test_residue_identity_phi_is_zero():
    for text in (corpus.C4, corpus.Q8, corpus.HEISENBERG, corpus.METACYCLIC34):
        prob = problem(text)
        for block in prob.residues:
            assert all(x == 0 for x in block)


def test_residue_c4_with_shifted_rep():
    prob = problem(corpus.C4, images=["x^3"])
    assert prob.residues == ((0,),)


def test_hom_lifts_c4():
    prob = problem(corpus.C4)
    rep = solve_hom_lifts(prob)
    assert len(rep.lifts) == 2
    x = prob.engine.generator(0)
    expected = {
        (x.index,),
        (prob.engine.power(x, 3).index,),
    }
    assert {lift.endo.key() for lift in rep.lifts} == expected


def test_hom_lift_count_coprime_modulus():
    # the worked-example matrix has determinant 25; modulo anything coprime
    # to 25 the solution is unique
    m = build_exponent_matrix(
        parse_presentation(
            "generators: x y\nrelator: x^2*y^-1*x^-5*y^-1\nrelator: x*y^-3*x^7"
        )
    )
    dec = modlinalg.smith(m)
    for modulus in (2, 3, 7, 11, 12):
        s = modlinalg.solve(dec, (0, 0), modulus)
        assert s.count == 1


def test_aut_lifts_c4():
    rep = aut_report(problem(corpus.C4))
    assert len(rep.lifts) == 2


def test_aut_lifts_c6():
    hom = solve_hom_lifts(problem(corpus.C6))
    aut = aut_report(problem(corpus.C6))
    assert len(hom.lifts) == 3
    assert len(aut.lifts) == 2
    x = corpus.build(corpus.C6)[2].generator(0)
    eng = x.engine
    assert {l.endo.key() for l in aut.lifts} == {
        (x.index,),
        (eng.power(x, 5).index,),
    }


def test_materialize_identity():
    prob = problem(corpus.C4)
    endo = materialize(prob, ((0,),))
    assert endo.images == (prob.engine.generator(0),)


def test_materialize_shift():
    prob = problem(corpus.C4)
    endo = materialize(prob, ((1,),))
    assert endo.images == (prob.engine.power(prob.engine.generator(0), 3),)


def test_materialized_lifts_satisfy_lift_equation():
    prob = problem(corpus.Q8)
    rep = solve_hom_lifts(prob)
    proj = prob.context.projection
    for lift in rep.lifts:
        for i in range(prob.pres.n):
            assert proj[lift.endo.images[i].index] == proj[prob.xbar[i].index]


def test_is_automorphism_identity():
    prob = problem(corpus.C4)
    assert is_automorphism(prob, materialize(prob, ((0,),)))


def test_is_automorphism_rejects_collapse():
    prob = problem(corpus.C6)
    # v = 1: x -> x * x^2 = x^3 kills N
    endo = materialize(prob, ((1,),))
    assert not is_automorphism(prob, endo)


def test_squarefree_existence():
    assert squarefree_existence(problem(corpus.C6)) is True
    assert squarefree_existence(problem(corpus.C6_FULL)) is True
    with pytest.raises(NotSquarefree):
        squarefree_existence(problem(corpus.C4_FULL))
    # #N = 2 is squarefree, so C4 mod <x^2> is fine
    assert squarefree_existence(problem(corpus.C4)) is True


def test_dependent_generators_rejected():
    pres, _, engine, _ = corpus.build(corpus.C4)
    central = CentralSubgroupSpec(
        (parse_word("x^2", pres.names), parse_word("x^2", pres.names))
    )
    with pytest.raises(DependentCentralGenerators):
        LiftContext(pres, engine, central)


def test_dependent_generators_rejected_before_the_log_table():
    # three copies of x in C_2000: the order product 2000^3 exceeds |G|, and
    # building the log table first would take 8e9 products
    pres, central, engine, _ = corpus.build(
        "generators: x\nrelator: x^2000\n" + "central: x\n" * 3
    )
    assert len(central.z_words) == 3
    with pytest.raises(DependentCentralGenerators, match="G has order 2000"):
        LiftContext(pres, engine, central)


def test_trivial_central_subgroup():
    pres, _, engine, _ = corpus.build(corpus.C4)
    central = CentralSubgroupSpec((parse_word("x^4", pres.names),))
    spec = QuotientAutSpec((parse_word("x^3", pres.names),))
    prob = LiftContext(pres, engine, central).problem(spec)
    hom = solve_hom_lifts(prob)
    aut = solve_aut_lifts(prob, hom)
    assert len(hom.lifts) == len(aut.lifts) == 1
    assert hom.lifts[0].endo.images[0] == engine.power(engine.generator(0), 3)


def test_representative_independence():
    # multiplying a representative word by a z-word does not change the lifts
    pres, central, engine, _ = corpus.build(corpus.C6)
    base = identity_spec(pres)
    shifted = QuotientAutSpec(
        (concat(base.rep_words[0], central.z_words[0]),)
    )
    context = LiftContext(pres, engine, central)
    rep1 = solve_hom_lifts(context.problem(base))
    rep2 = solve_hom_lifts(context.problem(shifted))
    assert image_keys(rep1) == image_keys(rep2)


@pytest.mark.parametrize("name,text", corpus.CORPUS)
def test_fiber_uniformity(name, text):
    pres, central, engine, _ = corpus.build(text)
    counts = set()
    context = LiftContext(pres, engine, central)
    for spec in oracle.bf_quotient_auts(context):
        prob = context.problem(spec)
        count = len(solve_hom_lifts(prob).lifts)
        if count:
            counts.add(count)
    assert len(counts) <= 1


@pytest.mark.parametrize("name,text", corpus.CORPUS)
def test_count_lifts_matches_the_materialized_lifts(name, text, monkeypatch):
    # the corpus covers prime-power, composite and non-cyclic N
    pres, central, engine, _ = corpus.build(text)
    context = LiftContext(pres, engine, central)
    for spec in oracle.bf_quotient_auts(context):
        prob = context.problem(spec)
        with monkeypatch.context() as m:
            for unused in ("materialize", "is_automorphism"):
                m.setattr(lifting, unused, None)  # count_lifts calls neither
            counts = count_lifts(prob)
        hom = solve_hom_lifts(prob)
        assert counts == (len(hom.lifts), len(solve_aut_lifts(prob, hom).lifts))


def test_aut_equals_filtered_hom():
    for text in (corpus.C6, corpus.C6_FULL, corpus.Q8, corpus.C2C2C4_AB):
        prob = problem(text)
        hom = solve_hom_lifts(prob)
        aut = solve_aut_lifts(prob, hom)
        filtered = sorted(
            lift.endo.key() for lift in hom.lifts if lift.automorphic
        )
        assert image_keys(aut) == filtered


def test_aut_report_targets_cyclic():
    prob = problem(corpus.C6)
    rep = aut_report(prob)
    # #N = 3 is prime: p - 1 = 2 targets
    assert len(rep.targets) == 2
    context = prob.context
    assert context.aut_system.matrix.rows == context.matrix.rows + 1


def test_aut_report_targets_non_prime_power():
    rep = aut_report(problem(corpus.C6_FULL))
    # units mod 6: one target per admissible image of z
    assert len(rep.targets) == 2
    assert sum(t.count for t in rep.targets) == len(rep.lifts)


def test_aut_report_targets_non_cyclic():
    prob = problem(corpus.C2C2C4_AB)
    rep = aut_report(prob)
    # ordered pairs of distinct involutions generating C2 x C2
    assert len(rep.targets) == 6
    context = prob.context
    assert context.aut_system.matrix.rows == context.matrix.rows + 2


def test_report_to_dict_shape():
    prob = problem(corpus.C4)
    payload = report_to_dict(prob, solve_hom_lifts(prob))
    assert payload["matrix"] == [["4"]]
    assert payload["lift_count"] == 2
    assert payload["lifts"][0]["images"] == ["x"]
    assert payload["lifts"][1]["images"] == ["x^-1"]


@pytest.mark.parametrize("name,text", corpus.CORPUS)
def test_shared_context_matches_fresh_build(name, text):
    # one context answering every phi in turn gives the reports that a
    # fresh context per phi gives, so nothing carries over between phis
    pres, central, engine, _ = corpus.build(text)
    shared = LiftContext(pres, engine, central)
    for spec in oracle.bf_quotient_auts(shared):
        dicts = []
        for prob in (
            shared.problem(spec),
            LiftProblem.build(LiftContext(pres, engine, central), spec),
        ):
            hom = solve_hom_lifts(prob)
            aut = solve_aut_lifts(prob, hom)
            dicts.append((report_to_dict(prob, hom), report_to_dict(prob, aut)))
        assert dicts[0] == dicts[1]
