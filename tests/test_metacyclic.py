import hashlib

import pytest

from centrallift import cli, engines, metacyclic, oracle
from centrallift.metacyclic import CaseStudyConfig, metacyclic_presentation
from centrallift.presentation import CentralSubgroupSpec, Presentation
from centrallift.words import FreeWord, evaluate, format_word


def test_config_validation():
    for p in (1, 2, 4, 9):
        with pytest.raises(ValueError, match="odd prime"):
            CaseStudyConfig(p, 4)
    with pytest.raises(ValueError, match="n must be"):
        CaseStudyConfig(3, 3)
    with pytest.raises(ValueError, match="budget"):
        CaseStudyConfig(3, 5)  # 486 > default budget
    CaseStudyConfig(3, 5, order_budget=500)


def test_config_refuses_what_the_aut_search_must_refuse():
    # build_aut_A's Aut(G) search tries |G|^2 image pairs under the oracle's
    # budget: a larger G is refused before p is trial-divided
    with pytest.raises(metacyclic.InvalidConfig, match=r"Aut\(G\) search"):
        CaseStudyConfig(11, 4, order_budget=10**6)
    with pytest.raises(metacyclic.InvalidConfig, match=r"Aut\(G\) search"):
        CaseStudyConfig(2305843009213693951, 4, order_budget=10**80)
    CaseStudyConfig(3, 7, order_budget=4374)  # |G|^2 = 3^14: still admitted


@pytest.mark.parametrize(
    "p,n,budget,powers",
    [
        (3, 4, 200, (27, 3, 10)),
        (3, 5, 500, (81, 3, 28)),
        (5, 4, 2500, (125, 5, 26)),
    ],
)
def test_metacyclic_presentation(p, n, budget, powers):
    pres = metacyclic_presentation(CaseStudyConfig(p, n, order_budget=budget))
    xe, ye, ce = powers
    assert pres.relators[0].letters == ((0, xe),)
    assert pres.relators[1].letters == ((1, ye),)
    assert pres.relators[2].letters == ((1, -1), (0, 1), (1, 1), (0, -ce))


def test_group_and_aut_order(case_study):
    assert case_study.g_engine.order() == 81
    assert case_study.a_engine.order() == 162


def test_x3_has_maximal_order(case_study):
    assert engines.element_order(case_study.a_engine, case_study.params.x3) == 18


def test_fitted_parameters(case_study):
    params = case_study.params
    assert params.a_is_proot_mod_pn2 or params.a_is_proot_mod_pn1
    assert (params.a * params.a_inv) % 3 == 1
    assert 0 <= params.j < 3 and 0 <= params.k < 3
    # the fitted relators hold
    for rel in case_study.pres_a.relators:
        assert (
            evaluate(rel, case_study.params.triple(), case_study.a_engine)
            == case_study.a_engine.identity()
        )


def test_center(case_study):
    assert len(case_study.center) == 9
    z = case_study.a_engine.power(case_study.params.x3, 2)
    assert engines.subgroup_closure(case_study.a_engine, (z,)) == case_study.center
    # the demo derives Z(A) = Z; the exhaustive scan of A agrees
    assert engines.center(case_study.a_engine) == case_study.center


def test_quotient_is_order_18_with_trivial_center(case_study):
    assert case_study.quotient_order == 18
    # verify_center requires it; the report states it
    assert case_study.to_dict()["quotient_center_trivial"] is True


def test_inner_matches_conjugations(case_study):
    # |Inn(G)| = |G| / |Z(G)|
    g = case_study.g_engine
    z_count = sum(1 for el in g.elements() if engines.is_central(g, el))
    assert len(case_study.inner) * z_count == g.order()
    # conjugation by x is the fitted x1 (the search seeds it first)
    conj_x = metacyclic._conjugation_map(g, g.generator(0))
    assert case_study.a_engine.element_from_perm(conj_x) == case_study.params.x1


def reference_conjugation(g, i):
    """h -> x^-1 h x for the element x of index i, on every h of G."""
    return tuple(g._mult_index(g._mult_index(g._inv_index(i), h), i) for h in range(g.order()))


@pytest.mark.parametrize("p,n,budget", [(3, 4, 200), (3, 5, 500), (5, 4, 2500)])
def test_inner_maps_are_the_conjugation_scan(p, n, budget):
    # the closure of conj_x and conj_y is every conjugation map, conj_x
    # first (it seeds the x1 search) and the rest sorted
    cfg = CaseStudyConfig(p, n, order_budget=budget)
    g = metacyclic.build_group(cfg, metacyclic_presentation(cfg))
    scan = {reference_conjugation(g, i) for i in range(g.order())}  # all of G
    inner = metacyclic._inner_maps(g)
    assert len(inner) == len(scan) == p * p
    assert inner[0] == metacyclic._conjugation_map(g, g.generator(0))
    assert inner[1:] == sorted(scan - {inner[0]})
    # extending from the generators' conjugates gives the whole map
    for el in g.elements()[: 2 * p]:
        assert metacyclic._conjugation_map(g, el) == reference_conjugation(g, el.index)


def test_conjugation_by_identity_is_identity(case_study):
    g = case_study.g_engine
    conj = metacyclic._conjugation_map(g, g.identity())
    assert case_study.a_engine.element_from_perm(conj) == case_study.a_engine.identity()


def test_commutator_structure(case_study):
    # re-run the K checks explicitly (they also run inside the pipeline)
    a, params = case_study.a_engine, case_study.params
    k_elems = set(engines.subgroup_closure(a, (params.x1, params.x2)))
    metacyclic.verify_commutator_structure(
        case_study.cfg, a, params, case_study.center, k_elems
    )


def test_pi_surjective(case_study):
    s = case_study.surjectivity
    assert s.lifts_per_phi == 3
    assert s.all_automorphic
    assert s.aut_of_a_count == 3 * s.quotient_aut_count


def test_witness(case_study):
    assert case_study.witness.verdict is True
    # phi swaps the generator cosets of the two C_p factors
    params = case_study.params
    words = [format_word(w, case_study.pres_a.names) for w in case_study.witness.phi.rep_words]
    assert words == [f"x2^{params.a_inv}", f"x1^{params.a}", "x3^-1"]


def test_witness_psi_fixes_center_setwise(case_study):
    psi = case_study.witness.psi
    a = case_study.a_engine
    psi_map = engines.map_images(a, psi.images)
    center = set(case_study.center)
    assert {a.element(psi_map[el.index]) for el in center} == center


def test_aut_quotient_lifts_match_oracle(case_study):
    # 3 homomorphic = 3 automorphic lifts per phi, on both solver and oracle
    from centrallift.lifting import LiftContext

    central = metacyclic._central_spec(case_study.cfg)
    context = LiftContext(case_study.pres_a, case_study.a_engine, central)
    assert context.n_elements == case_study.center
    specs = oracle.bf_quotient_auts(context)
    assert len(specs) == case_study.surjectivity.quotient_aut_count
    for spec in specs:
        rep = oracle.compare(context.problem(spec))
        assert rep.solver_hom_count == 3
        assert rep.solver_aut_count == 3


def test_result_dict_roundtrip(case_study):
    payload = case_study.to_dict()
    assert payload["group_order"] == 81
    assert payload["aut_order"] == 162
    assert payload["center_order"] == 9
    assert payload["quotient_order"] == 18
    assert payload["lifts_per_phi"] == 3
    assert payload["inner_not_characteristic"] is True
    assert payload["aut_of_aut_order"] == 3 * payload["quotient_aut_count"]


def test_case_study_builds_one_context(monkeypatch):
    # A/Z, its enumerated engine and M's Smith form are built once, by the one
    # LiftContext shared by the surjectivity check, the oracle and the witness;
    # Aut(G) is one engine, closed from the fitted triple (the other
    # permutation engine is Inn(G), of order p^2)
    real_context, real_tc = metacyclic.LiftContext, engines.todd_coxeter
    real_perm_init = engines.PermutationEngine.__init__
    contexts, enumerated, perm_engines = [], [], []

    def counting_context(*args):
        contexts.append(args)
        return real_context(*args)

    def counting_tc(*args, **kwargs):
        engine = real_tc(*args, **kwargs)
        enumerated.append(engine.order())
        return engine

    def counting_perm_init(self, *args):
        real_perm_init(self, *args)
        perm_engines.append(self.order())

    monkeypatch.setattr(metacyclic, "LiftContext", counting_context)
    monkeypatch.setattr(engines, "todd_coxeter", counting_tc)
    monkeypatch.setattr(engines.PermutationEngine, "__init__", counting_perm_init)
    result = metacyclic.run_case_study(CaseStudyConfig(3, 4))
    assert result.quotient_order == 18
    assert len(contexts) == 1
    assert enumerated == [81, 162, 18]  # G, A from its fitted presentation, A/Z once
    assert perm_engines.count(result.a_engine.order()) == 1


def test_case_study_scans_neither_a_nor_the_conjugations_of_g(monkeypatch):
    # Z(A) is read off the LiftContext and Inn(G) closed from two maps: the
    # only centre scans are of A/Z and of G, and G's two generators are the
    # only elements conjugated by
    real_center, real_conj = engines.center, metacyclic._conjugation_map
    scanned, conjugated_by = [], []

    def counting_center(engine):
        scanned.append(engine)
        return real_center(engine)

    def counting_conj(engine, g):
        conjugated_by.append(g)
        return real_conj(engine, g)

    monkeypatch.setattr(engines, "center", counting_center)
    monkeypatch.setattr(metacyclic, "_conjugation_map", counting_conj)
    result = metacyclic.run_case_study(CaseStudyConfig(3, 4))
    assert result.a_engine not in scanned
    assert [engine.order() for engine in scanned] == [18, 81]  # A/Z, then G
    g = result.g_engine
    assert conjugated_by == [g.generator(0), g.generator(1)]


@pytest.mark.parametrize(
    "z_word,message",
    [
        (lambda p: FreeWord(((0, 1),)), "Z(A): central word 'x1' is not central"),
        (lambda p: FreeWord(((2, (p - 1) * p),)), "A/Z has a non-trivial centre"),
    ],
    ids=["x1", "x3^((p-1)p)"],
)
def test_demo_requires_a_central_z_with_a_centreless_quotient(
    z_word, message, monkeypatch, capsys
):
    # Z(A) = Z is derived from two checks: z is central (x1 is not), and A/Z
    # has trivial centre (A/<x3^((p-1)p)> does not: it holds x3^(p-1)'s image)
    def central_spec(cfg):
        return CentralSubgroupSpec((z_word(cfg.p),))

    monkeypatch.setattr(metacyclic, "_central_spec", central_spec)
    with pytest.raises(metacyclic.VerificationFailed) as failed:
        metacyclic.run_case_study(CaseStudyConfig(3, 4))
    assert str(failed.value) == message
    assert cli.main(["demo", "--p", "3", "--n", "4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: VerificationFailed: {message}\n"


def test_demo_p3_n5_report_is_pinned(tmp_path):
    # perfbench pins only the (3,4) report; this digest is of the (3,5)
    # report from before Z(A) and Inn(G) were derived instead of scanned
    out = tmp_path / "report.json"
    argv = ["demo", "--p", "3", "--n", "5", "--order-budget", "500", "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "5e214e5e90ee955d61b0e707d2df346d0dc36788d46a5039f4dbe3cb9ff0f369"
    )


@pytest.mark.parametrize("weakening", ["x1^(p^2)", "no commutator relator"])
def test_demo_checks_that_the_fitted_presentation_presents_a(
    weakening, monkeypatch, capsys
):
    # relators holding at a generating triple only make A a quotient of the
    # presented group: with x1^(p^2) for x1^p it has order 486, and without
    # [x1, x2] = x3^small its enumeration outgrows the coset limit
    real = metacyclic.aut_presentation

    def weakened(p, *args):
        relators = list(real(p, *args).relators)
        if weakening == "x1^(p^2)":
            relators[0] = FreeWord(((0, p * p),))
        else:
            del relators[5]
        return Presentation(("x1", "x2", "x3"), tuple(relators))

    monkeypatch.setattr(metacyclic, "aut_presentation", weakened)
    with pytest.raises(metacyclic.VerificationFailed, match="does not present Aut"):
        metacyclic.run_case_study(CaseStudyConfig(3, 4))
    assert cli.main(["demo", "--p", "3", "--n", "4"]) == 4
    assert capsys.readouterr().err == (
        "internal error: VerificationFailed: "
        "the fitted presentation does not present Aut(G)\n"
    )


def test_perm_order_matches_engine_order(case_study):
    a = case_study.a_engine
    s3 = engines.PermutationEngine([(1, 2, 0), (1, 0, 2)])
    for engine in (a, s3):
        for el in engine.elements():
            assert metacyclic._perm_order(engine._perms[el.index]) == (
                engines.element_order(engine, el)
            )
    assert sorted(metacyclic._perm_order(p) for p in s3._perms) == [1, 2, 2, 2, 3, 3]
