import hashlib
import json
import math
import random

import pytest

from centrallift import cli, engines, lifting, metacyclic, modlinalg, oracle
from centrallift.metacyclic import CaseStudyConfig, metacyclic_presentation
from centrallift.presentation import CentralSubgroupSpec, Presentation, QuotientAutSpec
from centrallift.words import FreeWord, concat, evaluate, format_word


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
            evaluate(rel, (params.x1, params.x2, params.x3), case_study.a_engine)
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
    gens = (g.generator(0), g.generator(1))
    z_count = sum(
        1 for el in g.elements() if all(g.multiply(el, x) == g.multiply(x, el) for x in gens)
    )
    assert len(case_study.inner) * z_count == g.order()
    # conjugation by x is the fitted x1 (the search seeds it first); A finds
    # it by its pair, the images of x and y, which extend to the whole map
    x, y = g._gen_indices
    conj_x = reference_conjugation(g, x)
    assert engines.map_images(g, [g.element(conj_x[x]), g.element(conj_x[y])]) == conj_x
    x1 = case_study.a_engine.element(case_study.a_index[conj_x[x], conj_x[y]])
    assert x1 == case_study.params.x1


def reference_conjugation(g, i):
    """h -> x^-1 h x for the element x of index i, on every h of G."""
    return tuple(g._mult_index(g._mult_index(g._inv_index(i), h), i) for h in range(g.order()))


def pair_of(g, perm):
    """The pair (images of x and y) of a map of G."""
    x, y = g._gen_indices
    return perm[x], perm[y]


def map_of(g, pair):
    """The map of G that a pair extends to."""
    return engines.map_images(g, [g.element(i) for i in pair])


@pytest.mark.parametrize("p,n,budget", [(3, 4, 200), (3, 5, 500), (5, 4, 2500)])
def test_inner_maps_are_the_conjugation_scan(p, n, budget):
    # the closure of conj_x and conj_y is every conjugation map, conj_x
    # first (it seeds the x1 search) and the rest sorted, as pairs
    cfg = CaseStudyConfig(p, n, order_budget=budget)
    g = metacyclic.build_group(cfg, metacyclic_presentation(cfg))
    scan = {reference_conjugation(g, i) for i in range(g.order())}  # all of G
    inner = metacyclic._inner_maps(metacyclic._PairAlgebra(g))
    assert len(inner) == len(scan) == p * p
    assert inner[0] == pair_of(g, reference_conjugation(g, g._gen_indices[0]))
    assert inner[1:] == sorted({pair_of(g, m) for m in scan} - {inner[0]})
    # each pair extends to its whole conjugation map
    assert {map_of(g, pair) for pair in inner} == scan


def test_conjugation_by_identity_is_identity(case_study):
    # conjugation by 1 is the pair algebra's identity, among Inn(G)'s pairs,
    # and A's identity
    g = case_study.g_engine
    algebra = metacyclic._PairAlgebra(g)
    conj = reference_conjugation(g, g.identity().index)
    assert conj == tuple(range(g.order()))
    assert pair_of(g, conj) == algebra.identity == tuple(g._gen_indices)
    assert algebra.identity in metacyclic._inner_maps(algebra)
    a = case_study.a_engine
    assert a.element(case_study.a_index[algebra.identity]) == a.identity()


def test_commutator_structure(case_study):
    # re-run the K checks explicitly (they also run inside the pipeline)
    a, params = case_study.a_engine, case_study.params
    k_elems = set(engines.subgroup_closure(a, (params.x1, params.x2)))
    metacyclic.verify_commutator_structure(
        case_study.cfg, a, params, case_study.center, k_elems
    )


def test_pi_surjective(case_study):
    s = case_study.surjectivity
    payload = case_study.to_dict()
    assert payload["lifts_per_phi"] == 3
    assert payload["all_lifts_automorphic"] is True
    assert s.aut_of_a_count == 3 * s.quotient_aut_count


def test_adjust_into_k_shifts_a_representative_outside_k(case_study):
    # every representative bf_quotient_auts gives already lies in K, so move
    # one phi's x1 representative off K by z = x3^(p-1) and let the shift undo it
    from centrallift.lifting import LiftContext, solve_hom_lifts

    cfg, a, params = case_study.cfg, case_study.a_engine, case_study.params
    p, fiber = cfg.p, cfg.p ** (cfg.n - 3)
    context = LiftContext(case_study.pres_a, a, metacyclic._central_spec(cfg))
    k_elems = set(engines.subgroup_closure(a, (params.x1, params.x2)))
    gens = [a.generator(i) for i in range(3)]
    spec = oracle.bf_quotient_auts(context)[0]
    moved = concat(spec.rep_words[0], FreeWord(((2, p - 1),)))
    assert evaluate(moved, gens, a) not in k_elems
    off_k = QuotientAutSpec((moved,) + spec.rep_words[1:])

    adjusted = metacyclic._adjust_into_k(cfg, a, params, off_k, k_elems)
    word = adjusted.rep_words[0]
    assert word != moved
    value, original = evaluate(word, gens, a), evaluate(moved, gens, a)
    assert value in k_elems
    assert a.multiply(a.inverse(original), value) in set(case_study.center)

    problem = context.problem(adjusted)
    report = solve_hom_lifts(problem)
    w = problem.residues[0]
    assert w[:3] == (0, 0, 0)
    assert all(w[i] % fiber == 0 for i in (3, 4, 5))
    assert len(report.lifts) == fiber
    assert all(lift.automorphic for lift in report.lifts)


def test_witness(case_study):
    assert case_study.to_dict()["inner_not_characteristic"] is True
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
    # Aut(G) is one engine, the enumeration of its fitted presentation, and
    # no permutation engine is built: Inn(G) is closed as pairs
    real_context, real_tc = metacyclic.LiftContext, engines.todd_coxeter
    real_perm_init = engines.PermutationEngine.__init__
    contexts, enumerated, perm_engines = [], [], []

    def counting_context(*args):
        contexts.append(args)
        return real_context(*args)

    def counting_tc(*args, **kwargs):
        engine = real_tc(*args, **kwargs)
        enumerated.append(engine)
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
    # G, A from its fitted presentation, A/Z once
    assert [engine.order() for engine in enumerated] == [81, 162, 18]
    assert enumerated[1] is result.a_engine
    assert perm_engines == []


def test_aut_search_enumerates_each_fitted_presentation_once(monkeypatch):
    # the first 200 fitting triples are forced to be skipped: they still run
    # the real check, but A's presentation is enumerated once per (a, j, k)
    real_verify, real_tc = metacyclic._verify_params, engines.todd_coxeter
    tried, enumerated = [], []

    def skipping_verify(cfg, g_engine, auts, pres, *rest):
        tried.append(pres)
        fitted = real_verify(cfg, g_engine, auts, pres, *rest)
        return None if len(tried) <= 200 else fitted

    def counting_tc(pres, *args, **kwargs):
        enumerated.append(pres)
        return real_tc(pres, *args, **kwargs)

    cfg = CaseStudyConfig(3, 4)
    pres_g = metacyclic_presentation(cfg)
    g = metacyclic.build_group(cfg, pres_g)
    monkeypatch.setattr(metacyclic, "_verify_params", skipping_verify)
    monkeypatch.setattr(engines, "todd_coxeter", counting_tc)
    algebra = metacyclic._PairAlgebra(g)
    built = metacyclic.build_aut_A(cfg, pres_g, algebra, metacyclic._inner_maps(algebra))
    a_engine, _, pres_a, _ = built
    assert a_engine.order() == 162 and len(tried) == 201
    # one enumeration per distinct presentation, at its first triple
    assert enumerated == list(dict.fromkeys(tried))
    assert len(enumerated) == 9
    assert pres_a in enumerated


def test_case_study_scans_neither_a_nor_the_conjugations_of_g(monkeypatch):
    # Z(A) is read off the LiftContext and Inn(G) closed from two pairs: the
    # only centre scans are of A/Z and of G, and Inn(G)'s closure multiplies
    # each of its p^2 pairs by the conjugations by G's two generators only
    real_center, real_inner = engines.center, metacyclic._inner_maps
    scanned, products = [], []

    def counting_center(engine):
        scanned.append(engine)
        return real_center(engine)

    def counting_inner(algebra):
        real_then = algebra.then

        def counting_then(a, b):
            products.append(b)
            return real_then(a, b)

        algebra.then = counting_then
        try:
            return real_inner(algebra)
        finally:
            del algebra.then

    monkeypatch.setattr(engines, "center", counting_center)
    monkeypatch.setattr(metacyclic, "_inner_maps", counting_inner)
    result = metacyclic.run_case_study(CaseStudyConfig(3, 4))
    assert result.a_engine not in scanned
    assert [engine.order() for engine in scanned] == [18, 81]  # A/Z, then G
    g = result.g_engine
    conj_x, conj_y = (pair_of(g, reference_conjugation(g, i)) for i in g._gen_indices)
    assert products == [conj_x, conj_y] * 9


def test_demo_materializes_only_the_lifts_it_checks(monkeypatch, tmp_path):
    # the first phi's 3 lifts and the witness's 3; the other 431 phis' lifts
    # are counted from the Smith forms, and the report keeps its bytes
    calls = {"materialize": 0, "is_automorphism": 0}
    for name in calls:

        def spy(*args, _real=getattr(lifting, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(lifting, name, spy)
    out = tmp_path / "report.json"
    assert cli.main(["demo", "--p", "3", "--n", "4", "--out", str(out)]) == 0
    assert calls == {"materialize": 6, "is_automorphism": 6}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "383bc871cd78ef367045487edef6012119a8c2ac4cf2fcda2fd9506de3ceef79"
    )


def test_demo_plans_each_system_once_and_builds_few_solution_sets(monkeypatch, capsys):
    # the (A, Z) context holds one solve plan for M and one for the extended
    # matrix, both mod |Z| = 9; the 432 phis are counted on them, and only
    # the first phi's hom target and the witness's hom and 2 aut targets
    # build solution sets
    real_smith, real_set = modlinalg.smith, modlinalg.SolutionSet
    real_plan_init = modlinalg.SolvePlan.__init__
    matrices, plans, sets = {}, [], []

    def recording_smith(matrix):
        dec = real_smith(matrix)
        matrices[id(dec)] = matrix
        return dec

    def recording_plan_init(self, dec, modulus):
        real_plan_init(self, dec, modulus)
        matrix = matrices[id(dec)]
        plans.append((matrix.rows, matrix.cols, modulus))

    def counting_set(*args):
        sets.append(args)
        return real_set(*args)

    monkeypatch.setattr(modlinalg, "smith", recording_smith)
    monkeypatch.setattr(modlinalg.SolvePlan, "__init__", recording_plan_init)
    monkeypatch.setattr(modlinalg, "SolutionSet", counting_set)
    assert cli.main(["demo", "--p", "3", "--n", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["quotient_aut_count"] == 432
    assert len(matrices) == 2
    assert plans == [(6, 3, 9), (7, 3, 9)]  # M, then M with the z-word's row
    assert len(sets) == 4


def test_demo_cross_checks_the_counts_against_the_first_phis_lifts(
    monkeypatch, capsys
):
    # a count_lifts that claims one lift too few is caught by the first phi's
    # materialized lifts, before the fibre-size checks see the counts
    real = lifting.count_lifts

    def undercount(problem):
        hom, aut = real(problem)
        return hom, aut - 1

    monkeypatch.setattr(lifting, "count_lifts", undercount)
    message = "the first phi's materialized lifts disagree with its Smith-form counts"
    with pytest.raises(metacyclic.VerificationFailed) as failed:
        metacyclic.run_case_study(CaseStudyConfig(3, 4))
    assert str(failed.value) == message
    assert cli.main(["demo", "--p", "3", "--n", "4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: VerificationFailed: {message}\n"


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
    cause = {
        "x1^(p^2)": "it presents a group of order 486, not |Aut(G)| = 162",
        "no commutator relator": "its enumeration passed 100*|A| = 16200 cosets",
    }[weakening]
    assert capsys.readouterr().err == (
        "internal error: VerificationFailed: "
        f"the fitted presentation does not present Aut(G): {cause}\n"
    )


def test_demo_names_g_when_its_enumeration_passes_the_coset_limit(capsys):
    # HLT needs ~75|G| cosets for G at (5,5): the 50|G| limit refuses it as
    # input (exit 1), naming G, its order and the limit
    argv = ["demo", "--p", "5", "--n", "5", "--order-budget", "12500"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: G of order p^n = 5^5 = 3125: its enumeration passed "
        "50*|G| = 156250 cosets\n"
    )


@pytest.mark.parametrize("n,budget", [(4, 200), (5, 500)])
def test_z_of_k_from_the_centralizer_is_the_all_pairs_centre_of_k(n, budget):
    result = metacyclic.run_case_study(CaseStudyConfig(3, n, order_budget=budget))
    a, x1, x2 = result.a_engine, result.params.x1, result.params.x2
    assert (x1, x2) == (a.generator(0), a.generator(1))
    k_elems = set(engines.subgroup_closure(a, (x1, x2)))
    z_of_k = {
        el for el in k_elems if all(a.multiply(el, k) == a.multiply(k, el) for k in k_elems)
    }
    assert k_elems.intersection(engines.centralizer(a, (0, 1))) == z_of_k
    assert z_of_k == k_elems.intersection(result.center)


def triple_closure(g, a_engine, a_index):
    """A reference for A: the permutation engine closed from the maps of G
    that A's generators' pairs extend to."""
    pair_of = {i: pair for pair, i in a_index.items()}
    maps = []
    for i in range(a_engine.ngens):
        u, v = pair_of[a_engine.generator(i).index]
        maps.append(engines.map_images(g, [g.element(u), g.element(v)]))
    return engines.PermutationEngine(maps)


def perm_order(perm):
    """Order of a permutation: the lcm of its cycle lengths."""
    order, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def test_perm_order_matches_engine_order(case_study):
    # the cycle-lcm reference that the pair algebra's orders are checked
    # against agrees with the engines' element orders
    g = case_study.g_engine
    inn = engines.PermutationEngine([reference_conjugation(g, i) for i in g._gen_indices])
    a = triple_closure(g, case_study.a_engine, case_study.a_index)
    s3 = engines.PermutationEngine([(1, 2, 0), (1, 0, 2)])
    assert (inn.order(), a.order()) == (9, 162)
    for engine in (inn, a, s3):
        for el in engine.elements():
            assert perm_order(engine._perms[el.index]) == engines.element_order(engine, el)
    assert sorted(perm_order(p) for p in s3._perms) == [1, 2, 2, 2, 3, 3]


def fitted_aut_a(p, n, budget):
    cfg = CaseStudyConfig(p, n, order_budget=budget)
    pres_g = metacyclic_presentation(cfg)
    g = metacyclic.build_group(cfg, pres_g)
    algebra = metacyclic._PairAlgebra(g)
    built = metacyclic.build_aut_A(cfg, pres_g, algebra, metacyclic._inner_maps(algebra))
    return pres_g, g, built


def compose(a, b):
    """a, then b, as maps of G."""
    return tuple(b[h] for h in a)


@pytest.mark.parametrize("p,n,budget", [(3, 4, 200), (3, 5, 500)])
def test_pair_algebra_matches_the_permutations_of_g(p, n, budget):
    # on every automorphism of G, then and power on pairs are composing and
    # powering the maps the pairs extend to, and has_order picks the same
    # order-p and maximal-order candidates as the maps' cycle lengths
    cfg = CaseStudyConfig(p, n, order_budget=budget)
    pres_g = metacyclic_presentation(cfg)
    g = metacyclic.build_group(cfg, pres_g)
    algebra = metacyclic._PairAlgebra(g)
    identity = tuple(range(g.order()))
    assert map_of(g, algebra.identity) == identity
    pairs = [aut.key() for aut in oracle.bf_automorphism_group(pres_g, g)]
    maps = {pair: map_of(g, pair) for pair in pairs}
    rng = random.Random(p * 100 + n)
    max_order = (p - 1) * p ** (n - 2)
    orders = {p: [], max_order: []}
    for pair in pairs:
        mine = maps[pair]
        for other in rng.sample(pairs, 3):
            product = algebra.then(pair, other)
            assert map_of(g, product) == compose(mine, maps[other])
            assert product == pair_of(g, compose(mine, maps[other]))
        expected = identity
        for k in range(2 * p + 1):
            assert map_of(g, algebra.power(pair, k)) == expected
            expected = compose(expected, mine)
        order = perm_order(mine)
        assert algebra.power(pair, order) == algebra.identity
        assert algebra.power(pair, cfg.aut_order - 1) == pair_of(
            g, sorted(identity, key=mine.__getitem__)  # the inverse map
        )
        assert algebra.has_order(pair, order)
        for m, found in orders.items():
            if algebra.has_order(pair, m):
                found.append(pair)
    assert orders[p] == [pair for pair in pairs if perm_order(maps[pair]) == p]
    assert orders[max_order] == [pair for pair in pairs if perm_order(maps[pair]) == max_order]
    assert orders[p] and orders[max_order]


def test_build_aut_a_maps_g_once_per_automorphism_and_six_times_for_the_tie(monkeypatch):
    # the oracle's bijectivity test maps each of the 162 automorphisms of G
    # once; the tie maps the triple and its inverses; no map of G is made
    # for an order
    cfg = CaseStudyConfig(3, 4)
    pres_g = metacyclic_presentation(cfg)
    g = metacyclic.build_group(cfg, pres_g)
    algebra = metacyclic._PairAlgebra(g)
    inner = metacyclic._inner_maps(algebra)
    real = engines.map_images
    maps_of_g = []

    def counting(engine, images):
        if engine is g:
            maps_of_g.append(tuple(im.index for im in images))
        return real(engine, images)

    monkeypatch.setattr(engines, "map_images", counting)
    a_engine, params, _, a_index = metacyclic.build_aut_A(cfg, pres_g, algebra, inner)
    assert len(maps_of_g) == 162 + 6
    pair_of_a = {i: pair for pair, i in a_index.items()}
    triple = [pair_of_a[x.index] for x in (params.x1, params.x2, params.x3)]
    inverses = [pair_of_a[a_engine.inverse(x).index] for x in (params.x1, params.x2, params.x3)]
    assert maps_of_g[162:] == [m for pair in zip(triple, inverses) for m in pair]


@pytest.mark.parametrize(
    "p,n,budget,ajk",
    [(3, 4, 200, (2, 0, 2)), (3, 5, 500, (2, 0, 2)), (5, 4, 2500, (2, 0, 1))],
)
def test_search_runs_on_the_oracle_order_of_sorted_maps(p, n, budget, ajk):
    # the search takes candidates in the oracle's order, sorted by generator
    # images; with x and y at indices 1 and 2 that is the order of the maps
    pres_g, g, (_, params, _, _) = fitted_aut_a(p, n, budget)
    assert g._gen_indices == [1, 2]
    auts = oracle.bf_automorphism_group(pres_g, g)
    keys = [aut.key() for aut in auts]
    assert keys == sorted(keys)
    maps = [engines.map_images(g, aut.images) for aut in auts]
    assert maps == sorted(maps)
    assert (params.a, params.j, params.k) == ajk


@pytest.mark.parametrize("p,n,budget", [(3, 4, 200), (3, 5, 500)])
def test_aut_engine_matches_the_closure_of_the_triple(p, n, budget):
    # A's pairs are the oracle's automorphisms, and pairing each element of
    # the triple's permutation closure with A's element of the same pair is
    # an isomorphism of Cayley graphs that keeps every shortest word
    pres_g, g, (a, params, _, a_index) = fitted_aut_a(p, n, budget)
    assert sorted(a_index) == [aut.key() for aut in oracle.bf_automorphism_group(pres_g, g)]
    assert sorted(a_index.values()) == list(range(a.order()))
    reference = triple_closure(g, a, a_index)
    assert reference.order() == a.order() == len(a_index)
    assert [a.generator(i) for i in range(3)] == [params.x1, params.x2, params.x3]
    x, y = g._gen_indices
    gen_maps = [reference._perms[reference.generator(i).index] for i in range(3)]

    def in_a(perm):
        return a_index[perm[x], perm[y]]

    for el in reference.elements():
        perm = reference._perms[el.index]
        mine = a.element(in_a(perm))
        assert engines.word_for_element(a, mine) == engines.word_for_element(reference, el)
        for i, gen_map in enumerate(gen_maps):
            product = a.multiply(mine, a.generator(i))
            assert product.index == in_a(tuple(gen_map[q] for q in perm))


def doctored_oracle(monkeypatch):
    # the identity in place of the oracle's last automorphism of G
    real = oracle.bf_automorphism_group

    def doctored(pres, engine, *args, **kwargs):
        auts = real(pres, engine, *args, **kwargs)
        return auts[:-1] + auts[:1] if pres.names == ("x", "y") else auts

    monkeypatch.setattr(oracle, "bf_automorphism_group", doctored)


def false_relator(monkeypatch):
    # x1 for x1^p: x1 is not the identity
    real = metacyclic.aut_presentation

    def with_x1(*args):
        relators = (FreeWord(((0, 1),)),) + real(*args).relators[1:]
        return Presentation(("x1", "x2", "x3"), relators)

    monkeypatch.setattr(metacyclic, "aut_presentation", with_x1)


@pytest.mark.parametrize(
    "doctor,message",
    [
        (doctored_oracle, "fitted triple does not close to the oracle's automorphisms"),
        (false_relator, "a fitted presentation relator does not hold"),
    ],
    ids=["oracle", "relator"],
)
def test_demo_ties_a_to_the_oracle_through_the_triple(doctor, message, monkeypatch, capsys):
    doctor(monkeypatch)
    with pytest.raises(metacyclic.VerificationFailed) as failed:
        metacyclic.run_case_study(CaseStudyConfig(3, 4))
    assert str(failed.value) == message
    assert cli.main(["demo", "--p", "3", "--n", "4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: VerificationFailed: {message}\n"
