"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools

import corpus
from centrallift import engines, lifting, modlinalg, oracle
from centrallift.lifting import LiftContext
from centrallift.modlinalg import IntMatrix
from centrallift.presentation import parse_presentation
from linalg_oracle import laplace_det, matmul, seeded_systems


def report(line):
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_worked_example_matrix():
    pres = parse_presentation(
        "generators: x y\nrelator: x^2*y^-1*x^-5*y^-1\nrelator: x*y^-3*x^7"
    )
    matrix = lifting.build_exponent_matrix(pres)
    assert matrix.to_rows() == [[-3, -2], [8, -3]]
    report("1 PASS: exponent matrix of the worked example is [[-3,-2],[8,-3]]")


def test_criterion_2_metacyclic_demo(case_study):
    assert case_study.g_engine.order() == 81
    assert case_study.a_engine.order() == 162
    assert len(case_study.center) == 9
    assert case_study.quotient_order == 18
    s = case_study.surjectivity
    payload = case_study.to_dict()
    assert payload["lifts_per_phi"] == 3
    assert payload["all_lifts_automorphic"] is True
    assert s.aut_of_a_count == 3 * s.quotient_aut_count
    report(
        "2 PASS: |G|=81, |A|=162, |Z|=9, |A/Z|=18; every phi has 3 lifts, "
        f"all automorphic; |Aut(A)| = 3 * {s.quotient_aut_count}"
    )


def test_criterion_3_noncharacteristic_witness(case_study):
    witness = case_study.witness
    assert case_study.to_dict()["inner_not_characteristic"] is True
    psi_map = engines.map_images(case_study.a_engine, witness.psi.images)
    inner = set(case_study.inner)
    moved = {case_study.a_engine.element(psi_map[el.index]) for el in inner}
    assert moved != inner
    report("3 PASS: the witness lift moves Inn(G); Inn(G) is not characteristic")


def test_criterion_4_solver_oracle_equivalence():
    total_phis = 0
    for name, text in corpus.CORPUS:
        pres, central, engine, _ = corpus.build(text)
        context = LiftContext(pres, engine, central)
        for spec in oracle.bf_quotient_auts(context):
            prob = context.problem(spec)
            assert oracle.compare(prob).match, name
            total_phis += 1
    report(
        f"4 PASS: solver and oracle agree on hom and aut lift sets for "
        f"{total_phis} quotient automorphisms across {len(corpus.CORPUS)} fixtures"
    )


def test_criterion_5_squarefree_equivalence():
    checked = 0
    for name, text in corpus.CORPUS:
        pres, central, engine, n_elements = corpus.build(text)
        if any(e > 1 for e in modlinalg.factorize(len(n_elements)).values()):
            continue
        context = LiftContext(pres, engine, central)
        for spec in oracle.bf_quotient_auts(context):
            prob = context.problem(spec)
            hom_exists = bool(oracle.bf_hom_lifts(prob))
            aut_exists = any(
                oracle._bijective(engine, e.images) for e in oracle.bf_hom_lifts(prob)
            )
            assert hom_exists == aut_exists, name
            assert lifting.squarefree_existence(prob) == hom_exists, name
            checked += 1
    assert checked
    report(
        f"5 PASS: hom-lift existence iff aut-lift existence on {checked} "
        "squarefree-#N instances, oracle-verified"
    )


def test_criterion_6_snf_and_solve_properties():
    trials = 1000
    count_checks = 0
    for rows_of_m, modulus, w in seeded_systems(trials):
        matrix = IntMatrix.from_rows(rows_of_m)
        rows, cols = matrix.rows, matrix.cols
        dec = modlinalg.smith(matrix)
        product = matmul(matmul(dec.U.to_rows(), matrix.to_rows()), dec.V.to_rows())
        assert product == dec.D.to_rows()
        assert abs(laplace_det(dec.U.to_rows())) == 1
        assert abs(laplace_det(dec.V.to_rows())) == 1
        d = [x for x in dec.diagonal() if x]
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))

        sol = modlinalg.solve(dec, w, modulus)
        brute = 0
        mrows = [matrix.row(i) for i in range(rows)]
        for v in itertools.product(range(modulus), repeat=cols):
            if all(
                sum(r[j] * v[j] for j in range(cols)) % modulus == w[i] % modulus
                for i, r in enumerate(mrows)
            ):
                brute += 1
        assert sol.count == brute
        count_checks += 1
    report(
        f"6 PASS: U*M*V = D, unimodularity and divisibility on {trials} random "
        f"matrices; solve counts match brute force on {count_checks} systems"
    )


def test_criterion_7_todd_coxeter_orders():
    cases = [
        ("generators: x\nrelator: x^4", 4),
        ("generators: x y\nrelator: x^3\nrelator: y^2\nrelator: x*y*x*y", 6),
        ("generators: x y\nrelator: x^4\nrelator: x^2*y^-2\nrelator: y^-1*x*y*x", 8),
        (corpus.HEISENBERG, 27),
        (corpus.METACYCLIC34, 81),
    ]
    for text, expected in cases:
        pres = parse_presentation(text)
        engine = engines.todd_coxeter(pres, max_cosets=2000)
        assert engine.order() == expected
        # independent closure oracle over the generator permutations
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
        assert len(seen) == expected
    report("7 PASS: coset enumeration orders 4, 6, 8, 27, 81 match closure counts")
