import itertools
import math
import operator
import random

import pytest

from centrallift.modlinalg import (
    IntMatrix,
    SolvePlan,
    enumerate_solutions,
    factorize,
    primitive_roots,
    smith,
    units,
)
from linalg_oracle import laplace_det, matmul, seeded_systems


def solve_system(matrix, rhs, modulus):
    return SolvePlan(smith(matrix), modulus).solve(rhs)


def minor_gcd_diagonal(matrix: IntMatrix):
    # Smith diagonal via gcds of k x k minors: d_1*...*d_k = gcd of minors
    rows, cols = matrix.rows, matrix.cols
    prev = 1
    diag = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ris in itertools.combinations(range(rows), k):
            for cjs in itertools.combinations(range(cols), k):
                sub = [[matrix.get(i, j) for j in cjs] for i in ris]
                g = math.gcd(g, abs(laplace_det(sub)))
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    return diag


def brute_count(matrix: IntMatrix, w, m):
    mrows = [matrix.row(i) for i in range(matrix.rows)]
    return sum(
        all((sum(map(operator.mul, r, v)) - wi) % m == 0 for r, wi in zip(mrows, w))
        for v in itertools.product(range(m), repeat=matrix.cols)
    )


def test_smith_identity():
    dec = smith(IntMatrix.identity(2))
    assert dec.diagonal() == (1, 1)
    assert dec.rank == 2


def test_smith_worked_example():
    # det 25 and unit entries force diag(1, 25); cross-checked by minor gcds
    m = IntMatrix.from_rows([[-3, -2], [8, -3]])
    dec = smith(m)
    assert dec.diagonal() == (1, 25)
    assert minor_gcd_diagonal(m) == [1, 25]
    product = matmul(matmul(dec.U.to_rows(), m.to_rows()), dec.V.to_rows())
    assert product == dec.D.to_rows()


def test_smith_zero_matrix():
    dec = smith(IntMatrix(2, 3, (0,) * 6))
    assert dec.rank == 0
    assert all(x == 0 for x in dec.D.entries)


def test_smith_deterministic():
    m = IntMatrix.from_rows([[6, 4], [2, 8]])
    assert smith(m) == smith(m)


def test_solve_all_residues():
    s = solve_system(IntMatrix.from_rows([[4]]), (0,), 2)
    assert s.solvable and s.count == 2
    assert enumerate_solutions(s) == [(0,), (1,)]


def test_solve_identity_system():
    s = solve_system(IntMatrix.identity(2), (3, 5), 7)
    assert s.solvable and s.count == 1
    assert enumerate_solutions(s) == [(3, 5)]


def test_solve_parity_obstruction():
    s = solve_system(IntMatrix.from_rows([[2]]), (1,), 4)
    assert not s.solvable
    assert s.count == 0
    assert enumerate_solutions(s) == []


def test_linear_system_rejects_non_positive_modulus():
    for modulus in (0, -1):
        with pytest.raises(ValueError, match="modulus must be positive"):
            SolvePlan(smith(IntMatrix.identity(1)), modulus).solve((0,))


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    dec = smith(IntMatrix.from_rows([[1, 2], [3, 4]]))
    for rhs in ((), (0,), (0, 0, 0)):
        with pytest.raises(ValueError, match="right-hand side length must match"):
            SolvePlan(dec, 5).solve(rhs)


def test_plan_counts_and_solves_the_seeded_systems():
    # one plan per (M, modulus): its count reads no solution set, and a
    # second plan gives its solution set field by field; unsolvable systems
    # included
    unsolvable = 0
    for rows, modulus, w in seeded_systems():
        matrix = IntMatrix.from_rows(rows)
        dec = smith(matrix)
        for m in (modulus, 1):
            plan = SolvePlan(dec, m)
            expected = brute_count(matrix, w, m)
            sol = plan.solve(w)
            assert plan.count(w) == sol.count == expected, (rows, m, w)
            assert sol == SolvePlan(dec, m).solve(w)  # field by field
            assert sol.solvable == (expected > 0)
            unsolvable += not expected
    assert unsolvable > 100


def test_plan_rejects_a_wrong_length_and_a_non_positive_modulus():
    dec = smith(IntMatrix.from_rows([[1, 2], [3, 4]]))
    plan = SolvePlan(dec, 5)
    for rhs in ((), (0,), (0, 0, 0)):
        for answer in (plan.count, plan.solve):
            with pytest.raises(ValueError, match="right-hand side length must match"):
                answer(rhs)
    for modulus in (0, -1):
        with pytest.raises(ValueError, match="modulus must be positive"):
            SolvePlan(dec, modulus)


def test_modulus_one_degenerate():
    s = solve_system(IntMatrix.from_rows([[5, 7]]), (3,), 1)
    assert s.solvable and s.count == 1
    assert enumerate_solutions(s) == [(0, 0)]


def _random_matrix(rng, rows, cols, bound=9):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def test_smith_properties_random():
    rng = random.Random(20250809)
    for _ in range(400):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_matrix(rng, rows, cols)
        dec = smith(m)
        product = matmul(matmul(dec.U.to_rows(), m.to_rows()), dec.V.to_rows())
        assert product == dec.D.to_rows()
        assert abs(laplace_det(dec.U.to_rows())) == 1
        assert abs(laplace_det(dec.V.to_rows())) == 1
        d = [x for x in dec.diagonal() if x]
        assert len(d) == dec.rank
        assert all(x > 0 for x in d)
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))
        # off-diagonal zero
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert dec.D.get(i, j) == 0


def test_solve_counts_match_brute_force():
    rng = random.Random(424242)
    for _ in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 3)
        m = _random_matrix(rng, rows, cols)
        modulus = rng.randint(2, 12)
        w = tuple(rng.randint(-9, 9) for _ in range(rows))
        s = solve_system(m, w, modulus)
        assert s.count == brute_count(m, w, modulus)
        if s.solvable:
            sols = enumerate_solutions(s)
            assert len(sols) == len(set(sols)) == s.count
            for v in sols:
                for i in range(rows):
                    assert (
                        sum(m.get(i, j) * v[j] for j in range(cols)) % modulus
                        == w[i] % modulus
                    )


def test_solution_sets_are_kernel_cosets():
    # two solvable right-hand sides of the same system have equal counts
    rng = random.Random(11)
    for _ in range(100):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = _random_matrix(rng, rows, cols, bound=5)
        modulus = rng.randint(2, 9)
        v0 = [rng.randrange(modulus) for _ in range(cols)]
        v1 = [rng.randrange(modulus) for _ in range(cols)]
        w0 = tuple(x % modulus for x in m.mulvec(v0))
        w1 = tuple(x % modulus for x in m.mulvec(v1))
        dec = smith(m)
        plan = SolvePlan(dec, modulus)
        s0, s1 = plan.solve(w0), plan.solve(w1)
        assert s0.solvable and s1.solvable
        assert s0.count == s1.count


def test_smith_diagonal_matches_sympy():
    # an independent Smith normal form on acceptance criterion 6's matrices
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    for rows, _, _ in seeded_systems():
        theirs = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
        mine = smith(IntMatrix.from_rows(rows)).diagonal()
        assert [abs(d) for d in mine] == [
            abs(theirs[i, i]) for i in range(len(mine))
        ], rows


def test_factorize_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 2000):
        assert factorize(n) == sympy.factorint(n), n


def test_primitive_roots_have_order_phi():
    # the definition: a >= 2 whose multiplicative order mod m is phi(m)
    for m in range(1, 400):
        phi = len(units(m))
        assert phi == sum(1 for c in range(m) if math.gcd(c, m) == 1)
        expected = []
        for a in range(2, m):
            if math.gcd(a, m) == 1:
                order, cur = 1, a % m
                while cur != 1:
                    cur, order = cur * a % m, order + 1
                if order == phi:
                    expected.append(a)
        assert primitive_roots(m) == expected, m
