"""Exact linear algebra over Z and Z/m, and the integer arithmetic it rests on.

Smith normal form over the integers with unimodular transforms, complete
solution sets of M*v = w modulo a positive m, prime factorizations, unit
groups and primitive roots.  All arithmetic is on Python ints, so relator
exponents like p^(n-1) never overflow.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import gcd
from typing import Sequence

@dataclass(frozen=True)
class IntMatrix:
    """Dense row-major integer matrix."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(int(x) for x in row)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def get(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mulvec(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        cols, entries = self.cols, self.entries
        return tuple(
            sum(map(operator.mul, entries[i * cols : (i + 1) * cols], vec))
            for i in range(self.rows)
        )

    def stack_rows(self, extra: Sequence[Sequence[int]]) -> "IntMatrix":
        """New matrix with the given rows appended."""
        rows = self.to_rows()
        for r in extra:
            if len(r) != self.cols:
                raise ValueError("dimension mismatch")
            rows.append(list(r))
        return IntMatrix.from_rows(rows) if rows else IntMatrix(0, self.cols, ())


@dataclass(frozen=True)
class SmithDecomposition:
    """U*M*V = D with U, V unimodular and D diagonal, d_i | d_(i+1)."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    rank: int

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D.get(i, i) for i in range(min(self.D.rows, self.D.cols)))


@dataclass(frozen=True)
class SolutionSet:
    """All solutions of a linear system.

    kernel_basis pairs a vector with its period: multiples 0..period-1
    of the vector shift the particular solution to distinct solutions.
    """

    solvable: bool
    particular: tuple[int, ...]
    kernel_basis: tuple[tuple[tuple[int, ...], int], ...]
    count: int
    modulus: int


def _find_pivot(a: list[list[int]], t: int, rows: int, cols: int):
    # smallest nonzero absolute value; ties broken by lowest (row, col)
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = abs(a[i][j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
    return None if best is None else (best[1], best[2])


def smith(matrix: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms; deterministic for fixed input."""
    rows, cols = matrix.rows, matrix.cols
    a = matrix.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    v = IntMatrix.identity(cols).to_rows()

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        # row[dst] += factor * row[src]
        arow, asrc = a[dst], a[src]
        for k in range(cols):
            arow[k] += factor * asrc[k]
        urow, usrc = u[dst], u[src]
        for k in range(rows):
            urow[k] += factor * usrc[k]

    def add_col(src, dst, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pivot = _find_pivot(a, t, rows, cols)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            if a[t][t] < 0:
                for k in range(cols):
                    a[t][k] = -a[t][k]
                for k in range(rows):
                    u[t][k] = -u[t][k]
            restart = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        # remainder is a strictly smaller pivot
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # row and column are clear; enforce the divisibility chain
            d = a[t][t]
            fixed = False
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % d:
                        add_row(i, t, 1)
                        fixed = True
                        break
                if fixed:
                    break
            if not fixed:
                break
        t += 1

    rank = sum(1 for i in range(limit) if a[i][i])
    return SmithDecomposition(
        U=IntMatrix.from_rows(u) if rows else IntMatrix(0, 0, ()),
        D=IntMatrix(rows, cols, tuple(x for row in a for x in row)),
        V=IntMatrix.from_rows(v) if cols else IntMatrix(0, 0, ()),
        rank=rank,
    )


def _unsolvable(cols: int, modulus: int) -> SolutionSet:
    return SolutionSet(False, (0,) * cols, (), 0, modulus)


def solve(dec: SmithDecomposition, rhs: Sequence[int], modulus: int) -> SolutionSet:
    """Complete description of {v : M*v = rhs (mod modulus)}, given
    dec = smith(M): one decomposition serves every right-hand side."""
    rows, cols = dec.D.rows, dec.D.cols
    if len(rhs) != rows:
        raise ValueError("right-hand side length must match the row count")
    if modulus < 1:
        raise ValueError("modulus must be positive")
    c = dec.U.mulvec(rhs) if rows else ()
    diag = [dec.D.get(i, i) for i in range(dec.rank)]

    y = [0] * cols
    steps = []  # (column of V, step, period): pivot columns, then free ones
    count = 1
    for i, d in enumerate(diag):
        g = gcd(d, modulus)
        if c[i] % g:
            return _unsolvable(cols, modulus)
        mg = modulus // g
        y[i] = ((c[i] // g) * pow((d // g) % mg, -1, mg)) % mg if mg > 1 else 0
        if g > 1:
            steps.append((i, mg, g))
            count *= g
    for i in range(dec.rank, rows):
        if c[i] % modulus:
            return _unsolvable(cols, modulus)
    for j in range(dec.rank, cols):
        if modulus > 1:
            steps.append((j, 1, modulus))
            count *= modulus

    particular = tuple(x % modulus for x in dec.V.mulvec(y))
    kernel = tuple(
        (tuple(step * dec.V.get(r, col) % modulus for r in range(cols)), period)
        for col, step, period in steps
    )
    return SolutionSet(True, particular, kernel, count, modulus)


def _combination(sol: SolutionSet, coeffs: Sequence[int]) -> tuple[int, ...]:
    vec = list(sol.particular)
    for (basis, _), c in zip(sol.kernel_basis, coeffs):
        if c:
            for k, b in enumerate(basis):
                vec[k] += c * b
    return tuple(x % sol.modulus for x in vec)


def enumerate_solutions(sol: SolutionSet) -> list[tuple[int, ...]]:
    """All distinct solutions, lexicographically ordered."""
    if not sol.solvable:
        return []
    return sorted(
        _combination(sol, coeffs)
        for coeffs in itertools.product(*(range(p) for _, p in sol.kernel_basis))
    )


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} for n >= 1, by trial division; {} for n = 1."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = 1
    return factors


def units(m: int) -> list[int]:
    """The residues 0 <= c < m coprime to m, in increasing order."""
    return [c for c in range(m) if gcd(c, m) == 1]


def primitive_roots(m: int) -> list[int]:
    """The units a >= 2 of Z/m of order phi(m) = len(units(m)).  A unit's
    order divides phi(m), so it is smaller iff a^(phi(m)/q) = 1 for some
    prime q dividing phi(m)."""
    unit_list = units(m)
    phi = len(unit_list)
    primes = factorize(phi)
    return [a for a in unit_list if a >= 2 and all(pow(a, phi // q, m) != 1 for q in primes)]


def matrix_to_strings(matrix: IntMatrix) -> list[list[str]]:
    """Rows of decimal strings, the JSON wire form for matrices."""
    return [[str(x) for x in matrix.row(i)] for i in range(matrix.rows)]


def vector_to_strings(vec: Sequence[int]) -> list[str]:
    return [str(x) for x in vec]
