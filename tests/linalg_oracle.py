"""Independent exact-arithmetic oracles shared by the linear-algebra tests."""

import random


def laplace_det(rows):
    # independent determinant oracle for small matrices
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * laplace_det(minor)
    return total


def matmul(a, b):
    # independent matrix product, on lists of rows
    cols = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for row in a
    ]


def seeded_systems(trials=1000):
    # acceptance criterion 6's random systems: (rows of M, modulus, w)
    rng = random.Random(20260809)
    for _ in range(trials):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        modulus = rng.randint(2, 12)
        yield matrix, modulus, tuple(rng.randint(-9, 9) for _ in range(rows))
