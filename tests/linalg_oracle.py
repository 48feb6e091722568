"""Independent exact-arithmetic oracles shared by the linear-algebra tests."""


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
