"""Tiny exact matrix helpers, generic over a commutative ring.

Matrices are tuples of row tuples whose entries support +, -, * among
themselves and with ints.  ``charpoly`` serves ``deformation``;
``mat_mul`` serves the tests.  ``charpoly`` uses Berkowitz's recurrence,
which divides by nothing and therefore works verbatim over the
integers, finite fields and cyclotomic rings alike, in O(n^4) ring
products.
"""

from __future__ import annotations


def mat_mul(a, b, zero):
    n, mid, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = zero
            for k in range(mid):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _dot(xs, ys, zero):
    acc = zero
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def charpoly(a, zero, one) -> list:
    """Coefficients c_0..c_n (low first) of det(Y*I - A).

    Berkowitz (IPL 18, 1984): with p_r = det(Y I - A_r), high first, for
    the leading r x r block A_r, the next block adds row R = A[r][:r],
    column C = A[:r][r] and corner a = A[r][r], and p_{r+1} = T p_r for
    the lower-triangular Toeplitz T whose first column is
    (1, -a, -R C, -R A_r C, ..., -R A_r^(r-1) C)."""
    n = len(a)
    poly = [one]
    for r in range(n):
        block, row = [a[i][:r] for i in range(r)], a[r][:r]
        col = [a[i][r] for i in range(r)]  # A_r^k C, k = 0, 1, ...
        toeplitz = [one, zero - a[r][r]]
        for k in range(r):
            if k:
                col = [_dot(block_row, col, zero) for block_row in block]
            toeplitz.append(zero - _dot(row, col, zero))
        poly = [_dot(toeplitz[i::-1], poly, zero) for i in range(r + 2)]
    return poly[::-1]
