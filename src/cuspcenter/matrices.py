"""Tiny exact matrix helpers, generic over a commutative ring.

Matrices are tuples of row tuples whose entries support +, -, * among
themselves and with ints.  ``charpoly`` serves ``deformation``;
``mat_mul`` serves the tests.  ``charpoly`` uses the Leibniz expansion,
which divides by nothing and therefore works verbatim over finite
fields and cyclotomic rings alike; its n! terms keep it to small n.
"""

from __future__ import annotations

from itertools import permutations


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


def _perm_sign(perm) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def charpoly(a, zero, one) -> list:
    """Coefficients c_0..c_n (low first) of det(Y*I - A)."""
    n = len(a)
    total = [zero] * (n + 1)
    for perm in permutations(range(n)):
        prod = [one]  # polynomial in Y, ring coefficients
        for i in range(n):
            lin = [zero - a[i][perm[i]], one] if perm[i] == i else [zero - a[i][perm[i]]]
            new = [zero] * (len(prod) + len(lin) - 1)
            for s, x in enumerate(prod):
                for t, y in enumerate(lin):
                    new[s + t] = new[s + t] + x * y
            prod = new
        sign = _perm_sign(perm)
        for k, c in enumerate(prod):
            total[k] = total[k] + c if sign == 1 else total[k] - c
    return total

