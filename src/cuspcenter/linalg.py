"""Exact Gaussian elimination over Fraction.

``_echelon`` is the one elimination routine.  ``solve_columns`` solves
A x = b for several right-hand sides with a single reduction of
[A | b_1 ... b_k]; ``solve_unique`` is its one-column case, and
``invert`` reduces [A | I] the same way.  ``determinant`` is kept as the
referee for the cyclotomic norm.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NoSolution


def _echelon(aug: list[list[Fraction]], ncols: int) -> list[int]:
    """Row-reduce ``aug`` in place over its first ``ncols`` columns.

    Returns the list of pivot column indices.
    """
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, len(aug)) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for i in range(len(aug)):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
        if row == len(aug):
            break
    return pivots


def solve_columns(rows, rhs_list) -> list[list[Fraction]]:
    """Solve A x = b exactly for every b in ``rhs_list`` with one
    elimination; A may be rectangular but must have full column rank
    and every system must be consistent.

    Raises NoSolution if any column is inconsistent, ValueError if
    underdetermined.
    """
    ncols = len(rows[0]) if rows else 0
    k = len(rhs_list)
    aug = [
        [Fraction(x) for x in r] + [Fraction(b[i]) for b in rhs_list]
        for i, r in enumerate(rows)
    ]
    pivots = _echelon(aug, ncols)
    for r in aug[len(pivots):]:
        if any(r[ncols:]):
            raise NoSolution("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("underdetermined linear system")
    sols = [[Fraction(0)] * ncols for _ in range(k)]
    for i, col in enumerate(pivots):
        for j in range(k):
            sols[j][col] = aug[i][ncols + j]
    return sols


def solve_unique(rows, rhs) -> list[Fraction]:
    """Solve A x = b exactly (the one-column case of ``solve_columns``)."""
    return solve_columns(rows, [rhs])[0]


def invert(rows) -> list[list[Fraction]]:
    n = len(rows)
    aug = [
        [Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
        for i, r in enumerate(rows)
    ]
    pivots = _echelon(aug, n)
    if len(pivots) < n:
        raise NoSolution("matrix is singular")
    return [r[n:] for r in aug]


def determinant(rows) -> Fraction:
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            if a[i][col] != 0:
                f = a[i][col] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det
