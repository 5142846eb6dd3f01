"""Exact linear algebra over Q, fraction-free.

``_echelon`` is the one elimination routine.  It clears each row to
integers, eliminates by integer cross-multiplication, divides each row
by its content, and turns the pivot rows back into ``Fraction``s only
at the end.  ``solve_columns`` solves A x = b for several right-hand
sides with a single reduction of [A | b_1 ... b_k], and
``solve_unique`` is its one-column case; both return ``Fraction``s.
No command calls ``determinant`` (over ``Fraction``) or
``solve_unique``: the tests use the first as the referee for the
cyclotomic norm, and perfbench times both.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import NoSolution

_ZERO = Fraction(0)


def clear_denominators(values) -> tuple[list[int], int]:
    """(nums, den) with nums[i] / den == values[i] and den the least
    common denominator; entries may be ints or ``Fraction``s."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = 1
    for v in values:
        d = v.denominator
        if den % d:
            den = den // gcd(den, d) * d
    return [v.numerator * (den // v.denominator) for v in values], den


def _primitive(row: list[int]) -> list[int]:
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _echelon(aug: list[list], ncols: int) -> list[int]:
    """Row-reduce ``aug`` in place over its first ``ncols`` columns.

    Returns the list of pivot column indices.  Row i < len(pivots)
    becomes the i-th row of the reduced echelon form, as ``Fraction``s
    with a 1 at its pivot; the rows below keep their primitive integer
    form, which vanishes on the first ``ncols`` columns.
    """
    rows = [_primitive(clear_denominators(r)[0]) for r in aug]
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        p = rows[row]
        pv = p[col]
        for i, r in enumerate(rows):
            f = r[col]
            if f and i != row:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                rows[i] = _primitive([a * x - b * y for x, y in zip(r, p)])
        pivots.append(col)
        row += 1
        if row == len(rows):
            break
    for i, col in enumerate(pivots):
        pv = rows[i][col]
        aug[i] = [Fraction(x, pv) if x else _ZERO for x in rows[i]]
    aug[len(pivots):] = rows[len(pivots):]
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
    aug = [list(r) + [b[i] for b in rhs_list] for i, r in enumerate(rows)]
    pivots = _echelon(aug, ncols)
    for r in aug[len(pivots):]:
        if any(r[ncols:]):
            raise NoSolution("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("underdetermined linear system")
    sols = [[_ZERO] * ncols for _ in range(k)]
    for i, col in enumerate(pivots):
        for j in range(k):
            sols[j][col] = aug[i][ncols + j]
    return sols


def solve_unique(rows, rhs) -> list[Fraction]:
    """Solve A x = b exactly (the one-column case of ``solve_columns``)."""
    return solve_columns(rows, [rhs])[0]


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
