"""Exact linear algebra over Q, fraction-free.

``_echelon`` is the one elimination routine.  It clears each row to
integers, eliminates by integer cross-multiplication and divides each
row by its content.  ``solve_columns`` solves A x = b for several
right-hand sides with a single reduction of [A | b_1 ... b_k], each x
as integer numerators over one denominator; ``solve_unique``, its
one-column case, returns ``Fraction``s.  No command calls
``determinant`` (over ``Fraction``) or ``solve_unique``: the tests use
the first as the referee for the cyclotomic norm, and perfbench times
both.
"""

from __future__ import annotations

from math import gcd, lcm

from .arith import lowest_terms
from .errors import NoSolution


def clear_denominators(values) -> tuple[list[int], int]:
    """(nums, den) with nums[i] / den == values[i] and den the least
    common denominator; entries may be ints or ``Fraction``s, read by
    their numerator and denominator."""
    values = list(values)
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
    becomes the i-th row of the reduced echelon form times its pivot
    entry, a primitive integer row that vanishes on the other pivot
    columns; the rows below keep their primitive integer form, which
    vanishes on the first ``ncols`` columns.
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
    aug[:] = rows
    return pivots


def solve_columns(rows, rhs_list) -> list[tuple[tuple, int]]:
    """Solve A x = b exactly for every b in ``rhs_list`` with one
    elimination; A may be rectangular but must have full column rank
    and every system must be consistent.  Each x comes back as (nums,
    den) in lowest terms.

    Raises NoSolution if any column is inconsistent, ValueError if
    underdetermined.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b[i] for b in rhs_list] for i, r in enumerate(rows)]
    pivots = _echelon(aug, ncols)
    for r in aug[len(pivots):]:
        if any(r[ncols:]):
            raise NoSolution("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("underdetermined linear system")
    den = lcm(*(aug[i][i] for i in range(ncols)))
    scales = [den // aug[i][i] for i in range(ncols)]
    return [
        lowest_terms([aug[i][j] * s for i, s in enumerate(scales)], den)
        for j in range(ncols, ncols + len(rhs_list))
    ]


def solve_unique(rows, rhs) -> list:
    """Solve A x = b exactly (the one-column case of ``solve_columns``),
    as ``Fraction``s."""
    from fractions import Fraction  # imported here: no command calls it

    nums, den = solve_columns(rows, [rhs])[0]
    return [Fraction(x, den) for x in nums]


def determinant(rows):
    from fractions import Fraction  # imported here: no command calls it

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
