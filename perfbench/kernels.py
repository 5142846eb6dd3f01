"""Seeded micro-timings of the arithmetic layers' public calls.

    python perfbench/kernels.py SEED SECONDS_PER_KERNEL

Each kernel draws its operands from SEED, times one public call per
operand for about SECONDS_PER_KERNEL seconds, and checks its results
with an identity outside the call's own code path.  Prints one JSON
object: ``{"rates": {kernel: calls per second}, "checked": n,
"failures": [message, ...]}``.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction

from cuspcenter import centermap, linalg, matrices
from cuspcenter.cyclotomic import CyclotomicNumber, ell_valuation, zeta
from cuspcenter.finitefield import finite_field
from cuspcenter.params import reduce_parameters, validate_parameters

POOL = 32  # operands drawn and timed per kernel
CHECKED = 4  # of which this many are checked (the checks cost more than the calls)


def timed(call, operands, seconds):
    """Calls per second of ``call(*op)`` cycling over ``operands``."""
    done = 0
    start = time.perf_counter()
    while True:
        call(*operands[done % len(operands)])
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return done / elapsed


def random_cyclo(rng, ell, level, size=4, max_den=3):
    phi = (ell - 1) * ell ** (level - 1)
    coeffs = [Fraction(rng.randint(-size, size), rng.randint(1, max_den)) for _ in range(phi)]
    coeffs[rng.randrange(phi)] = Fraction(rng.randint(1, size))  # never zero
    return CyclotomicNumber(ell, level, coeffs)


def plain_mat_mul(a, b, zero):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), zero) for j in range(n)]
        for i in range(n)
    ]


def ff_mul(rng, seconds, fail):
    field = finite_field(17**2)
    triples = [tuple(field.element(rng.randrange(field.order)) for _ in range(3)) for _ in range(POOL)]
    for a, b, c in triples[:CHECKED]:
        if a * b != b * a or a * (b + c) != a * b + a * c:
            fail(f"ff_mul: commutativity/distributivity fails on {a!r}, {b!r}, {c!r}")
    return timed(lambda a, b: a * b, [t[:2] for t in triples], seconds)


def cyclo_mul(rng, seconds, fail):
    triples = [tuple(random_cyclo(rng, 31, 1) for _ in range(3)) for _ in range(POOL)]
    for a, b, c in triples[:CHECKED]:
        if a * b != b * a or a * (b + c) != a * b + a * c:
            fail("cyclo_mul: commutativity/distributivity fails in Q(zeta_31)")
    return timed(lambda a, b: a * b, [t[:2] for t in triples], seconds)


def ell_valuation_kernel(rng, seconds, fail):
    ell, phi = 31, 30
    pi = zeta(ell, 1) - 1
    ops = []
    for i in range(POOL):
        j, k = rng.randrange(4), rng.randint(-2, 2)
        x = (pi**j * Fraction(ell) ** k).embed_to(1)
        y = random_cyclo(rng, ell, 1, size=2, max_den=1)
        if i < CHECKED:
            if ell_valuation(x) != j + phi * k:
                fail(f"ell_valuation: nu((zeta - 1)^{j} * {ell}^{k}) != {j + phi * k}")
            if ell_valuation(x * y) != ell_valuation(x) + ell_valuation(y):
                fail("ell_valuation: not multiplicative")
        ops.append((x * y,))
    return timed(ell_valuation, ops, seconds)


def gamma_system():
    """The 210 x 7 gamma-power system of (q, l, n) = (2, 31, 5)."""
    ps = reduce_parameters(validate_parameters(2, 31, 5, 1))
    gamma = centermap.gamma_vector(ps)
    pows = centermap.gamma_power_basis(gamma, len(gamma.entries))
    phi = ps.ell - 1
    return [
        [v.entries[s].embed_to(1).coeffs[c] for v in pows]
        for s in range(len(gamma.entries))
        for c in range(phi)
    ]


def solve_unique_kernel(rng, seconds, fail):
    rows = gamma_system()
    ops = []
    for i in range(POOL):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in rows[0]]
        b = [sum((a * xi for a, xi in zip(row, x)), Fraction(0)) for row in rows]
        if i < CHECKED:
            sol = linalg.solve_unique(rows, b)
            check = [sum((a * si for a, si in zip(row, sol)), Fraction(0)) for row in rows]
            if check != b or sol != x:
                fail("solve_unique: A x != b on the gamma system")
        ops.append((rows, b))
    return timed(linalg.solve_unique, ops, seconds)


def charpoly_kernel(rng, seconds, fail):
    ell, n = 5, 4
    zero = CyclotomicNumber.zero(ell, 1)
    one = CyclotomicNumber.rational(ell, 1).embed_to(1)
    ops = []
    for k in range(POOL):
        a = [[zero] * n for _ in range(n)]
        for i in range(n):
            a[i][(i + 1) % n] = random_cyclo(rng, ell, 1)
        a = tuple(tuple(r) for r in a)
        ops.append((a, zero, one))
        if k >= CHECKED:
            continue
        coeffs = matrices.charpoly(a, zero, one)
        acc = [[zero] * n for _ in range(n)]  # Horner: p(A) = 0
        for c in reversed(coeffs):
            acc = plain_mat_mul(acc, a, zero)
            for i in range(n):
                acc[i][i] = acc[i][i] + c
        if coeffs[n] != one or any(not e.is_zero() for r in acc for e in r):
            fail("charpoly: Cayley-Hamilton fails on a cyclic shift over Q(zeta_5)")
    return timed(matrices.charpoly, ops, seconds)


KERNELS = {
    "kernel.ff_mul_per_s": ff_mul,
    "kernel.cyclo_mul_per_s": cyclo_mul,
    "kernel.ell_valuation_per_s": ell_valuation_kernel,
    "kernel.solve_unique_per_s": solve_unique_kernel,
    "kernel.charpoly_per_s": charpoly_kernel,
}


def main(argv: list[str]) -> int:
    seed, seconds = int(argv[0]), float(argv[1])
    failures: list[str] = []
    rates = {}
    for offset, (name, kernel) in enumerate(KERNELS.items()):
        rates[name] = kernel(random.Random(seed * 101 + offset), seconds, failures.append)
    print(json.dumps({"rates": rates, "checked": CHECKED * len(KERNELS), "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
