"""The cyclotomic layer is the foundation everything else trusts, so
its invariants are checked exhaustively over small exponent sets."""

from fractions import Fraction

from cuspcenter.cyclotomic import (
    CyclotomicNumber,
    ell_valuation,
    is_ell_integral,
    phi_prime_power,
    zeta,
)


def test_phi_prime_power():
    assert phi_prime_power(3, 0) == 1
    assert phi_prime_power(3, 1) == 2
    assert phi_prime_power(3, 2) == 6
    assert phi_prime_power(7, 1) == 6
    assert phi_prime_power(5, 1) == 4


def test_zeta3_relation():
    z = zeta(3, 1)
    assert (z**2 + z + 1).is_zero()
    assert z**3 == CyclotomicNumber.rational(3, 1)


def test_zeta9_tower():
    z9 = zeta(3, 2)
    assert z9**9 == CyclotomicNumber.rational(3, 1).embed_to(2)
    # zeta_9^3 is zeta_3, across levels
    assert z9**3 == zeta(3, 1)
    # phi_9(zeta_9) = zeta^6 + zeta^3 + 1 = 0
    assert (z9**6 + z9**3 + 1).is_zero()


def test_exponent_reduction_exhaustive():
    # zeta^(a+m) == zeta^a for every exponent, both levels of l = 3
    for level, m in ((1, 3), (2, 9)):
        for a in range(m):
            assert zeta(3, level, a + m) == zeta(3, level, a)


def test_embedding_is_homomorphism():
    # exhaustive on the level-1 power basis for l = 7
    basis = [zeta(7, 1, e) for e in range(6)]
    for x in basis:
        for y in basis:
            assert (x + y).embed_to(1) == x.embed_to(1) + y.embed_to(1)
            assert (x * y).embed_to(1) == x.embed_to(1) * y.embed_to(1)


def test_canonical_demotion():
    z9 = zeta(3, 2)
    x = z9**3  # lives at level 2, equals zeta_3
    c = x.canonical()
    assert c.level == 1
    r = (z9 * 0 + 5).canonical()
    assert r.level == 0 and r.as_rational() == 5


def test_valuation_normalization():
    # nu(zeta - 1) = 1 and nu(l) = phi(l^level), per level
    for ell in (3, 7):
        assert ell_valuation(zeta(ell, 1) - 1) == 1
        assert ell_valuation(CyclotomicNumber.rational(ell, ell).embed_to(1)) == ell - 1
    z9 = zeta(3, 2)
    assert ell_valuation(z9 - 1) == 1
    assert ell_valuation(CyclotomicNumber.rational(3, 3).embed_to(2)) == 6
    assert ell_valuation(CyclotomicNumber.rational(3, Fraction(1, 3))) == -1


def test_valuation_additive():
    z = zeta(3, 2)
    samples = [z - 1, z**2 - 1, z + 1, CyclotomicNumber.rational(3, 6).embed_to(2)]
    for x in samples:
        for y in samples:
            assert ell_valuation(x * y) == ell_valuation(x) + ell_valuation(y)


def test_norm_of_one_minus_zeta():
    # prod over primitive roots of (1 - zeta^k) = l
    for ell in (3, 5, 7):
        prod = CyclotomicNumber.rational(ell, 1).embed_to(1)
        for k in range(1, ell):
            prod = prod * (1 - zeta(ell, 1, k))
        assert prod.as_rational() == ell


def test_is_ell_integral():
    z = zeta(3, 1)
    assert is_ell_integral(z * Fraction(1, 2))
    assert not is_ell_integral(z * Fraction(1, 3))
    assert is_ell_integral((z - 1) ** 2 * Fraction(1, 3))  # nu = 2 = nu(3)


def test_hash_consistent_across_levels():
    z3 = zeta(3, 1)
    z9_cubed = zeta(3, 2) ** 3
    assert z3 == z9_cubed
    assert hash(z3) == hash(z9_cubed)
    assert len({z3, z9_cubed}) == 1
