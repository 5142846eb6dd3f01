"""Finite-field layer: fixed moduli, exhaustive axiom checks on the
small fields the pipeline actually touches, the encoded arithmetic and
its exp/log tables against polynomial products of coefficient tuples,
the Frobenius-orbit pass against brute-force roots and trial-division
irreducibles, and the Sylow machinery against brute-force element
orders."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcenter import finitefield
from cuspcenter.arith import divisors, is_prime
from cuspcenter.errors import AssertionFailure, InvalidPrime, ScaleLimit, ZeroElement
from cuspcenter.finitefield import (
    FiniteField,
    FqPoly,
    _pp_mulmod,
    _pp_trim,
    ell_part_and_dlog,
    embedding,
    finite_field,
    frobenius_orbits,
    inverse_embedding,
    irreducible_polys,
    minimal_polynomial,
    roots_in,
    smallest_irreducible,
    smallest_root,
    sylow_generator,
)

# (q, n): subfield GF(q) inside GF(q^n)
ORBIT_CASES = [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)] + [
    (4, 2),
    (4, 3),
    (5, 2),
    (8, 2),
    (9, 2),
    (17, 2),
]


FIELD_ORDERS = sorted({q**n for q, n in ORBIT_CASES})


def ref_element(field, cs):
    """The element with coefficient tuple ``cs`` (trimmed or not)."""
    cs = tuple(cs)
    return field.from_coeffs(cs + (0,) * (field.e - len(cs)))


def ref_mul(x, y):
    """The referee product: polynomial multiplication of the coefficient
    tuples, reduced by the field's modulus, with no table involved."""
    f = x.field
    return ref_element(f, _pp_mulmod(_pp_trim(x.coeffs), _pp_trim(y.coeffs), f.modulus, f.p))


def ref_pow(x, k):
    out = x.field.one
    for _ in range(k):
        out = ref_mul(out, x)
    return out


def brute_order(t):
    """The referee: the least k >= 1 with t^k = 1, by repeated
    tuple multiplication."""
    k, x = 1, t
    while x != t.field.one:
        x = ref_mul(x, t)
        k += 1
    return k


def monic_remainder(a, b):
    """a mod b for FqPolys with b monic, by schoolbook long division."""
    rem = list(a.coeffs)
    dd = b.degree
    for i in range(len(rem) - dd - 1, -1, -1):
        c = rem[i + dd]
        if c:
            for j, y in enumerate(b.coeffs):
                rem[i + j] = rem[i + j] - c * y
    return FqPoly(a.field, rem[:dd])


def trial_division_irreducibles(field, a):
    """The referee: every monic polynomial of degree a that no monic
    irreducible of degree <= a/2 divides, in ``FqPoly.sort_key`` order
    (coefficients compared from the constant term up)."""
    q = field.order
    smaller = []
    for b in range(1, a // 2 + 1):
        smaller.extend(trial_division_irreducibles(field, b))
    out = []
    for enc in range(q**a):
        digits = []
        for _ in range(a):
            digits.append(enc % q)
            enc //= q
        cand = FqPoly(field, tuple(field.element(d) for d in digits) + (field.one,))
        if all(monic_remainder(cand, small).coeffs for small in smaller):
            out.append(cand)
    return tuple(sorted(out, key=FqPoly.sort_key))


def test_fixed_moduli():
    # these encodings are load-bearing: every cached artifact and every
    # embedding depends on them, so freeze the first few
    assert smallest_irreducible(2, 1) == (0, 1)
    assert smallest_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert smallest_irreducible(2, 3) == (1, 1, 0, 1)  # x^3 + x + 1
    assert smallest_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
    assert smallest_irreducible(2, 6) == finite_field(64).modulus


def test_field_registry_is_canonical():
    assert finite_field(8) is finite_field(8)
    assert finite_field(9) == finite_field(9)
    with pytest.raises(ValueError):
        finite_field(6)


@pytest.mark.parametrize("q", [8, 9])
def test_field_axioms_exhaustive(q):
    f = finite_field(q)
    els = list(f.elements())
    assert len(els) == q
    for a in els:
        assert a + f.zero == a
        assert a * f.one == a
        assert a - a == f.zero
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            for c in els:
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c


def test_inverses_all_units():
    f = finite_field(64)
    for t in f.units():
        assert t * t.inverse() == f.one


def test_multiplicative_order():
    f8 = finite_field(8)
    assert brute_order(f8.element(2)) == 7
    f9 = finite_field(9)
    assert brute_order(f9.element(3)) == 4  # x, with x^2 = -1
    # generator counts match phi(q - 1), the residues prime to q - 1
    for q in (8, 9, 16):
        f = finite_field(q)
        gens = sum(1 for t in f.units() if brute_order(t) == q - 1)
        assert gens == sum(1 for k in range(1, q) if gcd(k, q - 1) == 1)
    # order sum identity: every unit order divides q - 1
    f = finite_field(9)
    for t in f.units():
        assert 8 % brute_order(t) == 0


def test_embedding_homomorphism_exhaustive():
    small, big = finite_field(4), finite_field(64)
    emb = embedding(small, big)
    assert emb[small.one] == big.one
    assert emb[small.zero] == big.zero
    for a in small.elements():
        for b in small.elements():
            assert emb[a + b] == emb[a] + emb[b]
            assert emb[a * b] == emb[a] * emb[b]
    inv = inverse_embedding(small, big)
    for a in small.elements():
        assert inv[emb[a]] == a


def test_embedding_identity_and_prime_field():
    f9 = finite_field(9)
    emb = embedding(finite_field(3), f9)
    assert emb[finite_field(3).element(2)] == f9.element(2)
    same = embedding(f9, f9)
    assert all(same[x] == x for x in f9.elements())


def test_irreducible_poly_counts():
    f2 = finite_field(2)
    counts = [len(irreducible_polys(f2, a)) for a in (1, 2, 3, 4)]
    assert counts == [2, 1, 2, 3]
    # degree-1 list includes x itself (root 0 participates in class types)
    x_poly = FqPoly(f2, (f2.zero, f2.one))
    assert x_poly in irreducible_polys(f2, 1)
    f3 = finite_field(3)
    assert len(irreducible_polys(f3, 2)) == 3
    assert len(irreducible_polys(f3, 4)) == (81 - 9) // 4


def test_irreducible_polys_scale_limit():
    f8 = finite_field(8)
    with pytest.raises(ScaleLimit):
        irreducible_polys(f8, 5, scale_bound=1000)


def test_irreducible_polys_scale_limit_holds_with_a_warm_cache():
    f17 = finite_field(17)
    assert len(irreducible_polys(f17, 2)) == 136  # fills the cache
    with pytest.raises(ScaleLimit):
        irreducible_polys(f17, 2, scale_bound=100)


@pytest.mark.parametrize("q,n", ORBIT_CASES)
def test_orbit_roots_match_brute_force(q, n):
    sub, big = finite_field(q), finite_field(q**n)
    polys = [p for a in divisors(n) for p in trial_division_irreducibles(sub, a)]
    assert len(frobenius_orbits(sub, big)) == len(polys)
    for poly in polys:
        assert smallest_root(poly, big) == roots_in(poly, big)[0]


@pytest.mark.parametrize("q,n", ORBIT_CASES)
def test_irreducible_polys_match_trial_division(q, n):
    field = finite_field(q)
    assert irreducible_polys(field, n) == trial_division_irreducibles(field, n)


def test_orbit_pass_rejects_non_subfields_and_reducibles():
    for src, dst in ((4, 8), (3, 4)):
        with pytest.raises(AssertionFailure):
            embedding(finite_field(src), finite_field(dst))
    with pytest.raises(AssertionFailure):
        frobenius_orbits(finite_field(4), finite_field(8))
    f3 = finite_field(3)
    x_plus_1 = FqPoly(f3, (f3.one, f3.one))
    with pytest.raises(AssertionFailure):
        smallest_root(x_plus_1 * x_plus_1, finite_field(9))


def test_roots_and_minimal_polynomials_roundtrip():
    f3, f9 = finite_field(3), finite_field(9)
    for t in f9.elements():
        m = minimal_polynomial(t, f3)
        assert m.coeffs[-1] == f3.one and m.degree in (1, 2)
        lifted = m.map_coeffs(embedding(f3, f9), f9)
        assert not lifted(t)
        assert t in roots_in(m, f9)
        if m.degree == 2:
            assert m in irreducible_polys(f3, 2)


def test_minimal_polynomial_frozen():
    f3, f9 = finite_field(3), finite_field(9)
    x = f9.element(3)  # a root of the modulus x^2 + 1
    m = minimal_polynomial(x, f3)
    assert tuple(c.encoding for c in m.coeffs) == (1, 0, 1)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_encoded_arithmetic_matches_tuple_arithmetic(data):
    field = finite_field(data.draw(st.sampled_from(FIELD_ORDERS)))
    p, e, units = field.p, field.e, field.order - 1
    encodings = st.one_of(st.just(0), st.integers(0, units))
    x, y = field.element(data.draw(encodings)), field.element(data.draw(encodings))
    k = data.draw(st.integers(-2 * field.order, 2 * field.order))
    s = data.draw(st.integers(-2 * p, 2 * p))
    xs, ys = x.coeffs, y.coeffs
    # coeffs <-> encoding: e digits base p, low degree first
    assert len(xs) == e and all(0 <= c < p for c in xs)
    assert sum(c * p**i for i, c in enumerate(xs)) == x.encoding
    assert field.from_coeffs(xs) == x and field.element(x.encoding) == x
    assert x + y == ref_element(field, ((a + b) % p for a, b in zip(xs, ys)))
    assert x - y == ref_element(field, ((a - b) % p for a, b in zip(xs, ys)))
    assert -x == ref_element(field, (-a % p for a in xs))
    assert x + s == ref_element(field, ((xs[0] + s) % p,) + xs[1:])
    assert x * y == ref_mul(x, y) == y * x
    assert x * s == s * x == ref_element(field, (a * s % p for a in xs))
    if x:
        assert x**k == ref_pow(x, k % units)
        assert ref_mul(x, x.inverse()) == field.one
    else:
        assert x**0 == field.one
        assert x ** abs(k or 1) == field.zero
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        with pytest.raises(ZeroDivisionError):
            x ** -abs(k or 1)


@pytest.mark.parametrize("q,n", ORBIT_CASES)
def test_log_tables_walk_the_powers_of_the_first_primitive_element(q, n):
    field = finite_field(q**n)
    units = field.order - 1
    exp, log = field.log_tables
    assert len(exp) == 2 * units and list(exp[units:]) == list(exp[:units])
    for enc in range(1, field.order):
        assert 0 <= log[enc] < units
        assert exp[log[enc]] == enc
    g = field.element(exp[1])
    assert g == next(t for t in field.units() if brute_order(t) == units)
    for i in range(units):
        assert exp[i + 1] == ref_mul(field.element(exp[i]), g).encoding


def test_large_field_tables_match_tuple_arithmetic():
    field = finite_field(257**2)
    exp, log = field.log_tables
    units = field.order - 1
    assert exp[log[12345]] == 12345 and exp[units] == 1
    for a, b in ((2, 3), (258, 66048), (12345, 54321), (257, 257)):
        x, y = field.element(a), field.element(b)
        assert x * y == ref_mul(x, y)
        assert ref_mul(x, x.inverse()) == field.one


def test_fields_hold_no_derived_tables(monkeypatch):
    # embeddings, orbit passes, irreducibles and the Sylow data are
    # memoised on the module functions, not on the fields, and the
    # discrete log reads _sylow without going through sylow_generator
    f3, f9 = finite_field(3), finite_field(9)
    monkeypatch.delattr(finitefield, "sylow_generator")
    assert ell_part_and_dlog(f9.element(5) * f9.element(7), 2) in range(8)
    assert len(irreducible_polys(f3, 2)) == 3
    assert minimal_polynomial(f9.element(5), f3).degree == 2
    for field in (f3, f9):
        assert not any(isinstance(v, dict) for v in vars(field).values())


def test_sylow_generator_parameters():
    eps4, r4 = sylow_generator(finite_field(4), 3)
    assert r4 == 1 and brute_order(eps4) == 3
    assert eps4.encoding == 2  # first order-3 unit in encoding order
    assert ell_part_and_dlog(finite_field(4).one, 3) == 0
    assert ell_part_and_dlog(eps4, 3) == 1

    eps64, r64 = sylow_generator(finite_field(64), 3)
    assert r64 == 2 and brute_order(eps64) == 9

    eps81, r81 = sylow_generator(finite_field(81), 5)
    assert r81 == 1 and brute_order(eps81) == 5


def test_ell_part_and_dlog_exhaustive():
    f = finite_field(64)
    eps, r = sylow_generator(f, 3)
    lr = 3**r
    for t in f.units():
        j = ell_part_and_dlog(t, 3)
        assert 0 <= j < lr
        regular = ref_mul(t, ref_pow(eps, lr - j))
        assert gcd(brute_order(regular), 3) == 1
    # the dlog is a homomorphism on the ell-part
    units = list(f.units())
    for t in units[:9]:
        for u in units[:9]:
            assert ell_part_and_dlog(t * u, 3) == (
                ell_part_and_dlog(t, 3) + ell_part_and_dlog(u, 3)
            ) % lr
    with pytest.raises(ZeroElement):
        ell_part_and_dlog(f.zero, 3)


@pytest.mark.parametrize("q,n", ORBIT_CASES)
def test_sylow_generator_and_dlogs_match_brute_force_orders(q, n):
    # eps is the first unit of order exactly l^r, and every theta
    # exponent j leaves an l-regular part t * eps^(-j)
    field = finite_field(q**n)
    units = list(field.units())
    orders = {t: brute_order(t) for t in units}
    for ell in filter(is_prime, divisors(q**n - 1)):
        eps, r = sylow_generator(field, ell)
        assert eps == next(t for t in units if orders[t] == ell**r)
        for t in units:
            j = ell_part_and_dlog(t, ell)
            assert 0 <= j < ell**r
            assert gcd(orders[ref_mul(t, ref_pow(eps, ell**r - j))], ell) == 1


def test_regularity_check_catches_a_corrupted_dlog_table(monkeypatch):
    field = finite_field(64)
    eps_log, r, residues = finitefield._sylow(field, 3)
    # off by 3 = l^(r-1): the claimed regular part keeps an l-part of order l
    shifted = tuple((j + 3) % len(residues) for j in residues)
    monkeypatch.setattr(finitefield, "_sylow", lambda f, ell: (eps_log, r, shifted))
    with pytest.raises(AssertionFailure):
        ell_part_and_dlog(field.one, 3)


def test_regularity_check_catches_a_corrupted_power_table(monkeypatch):
    field = finite_field(64)
    eps, r = sylow_generator(field, 3)
    eps_log, _, residues = finitefield._sylow(field, 3)
    exp, _ = field.log_tables
    assert tuple(exp[eps_log * k % 63] for k in range(3**r)) == tuple(
        (eps**k).encoding for k in range(3**r)
    )
    # the log of eps^-1 instead of eps: eps = g^k is compared with eps^-1
    monkeypatch.setattr(finitefield, "_sylow", lambda f, ell: (63 - eps_log, r, residues))
    with pytest.raises(AssertionFailure):
        ell_part_and_dlog(eps, 3)
    assert ell_part_and_dlog(field.one, 3) == 0  # eps^0 = 1 is unchanged


def test_fqpoly_ring_operations():
    f = finite_field(4)
    a, b = f.element(2), f.element(3)
    p = FqPoly(f, (a, f.one))  # x + a
    q = FqPoly(f, (b, f.one))  # x + b
    prod = p * q
    assert prod == FqPoly(f, (a * b, a + b, f.one))
    assert not prod(a)  # a is a root (char 2: a + a = 0)
    assert prod(f.zero) == a * b
    assert (p + q).coeffs == (a + b,)  # leading terms cancel, trimmed


def test_field_guards_are_raises():
    with pytest.raises(InvalidPrime):
        FiniteField(4, 1)
    f4, f8 = finite_field(4), finite_field(8)
    with pytest.raises(ValueError):
        f4.from_coeffs((1, 0, 0))
    with pytest.raises(TypeError):
        f4.one * f8.one
    with pytest.raises(TypeError):
        f4.one < f8.one
