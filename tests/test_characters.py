"""Character values on class types: dimensions, the regular-unipotent
sign, and the slot-separation behaviour at l-singular classes."""

from math import prod

import pytest
from conftest import CASES, frac

from cuspcenter import characters
from cuspcenter.centermap import block_slots, delta_class, delta_form
from cuspcenter.characters import (
    cuspidal_dimension,
    cuspidal_form,
    cuspidal_value,
    steinberg_dimension,
    steinberg_value,
    theta_exponent,
)
from cuspcenter.classes import enumerate_classes, group_classes, make_class_type
from cuspcenter.cyclotomic import CyclotomicNumber
from cuspcenter.finitefield import FqPoly, finite_field
from cuspcenter.gl2table import block_slot_rows, gl2_character_table
from cuspcenter.invariants import orbit_sums
from cuspcenter.params import reduce_parameters, validate_parameters

DIMS = {
    (2, 3, 2): (1, 2),
    (2, 7, 3): (3, 8),
    (8, 3, 2): (7, 8),
    (4, 5, 2): (3, 4),
    (3, 5, 4): (416, 729),
}


def _identity_type(q, n):
    f = finite_field(q)
    x_minus_1 = FqPoly(f, (-f.one, f.one))
    return make_class_type(((x_minus_1, (1,) * n),))


def _reg_unip_type(q, n):
    f = finite_field(q)
    x_minus_1 = FqPoly(f, (-f.one, f.one))
    return make_class_type(((x_minus_1, (n,)),))


@pytest.mark.parametrize("key", sorted(DIMS))
def test_dimensions(key):
    q, ell, n = key
    ps = validate_parameters(q, ell, n)
    cusp, st = DIMS[key]
    assert cuspidal_dimension(ps) == cusp
    assert steinberg_dimension(ps) == st
    # the two value formulas reproduce the dimensions at the identity
    identity = _identity_type(q, n)
    assert cuspidal_value(0, identity, ps).as_rational() == cusp
    assert steinberg_value(identity, ps) == st


def test_p1_values_frozen():
    # GL_2(F_2) is S_3; the slot-1 cuspidal lift is its sign character
    ps = validate_parameters(2, 3, 2)
    classes = enumerate_classes(finite_field(2), 2)
    by_label = {ct.label(): ct for ct in classes}
    ident = by_label["x+1:(1,1)"]
    unip = by_label["x+1:(2)"]
    ell_sing = by_label["x^2+x+1:(1)"]
    assert cuspidal_value(1, ident, ps).as_rational() == 1
    assert cuspidal_value(1, unip, ps).as_rational() == -1
    assert cuspidal_value(1, ell_sing, ps).as_rational() == 1
    # the slot-0 formula value on the elliptic class: -(1 + 1) = -2
    assert cuspidal_value(0, ell_sing, ps).as_rational() == -2
    # Steinberg: 2 at identity, 0 on unipotent, -1 on the elliptic class
    assert steinberg_value(ident, ps) == 2
    assert steinberg_value(unip, ps) == 0
    assert steinberg_value(ell_sing, ps) == -1


def test_reg_unip_value_slot_independent():
    # on the regular unipotent the cuspidal value is (-1)^(n-1) in
    # every slot: no theta factor survives
    for q, ell, n in sorted(DIMS):
        ps = validate_parameters(q, ell, n)
        ru = _reg_unip_type(q, n)
        expected = (-1) ** (n - 1)
        for i in range(min(ps.ell_power, 4)):
            assert cuspidal_value(i, ru, ps).as_rational() == expected


def test_p2_reg_unip():
    ps = validate_parameters(2, 7, 3)
    ru = _reg_unip_type(2, 3)
    assert cuspidal_value(1, ru, ps).as_rational() == 1
    assert ru.class_size() == 42
    assert steinberg_value(ru, ps) == 0


def test_cuspidal_vanishes_off_primary():
    ps = validate_parameters(2, 7, 3)
    f2 = finite_field(2)
    x_plus_1 = FqPoly.from_encodings(f2, (1, 1))
    quad = FqPoly.from_encodings(f2, (1, 1, 1))
    split = make_class_type(((quad, (1,)), (x_plus_1, (1,))), n=3)
    assert cuspidal_value(1, split, ps).is_zero()
    assert cuspidal_value(0, split, ps).is_zero()


def test_slot_separation_p3():
    # (q,l,n) = (8,3,2): every element of F_64 of order prime to 3 lies
    # in F_8, so ALL 28 elliptic classes are l-singular and each must
    # separate the slots.
    ps = validate_parameters(8, 3, 2)
    classes = enumerate_classes(finite_field(8), 2)
    elliptics = [ct for ct in classes if ct.is_primary and ct.factors[0][0].degree == 2]
    assert len(elliptics) == 28
    assert all(theta_exponent(ct, ps) != 0 for ct in elliptics)
    ct = elliptics[0]
    values = [cuspidal_value(i, ct, ps) for i in range(9)]
    assert len({v.canonical() for v in values}) > 1


def test_regular_degree_n_value_slot_independent_p5():
    # the two l-regular degree-4 classes of GL_4(F_3) give the same
    # rational value (-1)^(n-1) * n = -4 in all slots
    ps = validate_parameters(3, 5, 4)
    classes = enumerate_classes(finite_field(3), 4)
    deg4 = [ct for ct in classes if ct.is_primary and ct.factors[0][0].degree == 4]
    regular = [ct for ct in deg4 if theta_exponent(ct, ps) == 0]
    assert len(regular) == 2
    for ct in regular:
        vals = {cuspidal_value(i, ct, ps).as_rational() for i in range(5)}
        assert vals == {-4}


def test_steinberg_vanishes_off_semisimple():
    ps = validate_parameters(3, 5, 4)
    classes = enumerate_classes(finite_field(3), 4)
    for ct in classes:
        v = steinberg_value(ct, ps)
        if not ct.is_semisimple:
            assert v == 0
        else:
            assert v != 0
            # sign is (-1)^(n - blocks), magnitude is a p-power
            mag = abs(v)
            while mag % 3 == 0:
                mag //= 3
            assert mag == 1


def test_theta_exponent_range():
    ps = validate_parameters(8, 3, 2)
    classes = enumerate_classes(finite_field(8), 2)
    for ct in classes:
        if ct.is_primary:
            j = theta_exponent(ct, ps)
            assert 0 <= j < 9


def referee_cuspidal_value(i, ct, ps):
    """The per-slot referee for ``cuspidal_form``: the character
    formula of the module docstring at one slot, its scalar and theta
    exponent computed afresh."""
    if not ct.is_primary:
        return CyclotomicNumber.zero(ps.ell, ps.r)
    poly, lam = ct.factors[0]
    a, x = poly.degree, len(lam)
    scalar = (-1) ** (ps.n - x) * prod(ps.q ** (k * a) - 1 for k in range(1, x))
    if a == ps.n:
        return orbit_sums(ps)[i * theta_exponent(ct, ps) % ps.ell_power] * scalar
    return CyclotomicNumber.rational(ps.ell, a).embed_to(ps.r) * scalar


ROW_CASES = sorted({reduce_parameters(validate_parameters(*args)) for args in CASES.values()})


@pytest.mark.parametrize(
    "ps", [*ROW_CASES, validate_parameters(2, 127, 7)], ids=lambda ps: f"{ps.q}-{ps.ell}-{ps.n}"
)
def test_cuspidal_rows_match_the_per_slot_referee(ps):
    slots = block_slots(ps)
    sums = orbit_sums(ps)
    for ct in enumerate_classes(finite_field(ps.q), ps.n):
        c, j = cuspidal_form(ct, ps)
        row = [sums[i * j % ps.ell_power] * frac(c) for i in slots]
        assert row == [referee_cuspidal_value(i, ct, ps) for i in slots]
        assert [cuspidal_value(i, ct, ps) for i in slots] == row


def test_delta_class_reads_the_theta_exponent_once_per_key(monkeypatch):
    # (2,127,7): one call per degree-n key, where one per slot made 529
    ps = validate_parameters(2, 127, 7)
    firsts, _ = group_classes(enumerate_classes(finite_field(2), 7), ps)
    calls = []
    plain = characters.theta_exponent

    def counted(ct, p):
        calls.append(ct)
        return plain(ct, p)

    monkeypatch.setattr(characters, "theta_exponent", counted)
    for ct in firsts:
        delta_class(ct, ps)
    degree_n = [ct for ct in firsts if ct.is_primary and ct.factors[0][0].degree == 7]
    assert len(firsts) == 70
    assert calls == degree_n


def test_unreduced_parameters_compute_on_the_reduced_twin():
    # (q, ell, n, d) = (2, 5, 4, 2) Morita-reduces to (4, 5, 2): every
    # function that reads q and n sees the GL_2(F_4) picture from both
    unreduced, twin = validate_parameters(2, 5, 4, 2), validate_parameters(4, 5, 2)
    assert cuspidal_dimension(unreduced) == cuspidal_dimension(twin) == 3
    assert steinberg_dimension(unreduced) == steinberg_dimension(twin) == 4
    classes = enumerate_classes(finite_field(4), 2)
    assert len(classes) == 15
    for ct in classes:
        for form in (cuspidal_form, steinberg_value, delta_form):
            assert form(ct, unreduced) == form(ct, twin)
        for i in block_slots(twin):
            assert cuspidal_value(i, ct, unreduced) == cuspidal_value(i, ct, twin)
    table = gl2_character_table(4)
    assert block_slot_rows(table, unreduced) == block_slot_rows(table, twin)
