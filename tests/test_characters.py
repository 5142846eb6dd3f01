"""Character values on class types: dimensions, the regular-unipotent
sign, and the slot-separation behaviour at l-singular classes."""

import pytest

from cuspcenter.characters import (
    cuspidal_dimension,
    cuspidal_value,
    steinberg_dimension,
    steinberg_value,
    theta_exponent,
)
from cuspcenter.classes import enumerate_classes, make_class_type
from cuspcenter.finitefield import FqPoly, finite_field
from cuspcenter.params import validate_parameters

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
