import pytest

from cuspcenter import (
    DegenerateBlock,
    InvalidPrime,
    SupercuspidalCase,
    reduce_parameters,
    validate_parameters,
)
from cuspcenter.errors import AssertionFailure
from cuspcenter.params import ParameterSet, require_reduced


def test_matrix_cases(params):
    expected = {
        "P1": (2, 3, 2, 1, 2, 1),
        "P2": (2, 7, 3, 1, 3, 1),
        "P3": (8, 3, 2, 1, 2, 2),
        "P4": (4, 5, 2, 1, 2, 1),
        "P5": (3, 5, 4, 1, 4, 1),
        "U4": (2, 5, 4, 2, 4, 1),
    }
    for name, ps in params.items():
        q, ell, n, d, w, r = expected[name]
        assert (ps.q, ps.ell, ps.n, ps.d, ps.w, ps.r) == (q, ell, n, d, w, r)


def test_invalid_q():
    with pytest.raises(InvalidPrime):
        validate_parameters(6, 5, 4)
    with pytest.raises(InvalidPrime):
        validate_parameters(1, 5, 4)


def test_invalid_ell():
    with pytest.raises(InvalidPrime):
        validate_parameters(2, 4, 2)
    with pytest.raises(InvalidPrime):
        validate_parameters(2, 1, 2)


def test_ell_divides_q():
    with pytest.raises(InvalidPrime):
        validate_parameters(9, 3, 2)


def test_n_out_of_range():
    # n must satisfy 2 <= n < ell
    with pytest.raises(DegenerateBlock):
        validate_parameters(2, 3, 3)
    with pytest.raises(DegenerateBlock):
        validate_parameters(2, 3, 1)
    with pytest.raises(DegenerateBlock):
        validate_parameters(4, 3, 4)


def test_wrong_order():
    # ord_5(2) = 4, so n = 2 is not a block of this shape
    with pytest.raises(DegenerateBlock):
        validate_parameters(2, 5, 2)


def test_d_must_divide_n():
    with pytest.raises(DegenerateBlock):
        validate_parameters(2, 5, 4, 3)


def test_supercuspidal_rejected():
    with pytest.raises(SupercuspidalCase):
        validate_parameters(2, 5, 4, 4)


def test_reduction():
    ps = validate_parameters(2, 5, 4, 2)
    red = reduce_parameters(ps)
    assert (red.q, red.ell, red.n, red.d) == (4, 5, 2, 1)
    assert red.r == ps.r == 1
    assert red.is_reduced
    # idempotent
    assert reduce_parameters(red) == red


def test_reduced_case_passes_through(params):
    for name in ("P1", "P2", "P3", "P4", "P5"):
        ps = params[name]
        assert reduce_parameters(ps) == ps
        assert ps.is_reduced
        # reduced parameters always have n = w
        assert ps.n == ps.w


def test_require_reduced_checks_its_postcondition():
    # d = 1 passes through reduce_parameters untouched, but n != w is not
    # a reduced block
    with pytest.raises(AssertionFailure):
        require_reduced(ParameterSet(q=2, ell=7, n=2, d=1, w=3, r=1))
