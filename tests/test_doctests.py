"""The usage examples in module docstrings are executed, not just read."""

import doctest

import cuspcenter.cyclotomic
import cuspcenter.matrixoracle
import cuspcenter.polynomials


def test_cyclotomic_doctests():
    result = doctest.testmod(cuspcenter.cyclotomic)
    assert result.attempted > 0
    assert result.failed == 0


def test_matrixoracle_doctests():
    result = doctest.testmod(cuspcenter.matrixoracle)
    assert result.attempted > 0
    assert result.failed == 0


def test_polynomials_doctests():
    result = doctest.testmod(cuspcenter.polynomials)
    assert result.attempted > 0
    assert result.failed == 0
