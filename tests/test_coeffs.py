"""The rational coefficient table and its two independent cross-checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cosetrep.coeffs import CoeffTable, bernoulli_numbers, l_coeffs, recursion_residuals
from cosetrep.errors import DomainError


def _reference_l_coeffs(N):
    """The recursion solved top-down in Fraction arithmetic (the former l_coeffs)."""
    out: list[Fraction] = []
    for n in range(1, N + 1):
        s = Fraction(n, math.factorial(n + 1))
        for i in range(1, n):
            s -= out[i - 1] / math.factorial(n + 1 - i)
        out.append(s)
    return CoeffTable(tuple(out))


def test_first_values_exact():
    table = l_coeffs(6)
    assert table.l(1) == Fraction(1, 2)
    assert table.l(2) == Fraction(1, 12)
    assert table.l(3) == Fraction(0)
    assert table.l(4) == Fraction(-1, 720)
    assert table.l(5) == Fraction(0)
    assert table.l(6) == Fraction(1, 30240)


def test_odd_entries_vanish_beyond_first():
    table = l_coeffs(25)
    for n in range(3, 26, 2):
        assert table.l(n) == 0


def test_recursion_residuals_exactly_zero():
    table = l_coeffs(24)
    assert all(r == 0 for r in recursion_residuals(table))


def test_recursion_direct_resubstitution():
    """n/(n+1)! = sum_i l_i / (n+1-i)! holds in exact arithmetic."""
    table = l_coeffs(15)
    for n in range(1, 16):
        lhs = Fraction(n, math.factorial(n + 1))
        rhs = sum(table.l(i) / math.factorial(n + 1 - i) for i in range(1, n + 1))
        assert lhs == rhs


def test_matches_bernoulli_numbers():
    """l_n n! are the Bernoulli numbers in the B_1 = +1/2 convention."""
    table = l_coeffs(20)
    bern = bernoulli_numbers(20)
    for n in range(1, 21):
        assert table.l(n) * math.factorial(n) == bern[n]


def test_bernoulli_oracle_known_values():
    bern = bernoulli_numbers(8)
    assert bern[0] == 1
    assert bern[1] == Fraction(1, 2)
    assert bern[2] == Fraction(1, 6)
    assert bern[4] == Fraction(-1, 30)
    assert bern[6] == Fraction(1, 42)
    assert bern[8] == Fraction(-1, 30)


def test_table_length_and_bounds():
    table = l_coeffs(5)
    assert len(table) == 5
    with pytest.raises(IndexError):
        table.l(6)
    with pytest.raises(IndexError):
        table.l(0)


def test_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        l_coeffs(0)


def test_table_is_persistent():
    table = l_coeffs(8)
    assert isinstance(table, CoeffTable)
    assert table.values == l_coeffs(8).values
    assert l_coeffs(8) is l_coeffs(8)


@pytest.mark.parametrize("N", [1, 2, 3, 12, 24, 62, 150])
def test_integer_recurrence_matches_fraction_recursion(N):
    assert l_coeffs(N).values == _reference_l_coeffs(N).values


@pytest.mark.parametrize("bad", [2.5, 3.0, True, False, "4", None])
def test_rejects_non_integer_length(bad):
    l_coeffs(1)  # a cached entry for 1 must not answer for True
    with pytest.raises(DomainError):
        l_coeffs(bad)


@pytest.mark.parametrize("bad", [2.5, True, -1, "4", None])
def test_bernoulli_numbers_reject_non_counts(bad):
    with pytest.raises(DomainError):
        bernoulli_numbers(bad)


def test_bernoulli_numbers_accept_numpy_integer_and_zero():
    assert bernoulli_numbers(np.int64(4)) == bernoulli_numbers(4)
    assert bernoulli_numbers(0) == [1]


def test_accepts_numpy_integer_length():
    assert l_coeffs(np.int64(7)).values == l_coeffs(7).values
