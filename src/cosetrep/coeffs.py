"""Exact rational coefficient table for the iterated-bracket expansions.

The numbers l_1, l_2, ... are defined by the triangular recursion

    n / (n+1)!  =  sum_{i=1}^{n}  l_i / (n+1-i)!

They satisfy l_n * n! = B_n, the Bernoulli numbers in the convention with
B_1 = +1/2, which is what the independent Akiyama-Tanigawa routine below
computes as a cross-check.  Multiplied through by (n+1)! the recursion is the
binomial Bernoulli recurrence sum_{i=0}^{n} C(n+1, i) B_i = n + 1 (Graham,
Knuth and Patashnik, Concrete Mathematics, section 6.5), which is solved in
integers over one common denominator; only the returned entries are
``fractions.Fraction``.
The table is a pure function of its length, so each length is built once per
process and the frozen instance is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, _check_int

__all__ = ["CoeffTable", "l_coeffs", "bernoulli_numbers", "recursion_residuals"]


@dataclass(frozen=True)
class CoeffTable:
    """Table of the rational coefficients l_1 .. l_N."""

    values: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.values)

    def l(self, n: int) -> Fraction:
        """Return l_n (1-based)."""
        if not 1 <= n <= len(self.values):
            raise IndexError(f"l_{n} not tabulated (have 1..{len(self.values)})")
        return self.values[n - 1]


@lru_cache(maxsize=None, typed=True)
def l_coeffs(N: int) -> CoeffTable:
    """Solve the recursion for l_1 .. l_N exactly.

    D = lcm(1..N+1) clears every Bernoulli denominator up to B_N (von
    Staudt-Clausen), so a_n = D B_n is an integer and the recurrence reads
    a_n = (n D - sum_{i=1}^{n-1} C(n+1, i) a_i) / (n+1), an exact division.
    The cache is typed, so True never hits the entry of 1 and meets the
    integer check instead.

    Parameters
    ----------
    N : int
        Number of coefficients, N >= 1.

    Returns
    -------
    CoeffTable
        l_1 = 1/2, l_2 = 1/12, l_3 = 0, l_4 = -1/720, ...

    Raises
    ------
    DomainError
        N is not an integer (bools included) or N < 1.
    """
    N = _check_int(N, 1, "N", DomainError)
    D = math.lcm(*range(1, N + 2))
    a: list[int] = [D]
    for n in range(1, N + 1):
        s = n * D - sum(math.comb(n + 1, i) * a[i] for i in range(1, n))
        q, r = divmod(s, n + 1)
        if r:
            raise ArithmeticError(f"D B_{n} is not an integer (remainder {r} mod {n + 1})")
        a.append(q)
    return CoeffTable(tuple(Fraction(a[n], D * math.factorial(n)) for n in range(1, N + 1)))


def recursion_residuals(table: CoeffTable) -> list[Fraction]:
    """Re-substitute the table into its recursion; every entry must be 0."""
    res = []
    for n in range(1, len(table) + 1):
        s = sum(
            (table.l(i) / math.factorial(n + 1 - i) for i in range(1, n + 1)),
            Fraction(0),
        )
        res.append(s - Fraction(n, math.factorial(n + 1)))
    return res


def bernoulli_numbers(N: int) -> list[Fraction]:
    """Bernoulli numbers B_0 .. B_N with B_1 = +1/2, by Akiyama-Tanigawa.

    Independent of l_coeffs: works row-wise on the sequence 1/(j+1) and never
    touches the triangular recursion above.  N that is not an integer
    (bools included) or is negative raises DomainError.
    """
    N = _check_int(N, 0, "N", DomainError)
    out: list[Fraction] = []
    row: list[Fraction] = []
    for n in range(N + 1):
        row.append(Fraction(1, n + 1))
        for j in range(n, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out
