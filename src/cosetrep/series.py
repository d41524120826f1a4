"""Infinitesimal coset transformation laws as one batched bracket series.

A group generator xi = xi_h + xi_f acts on the coset coordinates sigma (the
point exp(sigma^al F_al) H) through a vector field dF and an h-valued
compensator dI.  Writing F = sigma^al F_al and T_n(x) for the n-fold
right-iterated bracket [...[[x, F], F], ..., F], the laws are

  actor X in f:   dF = X + sum_k 4^k l_{2k} T_2k(X)          (z coth z profile)
                  dI = sum_k 2 (4^k - 1) l_{2k} T_{2k-1}(X)  (tanh(z/2) profile)

  actor X in h:   dF = 2 sum_k l_{2k-1} T_{2k-1}(X)  ( = [X, F], exactly linear)
                  dI = X

with the rational table l_n of :mod:`cosetrep.coeffs`.  The weights are the
Taylor coefficients of z coth z = 1 + sum 4^k l_{2k} z^{2k} and
tanh(z/2) = sum 2 (4^k - 1) l_{2k} z^{2k-1}, the Bernoulli / dexp^-1
generating functions; on a split with [f,f] in h these resum the
factorization of a group flow through a coset slice, which is what the
matrix factorization of :mod:`cosetrep.induced` computes independently.

The weights are data: a map {n: w_n} read from the exact table, which is
built once per process.  One private core takes such a map and evaluates the
series for N nodes at once, adding w_n T_n into dI for odd n and into dF for
even n.  The map x -> [x, F] sends f to h and h to f; its two off-diagonal
blocks are each one GEMM of sigma against a flattened structure constant
table, built once per algebra, and the h -> f block comes out in the layout
the product S = to_f to_h reads.  S = ad_F^2 restricted to f drives the
tower: for an f actor T_2k(X) = S^k X and T_2k+1(X) = [S^k X, F], so the
core writes u_k = S^k X for k <= order/2 into one stack, contracts that
stack with the even weights into dF and with the odd ones into a sum in f,
and maps that sum to h once (N. J. Higham, Functions of Matrices, SIAM
2008, ch. 4, on polynomials in a matrix argument).  The stack holds
(order/2 + 1) N dim_f floats: 74 MB at order 61 for 10^5 nodes of so(1,3).
The h actor's field [X_h, F] is summed only over the b whose column
c_fh[:, b, d] is not identically zero, m - 1 of the m(m-1)/2 for so(1,m).
The series converges while rho(S) = rho(ad_F)^2 stays below pi^2; an f
actor at or past that radius raises DomainError.  :func:`realize` is the
single-point entry; the gauge flow of :mod:`cosetrep.induced` calls the core
once per Euler step for a whole section, and the verify suite feeds it the
report-only plain-l profile.

For so(1,m) the resummed field has the closed form of
:func:`so1m_closed_field`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .coeffs import l_coeffs
from .errors import DimensionError, DomainError
from .lie import AlgebraElement, CosetPoint, ReductiveAlgebra, defining_rep_so1m

__all__ = [
    "DEFAULT_ORDER",
    "InfinitesimalAction",
    "even_bracket_weights",
    "odd_bracket_weights",
    "realize",
    "so1m_closed_field",
]

DEFAULT_ORDER = 11

_SMALL = 1e-6


@dataclass(frozen=True, eq=False)
class InfinitesimalAction:
    """First-order action on a coset point: coordinate variation + compensator.

    dF holds the f coordinates of the variation of sigma, dI the h coordinates
    of the compensating stabilizer generator acting on attached vectors.
    """

    dF: np.ndarray
    dI: np.ndarray

    def __post_init__(self) -> None:
        for name in ("dF", "dI"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _check_point(alg: ReductiveAlgebra, point: CosetPoint) -> None:
    if point.m != alg.dim_f:
        raise DimensionError(f"point has {point.m} coordinates, algebra dim_f {alg.dim_f}")


def _check_order(order: int) -> None:
    if isinstance(order, bool) or not isinstance(order, numbers.Integral):
        raise DomainError(f"truncation order must be an integer, got {order!r}")
    if order < 1:
        raise DomainError(f"truncation order must be >= 1, got {order}")


def even_bracket_weights(order: int) -> list[tuple[int, float]]:
    """Pairs (2k, w) with w = 4^k l_{2k} for all 2k <= order.

    These are the coefficients of z coth z - 1 = sum_k 4^k l_{2k} z^{2k}.
    """
    _check_order(order)
    table = l_coeffs(order + 1)
    return [
        (2 * k, float(Fraction(4**k) * table.l(2 * k)))
        for k in range(1, order // 2 + 1)
    ]


def odd_bracket_weights(order: int) -> list[tuple[int, float]]:
    """Pairs (2k-1, w) with w = 2 (4^k - 1) l_{2k} for all 2k-1 <= order.

    These are the coefficients of tanh(z/2) = sum_k 2 (4^k - 1) l_{2k} z^{2k-1}.
    """
    _check_order(order)
    table = l_coeffs(order + 1)
    return [
        (2 * k - 1, float(Fraction(2 * (4**k - 1)) * table.l(2 * k)))
        for k in range(1, (order + 1) // 2 + 1)
    ]


@lru_cache(maxsize=None, typed=True)
def _weights(order: int) -> Mapping[int, float]:
    """{n: w_n} of the z coth z and tanh(z/2) profiles for every n <= order.

    Built once per order and shared, so the map is read-only.  The cache is
    typed, so True or 2.0 never hits the entry of 1 or 2 and meets the
    integer check instead.
    """
    return MappingProxyType(dict(even_bracket_weights(order) + odd_bracket_weights(order)))


@lru_cache(maxsize=32)
def _tables(alg: ReductiveAlgebra) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The per-algebra tables of :func:`_series`, built once per algebra.

    Returns (h_table, f_table, cols, flat).  sigma @ h_table is the f -> h
    block of x -> [x, F] as (N, dim_h, dim_f), and (-sigma) @ f_table the
    h -> f block as (N, dim_f, dim_h), the layout the product S = to_f @ to_h
    reads.  Slot j of column d of cols (width, dim_f) is the j-th b, in
    ascending order, whose column c_fh[:, b, d] is not identically zero; a
    d with fewer such b pads with a b whose column is zero, so its extra
    slots hold an exact zero.  flat indexes the same entries in the
    flattened h -> f block.  The cache is bounded: it holds its algebras.
    """
    nf, nh = alg.dim_f, alg.dim_h
    h_table = alg.c_ff.transpose(1, 2, 0).reshape(nf, nh * nf)
    f_table = alg.c_fh.transpose(0, 2, 1).reshape(nf, nf * nh)
    pattern = (alg.c_fh != 0.0).any(axis=0).T
    width = int(pattern.sum(axis=1).max(initial=0))
    # a stable sort puts every structural nonzero b of a row first, ascending,
    # and then the zero columns, ascending
    cols = np.argsort(~pattern, axis=1, kind="stable")[:, :width].T.copy()
    flat = cols + nh * np.arange(nf)
    for arr in (h_table, f_table, cols, flat):
        arr.setflags(write=False)
    return h_table, f_table, cols, flat


def _series(
    alg: ReductiveAlgebra,
    sigma: np.ndarray,
    xh: np.ndarray,
    xf: np.ndarray,
    weights: Mapping[int, float],
) -> tuple[np.ndarray, np.ndarray]:
    """(dF, dI) of the actors xh + xf at the points sigma, N nodes at once.

    sigma and xf have shape (N, dim_f), xh has shape (N, dim_h); the results
    have the shapes of xf and xh.  weights maps every n from 1 to the order
    max(weights) to the weight of T_n.  Rows never mix: every product either
    runs per node or is a GEMM whose rows are the nodes, and for so(1,m) each
    node's result is bit for bit the one a single-node call gives.
    """
    n, nf, nh = sigma.shape[0], alg.dim_f, alg.dim_h
    h_table, f_table, cols, flat = _tables(alg)
    # x -> [x, F] as its two blocks, one GEMM each: to_h[n] maps f to h and
    # to_f[n] maps h to f
    to_h = (sigma @ h_table).reshape(n, nh, nf)
    to_f = ((-sigma) @ f_table).reshape(n, nf, nh)
    # S = ad_F^2 restricted to f; its spectral radius is rho(ad_F)^2
    s = to_f @ to_h
    # The max-row-sum norm bounds rho(S) from above, so eigenvalues are
    # needed only at moving nodes where that bound reaches pi^2, and only
    # when some row of some node reaches it at all.
    row_sums = np.abs(s).reshape(n * nf, nf) @ np.ones(nf)
    if row_sums.max(initial=0.0) >= math.pi**2:
        moving = np.abs(xf).max(axis=1, initial=0.0) > 0.0
        near = s[moving & (row_sums.reshape(n, nf).max(axis=1) >= math.pi**2)]
        rho = math.sqrt(float(np.abs(np.linalg.eigvals(near)).max(initial=0.0)))
        if rho >= math.pi:
            raise DomainError(
                f"f actor past the series radius: rho(ad_F)/pi = {rho / math.pi:.3f} >= 1"
            )
    # T_2k(X) = S^k X and T_2k+1(X) = to_h S^k X: the powers u_k = S^k X
    # fill one stack, which the even weights (with 1 for u_0 = X) and the odd
    # weights each contract in one pass; the odd sum is mapped to h once.
    # einsum sums over k in order from +0.0, so an exact zero never comes
    # out as -0.0.
    top = max(weights)
    u = np.empty((top // 2 + 1, n, nf))
    u[0] = xf
    for k in range(1, len(u)):
        np.einsum("nda,na->nd", s, u[k - 1], out=u[k])
    even = np.array([1.0] + [weights[2 * k] for k in range(1, len(u))])
    odd = np.array([weights[2 * k + 1] for k in range((top + 1) // 2)])
    dF = np.einsum("k,knd->nd", even, u)
    dI = np.zeros(xh.shape)
    dI += np.einsum("nda,na->nd", to_h, np.einsum("k,knd->nd", odd, u[: len(odd)]))
    dI += xh
    # every l_{2k-1} past l_1 vanishes, so the h actor's field is
    # [X, F] = to_f X.  It is summed over the b of each row's structural
    # nonzeros one elementwise product at a time, not by a reduction kernel
    # whose order may depend on N or on the BLAS build.  For so(1,m) every
    # entry of to_f is one signed sigma^a and b runs in the order of a, so
    # the sum is lie.bracket's term for term; the skipped terms are exact
    # zeros, which leave a sum started from +0.0 unchanged.
    terms = to_f.reshape(n, nf * nh)[:, flat] * xh[:, cols]
    field = np.zeros(xf.shape)
    for j in range(len(cols)):
        field += terms[:, j]
    dF += field
    return dF, dI


def realize(
    alg: ReductiveAlgebra,
    xi: AlgebraElement,
    point: CosetPoint,
    order: int = DEFAULT_ORDER,
) -> InfinitesimalAction:
    """Infinitesimal action of a general generator xi = xi_h + xi_f at a point.

    Raises DomainError when order is not an integer >= 1, when xi has
    non-finite entries, or when xi has an f part and the point lies at or
    past the series radius rho(ad_F) = pi, and DimensionError when xi or the
    point belongs to another algebra.
    """
    if xi.algebra is not alg:
        raise DimensionError("generator belongs to a different algebra")
    _check_point(alg, point)
    if not (np.isfinite(xi.h).all() and np.isfinite(xi.f).all()):
        raise DomainError("generator xi has non-finite entries")
    dF, dI = _series(alg, point.sigma[None], xi.h[None], xi.f[None], _weights(order))
    return InfinitesimalAction(dF=dF[0], dI=dI[0])


# ---------------------------------------------------------------------------
# closed forms for so(1,m)
# ---------------------------------------------------------------------------

def _two_s_coth(s: float) -> float:
    """2s coth(2s), regular at s = 0."""
    if s < _SMALL:
        z2 = (2.0 * s) ** 2
        return 1.0 + z2 / 3.0 - z2 * z2 / 45.0
    return 2.0 * s / np.tanh(2.0 * s)


def _tanh_over(s: float) -> float:
    """tanh(s)/s, regular at s = 0."""
    if s < _SMALL:
        s2 = s * s
        return 1.0 - s2 / 3.0 + 2.0 * s2 * s2 / 15.0
    return np.tanh(s) / s


def _compensator_rows(point: CosetPoint, coeff: float) -> np.ndarray:
    """W[a, j] = coeff * (sigma^i d_jk - sigma^k d_ji) over pairs a = (i,k),
    i.e. coeff times the rotation generators E_ki - E_ik applied to sigma."""
    return coeff * (defining_rep_so1m(point.m).h_gens[:, 1:, 1:] @ point.sigma)


def so1m_closed_field(point: CosetPoint) -> tuple[np.ndarray, np.ndarray]:
    """Closed form of the boost action on so(1,m) coset coordinates.

    For the actor F_j at sigma with s = |sigma|:

        dF^k = 2s coth(2s) d_kj + (sigma^k sigma^j / s^2) (1 - 2s coth(2s))
        dI   = (2 tanh(s)/s) sigma^i H_(i,j)-pattern

    Returns
    -------
    (U, W)
        U[k, j] is the k-th component of dF for actor F_{j+1}; W[a, j] the
        a-th h coordinate (pairs lexicographic) for the same actor.  Both are
        smooth at sigma = 0 where U = identity, W = 0.
    """
    m = point.m
    s = point.norm
    a = _two_s_coth(s)
    U = a * np.eye(m)
    if s > 0.0:
        U += np.outer(point.sigma, point.sigma) / (s * s) * (1.0 - a)
    W = _compensator_rows(point, 2.0 * _tanh_over(s))
    return U, W

