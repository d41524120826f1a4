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

The weights are data: two rows read from the exact table once per order,
(1, w_2, w_4, ...) and (w_1, w_3, ...).  One private core takes such rows
and evaluates the series for N nodes at once, adding w_n T_n into dF for
even n and, through a sum mapped to h, into dI for odd n.  Inside the core
the node index is the last axis of every array, the interleaved layout of
batched BLAS for tiny matrices (J. Dongarra et al., "The Design and
Performance of Batched BLAS on Modern High-Performance Computing Systems",
ICCS 2017), so every per-node contraction runs across nodes.  The map
x -> [x, F] sends f to h and h to f; the product of a per-algebra table with
sigma^T gives its f -> h block to_h and its h -> f block to_f at the
structural slots (the b whose column c_fh[:, b, d] is not identically zero,
m - 1 of the m(m-1)/2 for so(1,m)).  S = to_f to_h, which gathers the rows
of to_h at those slots, is ad_F^2 restricted to f and drives the tower: for
an f actor T_2k(X) = S^k X and T_2k+1(X) = [S^k X, F], so the core writes
u_k = S^k X for k <= order/2 into one stack, contracts that stack in one
pass with the even weights into dF and with the odd ones into a sum in f,
and maps that sum to h once (N. J. Higham, Functions of Matrices, SIAM
2008, ch. 4, on polynomials in a matrix argument).  The stack holds
(order/2 + 1) N dim_f floats for N nodes, so the gauge flow runs the core
on node blocks of fixed size.
The h actor's field [X_h, F] is summed over the structural slots.

Summation order: S, each power of the tower, the weight contraction, the
to_h map of the odd sum and the h field are each one einsum whose
reduction index is never the contiguous axis.  Each of them sums, for every
node, over its index in ascending order from +0.0, so an exact zero never
comes out as -0.0.  The node axis is at least 2 wide, so a single node takes
the same einsum kernel as a batch, and a node's result is the same for every
N and in every block of a larger buffer.  For so(1,m) every entry of that
product is a single signed sigma^a, so no sum runs through a BLAS kernel: the
result is the same under every OpenBLAS kernel.

The series converges while rho(S) = rho(ad_F)^2 stays below pi^2; an f
actor at or past that radius raises DomainError.  :func:`realize` is the
single-point entry and :func:`_series` packs (N, dim) rows for the core;
the gauge flow of :mod:`cosetrep.induced` calls the core on fixed node
blocks of its own node-last buffer, and the verify suite feeds it the
report-only plain-l profile.

For so(1,m) the resummed field has the closed form of
:func:`so1m_closed_field`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .coeffs import l_coeffs
from .errors import DimensionError, DomainError, _check_finite, _check_int, _check_size, _frozen, _norm
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
# largest |sigma| of so1m_closed_field, whose square (with room to round) stays finite
_MAX_SQUARABLE = math.sqrt(np.finfo(float).max / 2.0)


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
            object.__setattr__(self, name, _frozen(getattr(self, name), name))


def _check_point(alg: ReductiveAlgebra, point: CosetPoint) -> None:
    if point.m != alg.dim_f:
        raise DimensionError(f"point has {point.m} coordinates, algebra dim_f {alg.dim_f}")


def even_bracket_weights(order: int) -> list[tuple[int, float]]:
    """Pairs (2k, w) with w = 4^k l_{2k} for all 2k <= order.

    These are the coefficients of z coth z - 1 = sum_k 4^k l_{2k} z^{2k}.
    """
    _check_int(order, 1, "truncation order", DomainError)
    table = l_coeffs(order + 1)
    return [
        (2 * k, float(Fraction(4**k) * table.l(2 * k)))
        for k in range(1, order // 2 + 1)
    ]


def odd_bracket_weights(order: int) -> list[tuple[int, float]]:
    """Pairs (2k-1, w) with w = 2 (4^k - 1) l_{2k} for all 2k-1 <= order.

    These are the coefficients of tanh(z/2) = sum_k 2 (4^k - 1) l_{2k} z^{2k-1}.
    """
    _check_int(order, 1, "truncation order", DomainError)
    table = l_coeffs(order + 1)
    return [
        (2 * k - 1, float(Fraction(2 * (4**k - 1)) * table.l(2 * k)))
        for k in range(1, (order + 1) // 2 + 1)
    ]


def _rows(even, odd) -> np.ndarray:
    """The read-only (2, K) weight rows that contract the powers u_k = S^k X,
    from the even weights (w_2, w_4, ...) and the odd ones (w_1, w_3, ...):
    row 0 is (1, w_2, w_4, ...) for dF, row 1 (w_1, w_3, ...) for the f sum
    that dI maps to h, closed with an exact 0.0 when the order is even.
    """
    rows = np.zeros((2, len(even) + 1))
    rows[0] = [1.0, *even]
    rows[1, : len(odd)] = odd
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None, typed=True)
def _weights(order: int) -> np.ndarray:
    """The weight rows of the z coth z and tanh(z/2) profiles to `order`.

    Built once per order and shared, so the rows are read-only.  The cache
    is typed, so True or 2.0 never hits the entry of 1 or 2 and meets the
    integer check instead.
    """
    return _rows(
        [w for _, w in even_bracket_weights(order)], [w for _, w in odd_bracket_weights(order)]
    )


@lru_cache(maxsize=32)
def _table(alg: ReductiveAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """The per-algebra table of :func:`_series`, built once per algebra.

    Returns (table, cols).  table @ sigma.T, with sigma of shape
    (N, dim_f), holds two node-last blocks of x -> [x, F] in its rows:

      (d, a)     to_h[d, a], the f -> h block                 dim_h dim_f rows
      (j, d)     to_f[d, cols[j, d]], the h -> f block        width dim_f rows

    Slot j of column d of cols (width, dim_f) is the j-th b, in ascending
    order, whose column c_fh[:, b, d] is not identically zero; a d with
    fewer such b pads with a b whose column is zero, so its extra slots hold
    an exact zero.  No entry is -0.0.  For so(1,m) each row has one nonzero,
    +-1 or +-4, so each entry of the product is a single signed sigma^a
    times a power of two: exact on every BLAS kernel.  The cache is
    bounded: it holds its algebras.
    """
    nf, nh = alg.dim_f, alg.dim_h
    pattern = (alg.c_fh != 0.0).any(axis=0).T
    width = int(pattern.sum(axis=1).max(initial=0))
    # a stable sort puts every structural nonzero b of a row first, ascending,
    # and then the zero columns, ascending
    cols = np.argsort(~pattern, axis=1, kind="stable")[:, :width].T
    to_h = alg.c_ff.transpose(2, 0, 1)
    to_f = -alg.c_fh[:, cols, np.arange(nf)].transpose(1, 2, 0)
    # adding +0.0 turns every -0.0 into +0.0
    table = 0.0 + np.concatenate((to_h.reshape(nh * nf, nf), to_f.reshape(width * nf, nf)))
    for arr in (table, cols):
        arr.setflags(write=False)
    return table, cols


def _series_core(
    alg: ReductiveAlgebra,
    sig: np.ndarray,
    xh: np.ndarray,
    xf: np.ndarray,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """(dF, dI, rho) of the actors xh + xf at the points sig, node-last.

    sig and xf have shape (dim_f, n), xh (dim_h, n), with n >= 2; views of a
    larger buffer do.  dF and dI are new (dim_f, n) and (dim_h, n) arrays.
    rows are the (2, K) weight rows of :func:`_rows`, which fix the order.
    Every contraction is one einsum that, for each node, sums over its index
    in ascending order from +0.0; the entries of the one table product are
    single terms for so(1,m), and S gathers them.  A node's result therefore
    depends neither on n nor on the BLAS kernel.

    rho is the spectral radius of ad_F at the moving nodes where the
    max-row-sum bound of S reaches pi^2, or 0.0 where no node does: the
    caller raises with :func:`_check_radius`, after the blocks of a step.
    A |sigma| so large that ad_F^2 overflows raises DomainError here.
    """
    nf, nh = alg.dim_f, alg.dim_h
    table, cols = _table(alg)
    # the node count, not -1: a block is empty when dim_h or width is 0
    nodes = sig.shape[1]
    # a sigma near the float maximum overflows the product; the check on S
    # below turns that into a DomainError
    with np.errstate(over="ignore"):
        blocks = table @ sig
    to_h = blocks[: nh * nf].reshape(nh, nf, nodes)
    to_f = blocks[nh * nf :].reshape(len(cols), nf, nodes)
    # S = ad_F^2 restricted to f, summed over the structural slots, where it
    # reads to_h[cols] as the h field below reads xh[cols]; its spectral
    # radius is rho(ad_F)^2
    s = np.einsum("jdn,jden->den", to_f, to_h[cols])
    rho = _radius(s, sig, xf)
    # T_2k(X) = S^k X and T_2k+1(X) = to_h S^k X: the powers u_k = S^k X
    # fill one stack, which one pass contracts with the even weights (with 1
    # for u_0 = X) and the odd ones; a zero weight closing the odd row adds
    # an exact zero.  The odd sum is mapped to h once.
    u = np.empty((rows.shape[1],) + xf.shape)
    u[0] = xf
    for k in range(1, len(u)):
        np.einsum("dan,an->dn", s, u[k - 1], out=u[k])
    dF, odd = np.einsum("pk,kdn->pdn", rows, u)
    dI = np.einsum("dan,an->dn", to_h, odd)
    dI += xh
    # every l_{2k-1} past l_1 vanishes, so the h actor's field is
    # [X, F] = to_f X, summed over the structural slots.  For so(1,m) every
    # entry of to_f is one signed sigma^a and b runs in the order of a, so
    # the sum is lie.bracket's term for term; a padded slot adds an exact
    # zero, which leaves a sum started from +0.0 unchanged.
    dF += np.einsum("jdn,jdn->dn", to_f, xh[cols])
    return dF, dI, rho


def _radius(s: np.ndarray, sig: np.ndarray, xf: np.ndarray) -> float:
    """rho(ad_F) at the moving nodes that may lie past the series radius.

    The max-row-sum norm bounds rho(S) from above, so eigenvalues are
    needed only at moving nodes where that bound reaches pi^2, and only
    when some row of some node reaches it at all (or is NaN).  A huge
    |sigma| overflows S, whose tower would then multiply inf by 0: that
    raises DomainError, naming the first such node.
    """
    row_sums = np.abs(s).sum(axis=1)
    if row_sums.max(initial=0.0) < math.pi**2:
        return 0.0
    finite = np.isfinite(row_sums).all(axis=0)
    if not finite.all():
        with np.errstate(over="ignore"):
            size = _norm(sig[:, np.argmin(finite)])[0]
        raise DomainError(f"|sigma| = {size:.6g} is too large: ad_F^2 overflows")
    moving = np.abs(xf).max(axis=0, initial=0.0) > 0.0
    near = s[:, :, moving & (row_sums.max(axis=0) >= math.pi**2)].transpose(2, 0, 1)
    return math.sqrt(float(np.abs(np.linalg.eigvals(near)).max(initial=0.0)))


def _check_radius(rho: float) -> None:
    """Raise DomainError when an f actor lies at or past the series radius."""
    if rho >= math.pi:
        raise DomainError(
            f"f actor past the series radius: rho(ad_F)/pi = {rho / math.pi:.3f} >= 1"
        )


def _series(
    alg: ReductiveAlgebra,
    sigma: np.ndarray,
    xh: np.ndarray,
    xf: np.ndarray,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(dF, dI) of the actors xh + xf at the points sigma, N nodes at once.

    sigma and xf have shape (N, dim_f), xh has shape (N, dim_h); the results
    have the shapes of xf and xh.  The rows are packed node-last into one
    buffer max(N, 2) wide, so a single node rides with a zero node, and run
    through :func:`_series_core`; an f actor past the series radius raises
    DomainError, and so does a dF or dI that overflows.
    """
    n, nf, nh = sigma.shape[0], alg.dim_f, alg.dim_h
    x = np.zeros((nh + 2 * nf, max(n, 2)))
    np.concatenate((xh.T, xf.T, sigma.T), out=x[:, :n])
    dF, dI, rho = _series_core(alg, x[nh + nf :], x[:nh], x[nh : nh + nf], rows)
    _check_radius(rho)
    _check_finite(dF, "the series overflows: dF has non-finite entries", DomainError)
    _check_finite(dI, "the series overflows: dI has non-finite entries", DomainError)
    return np.ascontiguousarray(dF[:, :n].T), np.ascontiguousarray(dI[:, :n].T)


def realize(
    alg: ReductiveAlgebra,
    xi: AlgebraElement,
    point: CosetPoint,
    order: int = DEFAULT_ORDER,
) -> InfinitesimalAction:
    """Infinitesimal action of a general generator xi = xi_h + xi_f at a point.

    Raises DomainError when order is not an integer >= 1, when xi has
    non-finite entries, when |sigma| is so large that ad_F^2 overflows, or
    when xi has an f part and the point lies at or past the series radius
    rho(ad_F) = pi, and DimensionError when xi or the point belongs to
    another algebra.
    """
    if xi.algebra is not alg:
        raise DimensionError("generator belongs to a different algebra")
    _check_point(alg, point)
    for x in (xi.h, xi.f):
        _check_finite(x, "generator xi has non-finite entries", DomainError)
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

    A |sigma| whose square overflows raises DomainError.
    """
    with np.errstate(over="ignore"):
        s = float(_norm(point.sigma)[0])
    _check_size(s, _MAX_SQUARABLE, "|sigma|", "past which its square overflows")
    m = point.m
    a = _two_s_coth(s)
    U = a * np.eye(m)
    if s > 0.0:
        U += np.outer(point.sigma, point.sigma) / (s * s) * (1.0 - a)
    W = _compensator_rows(point, 2.0 * _tanh_over(s))
    return U, W

