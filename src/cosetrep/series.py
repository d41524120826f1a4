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
m - 1 of the m(m-1)/2 for so(1,m)).  S = to_f to_h, ad_F^2 restricted to f,
drives the series: for an f actor T_2k(X) = S^k X and T_2k+1(X) = to_h S^k X.

On so(1,m) S has only the eigenvalues 0 (once) and lambda = 4|sigma|^2, so
S^k X = lambda^(k-1) S X (Lagrange-Sylvester interpolation on two points,
N. J. Higham, Functions of Matrices, SIAM 2008, sec. 1.2), and so on any
algebra whose S is two-point in this way, which the table is tested for
once per algebra (its compact dual has lambda = -4|sigma|^2).  There the
core never forms S: one gather and one einsum over the slots give S X,
the h field [X_h, F] and the diagonal of S, whose trace over dim_f - 1 is
lambda, and it evaluates the two weight rows as polynomials in lambda per
node, so that dF = X + P_e(lambda) S X and the odd sum is
w_1 X + P_o(lambda) S X; the work per node grows with the order only
through the powers of lambda, and past order 623 the top power overflows
at |lambda| = pi^2, so such an order raises DomainError.
Every other algebra (a direct sum of two such algebras, say) takes the
power tower: the core gathers S from the rows of to_h, writes
u_k = S^k X for k <= order/2 into one stack and contracts that stack in
one pass with the even weights into dF and with the odd ones into a sum in
f (Higham, ch. 4, on polynomials in a matrix argument).  That stack holds
(order/2 + 1) N dim_f floats for N nodes, so the gauge flow runs the core
on node blocks of fixed size.  Either way the odd sum is mapped to h once,
and the h actor's field [X_h, F] is summed over the structural slots.

Summation order: every contraction (to_h X, the one gathered contraction
over the slots that gives S X, the h field and the diagonal of S, or S
and each power of the tower and its h field, the weight contraction or
the polynomials, and the to_h map of the odd sum) is one einsum whose
reduction index is never the contiguous axis, or a sum over the leading
axis of a node-last array (tr S over the diagonal).  Each of them sums,
for every node and every output, over its index in ascending order from
+0.0 (the leading-axis sum from its first term), so an exact zero never
comes out as -0.0.  The node axis is at least 2 wide, so a single node
takes the same einsum kernel as a batch, and a node's result is the same
for every N and in every block of a larger buffer.  For so(1,m) every entry
of the table product is a single signed sigma^a, so no sum runs through a
BLAS kernel: the result is the same under every OpenBLAS kernel.

The series converges while rho(S) = rho(ad_F)^2 stays below pi^2; an f
actor at or past that radius raises DomainError.  On a two-point algebra
rho(S) is |lambda|; on any other the max-row-sum bound of S picks the
nodes whose eigenvalues are computed.  :func:`realize` is the single-point
entry and :func:`_series` the (N, dim) one; both pack node-last columns
through :func:`_run`, realize with no (N, dim) copy; the gauge flow
of :mod:`cosetrep.induced` calls the core on fixed node blocks of its own
node-last buffer, and the verify suite feeds it the report-only plain-l
profile.

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
# the series converges while rho(S) = rho(ad_F)^2 stays below this
_RADIUS2 = math.pi**2
# up to this many nodes the core takes the powers of lambda in one
# accumulate pass, whose cost grows with the node count; past it, in one
# multiply per power
_NARROW = 64
# the largest order whose top power lambda^(order//2 - 1) of the two-point
# core stays finite at |lambda| = pi^2: pi^620 < 1.8e308 < pi^622
_MAX_ORDER = 623


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
    integer check instead.  An order past _MAX_ORDER raises DomainError
    before any weight is built.
    """
    if _check_int(order, 1, "truncation order", DomainError) > _MAX_ORDER:
        raise DomainError(f"truncation order {order} exceeds {_MAX_ORDER}: its powers of lambda overflow")
    return _rows(
        [w for _, w in even_bracket_weights(order)], [w for _, w in odd_bracket_weights(order)]
    )


@lru_cache(maxsize=32)
def _table(alg: ReductiveAlgebra) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The per-algebra table of :func:`_series`, built once per algebra.

    Returns (table, cols, index).  table @ sigma.T, with sigma of shape
    (N, dim_f), holds two node-last blocks of x -> [x, F] in its rows:

      (d, a)     to_h[d, a], the f -> h block                 dim_h dim_f rows
      (j, d)     to_f[d, cols[j, d]], the h -> f block        width dim_f rows

    Slot j of column d of cols (width, dim_f) is the j-th b, in ascending
    order, whose column c_fh[:, b, d] is not identically zero; a d with
    fewer such b pads with a b whose column is zero, so its extra slots hold
    an exact zero.  No entry is -0.0.  For so(1,m) each row has one nonzero,
    +-1 or +-4, so each entry of the product is a single signed sigma^a
    times a power of two: exact on every BLAS kernel.

    Where the algebra is two-point (see :func:`_two_point`), index
    (3, width, dim_f) gathers, from the core's node-last buffer whose rows
    are [table product | to_h X | X_h], the three operands that to_f[d, b]
    meets at b = cols[j, d]: (to_h X)[b] for S X, X_h[b] for the h field,
    and the product row to_h[b, d], whose sum over j and d is tr S.
    Elsewhere index is None.  The cache is bounded: it holds its algebras.
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
    index = np.stack((len(table) + cols, len(table) + nh + cols, cols * nf + np.arange(nf)))
    if not _two_point(table, cols, nf, nh):
        index = None
    for arr in (table, cols, index):
        if arr is not None:
            arr.setflags(write=False)
    return table, cols, index


def _two_point(table: np.ndarray, cols: np.ndarray, nf: int, nh: int) -> bool:
    """Whether S = ad_F^2 on f has at most the eigenvalues 0 and
    lambda = tr S / (dim_f - 1), with S^2 = lambda S, at every sigma.

    Then S^k X = lambda^(k-1) S X for k >= 1 (Lagrange-Sylvester
    interpolation on the two points; N. J. Higham, Functions of Matrices,
    SIAM 2008, sec. 1.2), and the core evaluates the series as two
    polynomials in lambda.  S is quadratic in sigma, so S^2 - lambda S is a
    polynomial in sigma: it is tested, to rounding, at three fixed points
    read through the table alone.  so(1,m) (lambda = 4|sigma|^2) and its
    compact dual (lambda = -4|sigma|^2) are two-point; a direct sum of two
    such algebras is not.
    """
    if nf < 2:
        return False
    # three points with distinct, nonzero, incommensurate coordinates
    probe = np.sin(np.arange(1.0, 3 * nf + 1)).reshape(nf, 3)
    blocks = table @ probe
    to_h = blocks[: nh * nf].reshape(nh, nf, 3)
    to_f = blocks[nh * nf :].reshape(len(cols), nf, 3)
    s = np.einsum("jdn,jden->nde", to_f, to_h[cols])
    lam = np.einsum("ndd->n", s) / (nf - 1)
    defect = np.einsum("nde,nef->ndf", s, s) - lam[:, None, None] * s
    return bool(np.abs(defect).max() <= 1e-12 * np.abs(s).max() ** 2)


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
    single terms for so(1,m), and every contraction gathers them.  A node's
    result therefore depends neither on n nor on the BLAS kernel.

    rho is the spectral radius of ad_F at the moving nodes that may lie at
    or past the series radius, or 0.0 where no node does: the caller raises
    with :func:`_check_radius`, after the blocks of a step.  A |sigma| so
    large that ad_F^2 overflows raises DomainError here.
    """
    nf, nh = alg.dim_f, alg.dim_h
    table, cols, index = _table(alg)
    # the node count, not -1: a block is empty when dim_h or width is 0
    nodes = sig.shape[1]
    # rows: the table product, then to_h X and X_h for the two-point gather
    buf = np.empty((len(table) + (0 if index is None else 2 * nh), nodes))
    blocks = buf[: len(table)]
    # a sigma near the float maximum overflows the product; the check on S
    # or lambda below turns that into a DomainError
    with np.errstate(over="ignore"):
        np.matmul(table, sig, out=blocks)
    to_h = blocks[: nh * nf].reshape(nh, nf, nodes)
    to_f = blocks[nh * nf :].reshape(len(cols), nf, nodes)
    if index is None:
        dF, odd, rho = _tower(to_h, to_f, cols, sig, xf, rows)
        # every l_{2k-1} past l_1 vanishes, so the h actor's field is
        # [X, F] = to_f X, summed over the structural slots; a padded slot
        # adds an exact zero, which leaves a sum started from +0.0 unchanged
        dF += np.einsum("jdn,jdn->dn", to_f, xh[cols])
    else:
        dF, odd, rho = _polynomial(to_h, to_f, buf, index, sig, xh, xf, rows)
    dI = np.einsum("dan,an->dn", to_h, odd)
    dI += xh
    return dF, dI, rho


def _tower(to_h, to_f, cols, sig, xf, rows):
    """(dF, odd, rho) of the f actor by the power tower of S, on any algebra.

    S = ad_F^2 restricted to f is summed over the structural slots, where it
    reads to_h[cols] as the h field reads xh[cols]; its spectral radius is
    rho(ad_F)^2.  T_2k(X) = S^k X and T_2k+1(X) = to_h S^k X: the powers
    u_k = S^k X fill one stack, which one pass contracts with the even
    weights (with 1 for u_0 = X) and the odd ones; a zero weight closing the
    odd row adds an exact zero.  odd is the f sum that dI maps to h.
    """
    s = np.einsum("jdn,jden->den", to_f, to_h[cols])
    rho = _radius(s, sig, xf)
    u = np.empty((rows.shape[1],) + xf.shape)
    u[0] = xf
    for k in range(1, len(u)):
        np.einsum("dan,an->dn", s, u[k - 1], out=u[k])
    dF, odd = np.einsum("pk,kdn->pdn", rows, u)
    return dF, odd, rho


def _polynomial(to_h, to_f, buf, index, sig, xh, xf, rows):
    """(dF, odd, rho) of the actor on a two-point algebra, with S never formed.

    S^k X = lambda^(k-1) S X, so dF = P_e(lambda) S X + X + [X_h, F] and
    odd = P_o(lambda) S X + w_1 X, with P_p(lambda) = sum_{k>=1} rows[p, k]
    lambda^(k-1).  buf holds the table product, then dim_h rows each for
    to_h X (a sum over a) and X_h; one gather through index and one einsum
    over the slots j give S X, the h field and the diagonal of S, which
    lambda = tr S / (dim_f - 1) sums over d.  For so(1,m) every entry of
    to_f is one signed sigma^a and b runs in the order of a, so the h field
    is lie.bracket's term for term.  The powers of lambda are a running
    product from 1.0, taken at lambda clamped to [-pi^2, pi^2]: a moving
    node past that raises anyway, and a resting one multiplies the finite
    polynomial by S X = 0.
    """
    nodes, nh = sig.shape[1], len(xh)
    np.einsum("dan,an->dn", to_h, xf, out=buf[len(buf) - 2 * nh : len(buf) - nh])
    buf[len(buf) - nh :] = xh
    # rows: S X, the h field and the diagonal of S
    terms = np.einsum("jdn,pjdn->pdn", to_f, buf[index])
    lam = terms[2].sum(axis=0)
    lam /= len(xf) - 1
    rho = _lambda_radius(lam, sig, xf)
    powers = np.empty((rows.shape[1] - 1, nodes))
    powers[:1] = 1.0
    if nodes <= _NARROW:
        powers[1:] = lam
        np.multiply.accumulate(powers, axis=0, out=powers)
    else:
        for k in range(1, len(powers)):
            np.multiply(powers[k - 1], lam, out=powers[k])
    # P_p S X + rows[p, 0] X for p = 0, 1, where rows[0, 0] = 1.0 adds X exactly
    both = np.einsum("pk,kn->pn", rows[:, 1:], powers)[:, None] * terms[0]
    both += rows[:, :1, None] * xf
    both[0] += terms[1]
    return both[0], both[1], rho


def _lambda_radius(lam: np.ndarray, sig: np.ndarray, xf: np.ndarray) -> float:
    """rho(ad_F) = sqrt|lambda| at the moving nodes where |lambda| reaches
    pi^2, or 0.0 where none does; past pi^2 lambda is clamped in place.  An
    overflowing lambda raises DomainError, naming the first such node, as
    :func:`_radius` does for S."""
    size = np.abs(lam)
    if size.max(initial=0.0) < _RADIUS2:
        return 0.0
    _check_overflow(np.isfinite(size), sig)
    np.clip(lam, -_RADIUS2, _RADIUS2, out=lam)
    moving = np.abs(xf).max(axis=0, initial=0.0) > 0.0
    return math.sqrt(float(size[moving & (size >= _RADIUS2)].max(initial=0.0)))


def _check_overflow(finite: np.ndarray, sig: np.ndarray) -> None:
    """Raise DomainError naming the first node whose ad_F^2 is not finite."""
    if not finite.all():
        with np.errstate(over="ignore"):
            size = _norm(sig[:, np.argmin(finite)])[0]
        raise DomainError(f"|sigma| = {size:.6g} is too large: ad_F^2 overflows")


def _radius(s: np.ndarray, sig: np.ndarray, xf: np.ndarray) -> float:
    """rho(ad_F) at the moving nodes that may lie past the series radius.

    The max-row-sum norm bounds rho(S) from above, so eigenvalues are
    needed only at moving nodes where that bound reaches pi^2, and only
    when some row of some node reaches it at all (or is NaN).  A huge
    |sigma| overflows S, whose tower would then multiply inf by 0: that
    raises DomainError, naming the first such node.
    """
    row_sums = np.abs(s).sum(axis=1)
    if row_sums.max(initial=0.0) < _RADIUS2:
        return 0.0
    _check_overflow(np.isfinite(row_sums).all(axis=0), sig)
    moving = np.abs(xf).max(axis=0, initial=0.0) > 0.0
    near = s[:, :, moving & (row_sums.max(axis=0) >= _RADIUS2)].transpose(2, 0, 1)
    return math.sqrt(float(np.abs(np.linalg.eigvals(near)).max(initial=0.0)))


def _check_radius(rho: float) -> None:
    """Raise DomainError when an f actor lies at or past the series radius."""
    if rho >= math.pi:
        raise DomainError(
            f"f actor past the series radius: rho(ad_F)/pi = {rho / math.pi:.3f} >= 1"
        )


def _run(alg: ReductiveAlgebra, xh, xf, sigma, rows) -> tuple[np.ndarray, np.ndarray]:
    """(dF, dI) of :func:`_series_core` for the n node-last columns of xh, xf
    and sigma, packed into one buffer max(n, 2) wide (a single node rides with
    a zero node); an f actor past the series radius, or an overflowing dF or
    dI, raises DomainError."""
    n, nh, nf = sigma.shape[1], alg.dim_h, alg.dim_f
    x = np.zeros((nh + 2 * nf, max(n, 2)))
    np.concatenate((xh, xf, sigma), out=x[:, :n])
    dF, dI, rho = _series_core(alg, x[nh + nf :], x[:nh], x[nh : nh + nf], rows)
    _check_radius(rho)
    _check_finite(dF, "the series overflows: dF has non-finite entries", DomainError)
    _check_finite(dI, "the series overflows: dI has non-finite entries", DomainError)
    return dF, dI


def _series(
    alg: ReductiveAlgebra,
    sigma: np.ndarray,
    xh: np.ndarray,
    xf: np.ndarray,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(dF, dI) of the actors xh + xf at the points sigma, N nodes at once.

    sigma and xf have shape (N, dim_f), xh has shape (N, dim_h); the results
    have the shapes of xf and xh.  The rows run node-last through :func:`_run`.
    """
    n = sigma.shape[0]
    dF, dI = _run(alg, xh.T, xf.T, sigma.T, rows)
    return np.ascontiguousarray(dF[:, :n].T), np.ascontiguousarray(dI[:, :n].T)


def realize(
    alg: ReductiveAlgebra,
    xi: AlgebraElement,
    point: CosetPoint,
    order: int = DEFAULT_ORDER,
) -> InfinitesimalAction:
    """Infinitesimal action of a general generator xi = xi_h + xi_f at a point.

    Raises DomainError when order is not an integer from 1 to 623,
    when |sigma| is so large that ad_F^2 overflows, when xi has an f part
    and the point lies at or past the series radius rho(ad_F) = pi, or when
    dF or dI overflows, and DimensionError when xi or the point belongs to
    another algebra.
    """
    if xi.algebra is not alg:
        raise DimensionError("generator belongs to a different algebra")
    _check_point(alg, point)
    dF, dI = _run(alg, xi.h[:, None], xi.f[:, None], point.sigma[:, None], _weights(order))
    return InfinitesimalAction(dF=dF[:, 0], dI=dI[:, 0])


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
    # near 0, (1 - a) / s^2 as its series: s * s underflows below 1e-154
    outer = np.outer(point.sigma, point.sigma)
    U += outer * (16.0 * s * s / 45.0 - 4.0 / 3.0) if s < _SMALL else outer / (s * s) * (1.0 - a)
    W = _compensator_rows(point, 2.0 * _tanh_over(s))
    return U, W

