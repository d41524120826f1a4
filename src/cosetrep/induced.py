"""Finite coset transformations and the induced action on attached vectors.

A proper orthochronous (m+1)x(m+1) matrix g acting on the coset point
exp(sigma^al F_al) factors uniquely as a boost along the image of e_0 times a
spatial rotation:

    g exp(sigma . F) = exp(sigma' . F) R,   R = diag(1, rho), rho in SO(m).

:func:`factor_boost_rotation` computes the pair (sigma', rho).  A vector v in
any representation of the stabilizer is carried along by the representation's
image of rho (:meth:`HRepresentation.lift`): rho itself in the vector
representation; in the spinor representation the rotor U/|U| of the frame sum
U = sum_A rho(e_A) s e_A^-1 over the blades of Cl(m), signed so that its scalar
part is positive, with no angle computed; in any other, the exponential of
the principal-branch plane angles.  :func:`induced_action` packages the
whole move.  Differentiating that map at the identity reproduces the
bracket series of :mod:`cosetrep.series`, which the verify suite checks by
finite differences.

The finite matrices, the form check, the split, the rotation log and the
lift all work on stacks (..., m+1, m+1) or (..., m, m), so a section moves
in one call and a single point is the one-node case of the same code.

Sections (arrays of coset points with one attached vector each) and their
gauge flow under a node-wise generator field live at the bottom of the module;
the flow is vertical, acting on every node independently, and runs all its
Euler steps in one node-last loop over fixed node blocks.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .clifford import CliffordSpace, Multivector, _frame_sum, _frame_tables, _scatter, multivector_matrix
from .errors import (
    BranchError,
    ClosureError,
    DimensionError,
    DomainError,
    OrthochronousError,
    _array,
    _check_finite,
    _check_int,
    _check_real,
    _check_size,
    _check_square,
    _frozen,
    _norm,
)
from .lie import (
    CosetPoint,
    ReductiveAlgebra,
    _closure_residual,
    _generator_sum,
    _plane_index,
    _so1m_blades,
    defining_rep_so1m,
    expm,
    generator_coords,
    so1m_algebra,
)
from .series import DEFAULT_ORDER, _check_radius, _series_core, _weights, realize

__all__ = [
    "HRepresentation",
    "vector_hrep",
    "spinor_hrep",
    "boost_matrix",
    "rotation_embed",
    "exp_coset",
    "FactoredPair",
    "factor_boost_rotation",
    "reconstruct",
    "rotation_log_coords",
    "induced_action",
    "infinitesimal_action",
    "group_from_spec",
    "CompositeSection",
    "section_to_json_dict",
    "section_from_json_dict",
    "gauge_transform_section",
    "flow_section",
]

_TOL = 1e-10
# the rotation log raises BranchError for angles past this
_BRANCH = np.pi - 1e-12
# the spin lift raises BranchError where the scalar part prod cos(theta_k / 2)
# of the principal lift is at most this: a plane within about 1e-12 of pi
_SPIN_BRANCH = 5e-13
# largest rapidity of a boost built or split here: the form check's entries
# grow like cosh^2(zeta) ~ e^(2 zeta)/4 and overflow just past 355
_MAX_RAPIDITY = 354.0
_RAPIDITY_REASON = "the largest for which the matrix and its form check stay finite"
# log of the largest float: a |det rho| past it overflows
_LOG_MAX = math.log(np.finfo(float).max)
# nodes per block of the gauge flow: a step's temporaries hold about 54
# floats per node of a block at m=3 and 470 at m=8 (7.7 MB; tracemalloc
# peaks of a vector-rep flow), so past its node-last buffers a flow's memory
# does not grow with the section
_BLOCK = 2048


# ---------------------------------------------------------------------------
# stabilizer representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HRepresentation:
    """Matrices G_a for the stabilizer generators of a reductive algebra.

    Construction verifies [G_a, G_b] = c_hh[a,b,c] G_c to 1e-10, so any
    instance exponentiates consistently with the algebra it names;
    generators with non-finite entries raise ClosureError.
    """

    algebra: ReductiveAlgebra
    generators: np.ndarray
    # the generators are the plane rotations E_ki - E_ik of R^d themselves
    _planes: bool = field(init=False, repr=False)
    # the generators are the Clifford images that spinor_hrep builds
    _spin: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        gens = _array(self.generators, "the generator stack")
        nh = self.algebra.dim_h
        d = _check_square(gens, 1, "the generator stack")
        if gens.shape[:-2] != (nh,):
            raise DimensionError(f"expected generator stack of shape ({nh}, d, d), got {gens.shape}")
        _check_finite(gens, "generators have non-finite entries", ClosureError)
        worst = _closure_residual(gens, self.algebra.c_hh)
        if not worst <= _TOL:
            raise ClosureError(
                f"generators do not satisfy the stabilizer brackets (residual {worst:.3e})"
            )
        object.__setattr__(self, "generators", _frozen(gens))
        planes = nh == d * (d - 1) // 2 and np.array_equal(
            gens, defining_rep_so1m(d).h_gens[:, 1:, 1:]
        )
        object.__setattr__(self, "_planes", planes)
        m = (1 + math.isqrt(1 + 8 * nh)) // 2
        spin = not planes and m >= 2 and m * (m - 1) // 2 == nh and d == 1 << (m - 1)
        object.__setattr__(self, "_spin", spin and np.array_equal(gens, _spin_generators(m)))

    @property
    def d(self) -> int:
        return int(self.generators.shape[-1])

    def matrix(self, h_coords) -> np.ndarray:
        """Sum h^a G_a, for one coordinate vector or a stack (..., dim_h)."""
        return _generator_sum(h_coords, self.generators, "h")

    def exp(self, h_coords) -> np.ndarray:
        """exp(sum h^a G_a), for one coordinate vector or a stack."""
        return expm(self.matrix(h_coords))

    def lift(self, rho) -> np.ndarray:
        """The matrix of the rotation rho in SO(m), or of a stack (..., m, m).

        The defining representation on R^m returns rho itself.  The spinor
        representation returns the image of the rotor U/|U|, where U is the
        frame sum sum_A rho(e_A) s e_A^-1 over the blades of Cl(m) (see
        :func:`_spin_lift`), with the sign that makes its scalar part
        positive: the principal lift, whose scalar part is
        c = prod cos(theta_k / 2) over the plane angles.  It raises
        BranchError where c <= 5e-13, a plane within about 1e-12 of pi.  Any
        other representation exponentiates the principal-branch plane angles
        of each rho on its own (BranchError for a plane turned by pi).  Each
        rho is lifted on its own, so in the spinor rep lift(r1 r2) may be
        -lift(r1) lift(r2).  rho is not checked for orthogonality; rho that
        is not a square matrix or a stack of them raises DimensionError, and
        a non-finite entry DomainError.
        """
        rho = _array(rho, "rho")
        m = _check_square(rho, 0, "rho")
        if m * (m - 1) // 2 != self.algebra.dim_h:
            raise DimensionError(
                f"a rotation of R^{m} has no image in a representation of dim_h={self.algebra.dim_h}"
            )
        _check_finite(rho, "rho has non-finite entries", DomainError)
        if self._planes:
            return rho
        if self._spin:
            return _spin_lift(rho)
        return self.exp(_log_coords(rho))


@lru_cache(maxsize=None)
def _spin_generators(m: int) -> np.ndarray:
    """The images (m(m-1)/2, d, d) of the rotation generators
    (1/4)[gamma_k, gamma_i] that so1m_algebra is built from, read-only."""
    sp = CliffordSpace(m)
    gens = multivector_matrix([Multivector._of(sp, {t: v}) for t, v in _so1m_blades(m)[0]])
    gens.setflags(write=False)
    return gens


def _spin_lift(rho: np.ndarray) -> np.ndarray:
    """Images (..., d, d) of the principal spin lifts of finite rho (..., m, m).

    For the principal lift psi of rho, with scalar part c > 0, the identity
    sum_A e_A M e_A^-1 = 2^m <M>_0 makes the frame sum with seed s
    U = 2^m <rev(psi) s>_0 psi (:func:`cosetrep.clifford._frame_sum`).
    Pass 1 seeds s = 1, so U = 2^m c psi: |U| = 2^m c decides the branch
    rule, and where c >= 1/2, U/|U| is psi to about 2m eps.  Elsewhere pass 2
    seeds the even blade e_B with the largest |U_B|, which gives
    U = 2^m psi_B psi with |psi_B| >= 2^(-(m-1)/2).  Either way psi is U/|U|
    with the sign that makes its scalar part positive, and its image is the
    signed scatter of :func:`cosetrep.clifford._scatter`.  No eigh, expm,
    LU or BLAS routine runs; each node's bytes do not depend on the stack.
    A rho so far from orthogonal that its frame sum overflows raises
    DomainError.
    """
    m = rho.shape[-1]
    lead = rho.shape[:-2]
    n = math.prod(lead)
    even = _frame_tables(m)[0]
    # node-last buffers at least 2 wide, as in _compensator_action
    r = np.zeros((m, m + 1, max(n, 2)))
    r[:, 0] = 1.0
    r[:, 1:, :n] = rho.reshape(n, m, m).T
    u = np.zeros((even.size, r.shape[-1]))
    u[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        u = _frame_sum(r, u)[:, :n]
        size = _norm(u.T)[:, 0]
        redo = np.flatnonzero(size < 2.0 ** (m - 1))
        if redo.size:
            if (size[redo] <= 2.0**m * _SPIN_BRANCH).any():
                raise BranchError("rotation within 1e-12 of pi has no principal-branch spin lift")
            # a lone node is repeated to fill the second column, seeded 0
            seed = np.zeros((even.size, max(redo.size, 2)))
            seed[np.abs(u[:, redo]).argmax(axis=0), np.arange(redo.size)] = 1.0
            r = r[..., np.resize(redo, seed.shape[1])]
            u[:, redo] = _frame_sum(r, seed)[:, : redo.size]
            size[redo] = _norm(u[:, redo].T)[:, 0]
    _check_finite(size, "rho is too far from orthogonal: its spin frame sum overflows", DomainError)
    psi = u / np.copysign(size, u[0])
    image = _scatter(m, even, psi.T, np.arange(n)[:, None], n)
    return image.reshape(lead + image.shape[1:])


@lru_cache(maxsize=None)
def vector_hrep(m: int) -> HRepresentation:
    """SO(m) acting on R^m: the spatial blocks E_ki - E_ik of the defining rep."""
    return HRepresentation(so1m_algebra(m), defining_rep_so1m(m).h_gens[:, 1:, 1:])


@lru_cache(maxsize=None)
def spinor_hrep(m: int) -> HRepresentation:
    """SO(m) on the spinor space of Cl(m): the matrix images of the rotation
    generators (1/4)[gamma_k, gamma_i] that so1m_algebra is built from."""
    return HRepresentation(so1m_algebra(m), _spin_generators(m))


# ---------------------------------------------------------------------------
# finite matrices
# ---------------------------------------------------------------------------

# The stacked helpers keep a trailing axis of length 1 on per-matrix values
# (rapidities, norms, g[..., :1, 0]): a single matrix then yields arrays of
# shape (1,) rather than 0-d ones, which numpy handles far faster.

def _boost(zeta: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Boosts of rapidities zeta (..., 1) along unit axes n (..., m); a |zeta|
    above _MAX_RAPIDITY, NaN or inf raises DomainError."""
    _check_size(np.abs(zeta).max(initial=0.0), _MAX_RAPIDITY, "boost rapidity |zeta|", _RAPIDITY_REASON)
    m = n.shape[-1]
    ch, sh = np.cosh(zeta), np.sinh(zeta)
    g = np.empty(n.shape[:-1] + (m + 1, m + 1))
    g[..., 0, :1] = ch
    g[..., 0, 1:] = g[..., 1:, 0] = sh * n
    g[..., 1:, 1:] = np.eye(m) + (ch - 1.0)[..., None] * (n[..., :, None] * n[..., None, :])
    return g


def boost_matrix(m: int, zeta, axis) -> np.ndarray:
    """Pure boost of rapidity zeta along a unit spatial direction.

    Entries: top-left cosh(zeta), first row/column sinh(zeta) n_k, spatial
    block d_jk + (cosh(zeta) - 1) n_j n_k.  zeta of shape (...) and axis of
    shape (..., m) give a stack of boosts (..., m+1, m+1).  A non-finite
    rapidity or axis entry, or a |zeta| above _MAX_RAPIDITY, raises
    DomainError.
    """
    n = _array(axis, "axis")
    if n.ndim < 1 or n.shape[-1] != m:
        raise DimensionError(f"axis must have shape (..., {m}), got {n.shape}")
    zeta = _array(zeta, "rapidity")
    _check_finite(zeta, "boost rapidity must be finite", DomainError)
    _check_finite(n, "boost axis must be finite", DomainError)
    # scaling by the power of two at the largest |entry| is exact, so a
    # subnormal axis keeps full precision and the quotient keeps its bits
    exp = np.frexp(np.abs(n).max(axis=-1, keepdims=True, initial=0.0))[1]
    scaled = np.ldexp(n, -exp)
    scaled_norm = _norm(scaled)
    with np.errstate(over="ignore"):
        norm = np.ldexp(scaled_norm, exp)
    if np.count_nonzero((norm == 0.0) | (norm == np.inf)):
        raise DomainError("boost axis must be nonzero, with a norm inside the float range")
    n = np.where(abs(norm - 1.0) <= 1e-12, n, scaled / scaled_norm)
    z, n = np.broadcast_arrays(zeta[..., None], n)
    return _boost(z[..., :1], n)


def _check_rotation(rho) -> np.ndarray:
    """rho (or a stack) as a float array, validated as SO(m) to 1e-10."""
    r = _array(rho, "rho")
    _check_square(r, 0, "rho")
    # a non-finite or overflowing rho makes the defect NaN or inf, which
    # fails the gate
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(r.swapaxes(-1, -2) @ r - np.eye(r.shape[-1])).max(initial=0.0)
    if not defect <= _TOL:
        raise DomainError("rho is not orthogonal")
    _check_orientation(r)
    return r


def _embed(r: np.ndarray) -> np.ndarray:
    """diag(1, r) for r of shape (..., m, m)."""
    m = r.shape[-1]
    g = np.zeros(r.shape[:-2] + (m + 1, m + 1))
    g[..., 0, 0] = 1.0
    g[..., 1:, 1:] = r
    return g


def rotation_embed(m: int, rho) -> np.ndarray:
    """diag(1, rho) with rho in SO(m) (or a stack of them), validated to 1e-10."""
    r = _check_rotation(rho)
    if r.shape[-1] != m:
        raise DimensionError(f"rho must have shape (..., {m}, {m}), got {r.shape}")
    return _embed(r)


def _coset_matrix(sigma: np.ndarray) -> np.ndarray:
    """exp(sigma . F) for coordinates of shape (..., m): boosts of rapidity 2|sigma|."""
    # a norm or a rapidity past the float range reads as inf, which _boost rejects
    with np.errstate(over="ignore"):
        s = _norm(sigma)
        return _boost(2.0 * s, sigma / np.where(s == 0.0, 1.0, s))


def exp_coset(point: CosetPoint) -> np.ndarray:
    """exp(sigma^al F_al) in the defining representation.

    With rep(F_k) = 2 (E_0k + E_k0) this is a boost of rapidity 2 |sigma|
    along sigma, evaluated in closed form.  A CompositeSection gives the
    stack of its nodes' representatives.  A rapidity above _MAX_RAPIDITY
    raises DomainError.
    """
    return _coset_matrix(point.sigma)


def _check_form(g) -> np.ndarray:
    """g (or a stack) as a float array preserving the form forward in time.

    Raises DimensionError for a bad shape, DomainError when g has a
    non-finite entry or does not preserve the form diag(+1, -1, ..., -1),
    and OrthochronousError when it reverses time.  The form is compared
    entrywise against 1e-10 max(1, (|g|^T |g|)_ij), the first-order rounding
    bound of the product g^T eta g, so the tolerance grows with the entries
    of a large boost while an error in a small entry is still caught.

    The orientation is left to :func:`_check_orientation` on the rho of a
    split: det(g) = det(rho), but g's entries grow like cosh(zeta) while
    rho's stay O(1), so only rho's determinant keeps its sign at large
    rapidity.
    """
    g = _array(g, "g")
    eta = defining_rep_so1m(_check_square(g, 2, "g") - 1).eta
    gt, a = g.swapaxes(-1, -2), np.abs(g)
    # a non-finite or overflowing g makes an excess NaN (inf - inf), which
    # fails the gate; finiteness is looked at only then
    with np.errstate(over="ignore", invalid="ignore"):
        excess = np.abs(gt @ eta @ g - eta) - _TOL * np.maximum(1.0, a.swapaxes(-1, -2) @ a)
    if np.count_nonzero(excess <= 0.0) != excess.size:
        _check_finite(g, "matrix has non-finite entries", DomainError)
        raise DomainError("matrix does not preserve the indefinite form")
    if np.count_nonzero(g[..., :1, 0] < 0.0):
        raise OrthochronousError("transformation reverses time orientation")
    return g


def _check_orientation(rho: np.ndarray) -> None:
    """Raise OrthochronousError when some rho has det < 0, read by slogdet,
    which cannot overflow; a |det rho| past the float range is a DomainError."""
    sign, logdet = np.linalg.slogdet(rho)
    if np.count_nonzero((sign < 0.0) | ~(logdet <= _LOG_MAX)):
        _check_size(logdet.max(initial=-np.inf), _LOG_MAX, "log |det rho|", "past which det rho overflows")
        raise OrthochronousError("transformation reverses spatial orientation")


@dataclass(frozen=True, eq=False)
class FactoredPair:
    """Result of splitting g into a coset representative and a rotation."""

    f_prime: CosetPoint
    rho: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _frozen(self.rho, "rho"))


def _split(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma', rho) with exp(sigma' . F) diag(1, rho) = g, for g of shape
    (..., m+1, m+1), read off g's first column and row.

    With u = g e_0 = (cosh zeta, sinh zeta n), sigma' = zeta n / 2 and
    rho = g[1:, 1:] - u_s (x) g[0, 1:] / (1 + u_0); no product with the
    inverse boost is formed, so rho's rounding stays near eps cosh(zeta).
    A rapidity above _MAX_RAPIDITY, read from |g[..., 0, 0]| before any norm
    can overflow, raises DomainError.  exp(sigma' . F) has det 1, so rho
    carries g's orientation, which :func:`_check_orientation` checks; rho is
    orthogonal to about eps cosh(zeta) and not checked beyond that.
    """
    zeta = np.arccosh(np.abs(g[..., 0, 0]).max(initial=1.0))
    _check_size(zeta, _MAX_RAPIDITY, "boost rapidity |zeta|", _RAPIDITY_REASON)
    us = g[..., 1:, 0]
    p = _norm(us)
    sigma = us * (0.5 * np.arcsinh(p) / np.where(p == 0.0, 1.0, p))
    row = g[..., 0, 1:] / (1.0 + g[..., :1, 0])
    rho = g[..., 1:, 1:] - us[..., :, None] * row[..., None, :]
    _check_orientation(rho)
    return sigma, rho


def factor_boost_rotation(g: np.ndarray) -> FactoredPair:
    """Split a proper orthochronous g as exp(sigma' . F) diag(1, rho).

    sigma' points along the spatial part of g e_0 with |sigma'| = zeta / 2
    where cosh(zeta) = (g e_0)^0; the factor 1/2 matches the doubled boost
    normalization of the generators.
    """
    g = _array(g, "g")
    if g.ndim != 2:
        raise DimensionError(f"expected one square matrix, got shape {g.shape}")
    sigma, rho = _split(_check_form(g))
    return FactoredPair(CosetPoint(sigma), rho)


def reconstruct(pair: FactoredPair) -> np.ndarray:
    """exp(sigma' . F) diag(1, rho), the matrix the pair factors.

    rho is not checked again: a split's rho is orthogonal only to about
    eps cosh(zeta), which the absolute 1e-10 of rotation_embed rejects from
    rapidity about 14.
    """
    return exp_coset(pair.f_prime) @ _embed(pair.rho)


def rotation_log_coords(rho: np.ndarray) -> np.ndarray:
    """Plane-angle coordinates theta_a with exp(theta^a (E_ki - E_ik)) = rho,
    for rho in SO(m) or a stack (..., m, m).

    Angles live on the principal branch; a plane rotated by exactly pi has
    no preferred sign, so BranchError is raised there.
    """
    return _log_coords(_check_rotation(rho))


def _log_coords(r: np.ndarray) -> np.ndarray:
    """rotation_log_coords without the orthogonality check on rho.

    rho = S + A with S symmetric and A antisymmetric, and the two commute.
    On an invariant plane of angle theta, S is cos(theta) and A is
    sin(theta) times a quarter turn, so log rho = (theta / sin theta)(S) A.
    eigh of S gives the cosines c_k and an orthonormal eigenbasis q_k; the
    sines are |A q_k|, read from A itself so that small angles keep their
    relative accuracy, and theta_k = atan2(|A q_k|, c_k).
    """
    rt = r.swapaxes(-1, -2)
    c, q = np.linalg.eigh(0.5 * (r + rt))
    aq = 0.5 * ((r - rt) @ q)
    s = _norm(aq.swapaxes(-1, -2))[..., 0]
    theta = np.arctan2(s, c)
    # a plane turned by pi within rounding: sin(theta) <= 1e-12, cos < 0
    if np.count_nonzero(theta > _BRANCH):
        raise BranchError("rotation by pi has no principal-branch logarithm")
    # where s = 0 the column of aq is 0 too, so the ratio there is moot
    w = (aq * (theta / np.where(s == 0.0, 1.0, s))[..., None, :]) @ q.swapaxes(-1, -2)
    i, k = _plane_index(r.shape[-1])
    return w[..., k, i]


# ---------------------------------------------------------------------------
# the induced action
# ---------------------------------------------------------------------------

def induced_action(g: np.ndarray, point, v=None, hrep: HRepresentation | None = None):
    """Move coset points and their attached vectors by finite transformations.

    Factors g exp(sigma . F) into the new representative and a rotation rho,
    then applies hrep's image of rho (see :meth:`HRepresentation.lift`) to
    the vector.  Two forms:

    * ``induced_action(g, point, v, hrep)`` with one matrix g, a CosetPoint
      and its vector v of shape (d,) returns (new point, new vector);
    * ``induced_action(g, section, hrep=hrep)`` with a CompositeSection,
      whose nodes carry their own vectors, and either one g for every node
      or a stack of shape (n_nodes, m+1, m+1), returns the moved section.

    Both run the same stacked core; a single point is the one-node case.  A
    spinor rep's action composes only up to the vector's sign (see lift).
    """
    if hrep is None:
        raise TypeError("induced_action needs a stabilizer representation hrep")
    g = _array(g, "g")
    if isinstance(point, CompositeSection):
        if v is not None:
            raise TypeError("a section carries its own vectors: pass v=None")
        if g.ndim not in (2, 3) or (g.ndim == 3 and g.shape[0] != point.n_nodes):
            raise DimensionError(
                f"expected one matrix or {point.n_nodes} stacked matrices, got shape {g.shape}"
            )
        vs = point.v
    else:
        if g.ndim != 2:
            raise DimensionError(f"one point takes one matrix, got shape {g.shape}")
        vs = _check_vector(v, hrep.d)
    m = _check_form(g).shape[-1] - 1
    if m != point.m:
        raise DimensionError(f"matrix acts on m={m} but the point has m={point.m}")
    if vs.shape[-1] != hrep.d:
        raise DimensionError(f"vectors have d={vs.shape[-1]} but the representation has d={hrep.d}")
    sigma, rho = _split(g @ exp_coset(point))
    moved = (hrep.lift(rho) @ vs[..., None])[..., 0]
    if isinstance(point, CompositeSection):
        return CompositeSection(sigma, moved)
    return CosetPoint(sigma), moved


def _check_vector(v, d: int) -> np.ndarray:
    """v as a float vector of shape (d,); a wrong shape or a non-finite entry
    raises DimensionError, as a section's vectors do."""
    v = _array(v, "vector")
    if v.shape != (d,):
        raise DimensionError(f"vector must have shape ({d},), got {v.shape}")
    _check_finite(v, "vector has non-finite entries", DimensionError)
    return v


def _check_compensator(hrep: HRepresentation, nh: int) -> None:
    """Raise DimensionError unless hrep takes nh compensator coordinates."""
    if nh != hrep.algebra.dim_h:
        raise DimensionError(f"expected {hrep.algebra.dim_h} compensator coordinates, got {nh}")


def _compensator_core(hrep: HRepresentation, dI: np.ndarray, v: np.ndarray) -> np.ndarray:
    """dv = sum_a dI^a (G_a v), node-last: dI (dim_h, n), v (d, n), n >= 2.

    Every G_a v_n comes from one GEMM of the generator stack, read as a
    (dim_h d, d) view, against v; for the vector and spinor reps each of its
    entries is a single signed term, so it is exact whatever the BLAS
    kernel.  The sum over a is one einsum with the node index last, as in
    :func:`cosetrep.series._series_core`: ascending a from +0.0 for every
    node, so a node's dv depends neither on n nor on its neighbours.
    """
    nh, d = hrep.algebra.dim_h, hrep.d
    # the node count, not -1: the product is empty when dim_h is 0
    gv = (hrep.generators.reshape(nh * d, d) @ v).reshape(nh, d, v.shape[1])
    return np.einsum("aen,an->en", gv, dI)


def _compensator_action(hrep: HRepresentation, dI: np.ndarray, v: np.ndarray) -> np.ndarray:
    """dv = sum_a dI^a (G_a v) for N nodes: dI of shape (N, dim_h), v (N, d).

    The rows are packed node-last into one buffer max(N, 2) wide and run
    through :func:`_compensator_core`.
    """
    nh = dI.shape[-1]
    _check_compensator(hrep, nh)
    n, d = v.shape
    x = np.zeros((nh + d, max(n, 2)))
    x[:nh, :n] = dI.T
    x[nh:, :n] = v.T
    return np.ascontiguousarray(_compensator_core(hrep, x[:nh], x[nh:])[:, :n].T)


def infinitesimal_action(
    alg: ReductiveAlgebra,
    xi,
    point: CosetPoint,
    v: np.ndarray,
    hrep: HRepresentation,
    order: int = DEFAULT_ORDER,
) -> tuple[np.ndarray, np.ndarray]:
    """First-order move of (point, v) under a generator: (d sigma, d v).

    d sigma comes from the bracket series, d v = (dI^a G_a) v from the
    compensator in the given stabilizer representation.
    """
    act = realize(alg, xi, point, order)
    v = _check_vector(v, hrep.d)
    return act.dF, _compensator_action(hrep, act.dI[None], v[None])[0]


def group_from_spec(m: int, boost=None, rotations=()) -> np.ndarray:
    """Build exp(boost . F) * exp(sum theta H_(i,k)) in the defining matrices.

    `boost` is a length-m coordinate vector (may be None for no boost);
    `rotations` is a sequence of (i, k, theta) plane angles with
    1 <= i < k <= m.  The inputs are parsed by :func:`generator_coords`.
    The boost's rapidity 2|boost| may be at most _MAX_RAPIDITY, else
    DomainError.
    """
    h, f = generator_coords(m, boost, rotations)
    # the boost goes first, so a bad rapidity raises before the rotation is built
    return _coset_matrix(f) @ expm(np.tensordot(h, defining_rep_so1m(m).h_gens, axes=1))


# ---------------------------------------------------------------------------
# sections and their gauge flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CompositeSection:
    """N coset points with one attached vector each: sigma (N, m), v (N, d)."""

    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        s, w = _frozen(self.sigma, "sigma"), _frozen(self.v, "v")
        if s.ndim != 2 or w.ndim != 2:
            raise DimensionError(
                f"sigma and v must be 2-D, got shapes {s.shape} and {w.shape}"
            )
        if s.shape[0] != w.shape[0]:
            raise DimensionError(
                f"node counts differ: {s.shape[0]} points, {w.shape[0]} vectors"
            )
        for x in (s, w):
            _check_finite(x, "section has non-finite entries", DimensionError)
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "v", w)

    @property
    def n_nodes(self) -> int:
        return int(self.sigma.shape[0])

    @property
    def m(self) -> int:
        return int(self.sigma.shape[1])

    @property
    def d(self) -> int:
        return int(self.v.shape[1])

    def point(self, i: int) -> CosetPoint:
        return CosetPoint(self.sigma[i])


def section_to_json_dict(section: CompositeSection, xi: np.ndarray | None = None) -> dict:
    """JSON form {"m", "d", "nodes": [{"sigma", "v"(, "xi")}]}.

    When xi is given it must be a finite (N, dim_h + dim_f) array of
    generator coordinates, stabilizer part first, stored per node.
    """
    nodes = [{"sigma": s, "v": v} for s, v in zip(section.sigma.tolist(), section.v.tolist())]
    if xi is not None:
        xi = _array(xi, "xi")
        n, size = section.n_nodes, section.m * (section.m + 1) // 2
        if xi.shape != (n, size):
            raise DimensionError(f"xi must have shape ({n}, {size}), got {xi.shape}")
        _check_finite(xi, "generator field xi has non-finite entries", DomainError)
        for node, row in zip(nodes, xi.tolist()):
            node["xi"] = row
    return {"m": section.m, "d": section.d, "nodes": nodes}


def _node_rows(nodes: list, key: str, size: int) -> np.ndarray:
    """The `key` entries of every node as one (N, size) float array.

    Strings, booleans and None anywhere in them raise DomainError, and so
    does a node whose entry is missing, not numeric or not `size` long.
    """
    try:
        raw = [node[key] for node in nodes]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"every node needs a numeric {key}: {exc}") from exc
    with suppress(DomainError):
        rows = _array(raw, f"node {key}", DomainError)
        if rows.shape == (len(nodes), size):
            return rows
    # name the first node whose entry is not `size` numbers
    for idx, entry in enumerate(raw):
        shape = _array(entry, f"node {idx}: {key}", DomainError).shape
        if shape != (size,):
            raise DomainError(f"node {idx}: {key} must have {size} entries, got shape {shape}")
    raise DomainError(f"the nodes' {key} entries do not stack into a ({len(nodes)}, {size}) array")


def section_from_json_dict(data) -> tuple[CompositeSection, np.ndarray | None]:
    """Parse a section document; returns (section, xi or None).

    All nodes must agree on sizes; when "xi" appears it must appear on every
    node with dim_h + dim_f entries for so(1,m), stabilizer part first.
    """
    try:
        m, d, nodes = data["m"], data["d"], data["nodes"]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"section document needs keys m, d, nodes: {exc}") from exc
    m = _check_int(m, 1, "section m", DomainError)
    d = _check_int(d, 1, "section d", DomainError)
    if not isinstance(nodes, list) or not nodes:
        raise DomainError("section document must have a nonempty node list")
    n_xi = m * (m - 1) // 2 + m
    sigma = _node_rows(nodes, "sigma", m)
    v = _node_rows(nodes, "v", d)
    carry = sum("xi" in node for node in nodes)
    if carry and carry != len(nodes):
        raise DomainError("either every node carries xi or none does")
    xi = _node_rows(nodes, "xi", n_xi) if carry else None
    return CompositeSection(sigma, v), xi


def gauge_transform_section(
    alg: ReductiveAlgebra,
    section: CompositeSection,
    xi: np.ndarray,
    eps: float,
    hrep: HRepresentation,
    order: int = DEFAULT_ORDER,
) -> CompositeSection:
    """One explicit Euler step of size eps of the node-wise generator field.

    Each node moves independently: sigma_i += eps dF(xi_i, sigma_i) and
    v_i += eps (dI^a G_a) v_i.  No information crosses between nodes.  This
    is the one-step case of :func:`flow_section`'s loop.  Non-finite xi, or
    an eps that is not a finite real number, raise DomainError before any
    work.
    """
    return _euler(alg, section, xi, eps, 1, hrep, order)


def flow_section(
    alg: ReductiveAlgebra,
    section: CompositeSection,
    xi: np.ndarray,
    t: float,
    steps: int,
    hrep: HRepresentation,
    order: int = DEFAULT_ORDER,
) -> CompositeSection:
    """Integrate the gauge field for time t with `steps` Euler steps.

    The generator coordinates xi stay attached to their nodes while the
    series is re-evaluated at each moved point, so the flow converges to
    the finite action of exp(t xi_i) at rate O(1/steps).  steps must be an
    integer >= 1 and t a finite real number, else DomainError.  Each step
    is bit for bit a :func:`gauge_transform_section` step of size t/steps.
    """
    steps = _check_int(steps, 1, "steps", DomainError)
    t = _check_real(t, "flow time t")
    return _euler(alg, section, xi, t / steps, steps, hrep, order)


def _euler(
    alg: ReductiveAlgebra,
    section: CompositeSection,
    xi,
    eps,
    steps: int,
    hrep: HRepresentation,
    order: int,
) -> CompositeSection:
    """`steps` Euler steps of size eps, on node-last buffers.

    The inputs are checked once.  xi is copied to the rows of one buffer and
    sigma and v to the rows of another, whose last index is the node; each
    step runs the series core and the compensator core on fixed blocks of
    _BLOCK nodes and updates sigma and v in place, so the temporaries are
    bounded by the block, and the copy of xi is freed before the output is
    built.  Every node takes a step before any node takes the next, and a
    step raises only once all its blocks are done, with the error the whole
    section would give: an overflowing ad_F^2 at the first such node, then
    an f actor past the series radius with the largest rho(ad_F) of the
    step, then a non-finite section (DimensionError).  A one-node tail block rides with
    a zero node, so every block is at least two nodes wide.
    """
    xi = _array(xi, "xi")
    nh, nf, n = alg.dim_h, alg.dim_f, section.n_nodes
    if xi.shape != (n, nh + nf):
        raise DimensionError(f"xi must have shape ({n}, {nh + nf}), got {xi.shape}")
    _check_finite(xi, "generator field xi has non-finite entries", DomainError)
    eps = _check_real(eps, "step eps")
    if section.m != nf:
        raise DimensionError(f"section has m={section.m} but the algebra has dim_f={nf}")
    if section.d != hrep.d:
        raise DimensionError(
            f"section vectors have d={section.d} but the representation has d={hrep.d}"
        )
    rows = _weights(order)
    _check_compensator(hrep, nh)
    width = n + (n % _BLOCK == 1)
    # rows xi_h, xi_f; the generator's copy is freed before the output is built
    gen = np.zeros((nh + nf, width))
    gen[:, :n] = xi.T
    # rows sigma, v: the state, which the steps update
    x = np.zeros((nf + hrep.d, width))
    np.concatenate((section.sigma.T, section.v.T), out=x[:, :n])
    # an overflowing update reads as a non-finite section below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            rho, finite = 0.0, True
            for lo in range(0, width, _BLOCK):
                hi = lo + _BLOCK
                block = x[:, lo:hi]
                sig, v = block[:nf], block[nf:]
                dF, dI, r = _series_core(alg, sig, gen[:nh, lo:hi], gen[nh:, lo:hi], rows)
                dv = _compensator_core(hrep, dI, v)
                dF *= eps
                sig += dF
                dv *= eps
                v += dv
                rho = max(rho, r)
                finite = finite and bool(np.isfinite(block).all())
            _check_radius(rho)
            if not finite:
                raise DimensionError("section has non-finite entries")
    del gen
    return CompositeSection(x[:nf, :n].T, x[nf:, :n].T)
