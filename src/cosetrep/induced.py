"""Finite coset transformations and the induced action on attached vectors.

A proper orthochronous (m+1)x(m+1) matrix g acting on the coset point
exp(sigma^al F_al) factors uniquely as a boost along the image of e_0 times a
spatial rotation:

    g exp(sigma . F) = exp(sigma' . F) R,   R = diag(1, rho), rho in SO(m).

:func:`factor_boost_rotation` computes the pair (sigma', rho).  A vector v in
any representation of the stabilizer is carried along by rho through the
representation's exponential; :func:`induced_action` packages the whole move.
Differentiating that map at the identity reproduces the bracket series of
:mod:`cosetrep.series`, which the verify suite checks by finite differences.

Sections (arrays of coset points with one attached vector each) and their
gauge flow under a node-wise generator field live at the bottom of the module;
the flow is vertical, acting on every node independently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm, schur

from .clifford import CliffordSpace, matrix_rep
from .errors import (
    BranchError,
    ClosureError,
    DimensionError,
    DomainError,
    OrthochronousError,
)
from .lie import (
    CosetPoint,
    ReductiveAlgebra,
    defining_rep_so1m,
    generator_coords,
    h_pairs,
    so1m_algebra,
)
from .series import DEFAULT_ORDER, _series, _weights, realize

__all__ = [
    "HRepresentation",
    "vector_hrep",
    "spinor_hrep",
    "boost_matrix",
    "rotation_embed",
    "exp_coset",
    "check_proper_orthochronous",
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


# ---------------------------------------------------------------------------
# stabilizer representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HRepresentation:
    """Matrices G_a for the stabilizer generators of a reductive algebra.

    Construction verifies [G_a, G_b] = c_hh[a,b,c] G_c to 1e-10, so any
    instance exponentiates consistently with the algebra it names.
    """

    algebra: ReductiveAlgebra
    generators: np.ndarray

    def __post_init__(self) -> None:
        gens = np.asarray(self.generators, dtype=float)
        nh = self.algebra.dim_h
        if gens.ndim != 3 or gens.shape[0] != nh or gens.shape[1] != gens.shape[2]:
            raise DimensionError(
                f"expected generator stack of shape ({nh}, d, d), got {gens.shape}"
            )
        # one generator against the whole stack at a time: batching both
        # indices would hold dim_h^2 products of size d x d at once
        worst = 0.0
        for a in range(nh):
            lhs = gens[a] @ gens - gens @ gens[a]
            rhs = np.tensordot(self.algebra.c_hh[a], gens, axes=1)
            worst = max(worst, float(abs(lhs - rhs).max()))
        if worst > _TOL:
            raise ClosureError(
                f"generators do not satisfy the stabilizer brackets (residual {worst:.3e})"
            )
        gens = gens.copy()
        gens.setflags(write=False)
        object.__setattr__(self, "generators", gens)

    @property
    def d(self) -> int:
        return int(self.generators.shape[-1])

    def matrix(self, h_coords) -> np.ndarray:
        """Sum h^a G_a."""
        h = np.asarray(h_coords, dtype=float)
        if h.shape != (self.algebra.dim_h,):
            raise DimensionError(f"expected {self.algebra.dim_h} coordinates, got {h.shape}")
        return np.tensordot(h, self.generators, axes=1)

    def exp(self, h_coords) -> np.ndarray:
        """exp(sum h^a G_a)."""
        return expm(self.matrix(h_coords))


@lru_cache(maxsize=None)
def vector_hrep(m: int) -> HRepresentation:
    """SO(m) acting on R^m: the spatial blocks E_ki - E_ik of the defining rep."""
    return HRepresentation(so1m_algebra(m), defining_rep_so1m(m).h_gens[:, 1:, 1:])


@lru_cache(maxsize=None)
def spinor_hrep(m: int) -> HRepresentation:
    """SO(m) on the spinor space of Cl(m): generators (1/4)[gamma_k, gamma_i]."""
    alg = so1m_algebra(m)
    gammas = matrix_rep(CliffordSpace(m))
    pairs = h_pairs(m)
    d = gammas[0].shape[0]
    gens = np.zeros((len(pairs), d, d))
    for a, (i, k) in enumerate(pairs):
        gk, gi = gammas[k - 1], gammas[i - 1]
        gens[a] = 0.25 * (gk @ gi - gi @ gk)
    return HRepresentation(alg, gens)


# ---------------------------------------------------------------------------
# finite matrices
# ---------------------------------------------------------------------------

def boost_matrix(m: int, zeta: float, axis) -> np.ndarray:
    """Pure boost of rapidity zeta along a unit spatial direction.

    Entries: top-left cosh(zeta), first row/column sinh(zeta) n_k, spatial
    block d_jk + (cosh(zeta) - 1) n_j n_k.
    """
    n = np.asarray(axis, dtype=float)
    if n.shape != (m,):
        raise DimensionError(f"axis must have shape ({m},), got {n.shape}")
    norm = np.linalg.norm(n)
    if not math.isclose(norm, 1.0, rel_tol=0.0, abs_tol=1e-12):
        if norm == 0.0:
            raise DomainError("boost axis must be nonzero")
        n = n / norm
    g = np.eye(m + 1)
    ch, sh = math.cosh(zeta), math.sinh(zeta)
    g[0, 0] = ch
    g[0, 1:] = sh * n
    g[1:, 0] = sh * n
    g[1:, 1:] += (ch - 1.0) * np.outer(n, n)
    return g


def _check_rotation(rho) -> np.ndarray:
    """rho as a float array, validated as an element of SO(m) to 1e-10."""
    r = np.asarray(rho, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise DimensionError(f"rho must be square, got shape {r.shape}")
    if abs(r.T @ r - np.eye(r.shape[0])).max() > _TOL:
        raise DomainError("rho is not orthogonal")
    if np.linalg.det(r) < 0.0:
        raise DomainError("rho reverses orientation")
    return r


def _embed(r: np.ndarray) -> np.ndarray:
    g = np.eye(r.shape[0] + 1)
    g[1:, 1:] = r
    return g


def rotation_embed(m: int, rho) -> np.ndarray:
    """diag(1, rho) with rho in SO(m), validated to 1e-10."""
    r = _check_rotation(rho)
    if r.shape != (m, m):
        raise DimensionError(f"rho must have shape ({m}, {m}), got {r.shape}")
    return _embed(r)


def exp_coset(point: CosetPoint) -> np.ndarray:
    """exp(sigma^al F_al) in the defining representation.

    With rep(F_k) = 2 (E_0k + E_k0) this is a boost of rapidity 2 |sigma|
    along sigma, evaluated in closed form.
    """
    s = point.norm
    if s == 0.0:
        return np.eye(point.m + 1)
    return boost_matrix(point.m, 2.0 * s, point.sigma / s)


def check_proper_orthochronous(g: np.ndarray) -> int:
    """Validate g as a proper orthochronous transformation; return m.

    Raises DimensionError for a bad shape, DomainError when g does not
    preserve the form diag(+1, -1, ..., -1), and OrthochronousError when it
    reverses time or orientation.  The form is compared entrywise against
    1e-10 max(1, (|g|^T |g|)_ij), the first-order rounding bound of the
    product g^T eta g, so the tolerance grows with the entries of a large
    boost while an error in a small entry is still caught.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 2:
        raise DimensionError(f"expected a square matrix of size >= 2, got shape {g.shape}")
    m = g.shape[0] - 1
    eta = np.diag([1.0] + [-1.0] * m)
    a = np.abs(g)
    if not np.all(abs(g.T @ eta @ g - eta) <= _TOL * np.maximum(1.0, a.T @ a)):
        raise DomainError("matrix does not preserve the indefinite form")
    if g[0, 0] < 0.0:
        raise OrthochronousError("transformation reverses time orientation")
    if np.linalg.det(g) < 0.0:
        raise OrthochronousError("transformation reverses spatial orientation")
    return m


@dataclass(frozen=True, eq=False)
class FactoredPair:
    """Result of splitting g into a coset representative and a rotation."""

    f_prime: CosetPoint
    rho: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.rho, dtype=float).copy()
        r.setflags(write=False)
        object.__setattr__(self, "rho", r)


def _split(g: np.ndarray) -> FactoredPair:
    """exp(sigma' . F) diag(1, rho) = g, read off g's first column and row.

    With u = g e_0 = (cosh zeta, sinh zeta n), sigma' = zeta n / 2 and
    rho = g[1:, 1:] - u_s (x) g[0, 1:] / (1 + u_0); no product with the
    inverse boost is formed, so rho's rounding stays near eps cosh(zeta).
    """
    u = g[:, 0]
    p = float(np.linalg.norm(u[1:]))
    sigma = np.zeros(g.shape[0] - 1) if p == 0.0 else 0.5 * math.asinh(p) * (u[1:] / p)
    rho = g[1:, 1:] - np.outer(u[1:], g[0, 1:] / (1.0 + u[0]))
    return FactoredPair(CosetPoint(sigma), rho)


def factor_boost_rotation(g: np.ndarray) -> FactoredPair:
    """Split a proper orthochronous g as exp(sigma' . F) diag(1, rho).

    sigma' points along the spatial part of g e_0 with |sigma'| = zeta / 2
    where cosh(zeta) = (g e_0)^0; the factor 1/2 matches the doubled boost
    normalization of the generators.
    """
    g = np.asarray(g, dtype=float)
    check_proper_orthochronous(g)
    return _split(g)


def reconstruct(pair: FactoredPair) -> np.ndarray:
    """exp(sigma' . F) diag(1, rho), the matrix the pair factors.

    rho is not checked again: a split's rho is orthogonal only to about
    eps cosh(zeta), which the absolute 1e-10 of rotation_embed rejects from
    rapidity about 14.
    """
    return exp_coset(pair.f_prime) @ _embed(pair.rho)


def rotation_log_coords(rho: np.ndarray) -> np.ndarray:
    """Plane-angle coordinates theta_a with exp(theta^a (E_ki - E_ik)) = rho.

    Uses the real Schur form to read one angle per invariant plane.  Angles
    live on the principal branch; a plane rotated by exactly pi has no
    preferred sign, so BranchError is raised there.
    """
    return _log_coords(_check_rotation(rho))


def _log_coords(r: np.ndarray) -> np.ndarray:
    """rotation_log_coords without the orthogonality check on rho."""
    m = r.shape[0]
    if m == 1:
        return np.zeros(0)
    t, q = schur(r, output="real")
    log_block = np.zeros((m, m))
    i = 0
    while i < m:
        if i + 1 < m and abs(t[i + 1, i]) > 1e-12:
            theta = math.atan2(t[i + 1, i], t[i, i])
            log_block[i, i + 1] = -theta
            log_block[i + 1, i] = theta
            i += 2
        else:
            if t[i, i] < 0.0:
                raise BranchError("rotation by pi has no principal-branch logarithm")
            i += 1
    w = q @ log_block @ q.T
    i, k = np.array(h_pairs(m)).T
    return w[k - 1, i - 1]


# ---------------------------------------------------------------------------
# the induced action
# ---------------------------------------------------------------------------

def induced_action(
    g: np.ndarray,
    point: CosetPoint,
    v: np.ndarray,
    hrep: HRepresentation,
) -> tuple[CosetPoint, np.ndarray]:
    """Move a coset point and its attached vector by a finite transformation.

    Factors g exp(sigma . F) into the new representative and a rotation, then
    applies the rotation to v through hrep's exponential of the plane-angle
    coordinates.  Returns (new point, new vector).
    """
    g = np.asarray(g, dtype=float)
    m = check_proper_orthochronous(g)
    if m != point.m:
        raise DimensionError(f"matrix acts on m={m} but the point has m={point.m}")
    v = np.asarray(v, dtype=float)
    if v.shape != (hrep.d,):
        raise DimensionError(f"vector must have shape ({hrep.d},), got {v.shape}")
    pair = _split(g @ exp_coset(point))
    # the split's rho is orthogonal to about eps cosh(zeta): not re-checked
    return pair.f_prime, hrep.exp(_log_coords(pair.rho)) @ v


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
    v = np.asarray(v, dtype=float)
    if v.shape != (hrep.d,):
        raise DimensionError(f"vector must have shape ({hrep.d},), got {v.shape}")
    return act.dF, hrep.matrix(act.dI) @ v


def group_from_spec(m: int, boost=None, rotations=()) -> np.ndarray:
    """Build exp(boost . F) * exp(sum theta H_(i,k)) in the defining matrices.

    `boost` is a length-m coordinate vector (may be None for no boost);
    `rotations` is a sequence of (i, k, theta) plane angles with
    1 <= i < k <= m.  The inputs are parsed by :func:`generator_coords`.
    """
    h, f = generator_coords(m, boost, rotations)
    rotation = expm(np.tensordot(h, defining_rep_so1m(m).h_gens, axes=1))
    return exp_coset(CosetPoint(f)) @ rotation


# ---------------------------------------------------------------------------
# sections and their gauge flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CompositeSection:
    """N coset points with one attached vector each: sigma (N, m), v (N, d)."""

    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.sigma, dtype=float)
        w = np.asarray(self.v, dtype=float)
        if s.ndim != 2 or w.ndim != 2:
            raise DimensionError(
                f"sigma and v must be 2-D, got shapes {s.shape} and {w.shape}"
            )
        if s.shape[0] != w.shape[0]:
            raise DimensionError(
                f"node counts differ: {s.shape[0]} points, {w.shape[0]} vectors"
            )
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(w))):
            raise DimensionError("section has non-finite entries")
        s, w = s.copy(), w.copy()
        s.setflags(write=False)
        w.setflags(write=False)
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

    When xi is given it must be an (N, dim_h + dim_f) array of generator
    coordinates, stabilizer part first, stored per node.
    """
    nodes = []
    for i in range(section.n_nodes):
        node = {"sigma": section.sigma[i].tolist(), "v": section.v[i].tolist()}
        if xi is not None:
            node["xi"] = np.asarray(xi[i], dtype=float).tolist()
        nodes.append(node)
    return {"m": section.m, "d": section.d, "nodes": nodes}


def section_from_json_dict(data) -> tuple[CompositeSection, np.ndarray | None]:
    """Parse a section document; returns (section, xi or None).

    All nodes must agree on sizes; when "xi" appears it must appear on every
    node with dim_h + dim_f entries for so(1,m), stabilizer part first.
    """
    try:
        m, d, nodes = data["m"], data["d"], data["nodes"]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"section document needs keys m, d, nodes: {exc}") from exc
    if any(isinstance(n, bool) or not isinstance(n, numbers.Integral) for n in (m, d)):
        raise DomainError(f"section m and d must be integers, got {m!r} and {d!r}")
    if m < 1 or d < 1 or not isinstance(nodes, list) or not nodes:
        raise DomainError("section document must have m >= 1, d >= 1 and a nonempty node list")
    n_xi = m * (m - 1) // 2 + m
    sigma = np.zeros((len(nodes), m))
    v = np.zeros((len(nodes), d))
    xis = []
    for idx, node in enumerate(nodes):
        try:
            s = np.asarray(node["sigma"], dtype=float)
            w = np.asarray(node["v"], dtype=float)
            x = np.asarray(node["xi"], dtype=float) if "xi" in node else None
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"node {idx} needs numeric sigma, v and xi: {exc}") from exc
        if s.shape != (m,):
            raise DomainError(f"node {idx}: sigma must have {m} entries, got shape {s.shape}")
        if w.shape != (d,):
            raise DomainError(f"node {idx}: v must have {d} entries, got shape {w.shape}")
        sigma[idx] = s
        v[idx] = w
        if x is not None:
            if x.shape != (n_xi,):
                raise DomainError(
                    f"node {idx}: xi must have {n_xi} entries (stabilizer first), got shape {x.shape}"
                )
            xis.append(x)
    if xis and len(xis) != len(nodes):
        raise DomainError("either every node carries xi or none does")
    xi = np.array(xis) if xis else None
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
    v_i += eps (dI^a G_a) v_i.  No information crosses between nodes; the
    whole section goes through the bracket series in one batched call.
    """
    xi = np.asarray(xi, dtype=float)
    n_xi = alg.dim_h + alg.dim_f
    if xi.shape != (section.n_nodes, n_xi):
        raise DimensionError(
            f"xi must have shape ({section.n_nodes}, {n_xi}), got {xi.shape}"
        )
    if section.m != alg.dim_f:
        raise DimensionError(
            f"section has m={section.m} but the algebra has dim_f={alg.dim_f}"
        )
    if section.d != hrep.d:
        raise DimensionError(
            f"section vectors have d={section.d} but the representation has d={hrep.d}"
        )
    dF, dI = _series(
        alg, section.sigma, xi[:, : alg.dim_h], xi[:, alg.dim_h :], _weights(order)
    )
    dv = (np.tensordot(dI, hrep.generators, 1) @ section.v[:, :, None])[:, :, 0]
    return CompositeSection(section.sigma + eps * dF, section.v + eps * dv)


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
    the finite action of exp(t xi_i) at rate O(1/steps).
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    eps = t / steps
    out = section
    for _ in range(steps):
        out = gauge_transform_section(alg, out, xi, eps, hrep, order)
    return out
