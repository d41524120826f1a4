"""Reductive split Lie algebras g = h (+) f and the boost-rotation family.

A :class:`ReductiveAlgebra` stores the three structure constant blocks of a
split with [h,h] in h, [f,f] in h and [f,h] in f:

    [H_a, H_b]     = c_hh[a,b,d] H_d
    [F_al, F_be]   = c_ff[al,be,d] H_d
    [F_al, H_b]    = c_fh[al,b,be] F_be

The so(1,m) family is built from the Clifford embedding F_k = gamma_k,
H_(i,k) = (1/4)[gamma_k, gamma_i] (pairs ordered lexicographically, i < k),
and :func:`defining_rep_so1m` provides (m+1)x(m+1) matrices with the same
structure constants for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .clifford import CliffordSpace, Multivector, commutator
from .errors import ClosureError, DimensionError, DomainError

__all__ = [
    "ReductiveAlgebra",
    "AlgebraElement",
    "CosetPoint",
    "bracket",
    "h_pairs",
    "generator_coords",
    "so1m_algebra",
    "defining_rep_so1m",
    "DefiningRep",
    "algebra_to_json_dict",
    "algebra_from_json_dict",
]

_JACOBI_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ReductiveAlgebra:
    """Structure constants of a reductive split, validated at construction."""

    c_hh: np.ndarray
    c_ff: np.ndarray
    c_fh: np.ndarray

    def __post_init__(self) -> None:
        for name in ("c_hh", "c_ff", "c_fh"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        nh = self.c_hh.shape[0]
        nf = self.c_ff.shape[0]
        if self.c_hh.shape != (nh, nh, nh):
            raise ClosureError(f"c_hh must be (h,h,h), got {self.c_hh.shape}")
        if self.c_ff.shape != (nf, nf, nh):
            raise ClosureError(f"c_ff must be (f,f,h), got {self.c_ff.shape}")
        if self.c_fh.shape != (nf, nh, nf):
            raise ClosureError(f"c_fh must be (f,h,f), got {self.c_fh.shape}")
        for name, arr in (("c_hh", self.c_hh), ("c_ff", self.c_ff), ("c_fh", self.c_fh)):
            if not np.all(np.isfinite(arr)):
                raise ClosureError(f"{name} has non-finite entries")
        anti_hh = np.abs(self.c_hh + np.swapaxes(self.c_hh, 0, 1)).max() if nh else 0.0
        anti_ff = np.abs(self.c_ff + np.swapaxes(self.c_ff, 0, 1)).max() if nf else 0.0
        if max(anti_hh, anti_ff) > _JACOBI_TOL:
            raise ClosureError("bracket tables are not antisymmetric")
        r = jacobi_residual(self)
        if r > _JACOBI_TOL:
            raise ClosureError(f"Jacobi identity violated: residual {r:.3e}")

    @property
    def dim_h(self) -> int:
        return self.c_hh.shape[0]

    @property
    def dim_f(self) -> int:
        return self.c_ff.shape[0]

    @property
    def dim(self) -> int:
        return self.dim_h + self.dim_f

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, np.zeros(self.dim_h), np.zeros(self.dim_f))

    def h_basis(self, a: int) -> "AlgebraElement":
        h = np.zeros(self.dim_h)
        h[a] = 1.0
        return AlgebraElement(self, h, np.zeros(self.dim_f))

    def f_basis(self, al: int) -> "AlgebraElement":
        f = np.zeros(self.dim_f)
        f[al] = 1.0
        return AlgebraElement(self, np.zeros(self.dim_h), f)

    def element(self, h=None, f=None) -> "AlgebraElement":
        hv = np.zeros(self.dim_h) if h is None else np.asarray(h, dtype=float)
        fv = np.zeros(self.dim_f) if f is None else np.asarray(f, dtype=float)
        return AlgebraElement(self, hv, fv)


def _total_structure(alg: ReductiveAlgebra) -> np.ndarray:
    """Full structure tensor on the basis [H_1..H_nh, F_1..F_nf]."""
    nh, nf = alg.dim_h, alg.dim_f
    n = nh + nf
    C = np.zeros((n, n, n))
    C[:nh, :nh, :nh] = alg.c_hh
    C[nh:, nh:, :nh] = alg.c_ff
    C[nh:, :nh, nh:] = alg.c_fh
    C[:nh, nh:, nh:] = -np.swapaxes(alg.c_fh, 0, 1)
    return C


def jacobi_residual(alg: ReductiveAlgebra) -> float:
    """Max abs of [[x,y],z] + [[y,z],x] + [[z,x],y] over all basis triples."""
    C = _total_structure(alg)
    t = np.tensordot(C, C, axes=1)
    jac = t + np.transpose(t, (1, 2, 0, 3)) + np.transpose(t, (2, 0, 1, 3))
    return float(np.abs(jac).max()) if jac.size else 0.0


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Element x = h^a H_a + f^al F_al of a reductive algebra."""

    algebra: ReductiveAlgebra
    h: np.ndarray
    f: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=float)
        f = np.asarray(self.f, dtype=float)
        if h.shape != (self.algebra.dim_h,) or f.shape != (self.algebra.dim_f,):
            raise DimensionError(
                f"element needs shapes ({self.algebra.dim_h},), ({self.algebra.dim_f},)"
            )
        h.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "f", f)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_algebra(self, other)
        return AlgebraElement(self.algebra, self.h + other.h, self.f + other.f)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_algebra(self, other)
        return AlgebraElement(self.algebra, self.h - other.h, self.f - other.f)

    def __rmul__(self, a: float) -> "AlgebraElement":
        return AlgebraElement(self.algebra, float(a) * self.h, float(a) * self.f)

    def __neg__(self) -> "AlgebraElement":
        return (-1.0) * self

    def max_abs(self) -> float:
        parts = [abs(self.h).max() if self.h.size else 0.0,
                 abs(self.f).max() if self.f.size else 0.0]
        return max(parts)


def _same_algebra(x: AlgebraElement, y: AlgebraElement) -> None:
    if x.algebra is not y.algebra:
        raise DimensionError("elements belong to different algebras")


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Lie bracket routed through the three structure constant blocks."""
    _same_algebra(x, y)
    a = x.algebra
    h = np.einsum("abd,a,b->d", a.c_hh, x.h, y.h)
    h += np.einsum("abd,a,b->d", a.c_ff, x.f, y.f)
    f = np.einsum("abd,a,b->d", a.c_fh, x.f, y.h)
    f -= np.einsum("abd,a,b->d", a.c_fh, y.f, x.h)
    return AlgebraElement(a, h, f)


# ---------------------------------------------------------------------------
# coset coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CosetPoint:
    """Coordinates sigma of the coset representative exp(sigma^al F_al)."""

    sigma: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.sigma, dtype=float)
        if s.ndim != 1:
            raise DimensionError(f"sigma must be a vector, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise DimensionError("sigma has non-finite entries")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "sigma", s)

    @property
    def m(self) -> int:
        return self.sigma.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.sigma))


# ---------------------------------------------------------------------------
# the so(1,m) family
# ---------------------------------------------------------------------------

def h_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """Rotation-plane labels (i,k), i < k, in lexicographic order (1-based)."""
    return tuple((i, k) for i in range(1, m + 1) for k in range(i + 1, m + 1))


def generator_coords(m: int, boost=None, rotations=()) -> tuple[np.ndarray, np.ndarray]:
    """(h, f) coordinates of so(1,m) from a boost vector and plane angles.

    `boost` is a length-m coordinate vector (None for no boost); `rotations`
    is a sequence of (i, k, theta) with 1 <= i < k <= m, and angles on a
    repeated plane add up.  Every entry must be finite.
    """
    if m < 2:
        raise DimensionError(f"need m >= 2, got {m}")
    f = np.zeros(m)
    if boost is not None:
        try:
            f = np.asarray(boost, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"boost must be a numeric vector: {exc}") from exc
        if f.shape != (m,):
            raise DimensionError(f"boost must have {m} entries, got shape {f.shape}")
        if not np.all(np.isfinite(f)):
            raise DomainError("boost entries must be finite")
    try:
        entries = list(rotations)
    except TypeError as exc:
        raise DomainError(f"rotations must be a sequence of (i, k, theta), got {rotations!r}") from exc
    index = {pr: a for a, pr in enumerate(h_pairs(m))}
    h = np.zeros(len(index))
    for entry in entries:
        try:
            i, k, theta = entry
            i, k, theta = int(i), int(k), float(theta)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"rotation entries must be (i, k, theta), got {entry!r}") from exc
        if (i, k) not in index:
            raise DomainError(f"no rotation plane ({i}, {k}) for m={m}")
        if not np.isfinite(theta):
            raise DomainError("rotation angle must be finite")
        h[index[(i, k)]] += theta
    return h, f


def _so1m_basis(m: int) -> tuple[list[Multivector], list[Multivector]]:
    sp = CliffordSpace(m)
    gammas = [Multivector.blade(sp, (k,)) for k in range(1, m + 1)]
    f_basis = gammas
    h_basis = [
        0.25 * commutator(gammas[k - 1], gammas[i - 1]) for (i, k) in h_pairs(m)
    ]
    return h_basis, f_basis


def _blade_index(basis: list[Multivector]) -> dict:
    """blade -> (index, coefficient) for a basis of single-blade multivectors."""
    return {t: (j, v) for j, b in enumerate(basis) for t, v in b.items()}


def _expand(mv: Multivector, index: dict) -> np.ndarray:
    """Coordinates of mv in the basis that `index` (from _blade_index) describes."""
    out = np.zeros(len(index))
    for t, c in mv.items():
        if t in index:
            j, v = index[t]
            out[j] = c / v
        elif abs(c) > 1e-12:
            raise ClosureError(f"element does not close on the expected span: {mv!r}")
    return out


@lru_cache(maxsize=None)
def so1m_algebra(m: int) -> ReductiveAlgebra:
    """so(1,m) with boosts F_k = gamma_k and rotations H_(i,k) = (1/4)[gamma_k, gamma_i].

    All structure constants are computed from Clifford commutators of the
    embedded generators; closure on the right grades is enforced.  With this
    normalization [F_i, F_k] = -4 H_(i,k) and [F_j, H_(i,k)] = d_jk F_i - d_ji F_k.
    """
    if m < 2:
        raise DimensionError(f"need m >= 2 for a nontrivial rotation part, got {m}")
    hb, fb = _so1m_basis(m)
    h_index, f_index = _blade_index(hb), _blade_index(fb)

    def table(left, right, index) -> np.ndarray:
        return np.array([[_expand(commutator(x, y), index) for y in right] for x in left])

    return ReductiveAlgebra(table(hb, hb, h_index), table(fb, fb, h_index), table(fb, hb, f_index))


@dataclass(frozen=True, eq=False)
class DefiningRep:
    """(m+1)x(m+1) matrices of so(1,m) preserving eta = diag(+1, -1, ..., -1)."""

    m: int
    h_gens: np.ndarray
    f_gens: np.ndarray
    eta: np.ndarray

    def matrix(self, x: AlgebraElement) -> np.ndarray:
        return np.tensordot(x.h, self.h_gens, axes=1) + np.tensordot(x.f, self.f_gens, axes=1)


@lru_cache(maxsize=None)
def defining_rep_so1m(m: int) -> DefiningRep:
    """Defining representation matching the Clifford structure constants.

    The boost normalization follows the embedding F_k = gamma_k, which doubles
    the usual generator: rep(F_k) = 2 (E_0k + E_k0), so exp(s rep(F_1)) is a
    boost of rapidity 2s.  Rotations are rep(H_(i,k)) = E_ki - E_ik.
    """
    pairs = h_pairs(m)
    h_gens = np.zeros((len(pairs), m + 1, m + 1))
    for a, (i, k) in enumerate(pairs):
        h_gens[a, k, i] = 1.0
        h_gens[a, i, k] = -1.0
    f_gens = np.zeros((m, m + 1, m + 1))
    for k in range(1, m + 1):
        f_gens[k - 1, 0, k] = 2.0
        f_gens[k - 1, k, 0] = 2.0
    eta = np.diag([1.0] + [-1.0] * m)
    for arr in (h_gens, f_gens, eta):
        arr.setflags(write=False)
    return DefiningRep(m, h_gens, f_gens, eta)


# ---------------------------------------------------------------------------
# JSON interchange for user-supplied algebras
# ---------------------------------------------------------------------------

def algebra_to_json_dict(alg: ReductiveAlgebra) -> dict:
    return {
        "dim_h": alg.dim_h,
        "dim_f": alg.dim_f,
        "c_hh": alg.c_hh.tolist(),
        "c_ff": alg.c_ff.tolist(),
        "c_fh": alg.c_fh.tolist(),
    }


def algebra_from_json_dict(data) -> ReductiveAlgebra:
    try:
        nh = int(data["dim_h"])
        nf = int(data["dim_f"])
        c_hh = np.asarray(data["c_hh"], dtype=float)
        c_ff = np.asarray(data["c_ff"], dtype=float)
        c_fh = np.asarray(data["c_fh"], dtype=float)
    except (KeyError, TypeError, ValueError) as e:
        raise ClosureError(f"invalid algebra JSON: {e}") from None
    if c_hh.shape != (nh, nh, nh) or c_ff.shape != (nf, nf, nh) or c_fh.shape != (nf, nh, nf):
        raise ClosureError(
            "algebra JSON shapes do not match dim_h/dim_f: "
            f"{c_hh.shape}, {c_ff.shape}, {c_fh.shape}"
        )
    return ReductiveAlgebra(c_hh, c_ff, c_fh)
