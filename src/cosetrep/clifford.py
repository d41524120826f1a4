"""Euclidean Clifford algebra Cl(m) on an exact blade basis.

Generators gamma_1 .. gamma_m satisfy

    gamma_i gamma_k + gamma_k gamma_i = 2 delta_ik,

i.e. every generator squares to +1.  A multivector is stored sparsely as a
map from a strictly increasing index tuple (the blade gamma_{i1}...gamma_{ik},
i1 < ... < ik) to its real coefficient.  The empty tuple is the scalar blade.

The matrix representation returned by :func:`matrix_rep` is an independent
check on the symbolic product: it is built from fixed 2x2 seeds by tensor
doubling, never from :func:`blade_product`.

Everything that depends on m or on a blade pair alone is built once per
process: the grade-lex blade tuple, the product of two blades (a bounded
cache holding every pair for m <= 6) and the stacked blade images of the
matrix representation.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DimensionError, DomainError

__all__ = [
    "CliffordSpace",
    "Multivector",
    "blade_product",
    "commutator",
    "matrix_rep",
    "multivector_matrix",
    "exp_vector",
]

Blade = tuple[int, ...]

# below this norm the sinh(s)/s factor of exp_vector switches to its Taylor
# polynomial; the degree-4 truncation is exact to well under 1e-12 there
_SMALL_NORM = 1e-6
# largest |sigma| of exp_vector: cosh and sinh overflow just past 710.47
_MAX_NORM = 710.0


@dataclass(frozen=True)
class CliffordSpace:
    """The algebra Cl(m) over R^m with a positive definite form."""

    m: int

    def __post_init__(self) -> None:
        if isinstance(self.m, bool) or not isinstance(self.m, numbers.Integral):
            raise DimensionError(f"m must be an integer, got {self.m!r}")
        if self.m < 1:
            raise DimensionError(f"need m >= 1, got {self.m}")

    @property
    def dim(self) -> int:
        """Number of basis blades, 2**m."""
        return 2**self.m

    def blades(self) -> Iterator[Blade]:
        """All index tuples, ordered by grade then lexicographically."""
        return iter(_blade_tuple(self.m))

    def check_blade(self, idx: Iterable[int]) -> Blade:
        t = tuple(idx)
        if list(t) != sorted(set(t)):
            raise DimensionError(f"blade indices must be strictly increasing: {t}")
        if t and (t[0] < 1 or t[-1] > self.m):
            raise DimensionError(f"blade indices must lie in 1..{self.m}: {t}")
        return t


@lru_cache(maxsize=None)
def _blade_tuple(m: int) -> tuple[Blade, ...]:
    return tuple(
        t for r in range(m + 1) for t in itertools.combinations(range(1, m + 1), r)
    )


@lru_cache(maxsize=4096)
def _mul_blades(ea: Blade, eb: Blade) -> tuple[Blade, int]:
    """Product of two basis blades: resulting blade and sign.

    Indices of eb are merged into ea one at a time; each transposition past a
    larger index flips the sign, and a repeated index contracts to +1.  The
    cache holds every pair of blades of Cl(6) (64 * 64 = 4096 entries).
    """
    sign = 1
    out = list(ea)
    for x in eb:
        pos = len(out)
        while pos > 0 and out[pos - 1] > x:
            pos -= 1
        if (len(out) - pos) % 2:
            sign = -sign
        if pos > 0 and out[pos - 1] == x:
            out.pop(pos - 1)
        else:
            out.insert(pos, x)
    return tuple(out), sign


class Multivector:
    """Sparse real multivector of Cl(m).

    Parameters
    ----------
    space : CliffordSpace
    coeffs : mapping from index tuple to float, optional
        Entries with coefficient exactly 0.0 are dropped; a non-finite
        coefficient raises DomainError.
    """

    __slots__ = ("space", "_c")

    def __init__(self, space: CliffordSpace, coeffs: Mapping[Blade, float] | None = None):
        self.space = space
        c: dict[Blade, float] = {}
        if coeffs:
            for idx, val in coeffs.items():
                t = space.check_blade(idx)
                v = float(val)
                if not math.isfinite(v):
                    raise DomainError(f"coefficient of blade {t} is not finite: {v}")
                if v != 0.0:
                    c[t] = c.get(t, 0.0) + v
                    if c[t] == 0.0:
                        del c[t]
        self._c = c

    # ------------------------------------------------------------- factories
    @classmethod
    def scalar(cls, space: CliffordSpace, a: float) -> "Multivector":
        return cls(space, {(): a})

    @classmethod
    def vector(cls, space: CliffordSpace, sigma) -> "Multivector":
        """The grade-1 element sigma^k gamma_k."""
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (space.m,):
            raise DimensionError(f"vector needs length {space.m}, got {sigma.shape}")
        return cls(space, {(k,): sigma[k - 1] for k in range(1, space.m + 1)})

    @classmethod
    def blade(cls, space: CliffordSpace, idx: Iterable[int], coeff: float = 1.0) -> "Multivector":
        return cls(space, {tuple(idx): coeff})

    # ------------------------------------------------------------- inspection
    def coeff(self, idx: Iterable[int]) -> float:
        return self._c.get(self.space.check_blade(idx), 0.0)

    def items(self) -> Iterator[tuple[Blade, float]]:
        yield from sorted(self._c.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def grade(self, k: int) -> "Multivector":
        return Multivector(self.space, {t: v for t, v in self._c.items() if len(t) == k})

    def grades(self) -> set[int]:
        return {len(t) for t in self._c}

    def vector_part(self) -> np.ndarray:
        out = np.zeros(self.space.m)
        for k in range(1, self.space.m + 1):
            out[k - 1] = self._c.get((k,), 0.0)
        return out

    def max_abs(self) -> float:
        return max((abs(v) for v in self._c.values()), default=0.0)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __repr__(self) -> str:
        if not self._c:
            return "Multivector(0)"
        parts = [f"{v:+g}*e{''.join(map(str, t)) if t else '0'}" for t, v in self.items()]
        return f"Multivector({' '.join(parts)})"

    # ------------------------------------------------------------- arithmetic
    def _merge(self, other: "Multivector", s: float) -> "Multivector":
        if other.space != self.space:
            raise DimensionError("multivectors live in different spaces")
        c = dict(self._c)
        for t, v in other._c.items():
            c[t] = c.get(t, 0.0) + s * v
            if c[t] == 0.0:
                del c[t]
        if not math.isfinite(sum(c.values())):
            _raise_non_finite(c)
        out = Multivector(self.space)
        out._c.update(c)
        return out

    def __add__(self, other: "Multivector") -> "Multivector":
        return self._merge(other, 1.0)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self._merge(other, -1.0)

    def __neg__(self) -> "Multivector":
        return self.scale(-1.0)

    def scale(self, a: float) -> "Multivector":
        a = float(a)
        if not math.isfinite(a):
            raise DomainError(f"scale factor is not finite: {a}")
        out = Multivector(self.space)
        if a != 0.0:
            c = {t: a * v for t, v in self._c.items()}
            if not math.isfinite(sum(c.values())):
                _raise_non_finite(c)
            out._c.update(c)
        return out

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return blade_product(self, other)
        return self.scale(float(other))

    def __rmul__(self, other):
        return self.scale(float(other))


def blade_product(a: Multivector, b: Multivector) -> Multivector:
    """Geometric product of two multivectors of the same space."""
    if a.space != b.space:
        raise DimensionError("multivectors live in different spaces")
    c: dict[Blade, float] = {}
    for ta, va in a._c.items():
        for tb, vb in b._c.items():
            t, s = _mul_blades(ta, tb)
            c[t] = c.get(t, 0.0) + s * va * vb
    if not math.isfinite(sum(c.values())):
        _raise_non_finite(c)
    out = Multivector(a.space)
    out._c.update({t: v for t, v in c.items() if v != 0.0})
    return out


def _raise_non_finite(c: dict[Blade, float]) -> None:
    """Raise DomainError for the first non-finite coefficient of c.

    Arithmetic calls this only when the sum of c's values is not finite,
    which every NaN or overflowed value makes it; the sum of finite values
    can overflow too, and then nothing is raised.
    """
    for t, v in c.items():
        if not math.isfinite(v):
            raise DomainError(f"coefficient of blade {t} is not finite: {v}")


def commutator(a: Multivector, b: Multivector) -> Multivector:
    """[a, b] = a*b - b*a."""
    return blade_product(a, b) - blade_product(b, a)


# ---------------------------------------------------------------------------
# matrix representation (independent product oracle)
# ---------------------------------------------------------------------------

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


@lru_cache(maxsize=None)
def _gamma_family(m: int) -> tuple[np.ndarray, ...]:
    if m == 1:
        fam = [_SZ]
    elif m == 2:
        fam = [_SX, _SZ]
    else:
        prev = _gamma_family(m - 1)
        n = prev[0].shape[0]
        fam = [np.kron(_SX, g) for g in prev]
        fam.append(np.kron(_SZ, np.eye(n)))
    for g in fam:
        g.setflags(write=False)
    return tuple(fam)


def matrix_rep(space: CliffordSpace) -> tuple[np.ndarray, ...]:
    """Real faithful generator matrices with entries in {0, -1, +1}.

    Sizes are 2 for m <= 2 and 2**(m-1) for larger m; a representation of Cl(m)
    with all generators squaring to +1 cannot be smaller over the reals once
    m >= 4, and these sizes keep it faithful for every m (checked by the rank
    of the blade images in the test suite).

    Returns
    -------
    tuple of (d, d) ndarrays, read-only
        matrices G_1 .. G_m with G_i G_k + G_k G_i = 2 delta_ik exactly.
    """
    return _gamma_family(space.m)


@lru_cache(maxsize=None)
def _blade_images(m: int) -> tuple[dict[Blade, int], np.ndarray]:
    """Row of each blade in the stack, and the stack of blade images (2^m, d*d)."""
    fam = _gamma_family(m)
    n = fam[0].shape[0]
    blades = _blade_tuple(m)
    stack = np.empty((len(blades), n * n))
    for row, t in enumerate(blades):
        P = np.eye(n)
        for i in t:
            P = P @ fam[i - 1]
        stack[row] = P.ravel()
    stack.setflags(write=False)
    return {t: row for row, t in enumerate(blades)}, stack


def multivector_matrix(a) -> np.ndarray:
    """Image of a multivector under the matrix representation, or the stack
    of images (n, d, d) of a non-empty sequence of multivectors of one space.

    The images are one GEMM of dense coefficient rows against the stacked
    blade images.  Every blade image is a signed permutation matrix and no
    matrix entry is shared by more than two blades, so each entry is a sum of
    at most two nonzero terms and does not depend on term order or on the
    BLAS kernel.  An empty sequence or one mixing spaces raises DimensionError.
    """
    mvs = [a] if isinstance(a, Multivector) else list(a)
    if not mvs:
        raise DimensionError("multivector_matrix needs at least one multivector")
    # spaces are equal when their m are; reading m avoids dataclass __eq__
    if len({mv.space.m for mv in mvs}) > 1:
        raise DimensionError("multivectors live in different spaces")
    index, stack = _blade_images(mvs[0].space.m)
    rows = np.zeros((len(mvs), len(index)))
    at = [r * len(index) + index[t] for r, mv in enumerate(mvs) for t in mv._c]
    rows.flat[at] = [v for mv in mvs for v in mv._c.values()]
    n = math.isqrt(stack.shape[1])
    out = (rows @ stack).reshape(len(mvs), n, n)
    return out[0] if isinstance(a, Multivector) else out


# ---------------------------------------------------------------------------
# closed-form exponential of a grade-1 element
# ---------------------------------------------------------------------------

def exp_vector(space: CliffordSpace, sigma) -> Multivector:
    """exp(sigma^k gamma_k) = cosh(s) + (sinh(s)/s) sigma^k gamma_k, s = |sigma|.

    A grade-1 element squares to the scalar s^2, so the exponential closes on
    the scalar + vector subspace.  The sinh(s)/s factor is evaluated by a
    Taylor polynomial below s = 1e-6, which makes s = 0 regular.  A
    non-finite sigma, or one with s > 710 where cosh(s) overflows, raises
    DomainError.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (space.m,):
        raise DimensionError(f"sigma needs length {space.m}, got {sigma.shape}")
    if not np.isfinite(sigma).all():
        raise DomainError(f"sigma has non-finite entries: {sigma}")
    # math.hypot scales its arguments, so a huge finite sigma cannot overflow here
    size = math.hypot(*sigma)
    if size > _MAX_NORM:
        raise DomainError(
            f"|sigma| = {size:.6g} exceeds {_MAX_NORM:g}, past which cosh(|sigma|) overflows"
        )
    s = float(np.linalg.norm(sigma))
    if s < _SMALL_NORM:
        s2 = s * s
        c = 1.0 + s2 / 2.0 + s2 * s2 / 24.0
        sh = 1.0 + s2 / 6.0 + s2 * s2 / 120.0
    else:
        c = np.cosh(s)
        sh = np.sinh(s) / s
    out = Multivector.scalar(space, c)
    return out + Multivector.vector(space, sh * sigma)
