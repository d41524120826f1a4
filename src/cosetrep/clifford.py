"""Euclidean Clifford algebra Cl(m) on an exact blade basis.

Generators gamma_1 .. gamma_m satisfy

    gamma_i gamma_k + gamma_k gamma_i = 2 delta_ik,

i.e. every generator squares to +1.  A multivector is stored sparsely as a
map from a blade's bit mask (bit i-1 set for gamma_i, so the blade
gamma_{i1}...gamma_{ik}, i1 < ... < ik, has k bits and the scalar blade is 0)
to its real coefficient.  The public methods take and yield strictly
increasing index tuples; the mask is the only format inside.

The matrix representation (:func:`matrix_rep`, :func:`multivector_matrix`)
checks the symbolic product independently: each generator is a real Pauli
string X^x Z^z whose bit masks come from the tensor doubling
gamma_k -> X (x) gamma_k, gamma_m = Z (x) 1, so each blade image is a signed
permutation built by composing permutations, never by :func:`blade_product`.
The blade masks and the (2^m, d) table of signed entries are built once per
process for each m.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DimensionError, DomainError, _array, _check_finite, _check_int, _check_size, _norm

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
        _check_int(self.m, 1, "m", DimensionError)

    @property
    def dim(self) -> int:
        """Number of basis blades, 2**m."""
        return 2**self.m

    def blades(self) -> Iterator[Blade]:
        """All index tuples, ordered by grade then lexicographically."""
        return map(_indices, _blade_tuple(self.m))

    def check_blade(self, idx: Iterable[int]) -> Blade:
        t = tuple(idx)
        if any(isinstance(i, bool) or not isinstance(i, numbers.Integral) for i in t):
            raise DimensionError(f"blade indices must be integers: {t}")
        t = tuple(map(int, t))
        if list(t) != sorted(set(t)):
            raise DimensionError(f"blade indices must be strictly increasing: {t}")
        if t and (t[0] < 1 or t[-1] > self.m):
            raise DimensionError(f"blade indices must lie in 1..{self.m}: {t}")
        return t


@lru_cache(maxsize=None)
def _blade_tuple(m: int) -> tuple[int, ...]:
    """Masks of all blades of Cl(m), ordered by grade then lexicographically."""
    return tuple(
        sum(1 << i for i in bits) for r in range(m + 1) for bits in itertools.combinations(range(m), r)
    )


def _mask(t: Blade) -> int:
    return sum(1 << (i - 1) for i in t)


def _indices(mask: int) -> Blade:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _mul_blades(a: int, b: int) -> tuple[int, int]:
    """Product of the blades with masks a and b: mask a ^ b and sign.

    Bringing the product to increasing order moves each gamma of b left past
    every larger gamma of a, one transposition each; (a >> k) & b marks the
    pairs k apart.  A repeated gamma contracts to +1.
    """
    swaps = 0
    high = a >> 1
    while high:
        swaps += (high & b).bit_count()
        high >>= 1
    return a ^ b, -1 if swaps & 1 else 1


class Multivector:
    """Sparse real multivector of Cl(m).

    Parameters
    ----------
    space : CliffordSpace
    coeffs : mapping from index tuple to float, optional
        Entries with coefficient exactly 0.0 are dropped; a coefficient
        that is not a finite real number raises DomainError.
    """

    __slots__ = ("space", "_c")

    def __init__(self, space: CliffordSpace, coeffs: Mapping[Blade, float] | None = None):
        self.space = space
        c: dict[int, float] = {}
        for idx, val in (coeffs or {}).items():
            t = space.check_blade(idx)
            v = float(_array(val, f"coefficient of blade {t}", DomainError))
            if not math.isfinite(v):
                raise DomainError(f"coefficient of blade {t} is not finite: {v}")
            c[_mask(t)] = c.get(_mask(t), 0.0) + v
        self._c = {t: v for t, v in c.items() if v != 0.0}

    @classmethod
    def _of(cls, space: CliffordSpace, c: dict[int, float]) -> "Multivector":
        """The multivector of space with the mask-keyed coefficients c.

        Entries of exactly 0.0 are dropped.  A non-finite entry raises
        DomainError; it is looked for only when the sum of c's values is not
        finite, which every NaN or overflowed value makes it (the sum of
        finite values can overflow too, and then nothing is raised).
        """
        if not math.isfinite(sum(c.values())):
            for t, v in c.items():
                if not math.isfinite(v):
                    raise DomainError(f"coefficient of blade {_indices(t)} is not finite: {v}")
        out = cls.__new__(cls)
        out.space = space
        out._c = {t: v for t, v in c.items() if v != 0.0}
        return out

    # ------------------------------------------------------------- factories
    @classmethod
    def scalar(cls, space: CliffordSpace, a: float) -> "Multivector":
        return cls(space, {(): a})

    @classmethod
    def vector(cls, space: CliffordSpace, sigma) -> "Multivector":
        """The grade-1 element sigma^k gamma_k."""
        sigma = _array(sigma, "sigma")
        if sigma.shape != (space.m,):
            raise DimensionError(f"vector needs length {space.m}, got {sigma.shape}")
        return cls(space, {(k,): sigma[k - 1] for k in range(1, space.m + 1)})

    @classmethod
    def blade(cls, space: CliffordSpace, idx: Iterable[int], coeff: float = 1.0) -> "Multivector":
        return cls(space, {tuple(idx): coeff})

    # ------------------------------------------------------------- inspection
    def coeff(self, idx: Iterable[int]) -> float:
        return self._c.get(_mask(self.space.check_blade(idx)), 0.0)

    def items(self) -> Iterator[tuple[Blade, float]]:
        yield from sorted(
            ((_indices(t), v) for t, v in self._c.items()), key=lambda kv: (len(kv[0]), kv[0])
        )

    def grade(self, k: int) -> "Multivector":
        return Multivector._of(self.space, {t: v for t, v in self._c.items() if t.bit_count() == k})

    def grades(self) -> set[int]:
        return {t.bit_count() for t in self._c}

    def vector_part(self) -> np.ndarray:
        out = np.zeros(self.space.m)
        for k in range(1, self.space.m + 1):
            out[k - 1] = self._c.get(1 << (k - 1), 0.0)
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
        return Multivector._of(self.space, c)

    def __add__(self, other: "Multivector") -> "Multivector":
        return self._merge(other, 1.0)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self._merge(other, -1.0)

    def __neg__(self) -> "Multivector":
        return self.scale(-1.0)

    def scale(self, a: float) -> "Multivector":
        a = float(_array(a, "scale factor", DomainError))
        if not math.isfinite(a):
            raise DomainError(f"scale factor is not finite: {a}")
        return Multivector._of(self.space, {t: a * v for t, v in self._c.items()})

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return blade_product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)


def blade_product(a: Multivector, b: Multivector) -> Multivector:
    """Geometric product of two multivectors of the same space."""
    if a.space != b.space:
        raise DimensionError("multivectors live in different spaces")
    c: dict[int, float] = {}
    for ta, va in a._c.items():
        for tb, vb in b._c.items():
            t, s = _mul_blades(ta, tb)
            c[t] = c.get(t, 0.0) + s * va * vb
    return Multivector._of(a.space, c)


def commutator(a: Multivector, b: Multivector) -> Multivector:
    """[a, b] = a*b - b*a."""
    return blade_product(a, b) - blade_product(b, a)


# ---------------------------------------------------------------------------
# matrix representation (independent product oracle)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _signed_permutations(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Each blade image as a signed permutation, one row per blade mask b:
    the image of b maps e_c to signs[b, c] e_(c ^ x[b]).

    gamma_k is the Pauli string X^gx[k] Z^gz[k] of the doubling
    gamma_k -> X (x) gamma_k, gamma_m = Z (x) 1 from (Z) at m = 1 and (X, Z)
    at m = 2; each gz has at most one bit.  Row b | 2^k (b < 2^k) is row b
    times gamma_(k+1).
    """
    gx, gz = ([0], [1]) if m == 1 else ([1, 0], [0, 1])
    for k in range(3, m + 1):
        high = 1 << (k - 2)
        gx, gz = [x | high for x in gx] + [0], gz + [high]
    cols = np.arange(1 << max(m - 1, 1))
    x = np.zeros(1 << m, dtype=np.intp)
    signs = np.ones((1 << m, cols.size))
    for k in range(m):
        lo, hi = slice(0, 1 << k), slice(1 << k, 2 << k)
        x[hi] = x[lo] ^ gx[k]
        signs[hi] = signs[lo][:, cols ^ gx[k]] * np.where(cols & gz[k], -1.0, 1.0)
    x.setflags(write=False)
    signs.setflags(write=False)
    return x, signs


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
    gens = multivector_matrix([Multivector.blade(space, (k,)) for k in range(1, space.m + 1)])
    gens.setflags(write=False)
    return tuple(gens)


def multivector_matrix(a) -> np.ndarray:
    """Image of a multivector under the matrix representation, or the stack
    of images (n, d, d) of a non-empty sequence of multivectors of one space.

    Each term v * blade adds v times the blade's d signed entries at their
    positions (c ^ x, c), c < d, of an image that starts from +0.0.  Blades
    that share an X mask share positions, and at most two blades share a
    mask, so each entry is a sum of at most two nonzero terms and does not
    depend on term order.  An empty sequence or one mixing spaces raises
    DimensionError; an entry that overflows raises DomainError.
    """
    mvs = [a] if isinstance(a, Multivector) else list(a)
    if not mvs:
        raise DimensionError("multivector_matrix needs at least one multivector")
    # spaces are equal when their m are; reading m avoids dataclass __eq__
    if len({mv.space.m for mv in mvs}) > 1:
        raise DimensionError("multivectors live in different spaces")
    x, signs = _signed_permutations(mvs[0].space.m)
    d = signs.shape[1]
    at = np.array([t for mv in mvs for t in mv._c], dtype=np.intp)
    coeffs = np.array([v for mv in mvs for v in mv._c.values()])
    image = np.repeat(np.arange(len(mvs)) * (d * d), [len(mv._c) for mv in mvs])
    cols = np.arange(d)
    flat = image[:, None] + (x[at][:, None] ^ cols) * d + cols
    out = np.bincount(flat.ravel(), (coeffs[:, None] * signs[at]).ravel(), len(mvs) * d * d)
    # with no terms at all, bincount counts in integers
    out = out.astype(float, copy=False).reshape(len(mvs), d, d)
    if not np.isfinite(out).all():
        raise DomainError(f"matrix image entry is not finite: {out[~np.isfinite(out)][0]}")
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
    sigma = _array(sigma, "sigma")
    if sigma.shape != (space.m,):
        raise DimensionError(f"sigma needs length {space.m}, got {sigma.shape}")
    _check_finite(sigma, "sigma has non-finite entries", DomainError)
    with np.errstate(over="ignore"):
        s = float(_norm(sigma)[0])
    _check_size(s, _MAX_NORM, "|sigma|", "past which cosh(|sigma|) overflows")
    if s < _SMALL_NORM:
        s2 = s * s
        c = 1.0 + s2 / 2.0 + s2 * s2 / 24.0
        sh = 1.0 + s2 / 6.0 + s2 * s2 / 120.0
    else:
        c = np.cosh(s)
        sh = np.sinh(s) / s
    out = Multivector.scalar(space, c)
    return out + Multivector.vector(space, sh * sigma)
