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

from .errors import DimensionError, DomainError, _array, _check_finite, _check_int, _check_size, _norm, _scalar

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
            v = _scalar(val, f"coefficient of blade {t}", DomainError)
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
        a = _scalar(a, "scale factor", DomainError)
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
    the image of b maps e_c to signs[b, c] e_(c ^ x[b]), so it holds
    signs[b, c] at the flat index at[b, c] = (c ^ x[b]) d + c of a (d, d)
    matrix.  Returns (at, signs).

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
    at = (x[:, None] ^ cols) * cols.size + cols
    at.setflags(write=False)
    signs.setflags(write=False)
    return at, signs


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

    Each term v * blade adds v times the blade's d signed entries to an
    image that starts from +0.0 (:func:`_scatter`), so each entry is a sum
    of at most two nonzero terms and does not depend on term order.  An
    empty sequence or one mixing spaces raises DimensionError; an entry that
    overflows raises DomainError.
    """
    mvs = [a] if isinstance(a, Multivector) else list(a)
    if not mvs:
        raise DimensionError("multivector_matrix needs at least one multivector")
    # spaces are equal when their m are; reading m avoids dataclass __eq__
    if len({mv.space.m for mv in mvs}) > 1:
        raise DimensionError("multivectors live in different spaces")
    at = np.array([t for mv in mvs for t in mv._c], dtype=np.intp)
    coeffs = np.array([v for mv in mvs for v in mv._c.values()])
    image = np.repeat(np.arange(len(mvs)), [len(mv._c) for mv in mvs])
    out = _scatter(mvs[0].space.m, at, coeffs, image, len(mvs))
    if not np.isfinite(out).all():
        raise DomainError(f"matrix image entry is not finite: {out[~np.isfinite(out)][0]}")
    return out[0] if isinstance(a, Multivector) else out


def _scatter(m: int, at: np.ndarray, coeffs: np.ndarray, image: np.ndarray, n: int) -> np.ndarray:
    """n images (n, d, d) of blade sums.  The term arrays at (blade masks),
    coeffs and image (which image a term adds to) broadcast together; each
    term adds coeffs times the d signed entries of its blade at their
    positions (c ^ x, c), c < d, of an image that starts from +0.0.

    Blades that share an X mask share positions, and at most two blades
    share a mask, so each entry is a sum of at most two nonzero terms and
    does not depend on term order; the even blades have distinct X masks,
    so on them each entry is a single term.  No BLAS routine runs.
    """
    entries, signs = _signed_permutations(m)
    d = signs.shape[1]
    flat = (image * (d * d))[..., None] + entries[at]
    out = np.bincount(flat.ravel(), (coeffs[..., None] * signs[at]).ravel(), n * d * d)
    # with no terms at all, bincount counts in integers
    return out.astype(float, copy=False).reshape(n, d, d)


# ---------------------------------------------------------------------------
# frame sums over the even subalgebra
# ---------------------------------------------------------------------------

def _parity(x: np.ndarray) -> np.ndarray:
    """1 where an entry of the mask array x has an odd number of set bits,
    else 0, folded by shifts (numpy before 2.0 has no bitwise_count)."""
    for shift in (32, 16, 8, 4, 2, 1):
        x = x ^ (x >> shift)
    return x & 1


@lru_cache(maxsize=None)
def _frame_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(even, index, sign): the steps of :func:`_frame_sum` on Cl(m).

    even holds the 2^(m-1) even blade masks in ascending order, so slot 0 is
    the scalar.  For a 0-based axis i, slot c and j >= 1, B = even[index[i,
    j, c]] is the even blade with gamma_(j-1) e_B gamma_i = sign[i, j, c]
    e_even[c]: gamma_(j-1) moves right past the gammas of B below it, then
    gamma_i moves left past those of B gamma_(j-1) above i.  Row j = 0 is
    the identity term, index c and sign +1.  The tables hold m (m+1) 2^(m-1)
    entries each, built once per process for each m.
    """
    masks = np.arange(1 << m, dtype=np.intp)
    even = masks[_parity(masks) == 0]
    slot = np.zeros(1 << m, dtype=np.intp)
    slot[even] = np.arange(even.size)
    axis = 1 << np.arange(m, dtype=np.intp)
    bi, bj = axis[:, None, None], np.concatenate([[0], axis])[None, :, None]
    b = even ^ bi ^ bj
    b[:, 0] = even
    swaps = _parity(b & (bj - 1)) ^ _parity((b ^ bj) & ~(2 * bi - 1))
    swaps[:, 0] = 0
    index = slot[b]
    sign = 1.0 - 2.0 * swaps
    for t in (even, index, sign):
        t.setflags(write=False)
    return even, index, sign


def _frame_sum(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Even blade coefficients of sum_A rho(e_A) s e_A^-1 over all blades e_A
    of Cl(m), node-last: r (m, m+1, n) holds 1 at r[i, 0] and rho[j, i] at
    r[i, j+1], u (2^(m-1), n) the even seeds s in the slots of
    :func:`_frame_tables`, n >= 2.

    rho(e_A) = (rho e_a1) ... (rho e_ak) for A = {a1 < ... < ak}, so the sum
    is m steps u <- u + (rho e_i) u e_i, i = m, ..., 1.  Each step is one
    gather of u and one einsum over the identity term and the terms
    rho[j, i] gamma_j u gamma_i, ascending in j from +0.0 for every node, so
    a node's result depends neither on n nor on its neighbours; no BLAS
    routine runs.
    """
    _, index, sign = _frame_tables(r.shape[0])
    for i in range(r.shape[0] - 1, -1, -1):
        u = np.einsum("jcn,jc,jn->cn", u[index[i]], sign[i], r[i])
    return u

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
