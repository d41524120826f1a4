"""Reductive split Lie algebras g = h (+) f and the boost-rotation family.

A :class:`ReductiveAlgebra` stores the three structure constant blocks of a
split with [h,h] in h, [f,f] in h and [f,h] in f:

    [H_a, H_b]     = c_hh[a,b,d] H_d
    [F_al, F_be]   = c_ff[al,be,d] H_d
    [F_al, H_b]    = c_fh[al,b,be] F_be

The so(1,m) family is built from the Clifford embedding F_k = gamma_k,
H_(i,k) = (1/4)[gamma_k, gamma_i] (pairs ordered lexicographically, i < k):
each generator is one blade of Cl(m), so the structure constants come from
one blade product per ordered basis pair.  :func:`defining_rep_so1m` provides
(m+1)x(m+1) matrices with the same structure constants for cross-checks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford import _mul_blades
from .errors import (
    ClosureError,
    DimensionError,
    DomainError,
    _array,
    _check_finite,
    _check_int,
    _check_real,
    _check_square,
    _frozen,
    _norm,
    _read_numbers,
    reject_non_numbers,
)

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
    "expm",
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
        # the checks read the caller's tables and the record keeps copies,
        # made last, so that no table is held twice while the checks run
        names = ("c_hh", "c_ff", "c_fh")
        for name in names:
            object.__setattr__(self, name, _array(getattr(self, name), name, ClosureError))
        nh = self.c_hh.shape[0]
        nf = self.c_ff.shape[0]
        if self.c_hh.shape != (nh, nh, nh):
            raise ClosureError(f"c_hh must be (h,h,h), got {self.c_hh.shape}")
        if self.c_ff.shape != (nf, nf, nh):
            raise ClosureError(f"c_ff must be (f,f,h), got {self.c_ff.shape}")
        if self.c_fh.shape != (nf, nh, nf):
            raise ClosureError(f"c_fh must be (f,h,f), got {self.c_fh.shape}")
        for name in names:
            _check_finite(getattr(self, name), f"{name} has non-finite entries", ClosureError)
        for c in (self.c_hh, self.c_ff):
            # one table-sized temporary: the sum, made absolute in place
            anti = c + np.swapaxes(c, 0, 1)
            if np.abs(anti, out=anti).max(initial=0.0) > _JACOBI_TOL:
                raise ClosureError("bracket tables are not antisymmetric")
            del anti
        r = jacobi_residual(self)
        if not r <= _JACOBI_TOL:
            raise ClosureError(f"Jacobi identity violated: residual {r:.3e}")
        for name in names:
            object.__setattr__(self, name, _frozen(getattr(self, name), name))

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
        h = np.zeros(self.dim_h) if h is None else h
        f = np.zeros(self.dim_f) if f is None else f
        return AlgebraElement(self, h, f)


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
    """Max abs of [[x,y],z] + [[y,z],x] + [[z,x],y] over all basis triples.

    The identity says ad is a representation (J. E. Humphreys, Introduction
    to Lie Algebras and Representation Theory, 1972, section 2.3): this is
    the closure check on ad_x = C[x]^T against C, which for antisymmetric
    tables is the Jacobi sum term for term, in bounded memory.
    """
    C = _total_structure(alg)
    return _closure_residual(C.transpose(0, 2, 1), C)


# the closure check holds at most this many floats in each working array
# (2^18 floats, 2 MB)
_CLOSURE_CHUNK = 1 << 18


def _closure_residual(gens: np.ndarray, c: np.ndarray) -> float:
    """max |[G_a, G_b] - c[a,b,e] G_e| over every ordered pair (a, b): the
    package's one bracket-consistency check.

    A monomial stack, where each column of each G_a and each c[a, b, :]
    has at most one nonzero (the adjoint matrices of so(1,m), the defining,
    vector and spinor reps), is read as one (row, value) slot per column
    and per c[a, b, :], (0, 0.0) for an empty line.  Column j of an ordered
    pair gives three entries, G_a G_b at row row[a, row[b, j]], -G_b G_a
    and -c_ab G_e, and each of the three cells adds those on its row in
    that order.  Each entry is the one nonzero product a matrix product
    rounds, so the residual is the dense one bit for bit, with no BLAS call.

    Any other stack multiplies its matrices: each ordered product G_a G_b
    once (a pair a < b gives [G_a, G_b] = P_ab - P_ba, and [G_b, G_a] is its
    exact negative), and the right-hand sides as one GEMM.

    Both arms run the pairs in a-major order, in chunks of at most
    _CLOSURE_CHUNK floats per working array, whatever n and d are.  A NaN
    anywhere, or an overflow, makes the residual NaN or inf without a
    warning.
    """
    n, d = gens.shape[:2]
    if not gens.size:
        return 0.0
    # the first nonzero of each column and of each c[a, b, :]; the stack is
    # monomial when these picks hold every nonzero of both
    row = (gens != 0.0).argmax(axis=1)
    val = np.take_along_axis(gens, row[:, None], axis=1)[:, 0]
    crow = (c != 0.0).argmax(axis=-1)
    cval = np.take_along_axis(c, crow[..., None], axis=-1)[..., 0]
    parts = [0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        if np.count_nonzero(val) + np.count_nonzero(cval) == np.count_nonzero(gens) + np.count_nonzero(c):
            # a cell per (a, b, column) for a chunk of a and every b; about
            # 16 arrays of one value per cell are live at once
            step = max(1, _CLOSURE_CHUNK // (16 * n * d))
            b, j = np.arange(n)[:, None], np.arange(d)
            for lo in range(0, n, step):
                a = np.arange(lo, min(lo + step, n))
                ra, va, e = row[a, None], val[a, None], crow[a][..., None]
                r1, p1 = row[a[:, None, None], row], val[a[:, None, None], row] * val
                r2, p2 = row[b, ra], val[b, ra] * va
                r3, q = row[e, j], cval[a][..., None] * val[e, j]
                same2, same3 = r2 == r1, r3 == r1
                cell1 = p1 - np.where(same2, p2, 0.0) - np.where(same3, q, 0.0)
                cell2 = np.where(same2, 0.0, -p2 - np.where(r3 == r2, q, 0.0))
                cell3 = np.where(same3 | (r3 == r2), 0.0, q)
                parts += [abs(cell).max() for cell in (cell1, cell2, cell3)]
            return float(np.max(parts))
        flat = gens.reshape(n, d * d)
        diag, ia, ib = _pair_index(n)
        step = max(1, _CLOSURE_CHUNK // (2 * d * d))
        parts.append(abs(c[diag, diag] @ flat).max(initial=0.0))
        for lo in range(0, len(ia), step):
            a, b = ia[lo : lo + step], ib[lo : lo + step]
            lhs = (gens[a] @ gens[b] - gens[b] @ gens[a]).reshape(len(a), d * d)
            # the right-hand sides of (a, b) and (b, a) in one product
            rhs = c[np.concatenate((a, b)), np.concatenate((b, a))] @ flat
            parts += [abs(lhs - rhs[: len(a)]).max(), abs(lhs + rhs[len(a) :]).max()]
    return float(np.max(parts))


@lru_cache(maxsize=None)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """range(n), and the pairs a < b in a-major order as two index arrays."""
    out = (np.arange(n),) + np.triu_indices(n, 1)
    for arr in out:
        arr.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Element x = h^a H_a + f^al F_al of a reductive algebra."""

    algebra: ReductiveAlgebra
    h: np.ndarray
    f: np.ndarray

    def __post_init__(self) -> None:
        h, f = _frozen(self.h, "h"), _frozen(self.f, "f")
        if h.shape != (self.algebra.dim_h,) or f.shape != (self.algebra.dim_f,):
            raise DimensionError(
                f"element needs shapes ({self.algebra.dim_h},), ({self.algebra.dim_f},)"
            )
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
        s = _frozen(self.sigma, "sigma")
        if s.ndim != 1:
            raise DimensionError(f"sigma must be a vector, got shape {s.shape}")
        _check_finite(s, "sigma has non-finite entries", DimensionError)
        object.__setattr__(self, "sigma", s)

    @property
    def m(self) -> int:
        return self.sigma.shape[0]

    @property
    def norm(self) -> float:
        return float(_norm(self.sigma)[0])


# ---------------------------------------------------------------------------
# the so(1,m) family
# ---------------------------------------------------------------------------

def h_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """Rotation-plane labels (i,k), i < k, in lexicographic order (1-based)."""
    return tuple((i, k) for i in range(1, m + 1) for k in range(i + 1, m + 1))


def _plane_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based (i, k) of the rotation planes of R^m, in generator order."""
    return _pair_index(m)[1:]


def generator_coords(m: int, boost=None, rotations=()) -> tuple[np.ndarray, np.ndarray]:
    """(h, f) coordinates of so(1,m) from a boost vector and plane angles.

    `boost` is a length-m coordinate vector (None for no boost); `rotations`
    is a sequence of (i, k, theta) with 1 <= i < k <= m, and angles on a
    repeated plane add up.  Every entry must be finite.
    """
    _check_int(m, 2, "m", DimensionError)
    f = np.zeros(m)
    if boost is not None:
        f = _read_numbers(boost, "boost", DomainError)
        if f.shape != (m,):
            raise DimensionError(f"boost must have {m} entries, got shape {f.shape}")
        _check_finite(f, "boost entries must be finite", DomainError)
    try:
        entries = list(rotations)
    except TypeError as exc:
        raise DomainError(f"rotations must be a sequence of (i, k, theta), got {rotations!r}") from exc
    index = {pr: a for a, pr in enumerate(h_pairs(m))}
    h = np.zeros(len(index))
    for entry in entries:
        try:
            i, k, theta = entry
        except (TypeError, ValueError) as exc:
            raise DomainError(f"rotation entries must be (i, k, theta), got {entry!r}: {exc}") from exc
        reject_non_numbers([theta], "rotation angle")
        if any(isinstance(n, bool) or not isinstance(n, numbers.Integral) for n in (i, k)):
            raise DomainError(f"rotation plane indices must be integers, got {entry!r}")
        i, k = int(i), int(k)
        if (i, k) not in index:
            raise DomainError(f"no rotation plane ({i}, {k}) for m={m}")
        h[index[(i, k)]] += _check_real(theta, "rotation angle")
    return h, f


def _so1m_blades(m: int) -> tuple[list[tuple[int, float]], list[tuple[int, float]]]:
    """(mask, coefficient) of each rotation and each boost generator, one
    blade each: H_(i,k) = (1/4)[gamma_k, gamma_i] = (1/2) gamma_k gamma_i,
    since distinct gammas anticommute, and F_k = gamma_k."""
    i, k = _plane_index(m)
    rotations = [_mul_blades(1 << b, 1 << a) for a, b in zip(i.tolist(), k.tolist())]
    return [(t, 0.5 * s) for t, s in rotations], [(1 << a, 1.0) for a in range(m)]


def _brackets(left, right, target) -> np.ndarray:
    """Coordinates in the basis `target` of [x, y] for x in `left` and y in
    `right`, three bases of single blades given as (mask, coefficient).

    Blades A, B of grades p, q sharing r gammas have BA = (-1)^(pq + r) AB,
    so [A, B] is 2AB when pq + r is odd and 0 otherwise.  A bracket off the
    span of `target` raises ClosureError.
    """
    index = {t: (j, v) for j, (t, v) in enumerate(target)}
    out = np.zeros((len(left), len(right), len(target)))
    for x, (a, va) in enumerate(left):
        for y, (b, vb) in enumerate(right):
            if (a.bit_count() * b.bit_count() + (a & b).bit_count()) & 1:
                t, s = _mul_blades(a, b)
                if t not in index:
                    raise ClosureError(f"bracket of blades {a:#b} and {b:#b} is off the expected span")
                j, v = index[t]
                out[x, y, j] = 2.0 * s * va * vb / v
    return out


@lru_cache(maxsize=None, typed=True)
def so1m_algebra(m: int) -> ReductiveAlgebra:
    """so(1,m) with boosts F_k = gamma_k and rotations H_(i,k) = (1/4)[gamma_k, gamma_i].

    Each structure constant comes from one blade product per ordered basis
    pair; closure on the right grades is enforced.  With this normalization
    [F_i, F_k] = -4 H_(i,k) and [F_j, H_(i,k)] = d_jk F_i - d_ji F_k.
    """
    _check_int(m, 2, "m", DimensionError)
    hb, fb = _so1m_blades(m)
    return ReductiveAlgebra(_brackets(hb, hb, hb), _brackets(fb, fb, hb), _brackets(fb, hb, fb))


@dataclass(frozen=True, eq=False)
class DefiningRep:
    """(m+1)x(m+1) matrices of so(1,m) preserving eta = diag(+1, -1, ..., -1)."""

    m: int
    h_gens: np.ndarray
    f_gens: np.ndarray
    eta: np.ndarray

    def matrix(self, coords) -> np.ndarray:
        """Sum x^a G_a over the generators [H_1..H_nh, F_1..F_m] for
        generator coordinates of shape (..., dim_h + dim_f), stabilizer part
        first (the layout of a section's xi); a non-finite coordinate raises
        DomainError."""
        return _generator_sum(coords, np.concatenate([self.h_gens, self.f_gens]), "generator")


def _generator_sum(coords, gens: np.ndarray, what: str) -> np.ndarray:
    """sum_a x^a G_a for coordinates x of shape (..., n) and generators (n, d, d).

    A last axis other than n raises DimensionError and a non-finite
    coordinate DomainError.  The sum is one (rows, n) x (n, d^2) product,
    also for a single vector.
    """
    x = _array(coords, f"{what} coordinates")
    n, d = gens.shape[:2]
    if x.ndim < 1 or x.shape[-1] != n:
        raise DimensionError(f"expected {n} {what} coordinates, got shape {x.shape}")
    _check_finite(x, f"{what} coordinates have non-finite entries", DomainError)
    return (x.reshape(math.prod(x.shape[:-1]), n) @ gens.reshape(n, d * d)).reshape(x.shape[:-1] + (d, d))


@lru_cache(maxsize=None, typed=True)
def defining_rep_so1m(m: int) -> DefiningRep:
    """Defining representation matching the Clifford structure constants.

    The boost normalization follows the embedding F_k = gamma_k, which doubles
    the usual generator: rep(F_k) = 2 (E_0k + E_k0), so exp(s rep(F_1)) is a
    boost of rapidity 2s.  Rotations are rep(H_(i,k)) = E_ki - E_ik.
    """
    _check_int(m, 1, "m", DimensionError)
    i, k = _plane_index(m)
    a = np.arange(len(i))
    h_gens = np.zeros((len(i), m + 1, m + 1))
    h_gens[a, k + 1, i + 1] = 1.0
    h_gens[a, i + 1, k + 1] = -1.0
    f_gens = np.zeros((m, m + 1, m + 1))
    f_gens[:, 0, 1:] = f_gens[:, 1:, 0] = 2.0 * np.eye(m)
    return DefiningRep(m, _frozen(h_gens), _frozen(f_gens), _frozen(np.diag([1.0] + [-1.0] * m)))


# ---------------------------------------------------------------------------
# the matrix exponential
# ---------------------------------------------------------------------------

# Pade coefficients b_0..b_q of the diagonal approximants of degree q, each
# with theta_q, the largest 1-norm at which it meets double precision
# (Higham 2005, Table 2.3)
_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
_PADE_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
                        2.097847961257068, 5.371920351148152])


def _pade_rows(b: tuple[float, ...]) -> np.ndarray:
    """Rows of weights on the even powers I, A^2, A^4, ... of A.

    For q <= 9 the rows give U / A and V.  Degree 13 uses only I, A^2, A^4
    and A^6 (Higham 2005, eq. 2.6): U / A = A^6 row 2 + row 0 and
    V = A^6 row 3 + row 1.
    """
    if len(b) == 14:
        return np.array([b[1:8:2], b[0:8:2], (0.0,) + b[9::2], (0.0,) + b[8:13:2]])
    return np.array([b[1::2], b[0::2]])


_PADE = tuple(_pade_rows(b) for b in _PADE_B.values())


def _pade(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Diagonal Pade approximant of exp on a stack (n, d, d), from _pade_rows."""
    k = rows.shape[1]
    powers = np.empty((k,) + a.shape)
    powers[0] = np.eye(a.shape[-1])
    powers[1] = a @ a
    for j in range(2, k):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    c = (rows @ powers.reshape(k, a.size)).reshape((len(rows),) + a.shape)
    if len(c) == 4:
        u, v = a @ (powers[3] @ c[2] + c[0]), powers[3] @ c[3] + c[1]
    else:
        u, v = a @ c[0], c[1]
    return np.linalg.solve(v - u, v + u)


def expm(a) -> np.ndarray:
    """exp(A) of a square matrix or of a stack of them, shape (..., d, d).

    Scaling and squaring (N. J. Higham, SIAM J. Matrix Anal. Appl. 26 (2005)
    1179-1193, Algorithm 2.3): each matrix gets the lowest Pade degree among
    3, 5, 7, 9 and 13 whose bound covers its 1-norm; past the degree-13
    bound it is scaled by 2^-s into range and the result squared s times.
    Complex or non-finite entries raise DomainError, and so does a result
    that overflows.
    """
    a = _array(a, "the exponent", dtype=None)
    if a.dtype.kind == "c":
        raise DomainError("matrix exponential of complex entries")
    a = _array(a, "the exponent")
    _check_square(a, 0, "the exponent")
    flat = a.reshape((math.prod(a.shape[:-2]),) + a.shape[-2:])
    norm = np.add.reduce(np.abs(flat), axis=-2).max(axis=-1, initial=0.0)
    # index of the lowest degree whose bound covers each norm; past the
    # last bound (and for inf or nan) it is len(_PADE)
    pick = np.searchsorted(_PADE_THETA, norm)
    out = np.empty_like(flat)
    degrees = sorted(set(pick.tolist()))
    for j in degrees:
        sel = pick == j if len(degrees) > 1 else slice(None)
        if j < len(_PADE):
            out[sel] = _pade(flat[sel], _PADE[j])
            continue
        if not np.isfinite(norm[sel]).all():
            raise DomainError("matrix exponential of non-finite entries")
        s = np.ceil(np.log2(norm[sel] / _PADE_THETA[-1])).astype(int)
        r = _pade(np.ldexp(flat[sel], -s[:, None, None]), _PADE[-1])
        # an overflow in a squaring leaves inf or NaN, checked once below
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(int(s.max())):
                more = s > k
                r[more] = r[more] @ r[more]
        _check_finite(r, "matrix exponential overflows", DomainError)
        out[sel] = r
    return out.reshape(a.shape)


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
        nh = _check_int(data["dim_h"], 0, "dim_h", TypeError)
        nf = _check_int(data["dim_f"], 0, "dim_f", TypeError)
        tables = [data["c_hh"], data["c_ff"], data["c_fh"]]
    except (KeyError, TypeError) as e:
        raise ClosureError(f"invalid algebra JSON: {e}") from None
    c_hh, c_ff, c_fh = (_read_numbers(t, "the structure constants", ClosureError) for t in tables)
    if c_hh.shape != (nh, nh, nh) or c_ff.shape != (nf, nf, nh) or c_fh.shape != (nf, nh, nf):
        shapes = f"{c_hh.shape}, {c_ff.shape}, {c_fh.shape}"
        raise ClosureError(f"algebra JSON shapes do not match dim_h/dim_f: {shapes}")
    return ReductiveAlgebra(c_hh, c_ff, c_fh)
