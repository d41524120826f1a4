"""Self-check suites: every property the package promises, measured.

Each suite returns a list of :class:`PropertyResult` rows.  A row is either a
hard check (passed must be True for the suite to count as green) or an
informational record (measured and reported, never asserted).  All sampling
is driven by an explicit seed, so a suite run is a pure function of the
seed and reports are reproducible byte for byte.  Each hard check's bar is
the constant written at its row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .clifford import (
    CliffordSpace,
    Multivector,
    _blade_tuple,
    blade_product,
    exp_vector,
    matrix_rep,
    multivector_matrix,
)
from .coeffs import bernoulli_numbers, l_coeffs, recursion_residuals
from .errors import BranchError, OrthochronousError, _norm
from .induced import (
    CompositeSection,
    _check_form,
    _compensator_action,
    _coset_matrix,
    _embed,
    _split,
    boost_matrix,
    exp_coset,
    factor_boost_rotation,
    flow_section,
    gauge_transform_section,
    induced_action,
    rotation_embed,
    rotation_log_coords,
    section_from_json_dict,
    section_to_json_dict,
    spinor_hrep,
    vector_hrep,
)
from .lie import (
    AlgebraElement,
    CosetPoint,
    ReductiveAlgebra,
    _closure_residual,
    _total_structure,
    bracket,
    defining_rep_so1m,
    expm,
    h_pairs,
    jacobi_residual,
    so1m_algebra,
)
from .series import (
    _compensator_rows,
    _rows,
    _series,
    _weights,
    even_bracket_weights,
    odd_bracket_weights,
    realize,
    so1m_closed_field,
)

__all__ = [
    "PropertyResult",
    "fd_action_derivative",
    "suite_coeffs",
    "suite_clifford",
    "suite_algebra",
    "suite_series",
    "suite_induced",
    "suite_gauge",
    "suite_all",
    "SUITES",
]


@dataclass(frozen=True)
class PropertyResult:
    """One measured property: name, verdict, and the number behind it."""

    name: str
    passed: bool
    measured: float
    threshold: float | None = None
    informational: bool = False
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": float(self.measured),
            "threshold": None if self.threshold is None else float(self.threshold),
            "informational": bool(self.informational),
            "detail": self.detail,
        }


def _row(name, measured, threshold, detail="") -> PropertyResult:
    return PropertyResult(
        name=name,
        passed=bool(measured <= threshold),
        measured=float(measured),
        threshold=float(threshold),
        detail=detail,
    )


def _check(name, ok, detail="") -> PropertyResult:
    """A pass/fail row: measured 0 when ok and 1 when not, against a bar of 0."""
    return _row(name, float(not ok), 0.0, detail)


def _info(name, measured, detail="") -> PropertyResult:
    return PropertyResult(
        name=name, passed=True, measured=float(measured), informational=True, detail=detail
    )


# ---------------------------------------------------------------------------
# finite-difference oracle for the infinitesimal action
# ---------------------------------------------------------------------------

# the step h of the finite-difference oracle, and the four steps t = s h of
# its extrapolated central difference
_FD_H = 1e-3
_STEPS = np.array([1.0, -1.0, 0.5, -0.5])


def _richardson(values: np.ndarray) -> np.ndarray:
    """Richardson-extrapolated central difference at t=0 from the values
    values[j] at t = _STEPS[j] _FD_H."""
    d1 = (values[0] - values[1]) / (2.0 * _FD_H)
    d2 = (values[2] - values[3]) / (2.0 * (_FD_H / 2.0))
    return (4.0 * d2 - d1) / 3.0


def _exp_defining(m: int, t, coords: np.ndarray) -> np.ndarray:
    """exp(t X) in the defining matrices of so(1,m) for generator coordinates
    coords (..., dim_h + dim_f): shape t.shape + coords.shape[:-1] + (m+1, m+1)."""
    return expm(np.multiply.outer(t, defining_rep_so1m(m).matrix(coords)))


def _fd_action(
    alg: ReductiveAlgebra, coords: np.ndarray, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """fd_action_derivative of every node in one stacked call: generator
    coordinates coords (N, dim) at points sigma (N, dim_f), or one node as
    coords (dim,) and sigma (dim_f,)."""
    g = _exp_defining(alg.dim_f, _FD_H * _STEPS, coords) @ _coset_matrix(sigma)
    sigma_t, rho = _split(_check_form(g))
    return _richardson(sigma_t), _richardson(rotation_log_coords(rho))


def fd_action_derivative(
    alg: ReductiveAlgebra,
    xi: AlgebraElement,
    point: CosetPoint,
) -> tuple[np.ndarray, np.ndarray]:
    """Richardson-extrapolated central difference of the finite action at t=0.

    Differentiates t -> factor(exp(t xi) exp(sigma . F)) in the defining
    matrices, returning (d sigma, d theta) with d theta in plane-angle
    coordinates.  Entirely independent of the bracket series.
    """
    return _fd_action(alg, np.concatenate([xi.h, xi.f]), point.sigma)


# ---------------------------------------------------------------------------
# coefficient suite
# ---------------------------------------------------------------------------

def suite_coeffs(seed: int = 0) -> list[PropertyResult]:
    from fractions import Fraction

    out = []
    table = l_coeffs(24)
    expected = {1: Fraction(1, 2), 2: Fraction(1, 12), 3: Fraction(0), 4: Fraction(-1, 720)}
    exact = all(table.l(n) == v for n, v in expected.items())
    out.append(_check("coeff_table_first_values", exact, "l_1..l_4 equal 1/2, 1/12, 0, -1/720 exactly"))

    residuals = recursion_residuals(table)
    worst = max((abs(r) for r in residuals), default=Fraction(0))
    out.append(
        PropertyResult(
            "coeff_recursion_residuals",
            passed=(worst == 0),
            measured=float(worst),
            threshold=0.0,
            detail="defining recursion re-substituted in exact rationals",
        )
    )

    bern = bernoulli_numbers(20)
    match = all(table.l(n) * math.factorial(n) == bern[n] for n in range(1, 21))
    out.append(
        _check("coeff_bernoulli_match", match, "l_n n! equals the Bernoulli numbers (B_1 = +1/2) for n <= 20")
    )

    worst_gen = 0.0
    for z in (0.3, 0.6):
        even = 1.0 + sum(w * z**n for n, w in even_bracket_weights(21))
        odd = sum(w * z**n for n, w in odd_bracket_weights(21))
        worst_gen = max(worst_gen, abs(even - z / math.tanh(z)), abs(odd - math.tanh(z / 2.0)))
    out.append(
        _row(
            "coeff_generating_functions",
            worst_gen,
            1e-12,
            "partial sums reproduce z coth z and tanh(z/2) at z = 0.3, 0.6",
        )
    )
    return out


# ---------------------------------------------------------------------------
# Clifford suite
# ---------------------------------------------------------------------------

def _random_pairs(rng, space: CliffordSpace, n_pairs: int, n_terms: int = 4):
    """n_pairs pairs (a, b) of multivectors of n_terms random terms, drawn by
    one integers and one uniform call and built as the iterator is read."""
    blades = _blade_tuple(space.m)
    picks = rng.integers(0, len(blades), size=(2 * n_pairs, n_terms))
    vals = rng.uniform(-2.0, 2.0, (2 * n_pairs, n_terms))

    def build(row_p, row_v):
        # the blade masks are valid by construction, a repeated one sums in
        # draw order, and blade_product sums in dict order
        data = {}
        for p, v in zip(row_p.tolist(), row_v.tolist()):
            data[blades[p]] = data.get(blades[p], 0.0) + v
        return Multivector._of(space, data)

    mvs = map(build, picks, vals)
    return zip(mvs, mvs)


def suite_clifford(seed: int = 0) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    out = []

    worst = 0.0
    for m in range(1, 6):
        sp = CliffordSpace(m)
        gam = matrix_rep(sp)
        eye = np.eye(gam[0].shape[0])
        for i in range(m):
            for k in range(m):
                anti = gam[i] @ gam[k] + gam[k] @ gam[i] - 2.0 * (i == k) * eye
                worst = max(worst, float(abs(anti).max()))
                gi = Multivector.blade(sp, (i + 1,))
                gk = Multivector.blade(sp, (k + 1,))
                spin = blade_product(gi, gk) + blade_product(gk, gi) - Multivector.scalar(sp, 2.0 * (i == k))
                worst = max(worst, spin.max_abs())
    out.append(
        _row(
            "clifford_generator_relations",
            worst,
            1e-12,
            "gamma_i gamma_k + gamma_k gamma_i = 2 d_ik in blades and matrices, m <= 5",
        )
    )

    # every pair is multiplied by blade_product and checked in chunks of 25,
    # which keep each temporary below glibc's 128 KiB mmap threshold
    worst = 0.0
    pairs_per_m, chunk = 200, 25
    for m in range(1, 6):
        pairs = _random_pairs(rng, CliffordSpace(m), pairs_per_m)
        for _ in range(pairs_per_m // chunk):
            a, b = zip(*itertools.islice(pairs, chunk))
            lhs = multivector_matrix(list(map(blade_product, a, b)))
            worst = max(worst, float(abs(lhs - multivector_matrix(a) @ multivector_matrix(b)).max()))
    out.append(
        _row(
            "clifford_product_matrix_oracle",
            worst,
            1e-12,
            f"{5 * pairs_per_m} random products match the matrix representation, m <= 5",
        )
    )

    faithful = True
    for m in range(1, 6):
        sp = CliffordSpace(m)
        images = multivector_matrix([Multivector.blade(sp, b) for b in sp.blades()])
        rank = int(np.linalg.matrix_rank(images.reshape(sp.dim, -1), tol=1e-9))
        faithful = faithful and rank == sp.dim
    out.append(_check("clifford_rep_faithful", faithful, "all 2^m blade images linearly independent, m <= 5"))

    worst = 0.0
    for m in (2, 3, 4):
        sp = CliffordSpace(m)
        sig = rng.uniform(-1.0, 1.0, (20, m))
        closed = multivector_matrix([exp_vector(sp, s) for s in sig])
        # each matrix entry is one signed sigma^k: exact in any summation order
        direct = expm(np.tensordot(sig, matrix_rep(sp), axes=1))
        worst = max(worst, float(abs(closed - direct).max()))
    out.append(
        _row(
            "clifford_exp_vector",
            worst,
            1e-10,
            "closed-form exponential of a vector matches expm",
        )
    )
    return out


# ---------------------------------------------------------------------------
# algebra suite
# ---------------------------------------------------------------------------

def suite_algebra(seed: int = 0, alg: ReductiveAlgebra | None = None) -> list[PropertyResult]:
    out = []

    if alg is not None:
        out.append(
            _row(
                "algebra_jacobi_residual",
                jacobi_residual(alg),
                1e-12,
                f"user algebra with dim_h={alg.dim_h}, dim_f={alg.dim_f}",
            )
        )
        return out

    worst_jac = 0.0
    dims_ok = True
    for m in (2, 3, 4):
        a = so1m_algebra(m)
        worst_jac = max(worst_jac, jacobi_residual(a))
        dims_ok = dims_ok and a.dim_h == m * (m - 1) // 2 and a.dim_f == m
    out.append(_row("algebra_jacobi_residual", worst_jac, 1e-12, "so(1,m), m = 2, 3, 4"))
    out.append(_check("algebra_dimensions", dims_ok, "dim_h = m(m-1)/2 and dim_f = m"))

    # the defining matrices close under the Clifford-derived constants
    worst = 0.0
    for m in (2, 3, 4):
        rep = defining_rep_so1m(m)
        stack = np.concatenate([rep.h_gens, rep.f_gens])
        worst = max(worst, _closure_residual(stack, _total_structure(so1m_algebra(m))))
    out.append(
        _row(
            "algebra_cross_rep_constants",
            worst,
            1e-12,
            "Clifford-derived constants match the defining matrices, m = 2, 3, 4",
        )
    )

    a = so1m_algebra(3)
    got = bracket(a.f_basis(0), a.f_basis(1))
    want = -4.0 * a.h_basis(0)
    out.append(
        _row(
            "algebra_boost_bracket_sign",
            (got - want).max_abs(),
            1e-12,
            "[F_1, F_2] = -4 H_(1,2)",
        )
    )
    return out


# ---------------------------------------------------------------------------
# series suite
# ---------------------------------------------------------------------------

# reported profiles: paper coefficient profiles that the suite measures
# against the factorization and the resummed field without asserting on them

def _printed_profile_action(
    alg: ReductiveAlgebra, actor: AlgebraElement, point: CosetPoint, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """The plain-l coefficient profile of an f actor.

    dI = sum l_{2k-1} T_{2k-1}, dF = actor + sum l_{2k} T_2k - l_1 [F, dI].
    Only the leading orders of this profile agree with the factorization.
    """
    table = l_coeffs(order)
    plain = [float(table.l(n)) for n in range(1, order + 1)]
    rows = _rows(plain[1::2], plain[::2])
    dF, dI = _series(alg, point.sigma[None], actor.h[None], actor.f[None], rows)
    # the field of the h actor dI is [dI, F] = -[F, dI]
    drift = realize(alg, alg.element(h=dI[0]), point, order=1).dF
    return dF[0] + plain[0] * drift, dI[0]


def _so1m_closed_field_variant(point: CosetPoint) -> tuple[np.ndarray, np.ndarray]:
    """Alternative closed-form coefficient profile for the boost action.

    Same shape contract as :func:`so1m_closed_field` but with the profile

        dF^k = (sigma^k sigma^j / s^2)(1 - 2s cosh(2s)/sinh(s))
               + (2s cosh(2s)/sinh(2s)) d_kj
        dI   = (2 / (s tanh(s))) sigma^i H_(i,j)-pattern

    which deviates from the factorization route away from sigma = 0.  At
    sigma = 0 exactly, the regularized values U = identity, W = 0 are
    returned.
    """
    m = point.m
    s = point.norm
    if s == 0.0:
        return np.eye(m), np.zeros((len(h_pairs(m)), m))
    diag = 2.0 * s * np.cosh(2.0 * s) / np.sinh(2.0 * s)
    off = 1.0 - 2.0 * s * np.cosh(2.0 * s) / np.sinh(s)
    U = diag * np.eye(m) + np.outer(point.sigma, point.sigma) / (s * s) * off
    W = _compensator_rows(point, 2.0 / (s * np.tanh(s)))
    return U, W


def _ball_cases(rng, m: int, n: int, radius, *dims: int) -> tuple[np.ndarray, ...]:
    """n cases stacked: each a point sigma of norm uniform in radius = (lo, hi),
    then a uniform(-1, 1) vector of each length in dims."""
    cases = []
    for _ in range(n):
        sig = rng.uniform(-1.0, 1.0, m)
        sig *= rng.uniform(*radius) / _norm(sig)[0]
        cases.append((sig, *(rng.uniform(-1.0, 1.0, d) for d in dims)))
    return tuple(np.array(x) for x in zip(*cases))


def suite_series(seed: int = 0) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    out = []

    # each row takes its cases in one _series call per m (per order for the
    # slopes), whose per-node result does not depend on the node count

    # series vs the factorization derivative, mixed actors; the tail of the
    # series decays like (2 |sigma| / pi)^order, so the radius stays at 0.35
    worst = 0.0
    for m in (2, 3):
        alg = so1m_algebra(m)
        sig, coords = _ball_cases(rng, m, 6, (0.0, 0.35), alg.dim)
        ds, di = _series(alg, sig, coords[:, : alg.dim_h], coords[:, alg.dim_h :], _weights(19))
        fd_s, fd_t = _fd_action(alg, coords, sig)
        worst = max(worst, float(abs(ds - fd_s).max()), float(abs(di - fd_t).max()))
    out.append(
        _row(
            "series_matches_factorization",
            worst,
            1e-8,
            "bracket series at order 19 vs finite differences of the matrix factorization",
        )
    )

    # truncation error slopes against the resummed closed form
    direction = np.array([0.31, -0.12, 0.21])
    direction = direction / _norm(direction)
    norms = (0.4, 0.2, 0.1, 0.05)
    alg = so1m_algebra(3)
    sig = np.outer(norms, direction)
    u, w = (np.array(x)[:, :, 1] for x in zip(*(so1m_closed_field(CosetPoint(s)) for s in sig)))
    actor = np.tile(alg.f_basis(1).f, (len(norms), 1))
    min_margin = math.inf
    slopes = {}
    for order in (3, 5, 7):
        ds, di = _series(alg, sig, np.zeros((len(norms), alg.dim_h)), actor, _weights(order))
        logs = np.log(np.maximum(abs(ds - u).max(axis=1), abs(di - w).max(axis=1)))
        slope = float(np.polyfit(np.log(norms), logs, 1)[0])
        slopes[order] = slope
        min_margin = min(min_margin, slope - (order + 0.5))
    out.append(
        PropertyResult(
            "series_truncation_slopes",
            passed=min_margin >= 0.0,
            measured=float(min(slopes.values())),
            threshold=3.5,
            detail=(
                "fitted error slopes "
                + ", ".join(f"order {k}: {v:.2f}" for k, v in sorted(slopes.items()))
                + " (bars at order + 0.5)"
            ),
        )
    )

    # the stabilizer acts linearly, and its compensator is the actor itself
    worst = 0.0
    exact_di = True
    for m in (2, 3, 4):
        alg = so1m_algebra(m)
        sig, coords = _ball_cases(rng, m, 5, (0.0, 1.0), alg.dim_h)
        ds, di = _series(alg, sig, coords, np.zeros_like(sig), _weights(9))
        linear = np.zeros_like(sig)
        for a, (i, k) in enumerate(h_pairs(m)):
            linear[:, k - 1] += coords[:, a] * sig[:, i - 1]
            linear[:, i - 1] -= coords[:, a] * sig[:, k - 1]
        worst = max(worst, float(abs(ds - linear).max()))
        exact_di = exact_di and np.array_equal(di, coords)
    out.append(
        _row(
            "series_stabilizer_linear_field",
            worst,
            1e-10,
            "order-9 stabilizer series equals the rotation vector field, m = 2, 3, 4",
        )
    )
    out.append(
        _check(
            "series_stabilizer_compensator_exact",
            exact_di,
            "dI returns the actor's own coordinates bit for bit",
        )
    )

    # closed form vs high-order series; at |sigma| = 0.9 the tail is
    # (1.8 / pi)^order, so order 61 puts it below the float floor
    worst = 0.0
    for m in (2, 3):
        alg = so1m_algebra(m)
        (points,) = _ball_cases(rng, m, 6, (0.05, 0.9))
        # node (k, j) is the actor F_j at point k
        nodes = np.repeat(points, m, axis=0)
        actors = np.tile(np.eye(m), (len(points), 1))
        act = _series(alg, nodes, np.zeros((len(nodes), alg.dim_h)), actors, _weights(61))
        for sig, ds, di in zip(points, *(x.reshape(len(points), m, -1) for x in act)):
            u, w = so1m_closed_field(CosetPoint(sig))
            worst = max(worst, float(abs(ds - u.T).max()), float(abs(di - w.T).max()))
    out.append(
        _row(
            "series_closed_field_match",
            worst,
            1e-10,
            "resummed field equals the order-61 series for |sigma| <= 0.9",
        )
    )

    # collinear boosts compose additively in the coordinates
    worst = 0.0
    for m in (2, 3):
        for a_val, b_val in ((0.3, 0.5), (0.7, -0.2)):
            e1 = np.zeros(m)
            e1[0] = 1.0
            g = exp_coset(CosetPoint(a_val * e1))
            pair = factor_boost_rotation(g @ exp_coset(CosetPoint(b_val * e1)))
            worst = max(worst, float(abs(pair.f_prime.sigma - (a_val + b_val) * e1).max()))
            worst = max(worst, float(abs(pair.rho - np.eye(m)).max()))
    out.append(
        _row(
            "series_collinear_additivity",
            worst,
            1e-12,
            "collinear coset coordinates add exactly with a trivial compensator",
        )
    )

    # informational: the plain-l coefficient profile against the factorization
    for m in (2, 3):
        alg = so1m_algebra(m)
        sig = np.array([0.31, -0.12, 0.21])[:m]
        point = CosetPoint(sig)
        actor = alg.f_basis(min(1, m - 1))
        df_p, di_p = _printed_profile_action(alg, actor, point, order=17)
        fd_s, fd_t = fd_action_derivative(alg, actor, point)
        dev = max(float(abs(df_p - fd_s).max()), float(abs(di_p - fd_t).max()))
        out.append(
            _info(
                f"series_plain_profile_deviation_m{m}",
                dev,
                "plain-l coefficient profile vs the factorization derivative (recorded, not asserted)",
            )
        )

    # informational: the alternative closed-form coefficient profile, at five
    # sample points spread over m and |sigma|
    samples = (
        (2, np.array([0.15, -0.05])),
        (2, np.array([0.31, -0.12])),
        (3, np.array([0.1, 0.05, -0.08])),
        (3, np.array([0.31, -0.12, 0.21])),
        (3, np.array([0.5, 0.4, -0.45])),
    )
    for idx, (m, sig) in enumerate(samples, start=1):
        point = CosetPoint(sig)
        u_v, w_v = _so1m_closed_field_variant(point)
        u_c, w_c = so1m_closed_field(point)
        dev = max(float(abs(u_v - u_c).max()), float(abs(w_v - w_c).max()))
        out.append(
            _info(
                f"series_variant_profile_deviation_p{idx}_m{m}",
                dev,
                f"alternative closed-form profile vs the resummed field at "
                f"sigma={np.array2string(sig, separator=', ')} (recorded, not asserted)",
            )
        )
    return out


# ---------------------------------------------------------------------------
# induced-action suite
# ---------------------------------------------------------------------------

def _haar_rotations(a: np.ndarray) -> np.ndarray:
    """Haar-distributed SO(m) elements from Gaussian matrices a (n, m, m)."""
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    q[:, :, 0] *= np.where(np.linalg.det(q) < 0.0, -1.0, 1.0)[:, None]
    return q


def _small_group_draw(rng, m: int) -> tuple:
    """(rapidity, axis, plane angles) of a boost times a rotation by <= 0.25."""
    return rng.uniform(0.0, 1.0), rng.normal(size=m), rng.uniform(-0.25, 0.25, m * (m - 1) // 2)


def _small_group(m: int, draws: list[tuple]) -> np.ndarray:
    zeta, axis, angles = (np.array(x) for x in zip(*draws))
    return boost_matrix(m, zeta, axis) @ rotation_embed(m, vector_hrep(m).exp(angles))


def suite_induced(seed: int = 0) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    out = []
    m = 3

    draws = [(rng.uniform(0.0, 2.0), rng.normal(size=m), rng.normal(size=(m, m))) for _ in range(1000)]
    zeta, axis, gauss = (np.array(x) for x in zip(*draws))
    g = boost_matrix(m, zeta, axis) @ rotation_embed(m, _haar_rotations(gauss))
    sigma, rho = _split(_check_form(g))
    worst = float(abs(_coset_matrix(sigma) @ _embed(rho) - g).max())
    out.append(
        _row(
            "factor_reconstructs_input",
            worst,
            1e-10,
            "1000 random proper orthochronous matrices, rapidity <= 2, m = 3",
        )
    )

    worst = 0.0
    for hrep in (vector_hrep(m), spinor_hrep(m)):
        nodes, g1, g2 = [], [], []
        for _ in range(50):
            sig = rng.uniform(-1.0, 1.0, m)
            sig *= rng.uniform(0.0, 1.0) / _norm(sig)[0]
            nodes.append((sig, rng.uniform(-1.0, 1.0, hrep.d)))
            g1.append(_small_group_draw(rng, m))
            g2.append(_small_group_draw(rng, m))
        section = CompositeSection(*(np.array(x) for x in zip(*nodes)))
        g1, g2 = _small_group(m, g1), _small_group(m, g2)
        both = induced_action(g1 @ g2, section, hrep=hrep)
        after = induced_action(g1, induced_action(g2, section, hrep=hrep), hrep=hrep)
        worst = max(worst, float(abs(both.sigma - after.sigma).max()), float(abs(both.v - after.v).max()))
    out.append(
        _row(
            "induced_action_composes",
            worst,
            1e-8,
            "act(g1 g2) = act(g1) act(g2), vector and spinor reps, rotations <= 0.25 rad, rapidity <= 1",
        )
    )

    point = CosetPoint(np.array([0.3, -0.2, 0.1]))
    hrep = vector_hrep(m)
    v = np.array([1.0, 2.0, -0.5])
    p_id, v_id = induced_action(np.eye(m + 1), point, v, hrep)
    ident = max(float(abs(p_id.sigma - point.sigma).max()), float(abs(v_id - v).max()))
    out.append(_row("induced_identity_fixed", ident, 1e-12, "the identity moves nothing"))

    rejected = 0
    time_rev = np.diag([-1.0, 1.0, 1.0, -1.0])
    parity = np.diag([1.0, -1.0, 1.0, 1.0])
    for bad in (time_rev, parity):
        try:
            factor_boost_rotation(bad)
        except OrthochronousError:
            rejected += 1
    out.append(
        _row(
            "orientation_reversals_rejected",
            2 - rejected,
            0.0,
            "time reversal and parity both raise OrthochronousError",
        )
    )

    branch = False
    try:
        rotation_log_coords(np.diag([-1.0, -1.0, 1.0]))
    except BranchError:
        branch = True
    out.append(
        _check(
            "rotation_branch_guard",
            branch,
            "a rotation by pi raises BranchError instead of picking a sign",
        )
    )

    # the series derivative against the Richardson difference of the finite
    # action, all cases of a representation in one stacked call
    worst = 0.0
    alg = so1m_algebra(m)
    steps = len(_STEPS)
    for hrep_i in (vector_hrep(m), spinor_hrep(m)):
        sig, coords, vv = _ball_cases(rng, m, 10, (0.0, 0.35), alg.dim, hrep_i.d)
        ds, di = _series(alg, sig, coords[:, : alg.dim_h], coords[:, alg.dim_h :], _weights(19))
        dv = _compensator_action(hrep_i, di, vv)
        g = _exp_defining(m, _FD_H * _STEPS, coords)
        nodes = CompositeSection(np.tile(sig, (steps, 1)), np.tile(vv, (steps, 1)))
        moved = induced_action(g.reshape(-1, m + 1, m + 1), nodes, hrep=hrep_i)
        fd_s = _richardson(moved.sigma.reshape(steps, -1, m))
        fd_w = _richardson(moved.v.reshape(steps, -1, hrep_i.d))
        worst = max(worst, float(abs(ds - fd_s).max()), float(abs(dv - fd_w).max()))
    out.append(
        _row(
            "infinitesimal_matches_finite",
            worst,
            1e-8,
            "series derivative equals the finite-difference derivative of the induced action",
        )
    )
    return out


# ---------------------------------------------------------------------------
# gauge suite
# ---------------------------------------------------------------------------

def _random_section(rng, m: int, d: int, n: int) -> CompositeSection:
    sigma = rng.uniform(-0.4, 0.4, (n, m))
    v = rng.uniform(-1.0, 1.0, (n, d))
    return CompositeSection(sigma, v)


def suite_gauge(seed: int = 0) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    out = []
    m = 3
    alg = so1m_algebra(m)
    hrep = vector_hrep(m)
    n_nodes = 5
    n_xi = alg.dim

    section = _random_section(rng, m, hrep.d, n_nodes)
    xi = rng.uniform(-0.5, 0.5, (n_nodes, n_xi))

    base = gauge_transform_section(alg, section, xi, 0.05, hrep)
    xi2 = xi.copy()
    xi2[2] += rng.uniform(-0.5, 0.5, n_xi)
    moved = gauge_transform_section(alg, section, xi2, 0.05, hrep)
    local = all(
        np.array_equal(base.sigma[i], moved.sigma[i]) and np.array_equal(base.v[i], moved.v[i])
        for i in range(n_nodes)
        if i != 2
    )
    changed = not np.array_equal(base.sigma[2], moved.sigma[2])
    out.append(
        _check(
            "gauge_step_is_node_local",
            local and changed,
            "changing one node's generator leaves every other node bit-identical",
        )
    )

    perm = rng.permutation(n_nodes)
    permuted = CompositeSection(section.sigma[perm], section.v[perm])
    a = gauge_transform_section(alg, permuted, xi[perm], 0.05, hrep)
    b = gauge_transform_section(alg, section, xi, 0.05, hrep)
    perm_ok = np.array_equal(a.sigma, b.sigma[perm]) and np.array_equal(a.v, b.v[perm])
    out.append(
        _check("gauge_step_permutation_equivariant", perm_ok, "relabeling nodes commutes with the transform")
    )

    # Euler flow converges at first order to the finite action
    target = induced_action(_exp_defining(m, 1.0, xi), section, hrep=hrep)
    errs = []
    for steps in (8, 16, 32, 64):
        flowed = flow_section(alg, section, xi, 1.0, steps, hrep)
        errs.append(
            max(float(abs(flowed.sigma - target.sigma).max()), float(abs(flowed.v - target.v).max()))
        )
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    halves = all(r >= 1.5 for r in ratios)
    out.append(
        PropertyResult(
            "gauge_flow_first_order",
            passed=halves and errs[-1] < 0.05,
            measured=float(min(ratios)),
            threshold=1.5,
            detail=(
                "doubling Euler steps at least halves the endpoint error: "
                + ", ".join(f"{s}: {e:.2e}" for s, e in zip((8, 16, 32, 64), errs))
            ),
        )
    )

    doc = section_to_json_dict(section, xi)
    back, xi_back = section_from_json_dict(doc)
    round_ok = (
        np.array_equal(back.sigma, section.sigma)
        and np.array_equal(back.v, section.v)
        and xi_back is not None
        and np.array_equal(xi_back, xi)
    )
    out.append(_check("section_json_round_trip", round_ok, "document form preserves every entry bit for bit"))
    return out


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def suite_all(seed: int = 0) -> list[PropertyResult]:
    out = []
    out += suite_coeffs(seed)
    out += suite_clifford(seed)
    out += suite_algebra(seed)
    out += suite_series(seed)
    out += suite_induced(seed)
    out += suite_gauge(seed)
    return out


SUITES = {
    "coeffs": suite_coeffs,
    "clifford": suite_clifford,
    "algebra": suite_algebra,
    "series": suite_series,
    "induced": suite_induced,
    "gauge": suite_gauge,
    "all": suite_all,
}
