"""Finite factorization, the induced action on vectors and spinors, and the
gauge flow of sections."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm, schur

from cosetrep.errors import (
    BranchError,
    ClosureError,
    DimensionError,
    DomainError,
    OrthochronousError,
)
from cosetrep import induced, lie
from cosetrep.clifford import CliffordSpace, Multivector, exp_vector
from cosetrep.induced import (
    CompositeSection,
    FactoredPair,
    HRepresentation,
    boost_matrix,
    exp_coset,
    factor_boost_rotation,
    flow_section,
    gauge_transform_section,
    group_from_spec,
    induced_action,
    infinitesimal_action,
    reconstruct,
    rotation_embed,
    rotation_log_coords,
    section_from_json_dict,
    section_to_json_dict,
    spinor_hrep,
    vector_hrep,
)
from cosetrep.lie import CosetPoint, ReductiveAlgebra, defining_rep_so1m, h_pairs, so1m_algebra
from cosetrep.series import InfinitesimalAction, _series, _weights, realize
from cosetrep.verify import _haar_rotations

from test_algebra import _rotated_h_basis
from test_clifford import kron_gammas


def _eta(m):
    return np.diag([1.0] + [-1.0] * m)


def test_boost_matrix_entries():
    g = boost_matrix(3, 0.7, np.array([1.0, 0.0, 0.0]))
    assert g[0, 0] == pytest.approx(np.cosh(0.7))
    assert g[0, 1] == pytest.approx(np.sinh(0.7))
    assert g[1, 0] == pytest.approx(np.sinh(0.7))
    assert g[2, 2] == 1.0 and g[3, 3] == 1.0
    np.testing.assert_allclose(g.T @ _eta(3) @ g, _eta(3), atol=1e-14)
    # the axis norm is a hypot reduction: a huge axis used to overflow in its
    # sum of squares, and a tiny one to underflow to 0 and raise; a
    # deep-subnormal one was normalized in subnormal precision, 4.7e-5 off
    np.testing.assert_array_equal(boost_matrix(3, 0.5, [1e200, 0.0, 0.0]), boost_matrix(3, 0.5, [1.0, 0.0, 0.0]))
    diagonal = boost_matrix(3, 0.5, np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0))
    for tiny in (1e-200, 1e-320, 5e-324):
        np.testing.assert_allclose(boost_matrix(3, 0.5, [tiny, tiny, 0.0]), diagonal, rtol=0, atol=1e-15)


def test_boost_matrix_inverse():
    axis = np.array([0.6, 0.8])
    g = boost_matrix(2, 1.2, axis) @ boost_matrix(2, -1.2, axis)
    np.testing.assert_allclose(g, np.eye(3), atol=1e-14)


def test_boost_axis_validation():
    with pytest.raises(DomainError):
        boost_matrix(2, 0.5, np.zeros(2))
    with pytest.raises(DimensionError):
        boost_matrix(2, 0.5, np.ones(3))
    with pytest.raises(DimensionError, match="axis must hold numbers"):
        boost_matrix(2, 0.5, [[1.0], [0.0, 1.0]])
    # a norm past the float range gives no unit axis
    with pytest.raises(DomainError, match="norm inside the float range"):
        boost_matrix(2, 0.5, [1.7e308, 1.7e308])


@pytest.mark.parametrize(
    "zeta, axis",
    [(np.nan, [1.0, 0.0, 0.0]), (np.inf, [1.0, 0.0, 0.0]), (0.5, [np.nan, 0.0, 0.0]), (0.5, [np.inf, 1.0, 0.0])],
)
def test_boost_matrix_rejects_non_finite_input(zeta, axis):
    """A NaN or infinite rapidity or axis used to give a NaN or inf matrix."""
    with pytest.raises(DomainError, match="finite"):
        boost_matrix(3, zeta, axis)


@pytest.mark.parametrize("zeta", [800.0, -800.0, [0.5, 400.0, 1.0]])
def test_boost_matrix_rejects_rapidity_past_the_bound(zeta):
    """Past |zeta| of about 710 the matrix used to hold inf and NaN."""
    axis = np.ones((np.size(zeta), 3)) if np.ndim(zeta) else [1.0, 0.0, 0.0]
    with pytest.raises(DomainError, match="exceeds 354"):
        boost_matrix(3, zeta, axis)


@pytest.mark.parametrize("zeta", [354.0, -354.0])
def test_boost_matrix_at_the_rapidity_bound_is_finite(zeta):
    g = boost_matrix(3, zeta, [0.0, 1.0, 0.0])
    assert np.isfinite(g).all()
    assert g[0, 0] == np.cosh(354.0)


def test_exp_coset_is_the_generator_exponential():
    rep = defining_rep_so1m(3)
    sig = np.array([0.3, -0.5, 0.1])
    point = CosetPoint(sig)
    direct = expm(sum(sig[k] * rep.f_gens[k] for k in range(3)))
    np.testing.assert_allclose(exp_coset(point), direct, atol=1e-12)
    # rapidity doubles relative to the coordinates
    s = 0.45
    g = exp_coset(CosetPoint(np.array([s, 0.0, 0.0])))
    assert g[0, 0] == pytest.approx(np.cosh(2 * s))


@pytest.mark.parametrize("size", [178.0, 400.0, 1e200, 1e308])
def test_exp_coset_bounds_the_rapidity(size):
    """A point of norm |sigma| is a boost of rapidity 2|sigma|.  Past 354 the
    representative of a point or a section used to hold inf, with numpy's
    overflow warning from cosh (or, at 1e200, from the norm).  At 1e308 the
    norm is finite and the rapidity past the float range reads as inf."""
    with pytest.raises(DomainError, match="rapidity .* exceeds 354"):
        exp_coset(CosetPoint(np.array([size, 0.0, 0.0])))
    section = CompositeSection(np.array([[0.1, 0.0, 0.0], [0.0, -size, 0.0]]), np.ones((2, 3)))
    with pytest.raises(DomainError, match="rapidity .* exceeds 354"):
        exp_coset(section)


def test_induced_action_bounds_every_rapidity():
    """The identity on a point of |sigma| = 178 used to overflow in the
    split's norm; a product of two boosts of rapidity 354 has rapidity 708,
    which the split reads from g[0, 0] and rejects, and so does
    factor_boost_rotation for a matrix of rapidity 354.5."""
    hrep = vector_hrep(3)
    with pytest.raises(DomainError, match="rapidity .* exceeds 354"):
        induced_action(np.eye(4), CosetPoint(np.array([178.0, 0.0, 0.0])), np.ones(3), hrep)
    g = group_from_spec(3, boost=[177.0, 0.0, 0.0])
    with pytest.raises(DomainError, match=r"rapidity \|zeta\| = 708 exceeds 354"):
        induced_action(g, CosetPoint(np.array([177.0, 0.0, 0.0])), np.ones(3), hrep)
    section = CompositeSection(np.array([[0.0, 0.0, 0.0], [177.0, 0.0, 0.0]]), np.ones((2, 3)))
    with pytest.raises(DomainError, match="= 708 exceeds 354"):
        induced_action(g, section, hrep=hrep)
    with pytest.raises(DomainError, match="= 354.5 exceeds 354"):
        factor_boost_rotation(boost_matrix(3, 354.0, [1.0, 0.0, 0.0]) @ boost_matrix(3, 0.5, [1.0, 0.0, 0.0]))


@pytest.mark.parametrize("kind", ["vector", "spinor"])
def test_induced_action_at_the_rapidity_bound_is_finite(kind):
    """At |sigma| = 177 (rapidity 354) the representative and the identity's
    action are finite and raise no warning (pytest turns those into
    errors).  The vector is not exact there: rho loses eps cosh(354)."""
    hrep = (vector_hrep if kind == "vector" else spinor_hrep)(3)
    point = CosetPoint(np.array([177.0, 0.0, 0.0]))
    assert np.isfinite(exp_coset(point)).all()
    moved, w = induced_action(np.eye(4), point, np.ones(hrep.d), hrep)
    np.testing.assert_allclose(moved.sigma, point.sigma, rtol=1e-14)
    assert np.isfinite(w).all()
    section = CompositeSection(np.array([[177.0, 0.0, 0.0], [0.0, 0.0, -177.0]]), np.ones((2, hrep.d)))
    assert np.isfinite(exp_coset(section)).all()
    out = induced_action(np.eye(4), section, hrep=hrep)
    np.testing.assert_allclose(out.sigma, section.sigma, rtol=1e-14)
    assert np.isfinite(out.v).all()


def test_rotation_embed_validation():
    rho = np.array([[0.0, -1.0], [1.0, 0.0]])
    g = rotation_embed(2, rho)
    assert g[0, 0] == 1.0
    np.testing.assert_array_equal(g[1:, 1:], rho)
    with pytest.raises(DomainError):
        rotation_embed(2, np.array([[1.0, 1.0], [0.0, 1.0]]))
    # a reflection raises the class factor_boost_rotation raises
    with pytest.raises(OrthochronousError, match="spatial orientation"):
        rotation_embed(2, np.diag([1.0, -1.0]))
    with pytest.raises(OrthochronousError):
        rotation_embed(3, np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0])]))
    with pytest.raises(DimensionError):
        rotation_embed(3, rho)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_rotation_embed_rejects_non_finite_rho(bad):
    """A NaN rho used to pass both gates (NaN compares false), so
    rotation_embed returned diag(1, NaN)."""
    with pytest.raises(DomainError, match="not orthogonal"):
        rotation_embed(3, np.full((3, 3), bad))
    rho = np.eye(3)
    rho[1, 2] = bad
    with pytest.raises(DomainError, match="not orthogonal"):
        rotation_embed(3, rho)


def test_factor_checks_proper_orthochronous():
    assert factor_boost_rotation(np.eye(4)).f_prime.m == 3
    with pytest.raises(DomainError):
        factor_boost_rotation(np.eye(4) * 2.0)
    with pytest.raises(OrthochronousError):
        factor_boost_rotation(np.diag([-1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(OrthochronousError):
        factor_boost_rotation(np.diag([1.0, -1.0, 1.0, 1.0]))


def _exact_boost_rotation(rng, m, zeta):
    """(g, n, rho0): g = boost(zeta, n) diag(1, rho0) built in 40-digit
    arithmetic from an exactly orthogonal Cayley rotation rho0, then rounded."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 40
    n = mp.matrix(rng.normal(size=m).tolist())
    n /= mp.norm(n)
    a = rng.uniform(-1.0, 1.0, (m, m))
    a = mp.matrix((a - a.T).tolist())
    eye = mp.eye(m)
    rho0 = mp.inverse(eye - a) * (eye + a)
    ch, sh = mp.cosh(zeta), mp.sinh(zeta)
    g = mp.zeros(m + 1, m + 1)
    g[0, 0] = ch
    for j in range(m):
        g[0, j + 1] = g[j + 1, 0] = sh * n[j]
        for k in range(m):
            g[j + 1, k + 1] = (j == k) + (ch - 1) * n[j] * n[k]
    rot = mp.eye(m + 1)
    for j in range(m):
        for k in range(m):
            rot[j + 1, k + 1] = rho0[j, k]

    def rounded(x):
        return np.array(x.tolist(), dtype=float)

    return rounded(g * rot), rounded(n)[:, 0], rounded(rho0)


@pytest.mark.parametrize("m", [3, 5, 8])
@pytest.mark.parametrize("zeta", [8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 24.0])
def test_factor_at_large_rapidity_matches_exact_matrices(m, zeta):
    """The split reads rho to about eps cosh(zeta) against matrices built in
    high precision, and the form check accepts them.  The induced action and
    the reconstruction use that rho without rejecting it as non-orthogonal."""
    g, n, rho0 = _exact_boost_rotation(np.random.default_rng([m, int(zeta)]), m, zeta)
    pair = factor_boost_rotation(g)
    assert abs(pair.rho - rho0).max() <= 1e-15 * np.cosh(zeta)
    assert abs(pair.f_prime.sigma - 0.5 * zeta * n).max() <= 1e-14
    v = np.linspace(-1.0, 1.0, m)
    _, moved = induced_action(g, CosetPoint(np.zeros(m)), v, vector_hrep(m))
    assert abs(moved - rho0 @ v).max() <= 1e-15 * np.cosh(zeta)
    point, w = induced_action(g, CosetPoint(np.full(m, 0.05)), np.ones(m), vector_hrep(m))
    assert point.m == m and w.shape == (m,)
    if m <= 5:
        spinor = spinor_hrep(m)
        _, w = induced_action(g, CosetPoint(np.full(m, 0.05)), np.ones(spinor.d), spinor)
        assert w.shape == (spinor.d,)
    assert abs(reconstruct(pair) - g).max() <= 1e-15 * np.cosh(zeta) ** 2


@settings(deadline=None, derandomize=True)
@given(m=st.integers(2, 6), zeta=st.floats(0.0, 24.0), seed=st.integers(0, 2**32 - 1))
def test_split_matches_exact_matrices_at_random_rapidity(m, zeta, seed):
    """The bounds of the fixed-rapidity test above, for random rapidity,
    boost axis and rotation."""
    g, n, rho0 = _exact_boost_rotation(np.random.default_rng(seed), m, zeta)
    pair = factor_boost_rotation(g)
    assert abs(pair.rho - rho0).max() <= 1e-15 * np.cosh(zeta)
    assert abs(pair.f_prime.sigma - 0.5 * zeta * n).max() <= 1e-14


@pytest.mark.parametrize("m", [3, 5, 8])
@pytest.mark.parametrize("zeta", [0.5, 10.0])
def test_form_check_rejects_one_corrupted_entry(m, zeta):
    """Scaling the tolerance by |g|^T |g| still catches a 1e-7 relative error
    in any single entry, including the O(1) entries of a large boost."""
    g, _, _ = _exact_boost_rotation(np.random.default_rng([m, 7]), m, zeta)
    factor_boost_rotation(g)
    delta = 1e-7 * abs(g).max()
    for idx in np.ndindex(g.shape):
        for sign in (1.0, -1.0):
            bad = g.copy()
            bad[idx] += sign * delta
            with pytest.raises(DomainError):
                factor_boost_rotation(bad)


@pytest.mark.parametrize("bad, message", [(np.nan, "non-finite"), (np.inf, "non-finite"), (1e200, "preserve")])
def test_form_check_rejects_non_finite_and_overflowing_g(bad, message):
    """A NaN entry used to read as a matrix that does not preserve the form,
    and an inf or overflowing one raised numpy's RuntimeWarning from the
    form product."""
    g = np.eye(4)
    g[0, 0] = bad
    with pytest.raises(DomainError, match=message):
        factor_boost_rotation(g)
    with pytest.raises(DomainError, match=message):
        induced_action(np.stack([np.eye(4), g]), CompositeSection(np.zeros((2, 3)), np.ones((2, 3))), hrep=vector_hrep(3))


def test_factor_identity_and_pure_boost():
    pair = factor_boost_rotation(np.eye(4))
    assert pair.f_prime.norm == 0.0
    np.testing.assert_array_equal(pair.rho, np.eye(3))
    # a coset representative factors into itself
    sig = np.array([0.3, -0.1, 0.25])
    pair = factor_boost_rotation(exp_coset(CosetPoint(sig)))
    np.testing.assert_allclose(pair.f_prime.sigma, sig, atol=1e-14)
    np.testing.assert_allclose(pair.rho, np.eye(3), atol=1e-14)
    # a quotient by a norm divides by the norm unless it is 0: a floor at
    # the smallest normal float used to take a point of size 1e-300, or a
    # subnormal one, to a representative and a split of 0
    for s in (1e-300, 1e-310):
        g = exp_coset(CosetPoint(np.array([s, 0.0, 0.0])))
        assert g[1, 0] == math.sinh(2.0 * s)
        np.testing.assert_allclose(factor_boost_rotation(g).f_prime.sigma, [s, 0.0, 0.0], rtol=1e-15, atol=0)


def test_factor_strips_the_rotation():
    sig = np.array([0.4, 0.1, -0.2])
    rho = vector_hrep(3).exp(np.array([0.3, -0.4, 0.2]))
    g = exp_coset(CosetPoint(sig)) @ rotation_embed(3, rho)
    pair = factor_boost_rotation(g)
    np.testing.assert_allclose(pair.f_prime.sigma, sig, atol=1e-12)
    np.testing.assert_allclose(pair.rho, rho, atol=1e-12)
    np.testing.assert_allclose(reconstruct(pair), g, atol=1e-12)


def test_factor_reconstructs_random_transformations():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(200):
        zeta = rng.uniform(0.0, 2.0)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rho = vector_hrep(3).exp(rng.uniform(-1.0, 1.0, 3))
        g = boost_matrix(3, zeta, axis) @ rotation_embed(3, rho)
        worst = max(worst, abs(reconstruct(factor_boost_rotation(g)) - g).max())
    assert worst < 1e-10


def test_rotation_log_round_trip():
    hrep = vector_hrep(3)
    coords = np.array([0.4, -0.3, 0.8])
    rho = hrep.exp(coords)
    np.testing.assert_allclose(rotation_log_coords(rho), coords, atol=1e-12)


def test_rotation_log_single_plane():
    theta = 2.9
    rho = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    coords = rotation_log_coords(rho)
    np.testing.assert_allclose(coords, [theta, 0.0, 0.0], atol=1e-12)
    # the sine of a subnormal angle used to underflow in its sum of squares
    rho = np.eye(3)
    rho[1, 0], rho[0, 1] = 1e-310, -1e-310
    np.testing.assert_array_equal(rotation_log_coords(rho), [1e-310, 0.0, 0.0])


def _schur_log_coords(r):
    """Reference rotation log: one angle per 2x2 block of the real Schur form."""
    m = r.shape[0]
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
                raise BranchError("rotation by pi")
            i += 1
    w = q @ log_block @ q.T
    i, k = np.array(h_pairs(m)).T
    return w[k - 1, i - 1]


def _plane_rotation(m, angles, rng):
    """Q diag(R(angles[0]), R(angles[1]), ..., 1) Q^T with a random Q in SO(m)."""
    block = np.eye(m)
    for j, theta in enumerate(angles):
        c, s = math.cos(theta), math.sin(theta)
        block[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[c, -s], [s, c]]
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    q[:, 0] *= np.sign(np.linalg.det(q))
    return q @ block @ q.T


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8])
def test_rotation_log_matches_the_schur_reference(m):
    """The eigh log equals the real-Schur log for angles up to pi - 1e-3,
    for equal angles on two planes, and at the identity; one stacked call
    equals the single calls."""
    rng = np.random.default_rng(m)
    cases = [np.eye(m)]
    for top in (0.3, 2.0, math.pi - 1e-3):
        for _ in range(10):
            cases.append(_plane_rotation(m, rng.uniform(-top, top, m // 2), rng))
        cases.append(_plane_rotation(m, [top] * (m // 2), rng))
    stack = np.array(cases)
    got = rotation_log_coords(stack)
    for r, theta in zip(cases, got):
        # the log is ill-conditioned like 1 / (pi - |theta|) near pi
        np.testing.assert_allclose(theta, _schur_log_coords(r), rtol=0.0, atol=1e-11)
        np.testing.assert_allclose(theta, rotation_log_coords(r), rtol=0.0, atol=1e-14)
    np.testing.assert_array_equal(got[0], 0.0)
    np.testing.assert_allclose(vector_hrep(m).exp(got), stack, rtol=0.0, atol=1e-13)


def test_rotation_log_branch_at_exactly_pi():
    rng = np.random.default_rng(4)
    for m, angles in ((2, [math.pi]), (4, [0.5, math.pi]), (4, [math.pi, math.pi])):
        with pytest.raises(BranchError):
            rotation_log_coords(_plane_rotation(m, angles, rng))
    # one bad rotation in a stack raises for the stack
    with pytest.raises(BranchError):
        rotation_log_coords(np.array([np.eye(3), np.diag([-1.0, -1.0, 1.0])]))
    theta = rotation_log_coords(_plane_rotation(2, [math.pi - 1e-3], rng))
    assert theta[0] == pytest.approx(math.pi - 1e-3, abs=1e-12)


def test_rotation_log_branch_and_validation():
    with pytest.raises(BranchError):
        rotation_log_coords(np.diag([-1.0, -1.0, 1.0]))
    with pytest.raises(DomainError):
        rotation_log_coords(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(OrthochronousError, match="spatial orientation"):
        rotation_log_coords(np.diag([1.0, -1.0]))
    assert rotation_log_coords(np.eye(1)).size == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_rotation_log_rejects_non_finite_rho(bad):
    """A NaN rho used to reach eigh and raise numpy's LinAlgError."""
    with pytest.raises(DomainError, match="not orthogonal"):
        rotation_log_coords(np.full((3, 3), bad))
    rho = np.eye(3)
    rho[0, 0] = bad
    with pytest.raises(DomainError, match="not orthogonal"):
        rotation_log_coords(np.stack([np.eye(3), rho]))


def test_hrep_construction_checks_brackets():
    alg = so1m_algebra(3)
    with pytest.raises(ClosureError):
        HRepresentation(alg, np.zeros((3, 2, 2)) + np.eye(2))
    good = vector_hrep(3)
    assert good.d == 3
    assert vector_hrep(3) is vector_hrep(3)
    assert spinor_hrep(3).d == 4
    with pytest.raises(DimensionError):
        good.matrix(np.zeros(2))


def test_hrep_rejects_an_empty_representation_space():
    """d = 0 used to reach the closure check and fail there with numpy's
    bare ValueError on an empty reduction."""
    with pytest.raises(DimensionError, match="d >= 1"):
        HRepresentation(so1m_algebra(3), np.zeros((3, 0, 0)))


def _reference_spinor_generators(m):
    """0.25 [G_k, G_i] of the tensor-doubled gammas, plane by plane."""
    gammas = kron_gammas(m)
    d = gammas[0].shape[0]
    gens = np.zeros((len(h_pairs(m)), d, d))
    for a, (i, k) in enumerate(h_pairs(m)):
        gk, gi = gammas[k - 1], gammas[i - 1]
        gens[a] = 0.25 * (gk @ gi - gi @ gk)
    return gens


@pytest.mark.parametrize("m", range(2, 9))
def test_spinor_generators_equal_the_gamma_commutators(m):
    """The Clifford images of so1m_algebra's rotation generators are the
    gamma-matrix commutators byte for byte."""
    assert spinor_hrep(m).generators.tobytes() == _reference_spinor_generators(m).tobytes()


def _reference_closure_residual(gens, c_hh):
    """The closure residual as the per-a loop formed it, kept verbatim: every
    product G_a G_b is formed twice, once in each of its two rows."""
    worst = 0.0
    for a in range(gens.shape[0]):
        lhs = gens[a] @ gens - gens @ gens[a]
        rhs = np.tensordot(c_hh[a], gens, axes=1)
        worst = max(worst, float(abs(lhs - rhs).max()))
    return worst


def _closure_cases():
    """(generators, c_hh, one term per pair) of the vector and spinor reps,
    of dense similar copies of them, of the vector rep in a rotated h basis,
    and of brackets broken on the diagonal or in one order of a pair."""
    rng = np.random.default_rng(12)
    cases = []
    for m in range(2, 7):
        alg = so1m_algebra(m)
        for hrep in (vector_hrep(m), spinor_hrep(m)):
            g = hrep.generators
            p = rng.standard_normal(g.shape[1:]) + 3.0 * np.eye(hrep.d)
            cases.append((g, alg.c_hh, True))
            cases.append((p @ g @ np.linalg.inv(p), alg.c_hh, True))
        q = np.linalg.qr(rng.standard_normal((alg.dim_h, alg.dim_h)))[0]
        g = np.einsum("ab,bij->aij", q, vector_hrep(m).generators)
        cases.append((g, _rotated_h_basis(alg, q).c_hh, False))
    for a, b in ((2, 2), (0, 2), (2, 0)):
        broken = np.array(so1m_algebra(3).c_hh)
        broken[a, b, 1] += 0.5
        cases.append((vector_hrep(3).generators, broken, True))
    return cases


@pytest.mark.parametrize("chunk", [None, 1, 64])
def test_closure_residual_matches_the_per_a_loop(monkeypatch, chunk):
    """Each ordered product formed once gives the per-a loop's residual bit
    for bit wherever c_hh has one term per pair (then every right-hand side
    is exact), in one chunk or in many.  A dense c_hh sums its right-hand
    sides in GEMMs of another shape, which some BLAS kernels round apart in
    the last bit."""
    if chunk is not None:
        monkeypatch.setattr(lie, "_CLOSURE_CHUNK", chunk)
    residuals = []
    for g, c_hh, exact in _closure_cases():
        got = induced._closure_residual(g, c_hh)
        want = _reference_closure_residual(g, c_hh)
        if exact:
            assert got == want
        else:
            assert abs(got - want) <= 1e-15
        residuals.append(want)
    assert max(residuals[:-3]) <= 1e-10
    assert residuals[-3:] == [0.5, 0.5, 0.5]


@pytest.mark.parametrize("nh", [0, 1])
def test_gauge_step_on_degenerate_splits(nh):
    """With every bracket zero (an abelian f, with dim_h = 0 or with a
    central h) a gauge step moves sigma by eps X_f and leaves v; dim_h = 0
    used to fail a reshape of the empty compensator product."""
    alg = lie.ReductiveAlgebra(np.zeros((nh, nh, nh)), np.zeros((2, 2, nh)), np.zeros((2, nh, 2)))
    hrep = HRepresentation(alg, np.zeros((nh, 2, 2)))
    section = CompositeSection(np.array([[0.1, 0.2], [0.0, 0.3]]), np.array([[1.0, 0.0], [0.5, 0.5]]))
    xi = np.tile(np.concatenate([np.full(nh, 0.7), [0.1, 0.2]]), (2, 1))
    out = gauge_transform_section(alg, section, xi, 0.5, hrep)
    assert out.sigma.tobytes() == (section.sigma + 0.5 * xi[:, nh:]).tobytes()
    assert out.v.tobytes() == section.v.tobytes()


def _width(gens):
    """The most nonzeros in any column of the stack."""
    return int((gens != 0.0).sum(axis=1).max(initial=0))


def _monomial(gens, c):
    """Each column of each G_a and each c[a, b, :] has at most one nonzero."""
    return _width(gens) <= 1 and int((c != 0.0).sum(axis=-1).max(initial=0)) <= 1


def _matrix_arm_calls(monkeypatch):
    """A list that gains an entry each time the closure check takes its
    matrix arm, the one caller of lie._pair_index there."""
    calls, pair_index = [], lie._pair_index
    monkeypatch.setattr(lie, "_pair_index", lambda n: calls.append(n) or pair_index(n))
    return calls


@pytest.mark.parametrize("chunk", [None, 1, 64])
def test_slot_arm_matches_the_per_a_loop_on_every_width_one_case(monkeypatch, chunk):
    """Each exact case with one nonzero per column is monomial and takes the
    slot arm, which gives the per-a loop's residual bit for bit."""
    cases = [(g, c_hh) for g, c_hh, exact in _closure_cases() if exact and _width(g) == 1]
    assert len(cases) == 13
    if chunk is not None:
        monkeypatch.setattr(lie, "_CLOSURE_CHUNK", chunk)
    matrix = _matrix_arm_calls(monkeypatch)
    for g, c_hh in cases:
        assert _monomial(g, c_hh)
        assert induced._closure_residual(g, c_hh) == _reference_closure_residual(g, c_hh)
    assert matrix == []


@pytest.mark.parametrize("chunk", [None, 1, 64])
def test_slot_arm_matches_the_per_a_loop_on_random_monomial_stacks(monkeypatch, chunk):
    """Random values at random rows, with some columns and some c[a, b, :]
    empty: the three entries of a column often share a row, and their sums
    round, so the slot arm adds them in the matrix products' order or
    misses the per-a loop's bits."""
    if chunk is not None:
        monkeypatch.setattr(lie, "_CLOSURE_CHUNK", chunk)
    rng = np.random.default_rng(19)
    for n, d in ((4, 2), (5, 3), (7, 6)):
        g = np.zeros((n, d, d))
        a, j = np.indices((n, d))
        g[a, rng.integers(0, d, (n, d)), j] = rng.uniform(-2.0, 2.0, (n, d)) * (rng.random((n, d)) < 0.8)
        c = np.zeros((n, n, n))
        a, b = np.indices((n, n))
        c[a, b, rng.integers(0, n, (n, n))] = rng.uniform(-2.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.8)
        assert _monomial(g, c)
        want = _reference_closure_residual(g, c)
        assert want > 1.0
        assert induced._closure_residual(g, c) == want


@pytest.mark.parametrize("chunk", [None, 1, 64])
def test_a_second_nonzero_in_a_line_takes_the_matrix_arm(monkeypatch, chunk):
    """The vector rep of so(1,4) with one column of a generator, or one
    c[a, b, :], given a second nonzero is not monomial: it multiplies its
    matrices and gives the per-a loop's residual to rounding."""
    if chunk is not None:
        monkeypatch.setattr(lie, "_CLOSURE_CHUNK", chunk)
    g, c = np.array(vector_hrep(4).generators), np.array(so1m_algebra(4).c_hh)
    assert _monomial(g, c)
    g[0, 3, 0] = 0.5
    c2 = np.array(c)
    c2[0, 1, 0] = 0.5
    matrix = _matrix_arm_calls(monkeypatch)
    for g, c in ((g, c), (vector_hrep(4).generators, c2)):
        assert not _monomial(g, c)
        got, want = induced._closure_residual(g, c), _reference_closure_residual(g, c)
        assert want >= 0.5
        assert abs(got - want) <= 1e-15 * want
    assert len(matrix) == 2


def test_a_nan_gives_a_nan_residual_on_the_slot_arm(monkeypatch):
    """An all-zero stack with a NaN in c, and the vector rep of so(1,3) with
    one entry NaN, are monomial: each NaN meets a cell, an empty column's
    (0, 0.0) slot included."""
    c = np.zeros((3, 3, 3))
    c[1, 2, 0] = np.nan
    g = np.array(vector_hrep(3).generators)
    g[1, 0, 2] = np.nan
    matrix = _matrix_arm_calls(monkeypatch)
    for g, c in ((np.zeros((3, 4, 4)), c), (g, so1m_algebra(3).c_hh)):
        assert _monomial(g, c)
        assert math.isnan(induced._closure_residual(g, c))
    assert matrix == []


def _perturbed_so18():
    """The adjoint stack and structure tensor of so(1,8) with [F_1, H_(1,2)]
    = -F_2 changed to -F_2 / 2 in both orders: one term per pair still."""
    alg = so1m_algebra(8)
    c = lie._total_structure(alg)
    nh = alg.dim_h
    assert c[nh, 0, nh + 1] == -1.0 and c[0, nh, nh + 1] == 1.0
    c[nh, 0, nh + 1] += 0.5
    c[0, nh, nh + 1] -= 0.5
    return c.transpose(0, 2, 1), c


def test_slot_arm_matches_the_per_a_loop_past_m_6():
    """The spinor rep of so(1,7), the adjoint matrices of so(1,10) and a
    perturbed so(1,8) take the slot arm, and their residuals are the per-a
    loop's bit for bit."""
    c10 = lie._total_structure(so1m_algebra(10))
    cases = [
        (spinor_hrep(7).generators, so1m_algebra(7).c_hh),
        (c10.transpose(0, 2, 1), c10),
        _perturbed_so18(),
    ]
    got = []
    for g, c in cases:
        assert _width(g) == 1
        assert _monomial(g, c)
        got.append(induced._closure_residual(g, c))
        assert got[-1] == _reference_closure_residual(g, c)
    assert got[:2] == [0.0, 0.0]
    assert got[2] >= 0.5


def _sparse_stack(rng, n, d, w, wc):
    """Random generators with w nonzeros in every column and a random c with
    wc nonzeros in every c[a, b, :]."""
    gens = np.zeros((n, d, d))
    for a in range(n):
        for j in range(d):
            gens[a, rng.choice(d, w, replace=False), j] = rng.uniform(-2.0, 2.0, w)
    c = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            c[a, b, rng.choice(n, wc, replace=False)] = rng.uniform(-2.0, 2.0, wc)
    return gens, c


@pytest.mark.parametrize("chunk", [None, 1, 64])
@pytest.mark.parametrize("w, wc", [(2, 1), (2, 3), (3, 2)])
def test_matrix_arm_matches_the_per_a_loop_on_wider_sparse_stacks(monkeypatch, chunk, w, wc):
    """Stacks with w > 1 nonzeros in each column are not monomial and take
    the matrix arm, whose products are formed in another order than the
    per-a loop's, so the residuals agree to rounding."""
    if chunk is not None:
        monkeypatch.setattr(lie, "_CLOSURE_CHUNK", chunk)
    rng = np.random.default_rng(10 * w + wc)
    for n, d in ((5, 7), (9, 12)):
        g, c = _sparse_stack(rng, n, d, w, wc)
        assert _width(g) == w
        got = induced._closure_residual(g, c)
        want = _reference_closure_residual(g, c)
        assert want > 1.0
        assert abs(got - want) <= 1e-15 * want


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hrep_rejects_non_finite_generators(bad):
    """A NaN generator used to pass the closure check: its NaN residual
    compared false against the bar."""
    gens = np.array(vector_hrep(3).generators)
    gens[1, 0, 2] = bad
    with pytest.raises(ClosureError, match="non-finite"):
        HRepresentation(so1m_algebra(3), gens)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ["vector", "spinor"])
def test_hrep_maps_reject_non_finite_input(kind, bad):
    """A NaN rho used to reach eigh and raise numpy's LinAlgError, and an
    inf coordinate raised a RuntimeWarning from the GEMM of matrix."""
    hrep = (vector_hrep if kind == "vector" else spinor_hrep)(3)
    rho = np.eye(3)
    rho[0, 1] = bad
    for call, arg in ((hrep.lift, np.full((3, 3), bad)), (hrep.lift, rho), (hrep.matrix, [bad, 0.0, 0.0]), (hrep.exp, [bad, 0.0, 0.0])):
        with pytest.raises(DomainError, match="non-finite"):
            call(arg)


@pytest.mark.parametrize("kind, m", [("vector", m) for m in (2, 3, 4, 5)] + [("spinor", m) for m in (2, 3, 4, 5)])
def test_compensator_action_is_the_matrix_action(kind, m):
    """sum_a dI^a (G_a v) equals (sum_a dI^a G_a) v to 1e-15, and every row
    of a batched call is, bit for bit, the single-node call on that row."""
    rng = np.random.default_rng(30 + m)
    hrep = (vector_hrep if kind == "vector" else spinor_hrep)(m)
    dI = rng.uniform(-1.0, 1.0, (300, hrep.algebra.dim_h))
    v = rng.uniform(-1.0, 1.0, (300, hrep.d))
    dI[::7] = 0.0
    v[3::7, 0] = -0.0
    dv = induced._compensator_action(hrep, dI, v)
    want = (hrep.matrix(dI) @ v[:, :, None])[:, :, 0]
    assert np.abs(dv - want).max() <= 1e-15
    for i in range(len(v)):
        one = induced._compensator_action(hrep, dI[i : i + 1], v[i : i + 1])
        assert one[0].tobytes() == dv[i].tobytes()


def test_induced_action_under_pure_rotation():
    """diag(1, rho) conjugates the representative: sigma -> rho sigma, and a
    vector in the vector representation just rotates."""
    m = 3
    hrep = vector_hrep(m)
    coords = np.array([0.2, -0.5, 0.3])
    rho = hrep.exp(coords)
    g = rotation_embed(m, rho)
    sig = np.array([0.3, 0.1, -0.4])
    v = np.array([1.0, -2.0, 0.5])
    new_point, new_v = induced_action(g, CosetPoint(sig), v, hrep)
    np.testing.assert_allclose(new_point.sigma, rho @ sig, atol=1e-12)
    np.testing.assert_allclose(new_v, rho @ v, atol=1e-12)


def test_half_turn_moves_vectors_but_has_no_spinor_lift():
    """The vector representation applies rho itself, so a plane turned by pi
    is fine there; a spinor needs the plane angles, which have no principal
    branch at pi."""
    g = np.diag([1.0, -1.0, -1.0, 1.0])
    point = CosetPoint(np.array([0.1, 0.2, 0.3]))
    new_point, new_v = induced_action(g, point, np.array([1.0, 2.0, 3.0]), vector_hrep(3))
    np.testing.assert_allclose(new_point.sigma, [-0.1, -0.2, 0.3], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(new_v, [-1.0, -2.0, 3.0], rtol=0.0, atol=1e-14)
    with pytest.raises(BranchError):
        induced_action(g, point, np.ones(4), spinor_hrep(3))


def test_lift_takes_nested_lists_and_rejects_non_square_input():
    rho = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    for hrep in (vector_hrep(3), spinor_hrep(3)):
        np.testing.assert_array_equal(hrep.lift(rho), hrep.lift(np.array(rho)))
        for bad in (1.0, [1.0, 0.0, 0.0], np.eye(3)[:2], np.zeros((2, 3, 2))):
            with pytest.raises(DimensionError, match="square"):
                hrep.lift(bad)
        with pytest.raises(DimensionError, match="no image"):
            hrep.lift(np.eye(4))


def test_induced_action_composes_in_both_reps():
    rng = np.random.default_rng(21)
    m = 3
    for hrep in (vector_hrep(m), spinor_hrep(m)):
        for _ in range(25):
            sig = rng.uniform(-1.0, 1.0, m)
            sig *= rng.uniform(0.0, 1.0) / np.linalg.norm(sig)
            point = CosetPoint(sig)
            v = rng.uniform(-1.0, 1.0, hrep.d)
            gs = []
            for _ in range(2):
                axis = rng.normal(size=m)
                axis /= np.linalg.norm(axis)
                rho = vector_hrep(m).exp(rng.uniform(-0.25, 0.25, 3))
                gs.append(boost_matrix(m, rng.uniform(0.0, 1.0), axis) @ rotation_embed(m, rho))
            g1, g2 = gs
            p12, v12 = induced_action(g1 @ g2, point, v, hrep)
            p2, v2 = induced_action(g2, point, v, hrep)
            p1, v1 = induced_action(g1, p2, v2, hrep)
            np.testing.assert_allclose(p12.sigma, p1.sigma, atol=1e-8)
            np.testing.assert_allclose(v12, v1, atol=1e-8)
    # Haar-random rotations and rapidity <= 2: lift takes each rho's principal
    # branch on its own, so the spinor action composes only up to the sign of
    # each node's vector, while the vector rep composes exactly
    n = 200
    sig = rng.uniform(-1.0, 1.0, (n, m))
    sig *= rng.uniform(0.0, 1.0, (n, 1)) / np.linalg.norm(sig, axis=1, keepdims=True)
    g1, g2 = (
        boost_matrix(m, rng.uniform(0.0, 2.0, n), rng.normal(size=(n, m)))
        @ rotation_embed(m, _haar_rotations(rng.normal(size=(n, m, m))))
        for _ in range(2)
    )
    for hrep in (vector_hrep(m), spinor_hrep(m)):
        section = CompositeSection(sig, rng.uniform(-1.0, 1.0, (n, hrep.d)))
        both = induced_action(g1 @ g2, section, hrep=hrep)
        after = induced_action(g1, induced_action(g2, section, hrep=hrep), hrep=hrep)
        np.testing.assert_allclose(both.sigma, after.sigma, rtol=0, atol=1e-10)
        same, flipped = (abs(both.v - sign * after.v).max(axis=1) for sign in (1.0, -1.0))
        if hrep is vector_hrep(m):
            assert same.max() <= 1e-10
        else:
            assert np.minimum(same, flipped).max() <= 1e-10


def test_induced_action_validation():
    hrep = vector_hrep(3)
    point = CosetPoint(np.zeros(3))
    with pytest.raises(DimensionError):
        induced_action(np.eye(4), point, np.zeros(4), hrep)
    with pytest.raises(DimensionError):
        induced_action(np.eye(3), point, np.zeros(3), hrep)
    with pytest.raises(DimensionError):
        induced_action(np.stack([np.eye(4)] * 2), point, np.zeros(3), hrep)
    with pytest.raises(TypeError):
        induced_action(np.eye(4), point, np.zeros(3))
    section = CompositeSection(np.zeros((2, 3)), np.ones((2, 3)))
    with pytest.raises(DimensionError):
        induced_action(np.stack([np.eye(4)] * 3), section, hrep=hrep)
    with pytest.raises(TypeError):
        induced_action(np.eye(4), section, section.v, hrep)
    with pytest.raises(DimensionError):
        induced_action(np.eye(4), section, hrep=spinor_hrep(3))
    with pytest.raises(OrthochronousError):
        induced_action(np.stack([np.eye(4), np.diag([1.0, -1.0, 1.0, 1.0])]), section, hrep=hrep)


@pytest.mark.parametrize("kind", ["vector", "spinor"])
@pytest.mark.parametrize("m", [3, 5, 8])
def test_stacked_induced_action_equals_point_calls(kind, m):
    """A section moved by a stack of matrices, or by one matrix, equals the
    loop of single-point calls."""
    rng = np.random.default_rng([m, len(kind)])
    hrep = (vector_hrep if kind == "vector" else spinor_hrep)(m)
    n = 12
    zeta = rng.uniform(0.0, 3.0, n)
    axis = rng.normal(size=(n, m))
    rho = vector_hrep(m).exp(rng.uniform(-1.0, 1.0, (n, m * (m - 1) // 2)))
    g = boost_matrix(m, zeta, axis) @ rotation_embed(m, rho)
    sigma = rng.uniform(-0.5, 0.5, (n, m))
    section = CompositeSection(sigma, rng.uniform(-1.0, 1.0, (n, hrep.d)))
    moved = induced_action(g, section, hrep=hrep)
    shared = induced_action(g[0], section, hrep=hrep)
    for i in range(n):
        p, w = induced_action(g[i], section.point(i), section.v[i], hrep)
        np.testing.assert_allclose(moved.sigma[i], p.sigma, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(moved.v[i], w, rtol=0.0, atol=1e-13)
        p, w = induced_action(g[0], section.point(i), section.v[i], hrep)
        np.testing.assert_allclose(shared.sigma[i], p.sigma, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(shared.v[i], w, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_form_rejects_a_non_finite_vector(bad):
    """A non-finite v raises DimensionError in both point forms, as a
    section's vectors do; it used to come back as NaN, and an inf one
    overflowed the compensator GEMM with a RuntimeWarning."""
    m = 3
    alg, hrep = so1m_algebra(m), spinor_hrep(m)
    point = CosetPoint(np.array([0.2, -0.1, 0.15]))
    v = np.array([0.7, bad, 0.2, 1.1])
    with pytest.raises(DimensionError, match="non-finite"):
        induced_action(group_from_spec(m, boost=[0.1, 0.0, 0.0]), point, v, hrep)
    with pytest.raises(DimensionError, match="non-finite"):
        infinitesimal_action(alg, alg.element(f=[1.0, 0.0, 0.0]), point, v, hrep)
    with pytest.raises(DimensionError, match="non-finite"):
        CompositeSection(point.sigma[None], v[None])


def test_infinitesimal_action_derivative_of_finite():
    m = 3
    alg = so1m_algebra(m)
    hrep = spinor_hrep(m)
    rep = defining_rep_so1m(m)
    point = CosetPoint(np.array([0.2, -0.1, 0.15]))
    xi = alg.element(h=[0.3, -0.2, 0.5], f=[1.0, 0.4, -0.6])
    v = np.array([0.7, -0.3, 0.2, 1.1])
    ds, dv = infinitesimal_action(alg, xi, point, v, hrep, order=21)
    x = rep.matrix(np.concatenate([xi.h, xi.f]))
    h = 1e-4
    pp, vp = induced_action(expm(h * x), point, v, hrep)
    pm, vm = induced_action(expm(-h * x), point, v, hrep)
    np.testing.assert_allclose(ds, (pp.sigma - pm.sigma) / (2 * h), atol=1e-7)
    np.testing.assert_allclose(dv, (vp - vm) / (2 * h), atol=1e-7)


def test_group_from_spec():
    g = group_from_spec(3, boost=[0.2, 0.0, -0.1], rotations=[(1, 3, 0.4)])
    factor_boost_rotation(g)
    only_boost = group_from_spec(3, boost=[0.2, 0.0, -0.1])
    np.testing.assert_allclose(only_boost, exp_coset(CosetPoint(np.array([0.2, 0.0, -0.1]))), atol=0.0)
    with pytest.raises(DomainError):
        group_from_spec(3, rotations=[(3, 1, 0.4)])
    with pytest.raises(DomainError):
        group_from_spec(3, rotations=[(1, 2, np.nan)])
    with pytest.raises(DomainError, match="boost entries must be finite"):
        group_from_spec(3, boost=[np.inf, 0.0, 0.0])
    with pytest.raises(DimensionError):
        group_from_spec(1)
    for bad in ([1.5, 2.7, 0.3], [True, 2, 0.3], [1, 2.0, 0.3]):
        with pytest.raises(DomainError, match="plane indices must be integers"):
            group_from_spec(3, rotations=[bad])
    np.testing.assert_array_equal(
        group_from_spec(3, rotations=[(np.int64(1), np.int64(3), 0.4)]),
        group_from_spec(3, rotations=[(1, 3, 0.4)]),
    )


def test_group_from_spec_bounds_the_rapidity():
    """The form check's entries grow like cosh^2 of the rapidity 2|boost|;
    past 354 the spec raises before any matrix is built, with no overflow
    warning (pytest turns those into errors)."""
    g = group_from_spec(3, boost=[177.0, 0.0, 0.0])
    pair = factor_boost_rotation(g)
    np.testing.assert_allclose(pair.f_prime.sigma, [177.0, 0.0, 0.0], rtol=1e-12)
    for boost in ([177.5, 0.0, 0.0], [300.0, 0.0, 0.0], [400.0, 0.0, 0.0], [0.0, 150.0, 150.0], [1e300, 1e300, 0.0]):
        with pytest.raises(DomainError, match="rapidity .* exceeds 354"):
            group_from_spec(3, boost=boost)


def test_section_construction_and_split():
    section = CompositeSection(np.zeros((4, 3)), np.ones((4, 5)))
    assert section.n_nodes == 4 and section.m == 3 and section.d == 5
    sigma = np.zeros((4, 3))
    copied = CompositeSection(sigma, np.ones((4, 5)))
    sigma[0, 0] = 9.0
    assert copied.sigma[0, 0] == 0.0
    with pytest.raises(ValueError):
        copied.sigma[0, 0] = 9.0
    back = CompositeSection(section.sigma, section.v)
    np.testing.assert_array_equal(back.sigma, section.sigma)
    with pytest.raises(DimensionError):
        CompositeSection(np.zeros((4, 3)), np.ones((5, 2)))
    with pytest.raises(DimensionError):
        CompositeSection(np.zeros(4), np.ones((4, 2)))
    with pytest.raises(DimensionError):
        CompositeSection(np.full((2, 2), np.inf), np.ones((2, 2)))


@pytest.mark.parametrize(
    "build, caller",
    [
        (lambda a: so1m_algebra(3).element(h=a).h, np.zeros(3)),
        (lambda a: ReductiveAlgebra(a, so1m_algebra(3).c_ff, so1m_algebra(3).c_fh).c_hh, np.array(so1m_algebra(3).c_hh)),
        (lambda a: InfinitesimalAction(a, np.zeros(3)).dF, np.zeros(3)),
        (lambda a: CosetPoint(a).sigma, np.zeros(3)),
        (lambda a: CompositeSection(a, np.ones((2, 2))).sigma, np.zeros((2, 3))),
        (lambda a: FactoredPair(CosetPoint(np.zeros(3)), a).rho, np.eye(3)),
    ],
    ids=["AlgebraElement", "ReductiveAlgebra", "InfinitesimalAction", "CosetPoint", "CompositeSection", "FactoredPair"],
)
def test_records_keep_read_only_copies(build, caller):
    """A record holds its own read-only copy; the caller's float array stays
    writeable and a write to it does not reach the record (the first three
    used to freeze and alias it: "assignment destination is read-only")."""
    before = caller.copy()
    held = build(caller)
    assert caller.flags.writeable and not held.flags.writeable
    caller += 1.0
    np.testing.assert_array_equal(held, before)


def test_section_json_round_trip_and_errors():
    section = CompositeSection(np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    xi = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    doc = section_to_json_dict(section, xi)
    back, xi_back = section_from_json_dict(doc)
    np.testing.assert_array_equal(back.sigma, section.sigma)
    np.testing.assert_array_equal(back.v, section.v)
    np.testing.assert_array_equal(xi_back, xi)

    plain, no_xi = section_from_json_dict(section_to_json_dict(section))
    assert no_xi is None

    with pytest.raises(DomainError):
        section_from_json_dict({"m": 2, "d": 2, "nodes": []})
    with pytest.raises(DomainError):
        section_from_json_dict({"m": 2, "nodes": [{"sigma": [0, 0], "v": [0, 0]}]})
    with pytest.raises(DomainError):
        section_from_json_dict({"m": 2.5, "d": 2, "nodes": [{"sigma": [0, 0], "v": [0, 0]}]})
    with pytest.raises(DomainError):
        section_from_json_dict(
            {"m": 2, "d": 2, "nodes": [{"sigma": [0.0, 0.0, 0.0], "v": [0.0, 0.0]}]}
        )
    # xi must cover every node with the right length
    bad = section_to_json_dict(section, xi)
    del bad["nodes"][1]["xi"]
    with pytest.raises(DomainError):
        section_from_json_dict(bad)
    bad2 = section_to_json_dict(section, xi)
    bad2["nodes"][0]["xi"] = [1.0]
    with pytest.raises(DomainError):
        section_from_json_dict(bad2)
    # the writer holds xi to the same rule: a 1-row xi for 2 nodes raised a
    # bare IndexError, and a (2, 2) xi or a NaN was written out
    for short in (xi[:1], xi[:, :2]):
        with pytest.raises(DimensionError, match=r"xi must have shape \(2, 3\)"):
            section_to_json_dict(section, short)
    for x in (np.nan, np.inf):
        with pytest.raises(DomainError, match="xi has non-finite entries"):
            section_to_json_dict(section, np.where(xi > 0.5, x, xi))


@pytest.mark.parametrize(
    "key, value", [("sigma", ["0.1", 0.2]), ("v", [True, 0.0]), ("xi", [0.1, 0.2, "0.3"]), ("v", [None, 0.0])]
)
def test_section_json_rejects_strings_and_booleans(key, value):
    doc = section_to_json_dict(
        CompositeSection(np.array([[0.1, 0.2], [0.3, 0.4]]), np.eye(2)), np.zeros((2, 3))
    )
    doc["nodes"][1][key] = value
    with pytest.raises(DomainError, match=f"node 1: {key} must hold numbers"):
        section_from_json_dict(doc)


def test_section_json_names_the_node_with_a_bad_entry():
    doc = section_to_json_dict(CompositeSection(np.zeros((3, 2)), np.ones((3, 2))), np.zeros((3, 3)))
    doc["nodes"][2]["v"] = [1.0, 0.0, 0.0]
    with pytest.raises(DomainError, match="node 2: v must have 2 entries"):
        section_from_json_dict(doc)
    doc["nodes"][2]["v"] = [[1.0], [0.0, 0.0]]
    with pytest.raises(DomainError, match="node 2: v must hold numbers"):
        section_from_json_dict(doc)
    doc["nodes"][2]["v"] = {"a": 1}
    with pytest.raises(DomainError, match="node 2: v must hold numbers"):
        section_from_json_dict(doc)
    del doc["nodes"][1]["sigma"]
    with pytest.raises(DomainError, match="every node needs a numeric sigma"):
        section_from_json_dict(doc)


def test_gauge_step_moves_each_node_independently():
    m = 2
    alg = so1m_algebra(m)
    hrep = vector_hrep(m)
    section = CompositeSection(
        np.array([[0.1, 0.0], [0.0, 0.2], [0.3, -0.1]]), np.eye(3, 2)
    )
    xi = np.array([[0.5, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, -0.3, 0.4]])
    stepped = gauge_transform_section(alg, section, xi, 0.1, hrep)
    xi2 = xi.copy()
    xi2[1] = [0.9, -0.9, 0.9]
    stepped2 = gauge_transform_section(alg, section, xi2, 0.1, hrep)
    np.testing.assert_array_equal(stepped.sigma[0], stepped2.sigma[0])
    np.testing.assert_array_equal(stepped.sigma[2], stepped2.sigma[2])
    np.testing.assert_array_equal(stepped.v[0], stepped2.v[0])
    assert not np.array_equal(stepped.sigma[1], stepped2.sigma[1])


def test_gauge_flow_approaches_finite_action():
    m = 2
    alg = so1m_algebra(m)
    hrep = vector_hrep(m)
    rep = defining_rep_so1m(m)
    section = CompositeSection(np.array([[0.1, -0.2]]), np.array([[1.0, 0.5]]))
    xi = np.array([[0.4, 0.3, -0.2]])
    x = rep.matrix(xi[0])
    target_p, target_v = induced_action(expm(x), section.point(0), section.v[0], hrep)
    errs = []
    for steps in (8, 16, 32):
        flowed = flow_section(alg, section, xi, 1.0, steps, hrep)
        errs.append(
            max(abs(flowed.sigma[0] - target_p.sigma).max(), abs(flowed.v[0] - target_v).max())
        )
    assert errs[1] < 0.65 * errs[0]
    assert errs[2] < 0.65 * errs[1]


def test_gauge_validation():
    m = 2
    alg = so1m_algebra(m)
    hrep = vector_hrep(m)
    section = CompositeSection(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        gauge_transform_section(alg, section, np.zeros((2, 5)), 0.1, hrep)
    with pytest.raises(DomainError):
        flow_section(alg, section, np.zeros((2, 3)), 1.0, 0, hrep)
    with pytest.raises(DimensionError):
        gauge_transform_section(
            alg, CompositeSection(np.zeros((2, 2)), np.zeros((2, 3))), np.zeros((2, 3)), 0.1, hrep
        )
    with pytest.raises(DimensionError, match="xi must hold numbers"):
        flow_section(alg, section, [[0.0] * 3, [0.0] * 2], 1.0, 2, hrep)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gauge_rejects_non_finite_generators_and_times(bad):
    """A non-finite xi, t or eps names itself before any step is taken,
    instead of surfacing as a non-finite section after one."""
    m = 3
    alg = so1m_algebra(m)
    hrep = vector_hrep(m)
    section = CompositeSection(np.full((2, m), 0.1), np.ones((2, m)))
    xi = np.zeros((2, alg.dim))
    for col in (0, alg.dim_h):
        bad_xi = xi.copy()
        bad_xi[1, col] = bad
        with pytest.raises(DomainError, match="xi has non-finite entries"):
            flow_section(alg, section, bad_xi, 1.0, 2, hrep)
        with pytest.raises(DomainError, match="xi has non-finite entries"):
            gauge_transform_section(alg, section, bad_xi, 0.1, hrep)
    with pytest.raises(DomainError, match="t must be finite"):
        flow_section(alg, section, xi, bad, 2, hrep)
    with pytest.raises(DomainError, match="eps must be finite"):
        gauge_transform_section(alg, section, xi, bad, hrep)


@pytest.mark.parametrize("bad", ["1", None, True, np.bool_(True), np.array([0.1, 0.2]), np.array(0.1), 1j, 10**400])
def test_flow_time_and_step_must_be_real_numbers(bad):
    """A string or None used to raise numpy's bare TypeError from isfinite,
    and an array t an ambiguous-truth ValueError."""
    alg = so1m_algebra(2)
    section = CompositeSection(np.zeros((1, 2)), np.ones((1, 2)))
    xi = np.zeros((1, 3))
    with pytest.raises(DomainError, match="t must be finite and real"):
        flow_section(alg, section, xi, bad, 2, vector_hrep(2))
    with pytest.raises(DomainError, match="eps must be finite and real"):
        gauge_transform_section(alg, section, xi, bad, vector_hrep(2))


def test_flow_time_and_step_accept_real_scalars():
    alg = so1m_algebra(2)
    section = CompositeSection(np.full((1, 2), 0.1), np.ones((1, 2)))
    xi = np.full((1, 3), 0.2)
    want = flow_section(alg, section, xi, 0.5, 2, vector_hrep(2))
    for t in (np.float64(0.5), np.float32(0.5), Fraction(1, 2)):
        got = flow_section(alg, section, xi, t, 2, vector_hrep(2))
        assert got.sigma.tobytes() == want.sigma.tobytes() and got.v.tobytes() == want.v.tobytes()
    assert flow_section(alg, section, xi, 1, 2, vector_hrep(2)).v.shape == (1, 2)


@pytest.mark.parametrize("steps", [True, 2.5, 2.0, "2", None])
def test_flow_steps_must_be_an_integer(steps):
    alg = so1m_algebra(2)
    section = CompositeSection(np.zeros((1, 2)), np.ones((1, 2)))
    with pytest.raises(DomainError, match="steps must be an integer"):
        flow_section(alg, section, np.zeros((1, 3)), 1.0, steps, vector_hrep(2))


def test_flow_accepts_numpy_integers():
    alg = so1m_algebra(2)
    section = CompositeSection(np.full((1, 2), 0.1), np.ones((1, 2)))
    xi = np.full((1, 3), 0.2)
    hrep = vector_hrep(2)
    want = flow_section(alg, section, xi, 1.0, 3, hrep, order=5)
    got = flow_section(alg, section, xi, 1.0, np.int64(3), hrep, order=np.int32(5))
    np.testing.assert_array_equal(got.sigma, want.sigma)
    np.testing.assert_array_equal(got.v, want.v)


@pytest.mark.parametrize("kind, m, n", [("vector", 3, 40), ("spinor", 5, 12)])
def test_gauge_step_equals_the_per_node_update(kind, m, n):
    """The batched step reproduces, bit for bit, the Euler update built node
    by node from infinitesimal_action."""
    rng = np.random.default_rng(m)
    alg = so1m_algebra(m)
    hrep = (vector_hrep if kind == "vector" else spinor_hrep)(m)
    section = CompositeSection(rng.uniform(-0.4, 0.4, (n, m)), rng.uniform(-1.0, 1.0, (n, hrep.d)))
    xi = rng.uniform(-0.5, 0.5, (n, alg.dim))
    xi[0, alg.dim_h :] = 0.0
    xi[1, : alg.dim_h] = 0.0
    eps = 0.05
    stepped = gauge_transform_section(alg, section, xi, eps, hrep)
    for i in range(n):
        x = alg.element(h=xi[i, : alg.dim_h], f=xi[i, alg.dim_h :])
        ds, dv = infinitesimal_action(alg, x, section.point(i), section.v[i], hrep)
        assert stepped.sigma[i].tobytes() == (section.sigma[i] + eps * ds).tobytes()
        assert stepped.v[i].tobytes() == (section.v[i] + eps * dv).tobytes()


def test_gauge_flow_past_the_series_radius_raises():
    """A boost generator at |sigma| = 2 lies past rho(ad_F) = pi and raises;
    a pure rotation there still flows along its exact linear field."""
    m = 3
    alg = so1m_algebra(m)
    hrep = vector_hrep(m)
    section = CompositeSection(np.array([[0.1, 0.0, 0.0], [2.0, 0.0, 0.0]]), np.ones((2, 3)))
    boost = np.zeros((2, alg.dim))
    boost[1, alg.dim_h + 1] = 1.0
    with pytest.raises(DomainError, match="radius"):
        flow_section(alg, section, boost, 1.0, 2, hrep)
    rotation = np.zeros((2, alg.dim))
    rotation[1, 0] = 0.5
    stepped = gauge_transform_section(alg, section, rotation, 0.1, hrep)
    np.testing.assert_array_equal(stepped.sigma[1], [2.0, 0.1, 0.0])


def _flow_case(kind, m, n):
    """An algebra, a rep, a section of n nodes and its generator field."""
    rng = np.random.default_rng([m, n])
    alg = so1m_algebra(m)
    hrep = (vector_hrep if kind == "vector" else spinor_hrep)(m)
    section = CompositeSection(rng.uniform(-0.4, 0.4, (n, m)) / math.sqrt(m), rng.uniform(-1.0, 1.0, (n, hrep.d)))
    xi = rng.uniform(-0.5, 0.5, (n, alg.dim))
    xi[::5, alg.dim_h :] = 0.0
    return alg, hrep, section, xi


@pytest.mark.parametrize("kind, m", [("vector", 3), ("spinor", 5)])
def test_flow_is_successive_gauge_steps(kind, m):
    """k flow steps are, bit for bit, k gauge steps of size t/k, on a
    section that spans more than one block."""
    alg, hrep, section, xi = _flow_case(kind, m, induced._BLOCK + 3)
    flowed = flow_section(alg, section, xi, 0.9, 3, hrep)
    for _ in range(3):
        section = gauge_transform_section(alg, section, xi, 0.9 / 3, hrep)
    assert flowed.sigma.tobytes() == section.sigma.tobytes()
    assert flowed.v.tobytes() == section.v.tobytes()


@pytest.mark.parametrize("n", [2 * induced._BLOCK + induced._BLOCK // 2, 2 * induced._BLOCK + 1])
@pytest.mark.parametrize("kind, m", [("vector", 3), ("spinor", 5)])
def test_flow_over_blocks_equals_each_block_alone(kind, m, n):
    """A node's bits do not depend on its block: a section of about 2.5
    blocks, or of two blocks and a one-node tail, flows as each of its
    blocks flows alone."""
    alg, hrep, section, xi = _flow_case(kind, m, n)
    whole = flow_section(alg, section, xi, 1.0, 3, hrep)
    size = induced._BLOCK
    for lo in range(0, n, size):
        cut = slice(lo, lo + size)
        part = flow_section(alg, CompositeSection(section.sigma[cut], section.v[cut]), xi[cut], 1.0, 3, hrep)
        assert part.sigma.tobytes() == whole.sigma[cut].tobytes()
        assert part.v.tobytes() == whole.v[cut].tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_flow_step_whose_vectors_overflow_raises():
    """An Euler update past the float range is a non-finite section, also
    where numpy's add overflows (it used to warn under -W error): in one
    step, and in the second block of a flow."""
    alg, hrep, section, xi = _flow_case("vector", 3, induced._BLOCK + 5)
    xi[:, : alg.dim_h] = 0.5
    for big, rot in ((1.5e308, 0.5), (1e308, 10.0)):
        v = np.array(section.v)
        v[-2] = big
        xi[-2, : alg.dim_h] = rot
        moved = CompositeSection(section.sigma, v)
        with pytest.raises(DimensionError, match="section has non-finite entries"):
            flow_section(alg, moved, xi, 1.0, 2, hrep)
        with pytest.raises(DimensionError, match="section has non-finite entries"):
            gauge_transform_section(alg, moved, xi, 1.0, hrep)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_flow_near_the_float_maximum_raises_the_overflow_check():
    """A sigma near the float maximum overflows the series' table product,
    which used to warn before the check on ad_F^2 raised DomainError."""
    alg, hrep, section, xi = _flow_case("vector", 3, induced._BLOCK + 5)
    sigma = np.array(section.sigma)
    sigma[-2] = [1.7e308, 1.7e308, 0.0]
    with pytest.raises(DomainError, match=r"\|sigma\| = inf is too large"):
        flow_section(alg, CompositeSection(sigma, section.v), xi, 1.0, 2, hrep)


def test_flow_raises_what_the_whole_section_would():
    """A step raises once all its blocks are done, with the error of the
    unblocked series on the whole section: the first overflowing node over
    any radius, else the largest rho(ad_F) of the step."""
    alg, hrep, section, xi = _flow_case("vector", 3, 2 * induced._BLOCK + 5)
    xi[:, alg.dim_h] = 0.5
    for radius, overflow in (((3, 1.7), (-3, 2.3)), ((3, 2.3), (-3, 1.7)), ((3, 1.7), (-4, 1e200))):
        sigma = np.array(section.sigma)
        sigma[radius[0], 0] = radius[1]
        sigma[overflow[0], 0] = overflow[1]
        with pytest.raises(DomainError) as want:
            _series(alg, sigma, xi[:, : alg.dim_h], xi[:, alg.dim_h :], _weights(11))
        with pytest.raises(DomainError) as got:
            flow_section(alg, CompositeSection(sigma, section.v), xi, 1.0, 2, hrep)
        assert str(got.value) == str(want.value)


def test_flow_memory_is_bounded_by_the_block():
    """Past its node-last buffer, which holds one copy of the inputs sigma,
    v and xi, a flow's tracemalloc peak is the same on 2 and on 8 blocks:
    every temporary of a step is sized by the block, and the output is built
    after they are freed."""
    extra = []
    for n in (2 * induced._BLOCK, 8 * induced._BLOCK):
        alg, hrep, section, xi = _flow_case("vector", 3, n)
        tracemalloc.start()
        try:
            flow_section(alg, section, xi, 1.0, 2, hrep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - section.sigma.nbytes - section.v.nbytes - xi.nbytes)
    assert abs(extra[1] - extra[0]) <= 0.1 * extra[0], extra


def test_representation_of_another_algebra_raises():
    """vector_hrep(4) has d = 4 like spinor_hrep(3), but six compensator
    coordinates: a so(1,3) step or move through it is a DimensionError."""
    alg = so1m_algebra(3)
    section = CompositeSection(np.full((2, 3), 0.1), np.ones((2, 4)))
    with pytest.raises(DimensionError, match="compensator coordinates"):
        gauge_transform_section(alg, section, np.full((2, alg.dim), 0.1), 0.1, vector_hrep(4))
    with pytest.raises(DimensionError, match="compensator coordinates"):
        infinitesimal_action(alg, alg.f_basis(0), CosetPoint(np.zeros(3)), np.ones(4), vector_hrep(4))


def _split_without_h():
    """An abelian f of dimension 2 and no h."""
    return ReductiveAlgebra(np.zeros((0, 0, 0)), np.zeros((2, 2, 0)), np.zeros((2, 0, 2)))


def _split_without_f():
    """so(3) as the stabilizer alone: dim_h = 3, dim_f = 0."""
    so3 = so1m_algebra(3)
    return ReductiveAlgebra(so3.c_hh, np.zeros((0, 0, 3)), np.zeros((0, 3, 0)))


@pytest.mark.parametrize("d", [1, 3])
def test_hrep_maps_on_a_split_without_h(d):
    """dim_h = 0: matrix is the zero matrix, exp and lift the identity.  All
    three used to fail numpy's reshape with an inferred size on an empty
    stack."""
    hrep = HRepresentation(_split_without_h(), np.zeros((0, d, d)))
    assert hrep.matrix(np.zeros(0)).tobytes() == np.zeros((d, d)).tobytes()
    np.testing.assert_array_equal(hrep.exp(np.zeros(0)), np.eye(d))
    np.testing.assert_array_equal(hrep.exp(np.zeros((4, 0))), np.broadcast_to(np.eye(d), (4, d, d)))
    np.testing.assert_array_equal(hrep.lift(np.ones((1, 1))), np.eye(d))
    np.testing.assert_array_equal(hrep.lift(np.ones((5, 1, 1))), np.broadcast_to(np.eye(d), (5, d, d)))


def test_series_and_flow_on_a_split_without_f():
    """dim_f = 0: realize returns dF = () and dI = xi_h, and a flow moves only
    v, each of its steps by v += eps (xi_h^a G_a) v.  The series table used
    to fail numpy's reshape with an inferred size."""
    alg = _split_without_f()
    hrep = HRepresentation(alg, vector_hrep(3).generators)
    xh = np.array([0.1, 0.2, 0.3])
    act = realize(alg, alg.element(h=xh), CosetPoint(np.zeros(0)))
    assert act.dF.shape == (0,) and act.dI.tobytes() == xh.tobytes()
    section = CompositeSection(np.zeros((2, 0)), np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -2.0]]))
    xi = np.tile(xh, (2, 1))
    step = np.eye(3) + 0.25 * hrep.matrix(xh)
    one = gauge_transform_section(alg, section, xi, 0.25, hrep)
    flowed = flow_section(alg, section, xi, 1.0, 4, hrep)
    for out, power in ((one, 1), (flowed, 4)):
        assert out.sigma.shape == (2, 0)
        want = section.v @ np.linalg.matrix_power(step, power).T
        np.testing.assert_allclose(out.v, want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 4, 3), "ragged"])
def test_a_malformed_square_stack_raises_dimension_error_at_every_entry(shape):
    """Every public entry that takes square matrices reads them through one
    rule, which raises DimensionError and never numpy's bare ValueError.  A
    single (4, 3) matrix reaches the rule everywhere; a stack or a vector
    meets the one-matrix check of factor_boost_rotation and induced_action
    first.  A ragged nesting, which numpy cannot read as one array, fails
    the array conversion that every entry shares."""
    if shape == "ragged":
        bad, rule = [[1.0, 0.0], [0.0]], "must hold numbers"
    else:
        bad = np.zeros(shape)
        rule = r"must be square, of shape \(\.\.\., d, d\) with d >= \d, got \(" if shape == (4, 3) else None
    point = CosetPoint(np.zeros(3))
    calls = [
        lie.expm,
        lambda x: HRepresentation(so1m_algebra(3), x),
        vector_hrep(3).lift,
        spinor_hrep(3).lift,
        lambda x: rotation_embed(3, x),
        rotation_log_coords,
        factor_boost_rotation,
        lambda x: induced_action(x, point, np.ones(3), vector_hrep(3)),
    ]
    for call in calls:
        with pytest.raises(DimensionError, match=rule):
            call(bad)


def test_non_square_rotations_and_forms_name_the_rule():
    with pytest.raises(DimensionError, match=r"rho must be square, of shape \(\.\.\., d, d\) with d >= 0"):
        rotation_log_coords(np.eye(3)[:2])
    with pytest.raises(DimensionError, match="rho must be square"):
        rotation_embed(3, np.zeros((2, 3, 2)))
    with pytest.raises(DimensionError, match=r"g must be square, of shape \(\.\.\., d, d\) with d >= 2"):
        factor_boost_rotation(np.eye(4)[:3])
    with pytest.raises(DimensionError, match="g must be square"):
        factor_boost_rotation(np.eye(1))


def test_factor_takes_one_matrix_and_hrep_one_generator_stack():
    with pytest.raises(DimensionError, match="expected one square matrix"):
        factor_boost_rotation(np.stack([np.eye(4)] * 2))
    alg = so1m_algebra(3)
    with pytest.raises(DimensionError, match=r"expected generator stack of shape \(3, d, d\)"):
        HRepresentation(alg, np.zeros((2, 3, 3)))
    with pytest.raises(DimensionError, match=r"expected generator stack of shape \(3, d, d\)"):
        HRepresentation(alg, np.zeros((3, 3)))
    with pytest.raises(DimensionError, match="the generator stack must be square"):
        HRepresentation(alg, np.zeros((3, 2, 3)))


def test_infinitesimal_action_raises_where_the_series_overflows():
    """A finite f actor near the float maximum used to return dF with an inf
    entry, with no error and no warning."""
    alg = so1m_algebra(3)
    xi = alg.element(h=[0.0, 0.0, 0.0], f=[1.7e308, 1.7e308, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="the series overflows"):
            infinitesimal_action(alg, xi, CosetPoint([0.4, 0.3, 0.1]), np.ones(3), vector_hrep(3))


def test_orientation_check_raises_where_det_rho_overflows():
    """At rapidity 300 a split's rho is orthogonal only to about eps
    cosh(300), and its determinant overflowed with numpy's warning.  The
    sign now comes from slogdet, and a |det rho| past the float range raises
    DomainError; a draw whose det is finite factors as before."""
    rng = np.random.default_rng(0)
    rotations, axes = _haar_rotations(rng.normal(size=(8, 3, 3))), rng.normal(size=(8, 3))
    raised = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r, n in zip(rotations, axes):
            try:
                pair = factor_boost_rotation(boost_matrix(3, 300.0, n) @ rotation_embed(3, r))
            except DomainError as exc:
                assert "det rho overflows" in str(exc)
                raised += 1
            else:
                np.testing.assert_allclose(pair.f_prime.norm, 150.0, rtol=1e-12)
        assert 0 < raised < len(axes)
        with pytest.raises(DomainError, match=r"log \|det rho\| = .* exceeds .* det rho overflows"):
            induced_action(np.eye(4), CosetPoint([111.1, 81.2, -59.8]), np.ones(3), vector_hrep(3))


def _complex_input_calls():
    """{entry: (real template, call)} for every public entry that reads numbers."""
    alg = so1m_algebra(3)
    point = CosetPoint(np.full(3, 0.1))
    section = CompositeSection(np.full((2, 3), 0.1), np.ones((2, 3)))
    space = CliffordSpace(3)
    table = {"dim_h": 3, "dim_f": 3, "c_hh": alg.c_hh.tolist(), "c_fh": alg.c_fh.tolist()}
    return {
        "CosetPoint": (np.full(3, 0.1), CosetPoint),
        "AlgebraElement": (np.zeros(3), lambda x: alg.element(h=x)),
        "ReductiveAlgebra": (alg.c_ff, lambda x: ReductiveAlgebra(alg.c_hh, x, alg.c_fh)),
        "algebra_from_json_dict": (alg.c_ff, lambda x: lie.algebra_from_json_dict({**table, "c_ff": x})),
        "expm": (np.zeros((2, 2)), lie.expm),
        "DefiningRep.matrix": (np.zeros(6), defining_rep_so1m(3).matrix),
        "HRepresentation": (vector_hrep(3).generators, lambda x: HRepresentation(alg, x)),
        "HRepresentation.matrix": (np.zeros(3), vector_hrep(3).matrix),
        "HRepresentation.exp": (np.zeros(3), spinor_hrep(3).exp),
        "HRepresentation.lift": (np.eye(3), spinor_hrep(3).lift),
        "boost_matrix zeta": (np.float64(0.1), lambda x: boost_matrix(3, x, [1.0, 0.0, 0.0])),
        "boost_matrix axis": (np.array([1.0, 0.0, 0.0]), lambda x: boost_matrix(3, 0.1, x)),
        "rotation_embed": (np.eye(3), lambda x: rotation_embed(3, x)),
        "rotation_log_coords": (np.eye(3), rotation_log_coords),
        "factor_boost_rotation": (np.eye(4), factor_boost_rotation),
        "FactoredPair": (np.eye(3), lambda x: FactoredPair(CosetPoint(np.zeros(3)), x)),
        "induced_action g": (np.eye(4), lambda x: induced_action(x, point, np.ones(3), vector_hrep(3))),
        "induced_action v": (np.ones(3), lambda x: induced_action(np.eye(4), point, x, vector_hrep(3))),
        "infinitesimal_action": (
            np.ones(3),
            lambda x: infinitesimal_action(alg, alg.f_basis(0), point, x, vector_hrep(3)),
        ),
        "group_from_spec": (np.array([0.1, 0.0, 0.0]), lambda x: group_from_spec(3, boost=x)),
        "CompositeSection": (np.full((2, 3), 0.1), lambda x: CompositeSection(x, np.ones((2, 3)))),
        "section_from_json_dict": (
            np.full(3, 0.1),
            lambda x: section_from_json_dict({"m": 3, "d": 3, "nodes": [{"sigma": x, "v": [1.0] * 3}]}),
        ),
        "gauge_transform_section": (
            np.zeros((2, 6)),
            lambda x: gauge_transform_section(alg, section, x, 0.1, vector_hrep(3)),
        ),
        "flow_section xi": (np.zeros((2, 6)), lambda x: flow_section(alg, section, x, 1.0, 1, vector_hrep(3))),
        "section_to_json_dict xi": (np.zeros((2, 6)), lambda x: section_to_json_dict(section, x)),
        "Multivector.vector": (np.full(3, 0.1), lambda x: Multivector.vector(space, x)),
        "Multivector coefficient": (np.float64(0.1), lambda x: Multivector(space, {(1,): x})),
        "Multivector.scale": (np.float64(0.1), Multivector.scalar(space, 1.0).scale),
        "AlgebraElement scalar": (np.float64(0.1), alg.f_basis(0).__rmul__),
        "exp_vector": (np.full(3, 0.1), lambda x: exp_vector(space, x)),
        "InfinitesimalAction": (np.zeros(3), lambda x: InfinitesimalAction(x, np.zeros(3))),
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("form", ["array", "list"])
@pytest.mark.parametrize("entry", sorted(_complex_input_calls()))
def test_complex_input_raises_a_domain_error(entry, form):
    """A complex array used to lose its imaginary part with only numpy's
    ComplexWarning (CosetPoint(np.array([0.1 + 1j, 0.2])).sigma was
    [0.1, 0.2]), and a complex list raised DimensionError.  Both now raise
    DomainError at every entry, the template itself being accepted."""
    template, call = _complex_input_calls()[entry]
    call(template)
    z = np.array(template, dtype=complex)
    z.flat[0] += 1j
    with pytest.raises(DomainError, match="must be real, got complex entries"):
        call(z if form == "array" else z.tolist())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("form", ["string", "true", "none", "bool_array"])
@pytest.mark.parametrize("entry", sorted(_complex_input_calls()))
def test_non_numbers_raise_a_typed_error(entry, form):
    """Library entries used to read "0.5" as 0.5 and True as 1.0, and None
    as NaN or a bare TypeError; only the document readers rejected them.
    Every entry now raises its typed error, naming the argument."""
    template, call = _complex_input_calls()[entry]
    if form == "bool_array":
        bad = np.array(template, dtype=bool)
    else:
        z = np.array(template, dtype=object)
        z.flat[0] = {"string": "0.5", "true": True, "none": None}[form]
        bad = z.tolist()
    with pytest.raises((DimensionError, DomainError, ClosureError), match="must hold numbers"):
        call(bad)
