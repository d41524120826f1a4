"""Finite factorization, the induced action on vectors and spinors, and the
gauge flow of sections."""

import numpy as np
import pytest
from scipy.linalg import expm

from cosetrep.errors import (
    BranchError,
    ClosureError,
    DimensionError,
    DomainError,
    OrthochronousError,
)
from cosetrep.induced import (
    CompositeSection,
    boost_matrix,
    check_proper_orthochronous,
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
from cosetrep.lie import CosetPoint, defining_rep_so1m, so1m_algebra


def _eta(m):
    return np.diag([1.0] + [-1.0] * m)


def test_boost_matrix_entries():
    g = boost_matrix(3, 0.7, np.array([1.0, 0.0, 0.0]))
    assert g[0, 0] == pytest.approx(np.cosh(0.7))
    assert g[0, 1] == pytest.approx(np.sinh(0.7))
    assert g[1, 0] == pytest.approx(np.sinh(0.7))
    assert g[2, 2] == 1.0 and g[3, 3] == 1.0
    np.testing.assert_allclose(g.T @ _eta(3) @ g, _eta(3), atol=1e-14)


def test_boost_matrix_inverse():
    axis = np.array([0.6, 0.8])
    g = boost_matrix(2, 1.2, axis) @ boost_matrix(2, -1.2, axis)
    np.testing.assert_allclose(g, np.eye(3), atol=1e-14)


def test_boost_axis_validation():
    with pytest.raises(DomainError):
        boost_matrix(2, 0.5, np.zeros(2))
    with pytest.raises(DimensionError):
        boost_matrix(2, 0.5, np.ones(3))


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


def test_rotation_embed_validation():
    rho = np.array([[0.0, -1.0], [1.0, 0.0]])
    g = rotation_embed(2, rho)
    assert g[0, 0] == 1.0
    np.testing.assert_array_equal(g[1:, 1:], rho)
    with pytest.raises(DomainError):
        rotation_embed(2, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        rotation_embed(2, np.diag([1.0, -1.0]))
    with pytest.raises(DimensionError):
        rotation_embed(3, rho)


def test_check_proper_orthochronous():
    assert check_proper_orthochronous(np.eye(4)) == 3
    with pytest.raises(DomainError):
        check_proper_orthochronous(np.eye(4) * 2.0)
    with pytest.raises(OrthochronousError):
        check_proper_orthochronous(np.diag([-1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(OrthochronousError):
        check_proper_orthochronous(np.diag([1.0, -1.0, 1.0, 1.0]))


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
@pytest.mark.parametrize("zeta", [8.0, 10.0, 12.0, 14.0, 16.0, 18.0])
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


@pytest.mark.parametrize("m", [3, 5, 8])
@pytest.mark.parametrize("zeta", [0.5, 10.0])
def test_form_check_rejects_one_corrupted_entry(m, zeta):
    """Scaling the tolerance by |g|^T |g| still catches a 1e-7 relative error
    in any single entry, including the O(1) entries of a large boost."""
    g, _, _ = _exact_boost_rotation(np.random.default_rng([m, 7]), m, zeta)
    check_proper_orthochronous(g)
    delta = 1e-7 * abs(g).max()
    for idx in np.ndindex(g.shape):
        for sign in (1.0, -1.0):
            bad = g.copy()
            bad[idx] += sign * delta
            with pytest.raises(DomainError):
                check_proper_orthochronous(bad)


def test_factor_identity_and_pure_boost():
    pair = factor_boost_rotation(np.eye(4))
    assert pair.f_prime.norm == 0.0
    np.testing.assert_array_equal(pair.rho, np.eye(3))
    # a coset representative factors into itself
    sig = np.array([0.3, -0.1, 0.25])
    pair = factor_boost_rotation(exp_coset(CosetPoint(sig)))
    np.testing.assert_allclose(pair.f_prime.sigma, sig, atol=1e-14)
    np.testing.assert_allclose(pair.rho, np.eye(3), atol=1e-14)


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


def test_rotation_log_branch_and_validation():
    with pytest.raises(BranchError):
        rotation_log_coords(np.diag([-1.0, -1.0, 1.0]))
    with pytest.raises(DomainError):
        rotation_log_coords(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        rotation_log_coords(np.diag([1.0, -1.0]))
    assert rotation_log_coords(np.eye(1)).size == 0


def test_hrep_construction_checks_brackets():
    alg = so1m_algebra(3)
    from cosetrep.induced import HRepresentation

    with pytest.raises(ClosureError):
        HRepresentation(alg, np.zeros((3, 2, 2)) + np.eye(2))
    good = vector_hrep(3)
    assert good.d == 3
    assert vector_hrep(3) is vector_hrep(3)
    assert spinor_hrep(3).d == 4
    with pytest.raises(DimensionError):
        good.matrix(np.zeros(2))


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


def test_induced_action_validation():
    hrep = vector_hrep(3)
    point = CosetPoint(np.zeros(3))
    with pytest.raises(DimensionError):
        induced_action(np.eye(4), point, np.zeros(4), hrep)
    with pytest.raises(DimensionError):
        induced_action(np.eye(3), point, np.zeros(3), hrep)


def test_infinitesimal_action_derivative_of_finite():
    m = 3
    alg = so1m_algebra(m)
    hrep = spinor_hrep(m)
    rep = defining_rep_so1m(m)
    point = CosetPoint(np.array([0.2, -0.1, 0.15]))
    xi = alg.element(h=[0.3, -0.2, 0.5], f=[1.0, 0.4, -0.6])
    v = np.array([0.7, -0.3, 0.2, 1.1])
    ds, dv = infinitesimal_action(alg, xi, point, v, hrep, order=21)
    x = rep.matrix(xi)
    h = 1e-4
    pp, vp = induced_action(expm(h * x), point, v, hrep)
    pm, vm = induced_action(expm(-h * x), point, v, hrep)
    np.testing.assert_allclose(ds, (pp.sigma - pm.sigma) / (2 * h), atol=1e-7)
    np.testing.assert_allclose(dv, (vp - vm) / (2 * h), atol=1e-7)


def test_group_from_spec():
    g = group_from_spec(3, boost=[0.2, 0.0, -0.1], rotations=[(1, 3, 0.4)])
    check_proper_orthochronous(g)
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
    x = rep.matrix(alg.element(h=xi[0, :1], f=xi[0, 1:]))
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
