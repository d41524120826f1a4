"""The iterated-bracket realization against hand values, finite differences,
and its own resummed closed form."""

import math
import warnings

import numpy as np
import pytest

from cosetrep.coeffs import l_coeffs
from cosetrep.errors import DimensionError, DomainError
from cosetrep.lie import CosetPoint, ReductiveAlgebra, bracket, h_pairs, so1m_algebra
from cosetrep.series import (
    _rows,
    _series,
    _weights,
    even_bracket_weights,
    odd_bracket_weights,
    realize,
    so1m_closed_field,
)
from cosetrep.verify import (
    _printed_profile_action,
    _so1m_closed_field_variant,
    fd_action_derivative,
)


def test_weights_are_the_taylor_coefficients():
    """z coth z = 1 + z^2/3 - z^4/45 + 2 z^6/945, tanh(z/2) = z/2 - z^3/24 + z^5/240."""
    even = dict(even_bracket_weights(7))
    assert even[2] == pytest.approx(1.0 / 3.0, abs=0.0)
    assert even[4] == pytest.approx(-1.0 / 45.0, abs=0.0)
    assert even[6] == pytest.approx(2.0 / 945.0, abs=0.0)
    odd = dict(odd_bracket_weights(5))
    assert odd[1] == 0.5
    assert odd[3] == pytest.approx(-1.0 / 24.0, abs=0.0)
    assert odd[5] == pytest.approx(1.0 / 240.0, abs=0.0)


def test_weights_are_the_rows_of_the_public_weights():
    """Row 0 is (1, w_2, w_4, ...), row 1 (w_1, w_3, ...) closed with +0.0
    at even orders, read-only and byte for byte the public lists."""
    for order in range(1, 62):
        even = [w for _, w in even_bracket_weights(order)]
        odd = [w for _, w in odd_bracket_weights(order)] + ([0.0] if order % 2 == 0 else [])
        rows = _weights(order)
        assert rows.shape == (2, order // 2 + 1)
        assert rows.tobytes() == np.array([[1.0] + even, odd]).tobytes()
        assert not rows.flags.writeable


def test_order_must_be_positive():
    alg = so1m_algebra(2)
    with pytest.raises(DomainError):
        realize(alg, alg.f_basis(0), CosetPoint(np.zeros(2)), order=0)


@pytest.mark.parametrize("order", [True, False, 2.5, 11.0, "11", None])
def test_order_must_be_an_integer(order):
    """bool is not an order, and a float never stands in for one, even after
    the integer it equals has been cached."""
    alg = so1m_algebra(2)
    point = CosetPoint(np.array([0.1, 0.2]))
    realize(alg, alg.f_basis(0), point, order=1)
    realize(alg, alg.f_basis(0), point, order=11)
    with pytest.raises(DomainError, match="must be an integer"):
        realize(alg, alg.f_basis(0), point, order=order)


def test_numpy_integer_orders_are_orders():
    alg = so1m_algebra(3)
    point = CosetPoint(np.array([0.1, 0.2, -0.3]))
    want = realize(alg, alg.f_basis(1), point, order=7)
    got = realize(alg, alg.f_basis(1), point, order=np.int64(7))
    np.testing.assert_array_equal(got.dF, want.dF)
    np.testing.assert_array_equal(got.dI, want.dI)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_generator_raises(bad):
    """A NaN in the f part used to skip the radius check and come back as
    a NaN field; any non-finite entry now names xi."""
    alg = so1m_algebra(3)
    point = CosetPoint(np.array([0.1, 0.0, 0.0]))
    for xi in (alg.element(f=[bad, 0.0, 0.0]), alg.element(h=[0.0, bad, 0.0])):
        with pytest.raises(DomainError, match="xi has non-finite entries"):
            realize(alg, xi, point)


def test_generator_and_point_must_match_the_algebra():
    alg = so1m_algebra(2)
    with pytest.raises(DimensionError):
        realize(alg, so1m_algebra(3).f_basis(0), CosetPoint(np.zeros(2)))
    with pytest.raises(DimensionError):
        realize(alg, alg.f_basis(0), CosetPoint(np.zeros(3)))


def test_boost_past_the_series_radius_raises():
    """rho(ad_F) = 2|sigma| for so(1,m): at |sigma| = 2 an f actor raises,
    while the stabilizer still gets its exact linear field."""
    alg = so1m_algebra(3)
    point = CosetPoint(np.array([2.0, 0.0, 0.0]))
    with pytest.raises(DomainError, match="radius"):
        realize(alg, alg.f_basis(1), point)
    with pytest.raises(DomainError, match="radius"):
        realize(alg, alg.element(h=[1.0, 0.0, 0.0], f=[0.0, 1e-3, 0.0]), point)
    act = realize(alg, alg.h_basis(0), point)
    np.testing.assert_array_equal(act.dF, [0.0, 2.0, 0.0])
    np.testing.assert_array_equal(act.dI, [1.0, 0.0, 0.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_sigma_raises_a_domain_error():
    """At |sigma| = 1e160 S = ad_F^2 overflows.  The rotation actor's tower
    used to multiply inf by 0 and return NaN without a warning, the boost
    actor to fail in numpy's eigvals, and the closed form to overflow in its
    norm.  Near the float maximum the table product itself overflows, which
    used to warn before the check on S could raise."""
    alg = so1m_algebra(3)
    point = CosetPoint(np.array([1e160, 0.0, 0.0]))
    for xi in (alg.h_basis(0), alg.f_basis(0)):
        with pytest.raises(DomainError, match=r"\|sigma\| = 1e\+160"):
            realize(alg, xi, point)
    with pytest.raises(DomainError, match=r"\|sigma\| = inf is too large"):
        realize(alg, alg.h_basis(0), CosetPoint(np.array([1.7e308, 1.7e308, 0.0])))
    for sig in ([1e160, 0.0, 0.0], [1e160, 1e160, 0.0]):
        with pytest.raises(DomainError, match=r"\|sigma\| = 1\.?\d*e\+160"):
            so1m_closed_field(CosetPoint(np.array(sig)))
    # a norm past the float range reads as inf, with no overflow warning
    with pytest.raises(DomainError, match=r"\|sigma\| = inf"):
        so1m_closed_field(CosetPoint(np.array([1.7e308, 1.7e308, 0.0])))
    # in a section the node that overflows is named
    sigma = np.zeros((3, 3))
    sigma[1] = [3e159, 4e159, 0.0]
    xh = np.zeros((3, 3))
    xh[:, 0] = 1.0
    with pytest.raises(DomainError, match=r"\|sigma\| = 5e\+159"):
        _series(alg, sigma, xh, np.zeros((3, 3)), _weights(11))


def test_large_finite_sigma_keeps_the_rotation_field():
    """Below the overflow the rotation actor's field is still [X, F]."""
    alg = so1m_algebra(3)
    point = CosetPoint(np.array([1e150, -2e150, 0.5e150]))
    xi = alg.element(h=[0.5, -1.0, 0.25])
    act = realize(alg, xi, point)
    want = bracket(xi, alg.element(f=point.sigma))
    np.testing.assert_array_equal(act.dF, want.f)
    np.testing.assert_array_equal(act.dI, xi.h)


def test_origin_is_trivial():
    alg = so1m_algebra(3)
    origin = CosetPoint(np.zeros(3))
    x = alg.f_basis(1)
    act = realize(alg, x, origin)
    assert np.array_equal(act.dF, x.f)
    assert abs(act.dI).max() == 0.0


def test_collinear_actor_moves_freely():
    """An actor parallel to sigma commutes with the base, so nothing bends."""
    alg = so1m_algebra(3)
    sig = np.array([0.2, -0.4, 0.1])
    point = CosetPoint(sig)
    x = alg.element(f=3.0 * sig)
    act = realize(alg, x, point)
    assert np.array_equal(act.dF, x.f)
    assert abs(act.dI).max() == 0.0


def test_first_order_compensator_hand_value():
    """At order 1 the compensator is (1/2)[X, F]; for X = F_1, F = s F_2 that
    is -2s H_(1,2)."""
    alg = so1m_algebra(2)
    s = 0.3
    point = CosetPoint(np.array([0.0, s]))
    x = alg.f_basis(0)
    got = realize(alg, x, point, order=1).dI
    half = 0.5 * bracket(x, alg.element(f=point.sigma))
    assert (alg.element(h=got) - half).max_abs() == 0.0
    np.testing.assert_allclose(got, [-2.0 * s], atol=0.0)


def test_matches_factorization_derivative():
    """Series truncated at order 21 against finite differences of the matrix
    factorization, mixed actors, |sigma| <= 0.5."""
    rng = np.random.default_rng(2)
    for m in (2, 3):
        alg = so1m_algebra(m)
        for _ in range(5):
            sig = rng.uniform(-1.0, 1.0, m)
            sig *= rng.uniform(0.05, 0.5) / np.linalg.norm(sig)
            point = CosetPoint(sig)
            coords = rng.uniform(-1.0, 1.0, alg.dim)
            xi = alg.element(h=coords[: alg.dim_h], f=coords[alg.dim_h :])
            act = realize(alg, xi, point, order=21)
            fd_sigma, fd_comp = fd_action_derivative(alg, xi, point)
            np.testing.assert_allclose(act.dF, fd_sigma, atol=1e-8)
            np.testing.assert_allclose(act.dI, fd_comp, atol=1e-8)


def test_stabilizer_action_is_exactly_linear():
    """Every odd coefficient beyond the first vanishes, so the partial sum
    collapses to [X, F] with no float residue."""
    rng = np.random.default_rng(4)
    for m in (2, 3, 4):
        alg = so1m_algebra(m)
        for _ in range(5):
            sig = rng.uniform(-1.0, 1.0, m)
            point = CosetPoint(sig)
            coords = rng.uniform(-1.0, 1.0, alg.dim_h)
            actor = alg.element(h=coords)
            act = realize(alg, actor, point, order=9)
            lin = bracket(actor, alg.element(f=point.sigma))
            assert np.array_equal(act.dF, lin.f)
            assert np.array_equal(act.dI, actor.h)


def test_stabilizer_field_formula():
    """dF for H_(i,k) rotates the (i,k) plane: component k gains sigma^i,
    component i loses sigma^k."""
    m = 3
    alg = so1m_algebra(m)
    sig = np.array([0.31, -0.12, 0.21])
    point = CosetPoint(sig)
    for a, (i, k) in enumerate(h_pairs(m)):
        act = realize(alg, alg.h_basis(a), point)
        want = np.zeros(m)
        want[k - 1] += sig[i - 1]
        want[i - 1] -= sig[k - 1]
        np.testing.assert_allclose(act.dF, want, atol=1e-15)


@pytest.mark.parametrize(
    "dims",
    [(0, 2), (1, 2)],
    ids=["abelian f, no h", "all brackets zero"],
)
def test_realize_on_degenerate_splits(dims):
    """An abelian f with dim_h = 0 used to fail the antisymmetry check on an
    empty table, and with c_fh = 0 the series table has width 0, which
    failed a reshape.  Every bracket vanishes, so dF = X_f and dI = X_h."""
    nh, nf = dims
    alg = ReductiveAlgebra(np.zeros((nh, nh, nh)), np.zeros((nf, nf, nh)), np.zeros((nf, nh, nf)))
    point = CosetPoint([0.3, 0.1])
    for xi in (alg.f_basis(0), alg.element(h=np.full(nh, 0.7), f=[0.2, -0.5])):
        act = realize(alg, xi, point)
        assert act.dF.tobytes() == xi.f.tobytes()
        assert act.dI.tobytes() == xi.h.tobytes()


def test_realize_splits_by_grade():
    alg = so1m_algebra(3)
    point = CosetPoint(np.array([0.2, 0.1, -0.3]))
    h_coords = np.array([0.5, -1.0, 0.25])
    f_coords = np.array([1.0, 0.0, -2.0])
    xi = alg.element(h=h_coords, f=f_coords)
    whole = realize(alg, xi, point, order=13)
    f_part = realize(alg, alg.element(f=f_coords), point, order=13)
    h_part = realize(alg, alg.element(h=h_coords), point, order=13)
    np.testing.assert_allclose(whole.dF, f_part.dF + h_part.dF, atol=1e-15)
    np.testing.assert_allclose(whole.dI, f_part.dI + h_part.dI, atol=1e-15)


def test_field_brackets_reverse_the_algebra():
    """[u_X, u_Y] = -u_[X,Y] on the coordinate fields: the realization is a
    left action.  Jacobians by central differences."""
    m = 3
    alg = so1m_algebra(m)
    sig = np.array([0.25, -0.15, 0.05])

    def field(xi, s):
        return realize(alg, xi, CosetPoint(s), order=25).dF

    def jacobian(xi, s, h=1e-5):
        out = np.zeros((m, m))
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            out[:, j] = (field(xi, s + e) - field(xi, s - e)) / (2.0 * h)
        return out

    x = alg.f_basis(0)
    y = alg.f_basis(1)
    lie = jacobian(y, sig) @ field(x, sig) - jacobian(x, sig) @ field(y, sig)
    want = -field(bracket(x, y), sig)
    np.testing.assert_allclose(lie, want, atol=1e-6)


def test_closed_field_matches_series():
    rng = np.random.default_rng(9)
    for m in (2, 3):
        alg = so1m_algebra(m)
        for _ in range(4):
            sig = rng.uniform(-1.0, 1.0, m)
            sig *= rng.uniform(0.05, 0.7) / np.linalg.norm(sig)
            point = CosetPoint(sig)
            u, w = so1m_closed_field(point)
            for j in range(m):
                act = realize(alg, alg.f_basis(j), point, order=41)
                np.testing.assert_allclose(act.dF, u[:, j], atol=1e-12)
                np.testing.assert_allclose(act.dI, w[:, j], atol=1e-12)


def test_closed_field_regular_at_origin():
    for m in (2, 3):
        u, w = so1m_closed_field(CosetPoint(np.zeros(m)))
        np.testing.assert_array_equal(u, np.eye(m))
        np.testing.assert_array_equal(w, np.zeros_like(w))
        # just off the origin the small-norm branch must agree with the series
        alg = so1m_algebra(m)
        point = CosetPoint(np.full(m, 1e-8))
        u, w = so1m_closed_field(point)
        for j in range(m):
            act = realize(alg, alg.f_basis(j), point, order=5)
            np.testing.assert_allclose(act.dF, u[:, j], atol=1e-15)
            np.testing.assert_allclose(act.dI, w[:, j], atol=1e-15)


def test_variant_profile_shapes_and_origin():
    """The alternative closed-form profile reports through the same contract:
    same shapes, regularized origin.  Away from the origin it is a genuinely
    different profile; the verify suite records the deviation."""
    for m in (2, 3):
        point = CosetPoint(np.zeros(m))
        u, w = _so1m_closed_field_variant(point)
        np.testing.assert_array_equal(u, np.eye(m))
        np.testing.assert_array_equal(w, np.zeros((m * (m - 1) // 2, m)))
        generic = CosetPoint(0.4 * np.ones(m) / np.sqrt(m))
        u_v, w_v = _so1m_closed_field_variant(generic)
        u_c, w_c = so1m_closed_field(generic)
        assert u_v.shape == u_c.shape and w_v.shape == w_c.shape
        assert max(abs(u_v - u_c).max(), abs(w_v - w_c).max()) > 1e-3


def _bracket_tower_profile(alg, actor, point, order):
    """The plain-l profile built element by element from bracket calls."""
    table = l_coeffs(order + 1)
    base = alg.element(f=point.sigma)
    tower = []
    t = actor
    for _ in range(order):
        t = bracket(t, base)
        tower.append(t)
    d_i = alg.zero()
    for n in range(1, order + 1, 2):
        d_i = d_i + float(table.l(n)) * tower[n - 1]
    d_f = actor
    for n in range(2, order + 1, 2):
        d_f = d_f + float(table.l(n)) * tower[n - 1]
    d_f = d_f + (-float(table.l(1))) * bracket(base, d_i)
    return d_f.f, d_i.h


def test_printed_profile_matches_the_bracket_tower():
    """The reported plain-l profile goes through the batched core; it equals
    the element-by-element bracket tower bit for bit at the points the verify
    report uses, and to rounding at larger m."""
    sig = np.array([0.31, -0.12, 0.21, -0.05, 0.17])
    for m, atol in ((2, 0.0), (3, 0.0), (4, 1e-14), (5, 1e-14)):
        alg = so1m_algebra(m)
        point = CosetPoint(sig[:m])
        actor = alg.f_basis(min(1, m - 1))
        df, di = _printed_profile_action(alg, actor, point, order=17)
        df_ref, di_ref = _bracket_tower_profile(alg, actor, point, order=17)
        if atol == 0.0:
            np.testing.assert_array_equal(df, df_ref)
            np.testing.assert_array_equal(di, di_ref)
        else:
            np.testing.assert_allclose(df, df_ref, rtol=0.0, atol=atol)
            np.testing.assert_allclose(di, di_ref, rtol=0.0, atol=atol)


def test_action_arrays_read_only():
    alg = so1m_algebra(2)
    act = realize(alg, alg.f_basis(0), CosetPoint(np.array([0.1, 0.3])))
    with pytest.raises(ValueError):
        act.dF[0] = 1.0
    with pytest.raises(ValueError):
        act.dI[0] = 1.0


# ---------------------------------------------------------------------------
# the S tower against the alternating bracket tower
# ---------------------------------------------------------------------------

def _profile(order):
    """{n: w_n} of the z coth z and tanh(z/2) profiles, from the public lists."""
    return dict(even_bracket_weights(order) + odd_bracket_weights(order))


def _core_rows(weights):
    """The core's weight rows from a {n: w_n} map."""
    top = max(weights)
    return _rows([weights[n] for n in range(2, top + 1, 2)], [weights[n] for n in range(1, top + 1, 2)])


def _reference_series(alg, sigma, xh, xf, weights):
    """The alternating bracket tower the S tower replaced, kept verbatim:
    T_n alternates between the two blocks of x -> [x, F], one batched
    mat-vec per order."""
    # x -> [x, F] as its two blocks: to_h[n] maps f to h, to_f[n] maps h to f
    to_h = np.einsum("abd,nb->nda", alg.c_ff, sigma)
    to_f = -np.einsum("abd,na->ndb", alg.c_fh, sigma)
    moving = np.abs(xf).max(axis=1, initial=0.0) > 0.0
    if moving.any():
        # ad_F^2 restricted to f; its spectral radius is rho(ad_F)^2.  The
        # max-row-sum norm bounds it from above, so eigenvalues are needed
        # only at nodes where that bound reaches pi^2.
        sq = np.einsum("ndb,nba->nda", to_f[moving], to_h[moving])
        near = sq[np.abs(sq).sum(axis=2).max(axis=1) >= math.pi**2]
        rho = math.sqrt(float(np.abs(np.linalg.eigvals(near)).max(initial=0.0)))
        if rho >= math.pi:
            raise DomainError(
                f"f actor past the series radius: rho(ad_F)/pi = {rho / math.pi:.3f} >= 1"
            )
    # the sums start from +0.0, so an exact zero never comes out as -0.0
    dF = np.zeros(xf.shape)
    dI = np.zeros(xh.shape)
    dF += xf
    t = xf
    for n in range(1, max(weights) + 1):
        if n % 2:
            t = np.einsum("nda,na->nd", to_h, t)
            dI += weights[n] * t
        else:
            t = np.einsum("nda,na->nd", to_f, t)
            dF += weights[n] * t
    # every l_{2k-1} past l_1 vanishes, so the h actor's field is [X, F]
    dF += np.einsum("nda,na->nd", to_f, xh)
    dI += xh
    return dF, dI


def _compact_dual(alg):
    """c_ff -> -c_ff: the compact partner of the split, where S = ad_F^2 on f
    has negative eigenvalues."""
    return ReductiveAlgebra(alg.c_hh, -alg.c_ff, alg.c_fh)


def _nodes(rng, alg, n, radius=0.6):
    sigma = rng.uniform(-1.0, 1.0, (n, alg.dim_f))
    sigma *= rng.uniform(0.0, radius, (n, 1)) / np.linalg.norm(sigma, axis=1, keepdims=True)
    return sigma, rng.uniform(-1.0, 1.0, (n, alg.dim_h)), rng.uniform(-1.0, 1.0, (n, alg.dim_f))


@pytest.mark.parametrize("m", [2, 3, 5, 8])
@pytest.mark.parametrize("dual", [False, True])
def test_s_tower_matches_the_alternating_tower(m, dual):
    """Both profiles (and the plain-l one verify reports) at orders 1, 2, 11
    and 61, one node and 1000 nodes, within 1e-14 of the largest entry."""
    rng = np.random.default_rng(10 * m + dual)
    alg = _compact_dual(so1m_algebra(m)) if dual else so1m_algebra(m)
    for n in (1, 1000):
        sigma, xh, xf = _nodes(rng, alg, n)
        for order in (1, 2, 11, 61):
            plain = {k: float(l_coeffs(order).l(k)) for k in range(1, order + 1)}
            for weights in (_profile(order), plain):
                got = _series(alg, sigma, xh, xf, _core_rows(weights))
                want = _reference_series(alg, sigma, xh, xf, weights)
                for g, w in zip(got, want):
                    assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max()


def test_compact_dual_radius():
    """On the compact dual S has eigenvalue -4|sigma|^2, so the radius is
    still |sigma| = pi/2; both cores raise on the same side of it."""
    alg = _compact_dual(so1m_algebra(3))
    xh, xf = np.zeros((1, 3)), np.array([[0.0, 1.0, 0.0]])
    for s, raises in ((1.5, False), (1.6, True)):
        sigma = np.array([[s, 0.0, 0.0]])
        for core, weights in ((_series, _weights(11)), (_reference_series, _profile(11))):
            if raises:
                with pytest.raises(DomainError, match="radius"):
                    core(alg, sigma, xh, xf, weights)
            else:
                core(alg, sigma, xh, xf, weights)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9, 10])
def test_batched_rows_equal_single_node_calls(m):
    """Rows never mix: every row of a 1000-node call and of a 2-node call is,
    bit for bit, the single-node call on that row, also when the actors are
    the strided views xi[:, :dim_h] and xi[:, dim_h:] the gauge step passes."""
    rng = np.random.default_rng(m)
    alg = so1m_algebra(m)
    sigma, xh, xf = _nodes(rng, alg, 1000)
    xf[::7] = 0.0
    xh[3::7] = 0.0
    xi = np.concatenate((xh, xf), axis=1)
    xh_view, xf_view = xi[:, : alg.dim_h], xi[:, alg.dim_h :]
    for order in (2, 11):
        weights = _weights(order)
        dF, dI = _series(alg, sigma, xh, xf, weights)
        views = _series(alg, sigma, xh_view, xf_view, weights)
        assert views[0].tobytes() == dF.tobytes()
        assert views[1].tobytes() == dI.tobytes()
        for i in range(len(sigma)):
            one = _series(alg, sigma[i : i + 1], xh[i : i + 1], xf[i : i + 1], weights)
            assert one[0][0].tobytes() == dF[i].tobytes()
            assert one[1][0].tobytes() == dI[i].tobytes()
            one = _series(alg, sigma[i : i + 1], xh_view[i : i + 1], xf_view[i : i + 1], weights)
            assert one[0][0].tobytes() == dF[i].tobytes()
            assert one[1][0].tobytes() == dI[i].tobytes()
        for i in range(0, len(sigma), 2):
            two = _series(alg, sigma[i : i + 2], xh_view[i : i + 2], xf_view[i : i + 2], weights)
            assert two[0].tobytes() == dF[i : i + 2].tobytes()
            assert two[1].tobytes() == dI[i : i + 2].tobytes()


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8])
def test_batched_h_field_is_the_bracket(m):
    """The h actor's field [X_h, F] of a batched call equals lie.bracket
    node by node, bit for bit."""
    rng = np.random.default_rng(100 + m)
    alg = so1m_algebra(m)
    sigma, xh, _ = _nodes(rng, alg, 300, radius=3.0)
    dF, dI = _series(alg, sigma, xh, np.zeros(sigma.shape), _weights(11))
    for i in range(len(sigma)):
        want = bracket(alg.element(h=xh[i]), alg.element(f=sigma[i])).f
        assert dF[i].tobytes() == want.tobytes()
    assert dI.tobytes() == xh.tobytes()


# ---------------------------------------------------------------------------
# the node-last core against a scalar reference, byte for byte
# ---------------------------------------------------------------------------

def _scalar_core(alg, sigma, xh, xf, weights):
    """The core's contract, one node at a time in Python floats: every
    contraction is an axpy loop over its full index range, in ascending
    order, from +0.0.  There is no radius check."""
    nf, nh = alg.dim_f, alg.dim_h
    c_ff, c_fh = alg.c_ff.tolist(), alg.c_fh.tolist()
    top = max(weights)
    even = [1.0] + [weights[2 * k] for k in range(1, top // 2 + 1)]
    odd = [weights[2 * k + 1] for k in range((top + 1) // 2)]

    def dot(row, vec):
        total = 0.0
        for r, v in zip(row, vec):
            total += r * v
        return total

    dF, dI = np.zeros(xf.shape), np.zeros(xh.shape)
    for i, (s, h, f) in enumerate(zip(sigma.tolist(), xh.tolist(), xf.tolist())):
        # to_h[d][a] = sum_b c_ff[a, b, d] sigma^b, to_f[d][b] = -sum_a c_fh[a, b, d] sigma^a
        to_h = [[dot([c_ff[a][b][d] for b in range(nf)], s) for a in range(nf)] for d in range(nh)]
        to_f = [[dot([-c_fh[a][b][d] for a in range(nf)], s) for b in range(nh)] for d in range(nf)]
        sq = [[dot(to_f[d], [to_h[b][e] for b in range(nh)]) for e in range(nf)] for d in range(nf)]
        u = [f]
        for _ in range(1, len(even)):
            u.append([dot(row, u[-1]) for row in sq])
        odd_sum = [dot(odd, [uk[d] for uk in u]) for d in range(nf)]
        dF[i] = [dot(even, [uk[d] for uk in u]) + dot(to_f[d], h) for d in range(nf)]
        dI[i] = [dot(to_h[d], odd_sum) + h[d] for d in range(nh)]
    return dF, dI


def _assert_rows_match_the_scalar_core(alg, sigma, xh, xf, weights):
    """Every row for N <= 3, every 97th row for more nodes."""
    got = _series(alg, sigma, xh, xf, _core_rows(weights))
    rows = slice(None) if len(sigma) <= 3 else slice(None, None, 97)
    want = _scalar_core(alg, sigma[rows], xh[rows], xf[rows], weights)
    for g, w in zip(got, want):
        assert g[rows].tobytes() == w.tobytes()


def _direct_sum(one, two):
    """The split algebra one (+) two: h and f are each the two summands' parts,
    first one's, then two's, and the summands commute."""
    h1, h2, f1, f2 = one.dim_h, two.dim_h, one.dim_f, two.dim_f
    c_hh = np.zeros((h1 + h2,) * 3)
    c_ff = np.zeros((f1 + f2, f1 + f2, h1 + h2))
    c_fh = np.zeros((f1 + f2, h1 + h2, f1 + f2))
    c_hh[:h1, :h1, :h1], c_hh[h1:, h1:, h1:] = one.c_hh, two.c_hh
    c_ff[:f1, :f1, :h1], c_ff[f1:, f1:, h1:] = one.c_ff, two.c_ff
    c_fh[:f1, :h1, :f1], c_fh[f1:, h1:, f1:] = one.c_fh, two.c_fh
    return ReductiveAlgebra(c_hh, c_ff, c_fh)


def _signed_zero_nodes(rng, alg, n):
    """Nodes whose actors include +0.0 and -0.0 entries and whole zero parts."""
    sigma, xh, xf = _nodes(rng, alg, n)
    xh[::4, 0] = -0.0
    xf[1::4, -1] = -0.0
    xf[2::4] = -0.0
    xh[3::4] = 0.0
    sigma[::5] = 0.0
    return sigma, xh, xf


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8])
def test_core_matches_the_axpy_core_bit_for_bit(m):
    """The node-last core, for both profiles and the plain-l one, gives the
    bytes of the scalar axpy reference at every node count, on so(1,m) and
    on its compact dual, whose S has negative eigenvalues."""
    rng = np.random.default_rng(200 + m)
    for alg in (so1m_algebra(m), _compact_dual(so1m_algebra(m))):
        for n in (1, 3, 1000):
            sigma, xh, xf = _signed_zero_nodes(rng, alg, n)
            for order in (1, 2, 11, 61):
                plain = {k: float(l_coeffs(order).l(k)) for k in range(1, order + 1)}
                for weights in (_profile(order), plain):
                    _assert_rows_match_the_scalar_core(alg, sigma, xh, xf, weights)


def test_core_pads_rows_with_fewer_structural_nonzeros():
    """In so(1,2) (+) so(1,3) the f rows of the first summand meet one h
    column of c_fh and those of the second two, so the short rows pad with
    an exact zero; the result is still the scalar reference's, byte for
    byte."""
    alg = _direct_sum(so1m_algebra(2), so1m_algebra(3))
    counts = (alg.c_fh != 0.0).any(axis=0).sum(axis=0)
    assert counts.tolist() == [1, 1, 2, 2, 2]
    rng = np.random.default_rng(7)
    for n in (1, 3, 1000):
        sigma, xh, xf = _signed_zero_nodes(rng, alg, n)
        for order in (1, 2, 11, 61):
            _assert_rows_match_the_scalar_core(alg, sigma, xh, xf, _profile(order))


def test_realize_raises_where_the_series_overflows():
    """A finite f actor near the float maximum used to return
    dF = (1.66e308, inf, -1.49e307) with no error and no warning."""
    alg = so1m_algebra(3)
    xi = alg.element(h=[0.0, 0.0, 0.0], f=[1.7e308, 1.7e308, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="the series overflows: dF has non-finite entries"):
            realize(alg, xi, CosetPoint([0.4, 0.3, 0.1]))


def test_realize_rejects_a_point_of_another_size():
    alg = so1m_algebra(3)
    with pytest.raises(DimensionError, match="point has 2 coordinates, algebra dim_f 3"):
        realize(alg, alg.f_basis(0), CosetPoint([0.1, 0.2]))
