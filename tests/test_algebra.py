"""Structure constants of so(1,m) and the generic reductive-split container."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import cosetrep
from cosetrep.clifford import CliffordSpace, Multivector, commutator, multivector_matrix
from cosetrep.errors import ClosureError, DimensionError, DomainError, reject_non_numbers
from cosetrep import lie
from cosetrep.lie import expm as lie_expm
from cosetrep.lie import (
    AlgebraElement,
    CosetPoint,
    ReductiveAlgebra,
    _total_structure,
    algebra_from_json_dict,
    algebra_to_json_dict,
    bracket,
    defining_rep_so1m,
    generator_coords,
    h_pairs,
    jacobi_residual,
    so1m_algebra,
)


def test_h_pairs_order():
    assert h_pairs(3) == ((1, 2), (1, 3), (2, 3))
    assert h_pairs(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert h_pairs(1) == ()


def test_dimensions():
    for m in (2, 3, 4):
        alg = so1m_algebra(m)
        assert alg.dim_f == m
        assert alg.dim_h == m * (m - 1) // 2
        assert alg.dim == alg.dim_h + alg.dim_f


def test_jacobi_residual_zero():
    for m in (2, 3, 4):
        assert jacobi_residual(so1m_algebra(m)) == 0.0


def _reference_jacobi_residual(alg):
    """The Jacobi residual as the dense (n, n, n, n) tensor formed it, kept
    verbatim: its memory grows as n^4."""
    C = _total_structure(alg)
    t = np.tensordot(C, C, axes=1)
    jac = t + np.transpose(t, (1, 2, 0, 3)) + np.transpose(t, (2, 0, 1, 3))
    return float(np.abs(jac).max()) if jac.size else 0.0


def _unchecked(c_hh, c_ff, c_fh):
    """A ReductiveAlgebra holding the tables without the constructor's checks."""
    alg = object.__new__(ReductiveAlgebra)
    for name, arr in (("c_hh", c_hh), ("c_ff", c_ff), ("c_fh", c_fh)):
        object.__setattr__(alg, name, np.asarray(arr, dtype=float))
    return alg


def _rotated_h_basis(alg, q):
    """alg with its h basis H'_a = q[a, b] H_b, q orthogonal: c_hh is dense."""
    c_hh = np.einsum("ai,bj,ijk,ck->abc", q, q, alg.c_hh, q)
    c_ff = np.einsum("abk,ck->abc", alg.c_ff, q)
    c_fh = np.einsum("bj,ajc->abc", q, alg.c_fh)
    return ReductiveAlgebra(c_hh, c_ff, c_fh)


def _jacobi_cases():
    """(algebra, one term per right-hand side) for so(1,m), its compact dual
    so(m+1), so(1,m) in a rotated h basis, and antisymmetric tables broken
    in one [F,H], [H,H] or [F,F] bracket."""
    rng = np.random.default_rng(5)
    cases = []
    for m in range(2, 7):
        alg = so1m_algebra(m)
        cases.append((alg, True))
        cases.append((ReductiveAlgebra(alg.c_hh, -alg.c_ff, alg.c_fh), True))
    for m in (3, 4):
        alg = so1m_algebra(m)
        q = np.linalg.qr(rng.standard_normal((alg.dim_h, alg.dim_h)))[0]
        cases.append((_rotated_h_basis(alg, q), False))
    alg = so1m_algebra(3)
    c_fh = np.array(alg.c_fh)
    c_fh[0, 0, 1] += 0.5
    cases.append((_unchecked(alg.c_hh, alg.c_ff, c_fh), True))
    c_hh = np.array(alg.c_hh)
    c_hh[0, 1, 2] += 0.5
    c_hh[1, 0, 2] -= 0.5
    cases.append((_unchecked(c_hh, alg.c_ff, alg.c_fh), True))
    c_ff = np.array(alg.c_ff)
    c_ff[0, 1, 0] += 0.25
    c_ff[1, 0, 0] -= 0.25
    cases.append((_unchecked(alg.c_hh, c_ff, alg.c_fh), True))
    return cases


@pytest.mark.parametrize("chunk", [None, 1, 64])
def test_jacobi_residual_matches_the_dense_tensor(monkeypatch, chunk):
    """The closure check on the adjoint matrices is the dense Jacobi tensor's
    residual: bit for bit where every right-hand side has one term, in one
    chunk or in many, and to rounding for a dense c_hh."""
    if chunk is not None:
        monkeypatch.setattr(lie, "_CLOSURE_CHUNK", chunk)
    residuals = []
    for alg, exact in _jacobi_cases():
        got = jacobi_residual(alg)
        want = _reference_jacobi_residual(alg)
        if exact:
            assert got == want
        else:
            assert abs(got - want) <= 1e-15
        residuals.append(want)
    assert max(residuals[:-3]) <= 1e-14
    assert min(residuals[-3:]) >= 0.25


@pytest.mark.parametrize("chunk", [None, 1, 64])
def test_slot_arm_gives_the_dense_jacobi_residual(monkeypatch, chunk):
    """Every table with one term per right-hand side is monomial: each line
    of its structure tensor, a column of an adjoint matrix, has at most one
    nonzero.  The slot arm reads those lines and gives the dense tensor's
    residual bit for bit."""
    cases = [alg for alg, exact in _jacobi_cases() if exact]
    assert len(cases) == 13
    if chunk is not None:
        monkeypatch.setattr(lie, "_CLOSURE_CHUNK", chunk)
    for alg in cases:
        assert (lie._total_structure(alg) != 0.0).sum(axis=-1).max() <= 1
        assert jacobi_residual(alg) == _reference_jacobi_residual(alg)


def test_cold_so116_build_has_an_exact_jacobi_residual():
    """A cold so(1,16), n = 136, builds in a fresh process; its dense Jacobi
    check took 7 s, and the slot arm reads an exact 0.0."""
    probe = (
        "from cosetrep.lie import jacobi_residual, so1m_algebra\n"
        "print(repr(jacobi_residual(so1m_algebra(16))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cosetrep.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0.0"


def test_jacobi_residual_memory_is_bounded():
    """The dense tensor of so(1,8) peaked at 38.8 MiB (210.7 MiB for
    so(1,10)); the chunked check holds a few working arrays of 2 MB."""
    alg = so1m_algebra(8)
    tracemalloc.start()
    try:
        assert jacobi_residual(alg) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_antisymmetry_check_holds_one_table_sized_temporary():
    """|c + c^T| allocated two temporaries the size of c (26.4 MiB for the
    c_hh of so(1,16)); the sum made absolute in place is one.  A c_hh that
    is not antisymmetric stops the constructor there, before the Jacobi
    check and before the record copies its tables."""
    c_hh = np.random.default_rng(5).standard_normal((60, 60, 60))
    tracemalloc.start()
    try:
        with pytest.raises(ClosureError, match="antisymmetric"):
            ReductiveAlgebra(c_hh, np.zeros((0, 0, 60)), np.zeros((0, 60, 0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * c_hh.nbytes


def test_constructor_rejects_a_nan_jacobi_residual():
    """With every table scaled by 1e200 the products overflow and the
    residual of a broken so(1,3) is NaN, which used to compare false against
    the bar and let the table through."""
    alg = so1m_algebra(3)
    c_fh = np.array(alg.c_fh)
    c_fh[0, 0, 1] += 0.5
    with pytest.raises(ClosureError, match="Jacobi"):
        ReductiveAlgebra(1e200 * alg.c_hh, 1e200 * alg.c_ff, 1e200 * c_fh)


def test_boost_bracket_lands_on_minus_four_rotation():
    """[F_i, F_k] = -4 H_(i,k) in the normalization F_k = gamma_k."""
    for m in (2, 3):
        alg = so1m_algebra(m)
        pairs = h_pairs(m)
        for a, (i, k) in enumerate(pairs):
            got = bracket(alg.f_basis(i - 1), alg.f_basis(k - 1))
            want = -4.0 * alg.h_basis(a)
            assert (got - want).max_abs() == 0.0


def test_boost_rotation_bracket():
    """[F_j, H_(i,k)] = d_jk F_i - d_ji F_k."""
    m = 3
    alg = so1m_algebra(m)
    pairs = h_pairs(m)
    for j in range(1, m + 1):
        for a, (i, k) in enumerate(pairs):
            got = bracket(alg.f_basis(j - 1), alg.h_basis(a))
            want = alg.zero()
            if j == k:
                want = want + alg.f_basis(i - 1)
            if j == i:
                want = want - alg.f_basis(k - 1)
            assert (got - want).max_abs() == 0.0


def test_rotation_brackets_close_as_angular_momenta():
    """[H_(1,2), H_(1,3)] = +H_(2,3): gamma_1 contracts, the 2-3 plane remains."""
    alg = so1m_algebra(3)
    got = bracket(alg.h_basis(0), alg.h_basis(1))
    want = alg.h_basis(2)
    assert (got - want).max_abs() == 0.0


def test_structure_constants_from_clifford_match_matrices():
    """The same brackets computed in the Clifford matrix images."""
    for m in (2, 3, 4):
        sp = CliffordSpace(m)
        gammas = [Multivector.blade(sp, (j,)) for j in range(1, m + 1)]
        f_imgs = [multivector_matrix(g) for g in gammas]
        h_imgs = [
            multivector_matrix(0.25 * commutator(gammas[k - 1], gammas[i - 1]))
            for (i, k) in h_pairs(m)
        ]
        alg = so1m_algebra(m)
        stack = h_imgs + f_imgs
        C = np.zeros((alg.dim, alg.dim, alg.dim))
        C[: alg.dim_h, : alg.dim_h, : alg.dim_h] = alg.c_hh
        C[alg.dim_h :, alg.dim_h :, : alg.dim_h] = alg.c_ff
        C[alg.dim_h :, : alg.dim_h, alg.dim_h :] = alg.c_fh
        C[: alg.dim_h, alg.dim_h :, alg.dim_h :] = -np.swapaxes(alg.c_fh, 0, 1)
        for a in range(alg.dim):
            for b in range(alg.dim):
                comm = stack[a] @ stack[b] - stack[b] @ stack[a]
                lin = sum(C[a, b, c] * stack[c] for c in range(alg.dim))
                np.testing.assert_allclose(comm, lin, atol=1e-12)


def _reference_so1m_tables(m):
    """so(1,m)'s three tables from Multivector commutators of the embedded
    generators, read back blade by blade, as the package once built them."""
    sp = CliffordSpace(m)
    fb = [Multivector.blade(sp, (k,)) for k in range(1, m + 1)]
    hb = [0.25 * commutator(fb[k - 1], fb[i - 1]) for (i, k) in h_pairs(m)]

    def table(left, right, basis):
        index = {t: (j, v) for j, b in enumerate(basis) for t, v in b.items()}
        out = np.zeros((len(left), len(right), len(basis)))
        for p, x in enumerate(left):
            for q, y in enumerate(right):
                for t, c in commutator(x, y).items():
                    j, v = index[t]
                    out[p, q, j] = c / v
        return out

    return table(hb, hb, hb), table(fb, fb, hb), table(fb, hb, fb)


@pytest.mark.parametrize("m", range(2, 13))
def test_so1m_tables_equal_the_commutator_reference(m):
    """One blade product per ordered pair gives the Multivector commutators'
    tables byte for byte."""
    alg = so1m_algebra(m)
    for got, want in zip((alg.c_hh, alg.c_ff, alg.c_fh), _reference_so1m_tables(m)):
        assert got.tobytes() == want.tobytes()


def test_brackets_off_the_span_raise():
    """[gamma_1, gamma_2] is a bivector, off the span of the gammas."""
    gammas = [(0b01, 1.0), (0b10, 1.0)]
    with pytest.raises(ClosureError, match="off the expected span"):
        lie._brackets(gammas, gammas, gammas)
    assert not lie._brackets(gammas[:1], gammas[:1], gammas).any()


def test_cold_builds_run_no_multivector_product():
    """Cold builds of so(1,m) and of its spinor rep take no Clifford product
    of Multivectors: a fresh process, since clearing the caches here would
    give other tests new algebra objects."""
    probe = (
        "import cosetrep.clifford as clifford\n"
        "from cosetrep.induced import spinor_hrep\n"
        "from cosetrep.lie import so1m_algebra\n"
        "calls = []\n"
        "clifford.blade_product = lambda *a: calls.append(a)\n"
        "for m in range(2, 9):\n"
        "    spinor_hrep(m)\n"
        "print(so1m_algebra.cache_info().misses, len(calls))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cosetrep.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["7", "0"]


def test_defining_rep_matches_algebra():
    """Brackets of the (m+1)x(m+1) matrices reproduce every structure constant."""
    for m in (2, 3, 4):
        alg = so1m_algebra(m)
        rep = defining_rep_so1m(m)
        basis = [alg.h_basis(a) for a in range(alg.dim_h)] + [
            alg.f_basis(al) for al in range(alg.dim_f)
        ]
        mats = rep.matrix(np.eye(alg.dim))
        for a in range(alg.dim):
            for b in range(alg.dim):
                comm = mats[a] @ mats[b] - mats[b] @ mats[a]
                x = bracket(basis[a], basis[b])
                want = rep.matrix(np.concatenate([x.h, x.f]))
                np.testing.assert_allclose(comm, want, atol=1e-12)


@pytest.mark.parametrize("m", range(1, 11))
def test_defining_rep_equals_the_plane_loop(m):
    """The generators filled by index equal the plane-by-plane loop byte for
    byte."""
    h_gens = np.zeros((len(h_pairs(m)), m + 1, m + 1))
    for a, (i, k) in enumerate(h_pairs(m)):
        h_gens[a, k, i] = 1.0
        h_gens[a, i, k] = -1.0
    f_gens = np.zeros((m, m + 1, m + 1))
    for k in range(1, m + 1):
        f_gens[k - 1, 0, k] = 2.0
        f_gens[k - 1, k, 0] = 2.0
    rep = defining_rep_so1m(m)
    assert rep.h_gens.tobytes() == h_gens.tobytes()
    assert rep.f_gens.tobytes() == f_gens.tobytes()


def test_defining_rep_matrix_takes_section_coordinates():
    """A stack of xi rows, stabilizer part first, maps to one matrix per row."""
    rep = defining_rep_so1m(3)
    xi = np.array([[0.3, -0.2, 0.5, 1.0, 0.4, -0.6], [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
    mats = rep.matrix(xi)
    assert mats.shape == (2, 4, 4)
    want = np.tensordot(xi[0, :3], rep.h_gens, axes=1) + np.tensordot(xi[0, 3:], rep.f_gens, axes=1)
    assert mats[0].tobytes() == want.tobytes()
    assert np.array_equal(mats[1], rep.f_gens[2])
    for bad in (np.zeros(3), np.zeros((2, 7)), np.float64(1.0)):
        with pytest.raises(DimensionError):
            rep.matrix(bad)
    # an inf coordinate used to raise numpy's warning from the product, and
    # a NaN one came back as a NaN matrix
    for bad in (np.inf, np.nan):
        with pytest.raises(DomainError, match="non-finite"):
            rep.matrix([bad, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_defining_rep_preserves_form():
    for m in (2, 3):
        rep = defining_rep_so1m(m)
        for x in list(rep.h_gens) + list(rep.f_gens):
            np.testing.assert_allclose(x.T @ rep.eta + rep.eta @ x, 0.0, atol=0.0)


def test_defining_rep_boost_rapidity_doubles():
    """exp(s rep(F_1)) is a boost of rapidity 2s."""
    rep = defining_rep_so1m(3)
    s = 0.37
    g = expm(s * rep.f_gens[0])
    assert g[0, 0] == pytest.approx(np.cosh(2 * s), abs=1e-12)
    assert g[0, 1] == pytest.approx(np.sinh(2 * s), abs=1e-12)
    assert g[2, 2] == 1.0 and g[3, 3] == 1.0


def test_element_arithmetic_and_projections():
    alg = so1m_algebra(3)
    x = alg.element(h=[1.0, -2.0, 0.5], f=[0.0, 3.0, 0.0])
    y = alg.element(h=[0.5, 0.0, 0.0], f=[1.0, 0.0, -1.0])
    s = x + y
    np.testing.assert_array_equal(s.h, [1.5, -2.0, 0.5])
    np.testing.assert_array_equal(s.f, [1.0, 3.0, -1.0])
    np.testing.assert_array_equal((2.0 * x).f, [0.0, 6.0, 0.0])
    np.testing.assert_array_equal((-x).h, [-1.0, 2.0, -0.5])
    np.testing.assert_array_equal(alg.element(h=x.h).h, x.h)
    np.testing.assert_array_equal(alg.element(h=x.h).f, np.zeros(3))
    np.testing.assert_array_equal(alg.element(f=x.f).f, x.f)
    np.testing.assert_array_equal(alg.element(f=x.f).h, np.zeros(3))
    assert x.max_abs() == 3.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_element_scale_rejects_a_non_finite_factor(bad):
    """inf * x raised numpy's "invalid value encountered in multiply" on the
    zero entries, or gave h = f = NaN with warnings off; a non-finite factor
    now raises DomainError, as Multivector.scale does."""
    x = so1m_algebra(3).f_basis(0)
    with pytest.raises(DomainError, match=f"scale factor is not finite: {float(bad)}"):
        bad * x
    with pytest.raises(DomainError, match="scale factor is not finite"):
        x.__rmul__(np.float64(bad))


def test_bracket_antisymmetric_on_random_elements():
    rng = np.random.default_rng(11)
    alg = so1m_algebra(3)
    for _ in range(20):
        x = alg.element(h=rng.uniform(-1, 1, 3), f=rng.uniform(-1, 1, 3))
        y = alg.element(h=rng.uniform(-1, 1, 3), f=rng.uniform(-1, 1, 3))
        assert (bracket(x, y) + bracket(y, x)).max_abs() == 0.0
        assert bracket(x, x).max_abs() == 0.0


def test_elements_of_different_algebras_do_not_mix():
    a2, a3 = so1m_algebra(2), so1m_algebra(3)
    with pytest.raises(DimensionError):
        bracket(a2.f_basis(0), a3.f_basis(0))


def test_constructor_rejects_bad_tensors():
    alg = so1m_algebra(2)
    with pytest.raises(ClosureError):
        ReductiveAlgebra(np.zeros((1, 1)), alg.c_ff, alg.c_fh)
    with pytest.raises(ClosureError, match="c_hh must hold numbers"):
        ReductiveAlgebra([[[0.0]], [[0.0, 1.0]]], alg.c_ff, alg.c_fh)
    # breaking antisymmetry of [F,F] must be caught
    c_ff = alg.c_ff.copy()
    c_ff[0, 1, 0] += 1.0
    with pytest.raises(ClosureError):
        ReductiveAlgebra(alg.c_hh, c_ff, alg.c_fh)
    # breaking Jacobi must be caught
    alg3 = so1m_algebra(3)
    c_fh = alg3.c_fh.copy()
    c_fh[0, 0, 1] += 0.5
    with pytest.raises(ClosureError):
        ReductiveAlgebra(alg3.c_hh, alg3.c_ff, c_fh)


def test_coset_point_validation():
    p = CosetPoint(np.array([0.3, -0.1]))
    assert p.m == 2
    assert p.norm == pytest.approx(np.hypot(0.3, 0.1))
    # a hypot reduction: the norm of a huge point used to overflow in a dot
    huge = CosetPoint(np.array([1e200, 1e200, 0.0])).norm
    assert abs(huge - 1.4142135623730951e200) <= np.spacing(huge)
    with pytest.raises(DimensionError):
        CosetPoint(np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        CosetPoint(np.array([np.nan, 0.0]))
    with pytest.raises(DimensionError, match="sigma must hold numbers"):
        CosetPoint([[0.1], [0.2, 0.3]])


def test_so1m_needs_rotations():
    with pytest.raises(DimensionError):
        so1m_algebra(1)


@pytest.mark.parametrize(
    "build, m",
    [(so1m_algebra, m) for m in (-1, 2.5, 3.0, True, "3", None)]
    + [(defining_rep_so1m, m) for m in (0, -1, 2.0, True, "3", None)]
    + [(generator_coords, m) for m in (1, 2.0, True, "3")],
)
def test_m_must_be_an_integer_in_range(build, m):
    """so(1,m) and its generator coordinates need an integer m >= 2, the
    defining rep one >= 1 (2x2 matrices are checked with m = 1).  A float
    equal to a cached numpy integer must not reach that integer's cache
    entry."""
    build(np.int64(3))
    with pytest.raises(DimensionError):
        build(m)


def test_algebra_json_round_trip():
    alg = so1m_algebra(3)
    back = algebra_from_json_dict(algebra_to_json_dict(alg))
    np.testing.assert_array_equal(back.c_hh, alg.c_hh)
    np.testing.assert_array_equal(back.c_ff, alg.c_ff)
    np.testing.assert_array_equal(back.c_fh, alg.c_fh)


def test_algebra_json_rejects_malformed():
    alg = so1m_algebra(2)
    doc = algebra_to_json_dict(alg)
    with pytest.raises(ClosureError):
        algebra_from_json_dict({})
    bad = dict(doc)
    bad["dim_f"] = 5
    with pytest.raises(ClosureError):
        algebra_from_json_dict(bad)


def _expm_error(a, want=None):
    """max over matrices of |expm(A) - want| / max |want|, want = scipy's expm(A)."""
    got = lie_expm(a)
    want = expm(a) if want is None else want
    scale = np.abs(want).max(axis=(-2, -1))
    return float((np.abs(got - want).max(axis=(-2, -1)) / scale).max())


@pytest.mark.parametrize("m", [3, 5, 8])
def test_expm_matches_scipy_on_generator_sums(m):
    """so(1,m) defining matrices (1-norms up to about 18) and the vector and
    spinor generator sums, as one stack each.  On the defining matrices
    scipy itself is off by up to 6e-13, so the three worst cases are also
    checked against a 40-digit mpmath exponential."""
    import mpmath

    from cosetrep.induced import spinor_hrep, vector_hrep

    rng = np.random.default_rng(m)
    rep = defining_rep_so1m(m)
    alg = so1m_algebra(m)
    h = rng.uniform(-2.0, 2.0, (40, alg.dim_h)) * rng.uniform(0.0, 1.0, (40, 1))
    f = rng.uniform(-2.0, 2.0, (40, m)) * rng.uniform(0.0, 1.0, (40, 1))
    defining = np.tensordot(h, rep.h_gens, axes=1) + np.tensordot(f, rep.f_gens, axes=1)
    assert _expm_error(defining) <= 1e-12
    ctx = mpmath.mp.clone()
    ctx.dps = 40
    worst = np.argsort(np.abs(lie_expm(defining) - expm(defining)).max(axis=(1, 2)))[-3:]
    for x in defining[worst]:
        exact = np.array(ctx.expm(ctx.matrix(x.tolist())).tolist(), dtype=float)
        assert _expm_error(x, exact) <= 1e-14
    for hrep in (vector_hrep(m), spinor_hrep(m)):
        assert _expm_error(hrep.matrix(h)) <= 1e-13


def test_expm_matches_scipy_over_the_norm_range():
    """Random matrices with 1-norm from 1e-8 to 50 cover every Pade degree
    and up to four squarings; a stacked call agrees with single calls."""
    rng = np.random.default_rng(3)
    for d in (1, 2, 4, 7, 16):
        a = rng.normal(size=(30, d, d))
        norms = np.geomspace(1e-8, 50.0, 30)
        a *= (norms / np.abs(a).sum(axis=1).max(axis=1))[:, None, None]
        assert _expm_error(a) <= 1e-12
        assert _expm_error(a, np.array([lie_expm(x) for x in a])) <= 1e-13
    assert lie_expm(np.zeros((2, 3, 3, 3))).shape == (2, 3, 3, 3)
    np.testing.assert_array_equal(lie_expm(np.zeros((3, 3))), np.eye(3))


def test_expm_returns_an_empty_stack_unchanged():
    """A stack of 0x0 matrices used to fail numpy's reshape with an inferred
    size; every empty stack now comes back with its own shape."""
    for shape in ((2, 0, 0), (0, 0), (0, 3, 3)):
        a = np.zeros(shape)
        assert lie_expm(a).shape == shape


def test_expm_rejects_bad_input():
    with pytest.raises(DimensionError):
        lie_expm(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        lie_expm(np.zeros(3))
    with pytest.raises(DomainError):
        lie_expm(np.full((2, 2), np.nan))
    with pytest.raises(DomainError):
        lie_expm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_expm_raises_on_overflow_and_complex_input():
    """A squaring that overflows used to return inf with numpy's warning, and
    complex input lost its imaginary part: exp([[0, i], [i, 0]]) came back
    as the identity."""
    for big in (800.0, 1e10, 1e300):
        a = np.array([[0.0, big], [big, 0.0]])
        with pytest.raises(DomainError, match="overflows"):
            lie_expm(a)
        with pytest.raises(DomainError, match="overflows"):
            lie_expm(np.stack([np.eye(2), a]))
    # a large norm alone is fine: a rotation by 800 radians stays bounded
    rot = np.array([[0.0, 800.0], [-800.0, 0.0]])
    np.testing.assert_allclose(lie_expm(rot), expm(rot), rtol=0.0, atol=1e-12)
    with pytest.raises(DomainError, match="complex"):
        lie_expm(np.array([[0.0, 1j], [1j, 0.0]]))


@pytest.mark.parametrize(
    "field",
    [
        ["0.5", 0.0],
        [True, 0.0],
        [[0.1, 0.2], [0.3, False]],
        (0.1, ("0.2", 0.3)),
        [np.array([0.1, 0.2]), np.array([True, False])],
        [np.array(["0.5"])],
        [np.True_],
        "0.5",
        [0.1, [None]],
    ],
)
def test_reject_non_numbers_finds_strings_and_booleans_at_any_depth(field):
    with pytest.raises(DomainError, match="must hold numbers"):
        reject_non_numbers([field], "field")


def test_reject_non_numbers_passes_numbers():
    reject_non_numbers([[0.1, 2, [3.0, -4]], (5, 6.5), np.arange(3), np.zeros((2, 2)), 7, 8.0, []], "field")
    reject_non_numbers([], "field")


def test_generator_coords_rejects_strings_and_booleans():
    """np.asarray and float() read "0.5" as 0.5 and True as 1.0; a boost or
    a rotation angle holding them is malformed instead."""
    for boost in (["0.5", 0, 0], [True, 0, 0], [0.5, 0, np.False_]):
        with pytest.raises(DomainError, match="boost must hold numbers"):
            generator_coords(3, boost)
    for theta in ("0.3", True):
        with pytest.raises(DomainError, match="rotation angle must hold numbers"):
            generator_coords(3, None, [(1, 2, theta)])
    h, f = generator_coords(3, np.array([0.5, 0.0, 1.0]), [(1, 2, np.float64(0.3))])
    np.testing.assert_array_equal(f, [0.5, 0.0, 1.0])
    np.testing.assert_array_equal(h, [0.3, 0.0, 0.0])
