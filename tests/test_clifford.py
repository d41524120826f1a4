"""Blade arithmetic of Cl(m) against the independent matrix representation."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

import cosetrep
from cosetrep.clifford import (
    CliffordSpace,
    Multivector,
    _mul_blades,
    blade_product,
    commutator,
    exp_vector,
    matrix_rep,
    multivector_matrix,
)
from cosetrep.errors import DimensionError, DomainError
from cosetrep.verify import _random_pairs, suite_clifford


def _all_blades(m):
    return tuple(CliffordSpace(m).blades())


_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def kron_gammas(m):
    """gamma_1 .. gamma_m by tensor doubling of 2x2 seeds: (Z) at m = 1,
    (X, Z) at m = 2, then gamma_k -> X (x) gamma_k and gamma_m = Z (x) 1."""
    if m == 1:
        return [_SZ]
    if m == 2:
        return [_SX, _SZ]
    prev = kron_gammas(m - 1)
    return [np.kron(_SX, g) for g in prev] + [np.kron(_SZ, np.eye(prev[0].shape[0]))]


def test_generators_square_to_one():
    for m in range(1, 6):
        sp = CliffordSpace(m)
        for k in range(1, m + 1):
            g = Multivector.blade(sp, (k,))
            assert (g * g).coeff(()) == 1.0
            assert (g * g - Multivector.scalar(sp, 1.0)).max_abs() == 0.0


def test_distinct_generators_anticommute():
    sp = CliffordSpace(4)
    for i in range(1, 5):
        for k in range(1, 5):
            if i == k:
                continue
            gi, gk = Multivector.blade(sp, (i,)), Multivector.blade(sp, (k,))
            assert (gi * gk + gk * gi).max_abs() == 0.0


def test_hand_products():
    sp = CliffordSpace(3)
    e1 = Multivector.blade(sp, (1,))
    e12 = Multivector.blade(sp, (1, 2))
    e123 = Multivector.blade(sp, (1, 2, 3))
    assert (e1 * e12).coeff((2,)) == 1.0
    assert (e12 * e1).coeff((2,)) == -1.0
    assert (e12 * e12).coeff(()) == -1.0
    assert (e123 * e123).coeff(()) == -1.0
    # commutator of two planes is again a plane
    e13 = Multivector.blade(sp, (1, 3))
    c = commutator(e12, e13)
    assert set(dict(c.items())) == {(2, 3)}


@st.composite
def multivectors(draw, m):
    blades = _all_blades(m)
    n = draw(st.integers(0, 3))
    coeffs = {}
    for _ in range(n):
        idx = draw(st.integers(0, len(blades) - 1))
        val = draw(st.integers(-3, 3))
        coeffs[blades[idx]] = coeffs.get(blades[idx], 0) + val
    return Multivector(CliffordSpace(m), coeffs)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(multivectors(m), multivectors(m), multivectors(m))))
def test_product_associative(abc):
    """Integer coefficients keep float arithmetic exact, so equality is exact."""
    a, b, c = abc
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert (lhs - rhs).max_abs() == 0.0


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(multivectors(m), multivectors(m), multivectors(m))))
def test_product_distributes(abc):
    a, b, c = abc
    assert (a * (b + c) - (a * b + a * c)).max_abs() == 0.0


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(multivectors(m), multivectors(m))))
def test_product_matches_matrix_rep_exactly(ab):
    """With integer coefficients both routes are exact, so the oracle is too."""
    a, b = ab
    lhs = multivector_matrix(a * b)
    rhs = multivector_matrix(a) @ multivector_matrix(b)
    assert np.array_equal(lhs, rhs)


def test_product_matches_matrix_rep_floats():
    rng = np.random.default_rng(7)
    worst = 0.0
    for m in range(1, 6):
        sp = CliffordSpace(m)
        blades = _all_blades(m)
        for _ in range(200):
            pick = lambda: Multivector(
                sp,
                {
                    blades[i]: rng.uniform(-2, 2)
                    for i in rng.integers(0, len(blades), size=3)
                },
            )
            a, b = pick(), pick()
            diff = multivector_matrix(a * b) - multivector_matrix(a) @ multivector_matrix(b)
            worst = max(worst, abs(diff).max())
    assert worst < 1e-12


def test_matrix_rep_entries_and_sizes():
    expected = {1: 2, 2: 2, 3: 4, 4: 8, 5: 16, 6: 32}
    for m, d in expected.items():
        gams = matrix_rep(CliffordSpace(m))
        assert len(gams) == m
        for g in gams:
            assert g.shape == (d, d)
            assert set(np.unique(g)) <= {-1.0, 0.0, 1.0}


@pytest.mark.parametrize("m", range(1, 9))
def test_images_equal_the_kron_reference(m):
    """matrix_rep equals the tensor-doubled gammas in value and holds no -0.0,
    and every blade image is the reference product byte for byte."""
    sp = CliffordSpace(m)
    for g, want in zip(matrix_rep(sp), kron_gammas(m), strict=True):
        np.testing.assert_array_equal(g, want)
        assert not g.flags.writeable
        assert not np.signbit(g[g == 0.0]).any()
    for t in sp.blades():
        got = multivector_matrix(Multivector.blade(sp, t))
        assert got.tobytes() == _reference_multivector_matrix(Multivector.blade(sp, t)).tobytes()
    empty = multivector_matrix(Multivector(sp))
    assert empty.dtype == np.float64 and not empty.any()


def test_matrix_rep_relations():
    for m in range(1, 7):
        gams = matrix_rep(CliffordSpace(m))
        eye = np.eye(gams[0].shape[0])
        for i in range(m):
            for k in range(m):
                anti = gams[i] @ gams[k] + gams[k] @ gams[i]
                np.testing.assert_array_equal(anti, 2.0 * (i == k) * eye)


def test_matrix_rep_faithful():
    """All 2^m blade images are linearly independent."""
    for m in range(1, 7):
        sp = CliffordSpace(m)
        images = np.stack(
            [multivector_matrix(Multivector.blade(sp, t)).ravel() for t in sp.blades()]
        )
        assert np.linalg.matrix_rank(images) == sp.dim


def test_exp_vector_matches_expm():
    rng = np.random.default_rng(3)
    for m in (1, 2, 3, 4):
        sp = CliffordSpace(m)
        gams = matrix_rep(sp)
        for _ in range(15):
            sig = rng.uniform(-1.5, 1.5, m)
            closed = multivector_matrix(exp_vector(sp, sig))
            direct = expm(sum(sig[k] * gams[k] for k in range(m)))
            np.testing.assert_allclose(closed, direct, atol=1e-12)


def test_exp_vector_inverse_and_norm():
    sp = CliffordSpace(3)
    sig = np.array([0.4, -0.7, 0.2])
    e = exp_vector(sp, sig)
    back = exp_vector(sp, -sig)
    assert (e * back - Multivector.scalar(sp, 1.0)).max_abs() < 1e-14
    # cosh^2 - sinh^2 = 1 written in the coefficients
    c = e.coeff(())
    s2 = float(np.dot(e.vector_part(), e.vector_part()))
    assert c * c - s2 == pytest.approx(1.0, abs=1e-14)


def test_exp_vector_small_norm_regular():
    sp = CliffordSpace(2)
    gams = matrix_rep(sp)
    sig = np.array([1e-9, -2e-9])
    closed = multivector_matrix(exp_vector(sp, sig))
    direct = expm(sig[0] * gams[0] + sig[1] * gams[1])
    np.testing.assert_allclose(closed, direct, atol=1e-15)
    zero = exp_vector(sp, np.zeros(2))
    assert (zero - Multivector.scalar(sp, 1.0)).max_abs() == 0.0


def test_grades_and_vector_part():
    sp = CliffordSpace(3)
    a = Multivector(sp, {(): 2.0, (1,): 3.0, (2, 3): -1.0})
    assert a.grades() == {0, 1, 2}
    np.testing.assert_array_equal(a.grade(1).vector_part(), [3.0, 0.0, 0.0])
    np.testing.assert_array_equal(a.vector_part(), [3.0, 0.0, 0.0])
    assert a.grade(2).coeff((2, 3)) == -1.0


def test_blade_validation():
    sp = CliffordSpace(2)
    with pytest.raises(DimensionError):
        Multivector.blade(sp, (2, 1))
    with pytest.raises(DimensionError):
        Multivector.blade(sp, (1, 1))
    with pytest.raises(DimensionError):
        Multivector.blade(sp, (0,))
    with pytest.raises(DimensionError):
        Multivector.vector(sp, np.zeros(3))
    with pytest.raises(DimensionError):
        CliffordSpace(0)
    for bad in ((1.5,), (1.0,), (True,), (1, np.float64(2.0)), ("1",)):
        with pytest.raises(DimensionError, match="must be integers"):
            Multivector.blade(CliffordSpace(3), bad)
    a = Multivector.blade(sp, (np.int64(1), np.int32(2)), 2.0)
    assert [type(i) for t, _ in a.items() for i in t] == [int, int]
    assert a.coeff((1, 2)) == 2.0


def test_spaces_do_not_mix():
    a = Multivector.blade(CliffordSpace(2), (1,))
    b = Multivector.blade(CliffordSpace(3), (1,))
    with pytest.raises(DimensionError):
        a + b
    with pytest.raises(DimensionError):
        a * b


# ---------------------------------------------------------------------------
# per-process tables and stacked forms against the routines they replaced
# ---------------------------------------------------------------------------

def _reference_mul_blades(ea, eb):
    """Product of two basis blades: resulting blade and sign (uncached)."""
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


def _reference_multivector_matrix(a):
    """Per-term sum of blade images, each a product of the tensor-doubled gammas."""
    fam = kron_gammas(a.space.m)
    n = fam[0].shape[0]
    out = np.zeros((n, n))
    for t, v in a.items():
        P = np.eye(n)
        for i in t:
            P = P @ fam[i - 1]
        out += v * P
    return out


def _reference_random_pairs(rng, space, n_pairs, n_terms=4):
    """The verify pair draw, each multivector built by the validating constructor."""
    blades = tuple(space.blades())
    picks = rng.integers(0, len(blades), size=(2 * n_pairs, n_terms))
    vals = rng.uniform(-2.0, 2.0, (2 * n_pairs, n_terms))
    mvs = []
    for row_p, row_v in zip(picks, vals):
        data = {}
        for p, v in zip(row_p, row_v):
            data[blades[p]] = data.get(blades[p], 0.0) + float(v)
        mvs.append(Multivector(space, data))
    return list(zip(mvs[::2], mvs[1::2]))


def _bits(t):
    """Bit mask of an index tuple, bit i-1 for gamma_i."""
    return sum(1 << (i - 1) for i in t)


def test_blade_products_match_uncached_reference():
    blades = _all_blades(6)
    for ea in blades:
        for eb in blades:
            t, s = _reference_mul_blades(ea, eb)
            assert _mul_blades(_bits(ea), _bits(eb)) == (_bits(t), s)


def test_blade_product_never_reads_the_matrix_table(monkeypatch):
    """The symbolic product and the signed-permutation table stay two
    algorithms, so the matrix oracle checks the product independently."""

    def table(m):
        raise AssertionError("blade_product read the signed-permutation table")

    monkeypatch.setattr("cosetrep.clifford._signed_permutations", table)
    sp = CliffordSpace(5)
    gens = [Multivector.blade(sp, t, 1.0 + len(t)) for t in sp.blades()]
    for a in gens:
        for b in gens:
            assert len(list(blade_product(a, b).items())) == 1


def test_blades_in_grade_lex_order():
    for m in range(1, 7):
        blades = list(CliffordSpace(m).blades())
        assert blades == sorted(blades, key=lambda t: (len(t), t))
        assert len(set(blades)) == 2**m


def test_stacked_matrix_is_bit_identical_to_per_term_sum():
    rng = np.random.default_rng(11)
    for m in range(1, 6):
        sp = CliffordSpace(m)
        blades = _all_blades(m)
        for _ in range(100):
            k = int(rng.integers(0, len(blades) + 1))
            a = Multivector(sp, {blades[i]: rng.uniform(-2, 2) for i in rng.integers(0, len(blades), size=k)})
            assert multivector_matrix(a).tobytes() == _reference_multivector_matrix(a).tobytes()


def test_sequence_form_equals_per_element_calls():
    """Each entry of a blade-image sum has at most two nonzero terms, so the
    images of a sequence are byte for byte the images of its elements."""
    rng = np.random.default_rng(5)
    for m in range(1, 6):
        pairs = list(_random_pairs(rng, CliffordSpace(m), 25))
        mvs = [x for pair in pairs for x in pair] + [blade_product(a, b) for a, b in pairs]
        want = np.stack([multivector_matrix(x) for x in mvs])
        assert multivector_matrix(mvs).tobytes() == want.tobytes()


def test_sequence_form_rejects_empty_and_mixed_spaces():
    with pytest.raises(DimensionError):
        multivector_matrix([])
    mixed = [Multivector.scalar(CliffordSpace(2), 1.0), Multivector.scalar(CliffordSpace(3), 1.0)]
    with pytest.raises(DimensionError, match="different spaces"):
        multivector_matrix(mixed)


def test_verify_pair_draw_matches_validated_reference():
    for seed in range(10):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for m in range(1, 6):
            sp = CliffordSpace(m)
            got, want = list(_random_pairs(new, sp, 200)), _reference_random_pairs(old, sp, 200)
            assert len(got) == len(want) == 200
            for pair, ref in zip(got, want):
                assert [list(x._c.items()) for x in pair] == [list(x._c.items()) for x in ref]
        assert new.bit_generator.state == old.bit_generator.state


def test_verify_oracle_catches_a_wrong_product(monkeypatch):
    def wrong(ea, eb):
        t, s = _mul_blades(ea, eb)
        return t, -s if (ea, eb) == (0b1, 0b10) else s

    monkeypatch.setattr("cosetrep.clifford._mul_blades", wrong)
    rows = {r.name: r for r in suite_clifford(0)}
    assert not rows["clifford_product_matrix_oracle"].passed
    assert not rows["clifford_generator_relations"].passed


def test_verify_clifford_suite_memory_is_bounded():
    """The stacked product oracle works in chunks of 25 pairs; unchunked, its
    temporaries peak at about 1.8 MB and raise verify's peak RSS."""
    suite_clifford(1)
    tracemalloc.start()
    try:
        suite_clifford(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cold_spinor_rep_memory_is_bounded():
    """spinor_hrep(8) takes its 28 images from the (256, 128) table of signed
    entries; a dense stack of all 256 blade images peaked at 46 MB."""
    probe = (
        "import tracemalloc\n"
        "from cosetrep.induced import spinor_hrep\n"
        "tracemalloc.start()\n"
        "spinor_hrep(8)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cosetrep.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 16 * 10**6


# ---------------------------------------------------------------------------
# typed errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [2.5, 3.0, True, "3", None])
def test_space_needs_integer_dimension(m):
    with pytest.raises(DimensionError):
        CliffordSpace(m)


def test_space_accepts_numpy_integer():
    assert CliffordSpace(np.int64(3)).dim == 8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_raise(bad):
    sp = CliffordSpace(3)
    with pytest.raises(DomainError, match="sigma"):
        exp_vector(sp, [bad, 0.0, 0.0])
    with pytest.raises(DomainError, match="blade"):
        Multivector(sp, {(1,): bad})
    one = Multivector.scalar(sp, 1.0)
    for scaled in (lambda: one.scale(bad), lambda: one * bad, lambda: bad * Multivector(sp)):
        with pytest.raises(DomainError, match="scale factor is not finite"):
            scaled()


def test_exp_vector_past_the_overflow_limit_names_the_size():
    """cosh(|sigma|) overflows just past 710.47: the size is checked first, so
    no RuntimeWarning comes out (pytest makes one an error) and the message
    names |sigma| rather than a blade coefficient."""
    sp = CliffordSpace(3)
    for sigma in ([800.0, 0.0, 0.0], [600.0, 600.0, 0.0], [1e300, -1e300, 1e300], [1.7e308, 1.7e308, 0.0]):
        with pytest.raises(DomainError, match=r"\|sigma\| = .* exceeds 710"):
            exp_vector(sp, sigma)
    near = exp_vector(sp, [709.0, 0.0, 0.0])
    assert np.isfinite(near.coeff(())) and np.isfinite(near.coeff((1,)))


def test_overflowing_arithmetic_raises():
    """scale, +, - and the geometric product keep the constructor's rule: a
    coefficient that overflows raises DomainError instead of being stored."""
    sp = CliffordSpace(3)
    big = Multivector.vector(sp, [1e200, 0.0, 0.0])
    huge = Multivector.scalar(sp, 1e308)
    cases = (
        lambda: big.scale(1e200),
        lambda: big * big,
        lambda: blade_product(big, Multivector.blade(sp, (1, 2), 1e200)),
        lambda: commutator(big, Multivector.blade(sp, (2,), 1e200)),
        lambda: huge + huge,
        lambda: huge - huge.scale(-1.0),
    )
    for case in cases:
        with pytest.raises(DomainError, match="blade .* is not finite: -?inf"):
            case()


def test_large_finite_arithmetic_still_passes():
    """Coefficients whose sum overflows while each stays finite are kept."""
    sp = CliffordSpace(3)
    a = Multivector.vector(sp, [1e308, 1e308, 0.0]) + Multivector.scalar(sp, 1e308)
    assert a.coeff(()) == a.coeff((1,)) == a.coeff((2,)) == 1e308
    b = a * Multivector.scalar(sp, 1.5)
    assert b.coeff((1,)) == 1.5e308


def test_underflowing_scale_drops_the_entry():
    """A product that underflows to 0.0 is dropped like any other 0.0 entry."""
    tiny = Multivector.blade(CliffordSpace(2), (1,), 1e-200).scale(1e-200)
    assert not tiny
    assert tiny.grades() == set()
    assert list(tiny.items()) == []
    assert repr(tiny) == "Multivector(0)"


def test_overflowing_matrix_image_raises():
    """The blades () and (2,) of Cl(2) share an X mask, so their terms add in
    one entry; 1e308 + 1e308 overflows and raises instead of returning inf."""
    sp = CliffordSpace(2)
    a = Multivector(sp, {(): 1e308, (2,): 1e308})
    with pytest.raises(DomainError, match="not finite: inf"):
        multivector_matrix(a)
    with pytest.raises(DomainError, match="not finite: inf"):
        multivector_matrix([Multivector.scalar(sp, 1.0), a])
    near = Multivector(sp, {(): 8e307, (2,): 8e307})
    assert multivector_matrix(near).tolist() == [[1.6e308, 0.0], [0.0, 0.0]]
