"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
guarantee; each test also prints the measured number against its bar.
"""

import json
import math
from fractions import Fraction

import numpy as np

from cosetrep.cli import main
from cosetrep.clifford import CliffordSpace, Multivector, matrix_rep, multivector_matrix
from cosetrep.coeffs import bernoulli_numbers, l_coeffs
from cosetrep.induced import (
    CompositeSection,
    boost_matrix,
    factor_boost_rotation,
    flow_section,
    induced_action,
    reconstruct,
    rotation_embed,
    spinor_hrep,
    vector_hrep,
)
from cosetrep.lie import CosetPoint, defining_rep_so1m, h_pairs, so1m_algebra, _total_structure
from cosetrep.series import realize, so1m_closed_field
from cosetrep.verify import fd_action_derivative
from scipy.linalg import expm


def _report(label: str, measured: float, bar: float, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} {label}: measured {measured:.3e}, bar {bar:.3e}")


def test_coefficient_table_exact_and_bernoulli_consistent():
    """The rational table solves its recursion exactly and reproduces the
    Bernoulli numbers for n <= 20."""
    table = l_coeffs(20)
    frozen = {
        1: Fraction(1, 2),
        2: Fraction(1, 12),
        3: Fraction(0),
        4: Fraction(-1, 720),
        5: Fraction(0),
        6: Fraction(1, 30240),
        7: Fraction(0),
        8: Fraction(-1, 1209600),
    }
    exact = all(table.l(n) == v for n, v in frozen.items())
    bern = bernoulli_numbers(20)
    cross = all(table.l(n) * math.factorial(n) == bern[n] for n in range(1, 21))
    ok = exact and cross
    _report("coefficient table exact + Bernoulli cross-check", 0.0 if ok else 1.0, 0.0, ok)
    assert exact
    assert cross


def test_blade_products_match_matrix_representation():
    """Generator relations hold exactly, and >= 1000 random products across
    m <= 5 agree with the matrix images to 1e-12."""
    rng = np.random.default_rng(100)
    relations_exact = True
    for m in range(1, 6):
        sp = CliffordSpace(m)
        one = Multivector.scalar(sp, 1.0)
        for i in range(1, m + 1):
            ei = Multivector.blade(sp, (i,))
            relations_exact = relations_exact and not (ei * ei - one)
            for k in range(i + 1, m + 1):
                ek = Multivector.blade(sp, (k,))
                relations_exact = relations_exact and not (ei * ek + ek * ei)
    worst = 0.0
    n_pairs = 0
    for m in range(1, 6):
        sp = CliffordSpace(m)
        blades = tuple(sp.blades())
        for _ in range(200):
            def draw():
                picks = rng.integers(0, len(blades), size=4)
                out = Multivector.scalar(sp, 0.0)
                for p in picks:
                    out = out + rng.uniform(-2, 2) * Multivector.blade(sp, blades[p])
                return out

            a, b = draw(), draw()
            diff = multivector_matrix(a * b) - multivector_matrix(a) @ multivector_matrix(b)
            worst = max(worst, float(abs(diff).max()))
            n_pairs += 1
    assert n_pairs >= 1000
    ok = relations_exact and worst < 1e-12
    _report(f"exact relations + {n_pairs} blade products vs matrix oracle", worst, 1e-12, ok)
    assert relations_exact
    assert worst < 1e-12


def test_structure_constants_agree_across_representations():
    """Clifford-derived constants equal the defining-matrix constants to
    1e-12 for m = 2, 3, 4."""
    worst = 0.0
    for m in (2, 3, 4):
        alg = so1m_algebra(m)
        rep = defining_rep_so1m(m)
        stack = np.concatenate([rep.h_gens, rep.f_gens], axis=0)
        flat = stack.reshape(stack.shape[0], -1)
        c = _total_structure(alg)
        for a in range(alg.dim):
            for b in range(alg.dim):
                comm = (stack[a] @ stack[b] - stack[b] @ stack[a]).ravel()
                coef, *_ = np.linalg.lstsq(flat.T, comm, rcond=None)
                worst = max(worst, float(abs(coef - c[a, b]).max()))
                worst = max(worst, float(abs(flat.T @ coef - comm).max()))
    _report("structure constants across representations", worst, 1e-12, worst < 1e-12)
    assert worst < 1e-12


def test_factorization_reconstructs_random_transformations():
    """1000 random proper orthochronous matrices (rapidity <= 2, m = 3)
    factor and reconstruct to 1e-10."""
    rng = np.random.default_rng(101)
    m = 3
    worst = 0.0
    worst_ortho = 0.0
    for _ in range(1000):
        zeta = rng.uniform(0.0, 2.0)
        axis = rng.normal(size=m)
        axis /= np.linalg.norm(axis)
        q, r = np.linalg.qr(rng.normal(size=(m, m)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        g = boost_matrix(m, zeta, axis) @ rotation_embed(m, q)
        pair = factor_boost_rotation(g)
        worst = max(worst, float(abs(reconstruct(pair) - g).max()))
        worst_ortho = max(worst_ortho, float(abs(pair.rho.T @ pair.rho - np.eye(m)).max()))
    ok = worst < 1e-10 and worst_ortho < 1e-10
    _report("factor/reconstruct over 1000 transformations", worst, 1e-10, ok)
    _report("rotation factor orthogonality", worst_ortho, 1e-10, ok)
    assert worst < 1e-10
    assert worst_ortho < 1e-10


def test_induced_action_composes_in_vector_and_spinor_reps():
    """100 random (g1, g2, point) triples with |sigma| <= 1: acting by g1 g2
    equals acting twice, in both representations, to 1e-8."""
    rng = np.random.default_rng(102)
    m = 3
    worst = 0.0
    n_triples = 0
    reps = (vector_hrep(m), spinor_hrep(m))
    for _ in range(100):
        sig = rng.uniform(-1.0, 1.0, m)
        sig *= rng.uniform(0.0, 1.0) / max(np.linalg.norm(sig), 1e-12)
        point = CosetPoint(sig)
        gs = []
        for _ in range(2):
            axis = rng.normal(size=m)
            axis /= np.linalg.norm(axis)
            rho = vector_hrep(m).exp(rng.uniform(-0.25, 0.25, 3))
            gs.append(boost_matrix(m, rng.uniform(0.0, 1.0), axis) @ rotation_embed(m, rho))
        g1, g2 = gs
        n_triples += 1
        for hrep in reps:
            v = rng.uniform(-1.0, 1.0, hrep.d)
            p12, v12 = induced_action(g1 @ g2, point, v, hrep)
            p2, v2 = induced_action(g2, point, v, hrep)
            p1, v1 = induced_action(g1, p2, v2, hrep)
            worst = max(worst, float(abs(p12.sigma - p1.sigma).max()), float(abs(v12 - v1).max()))
    assert n_triples == 100
    _report("composition over 100 triples, both reps", worst, 1e-8, worst < 1e-8)
    assert worst < 1e-8


def test_series_truncation_error_slopes():
    """Truncation error of the order-K series scales at least like
    |sigma|^(K + 1/2) over |sigma| in {0.4, 0.2, 0.1, 0.05} for K in
    {3, 5, 7}. The reference is the resummed closed form, itself anchored
    to the finite-difference derivative at every sample point."""
    direction = np.array([0.31, -0.12, 0.21])
    direction /= np.linalg.norm(direction)
    norms = (0.4, 0.2, 0.1, 0.05)
    alg = so1m_algebra(3)
    actor = alg.f_basis(1)
    anchor = 0.0
    for s in norms:
        point = CosetPoint(s * direction)
        u, w = so1m_closed_field(point)
        fd_s, fd_t = fd_action_derivative(alg, actor, point)
        anchor = max(anchor, float(abs(u[:, 1] - fd_s).max()), float(abs(w[:, 1] - fd_t).max()))
    _report("closed-form reference vs finite differences", anchor, 1e-8, anchor < 1e-8)
    assert anchor < 1e-8
    ok = True
    for order in (3, 5, 7):
        errs = []
        for s in norms:
            point = CosetPoint(s * direction)
            u, w = so1m_closed_field(point)
            act = realize(alg, actor, point, order=order)
            errs.append(max(float(abs(act.dF - u[:, 1]).max()), float(abs(act.dI - w[:, 1]).max())))
        slope = float(np.polyfit(np.log(norms), np.log(errs), 1)[0])
        bar = order + 0.5
        _report(f"truncation slope at order {order}", slope, bar, slope >= bar)
        ok = ok and slope >= bar
    assert ok


def test_stabilizer_series_is_linear_at_order_nine():
    """The stabilizer action at order 9 equals the plane-rotation field to
    1e-10 for |sigma| <= 1, m in {2, 3, 4}, with the compensator returned
    bit for bit."""
    rng = np.random.default_rng(103)
    worst = 0.0
    exact = True
    for m in (2, 3, 4):
        alg = so1m_algebra(m)
        pairs = h_pairs(m)
        for trial in range(10):
            sig = rng.uniform(-1.0, 1.0, m)
            scale = 1.0 if trial == 0 else rng.uniform(0.0, 1.0)
            sig *= scale / max(np.linalg.norm(sig), 1e-12)
            point = CosetPoint(sig)
            coords = rng.uniform(-1.0, 1.0, alg.dim_h)
            act = realize(alg, alg.element(h=coords), point, order=9)
            linear = np.zeros(m)
            for a, (i, k) in enumerate(pairs):
                linear[k - 1] += coords[a] * sig[i - 1]
                linear[i - 1] -= coords[a] * sig[k - 1]
            worst = max(worst, float(abs(act.dF - linear).max()))
            exact = exact and np.array_equal(act.dI, coords)
    _report("stabilizer linearity at order 9", worst, 1e-10, worst < 1e-10 and exact)
    assert worst < 1e-10
    assert exact


def test_gauge_flow_error_halves_with_step_count():
    """Euler flow toward the finite action: error behaves like C/N over
    N in {8, 16, 32, 64} (each doubling at least roughly halves it)."""
    rng = np.random.default_rng(104)
    m = 3
    alg = so1m_algebra(m)
    hrep = vector_hrep(m)
    rep = defining_rep_so1m(m)
    n_nodes = 4
    section = CompositeSection(
        rng.uniform(-0.3, 0.3, (n_nodes, m)), rng.uniform(-1.0, 1.0, (n_nodes, hrep.d))
    )
    xi = rng.uniform(-0.5, 0.5, (n_nodes, alg.dim))
    x = np.tensordot(xi[:, : alg.dim_h], rep.h_gens, axes=1)
    x += np.tensordot(xi[:, alg.dim_h :], rep.f_gens, axes=1)
    target = induced_action(expm(x), section, hrep=hrep)
    errs = []
    for steps in (8, 16, 32, 64):
        flowed = flow_section(alg, section, xi, 1.0, steps, hrep)
        errs.append(
            max(float(abs(flowed.sigma - target.sigma).max()), float(abs(flowed.v - target.v).max()))
        )
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    constant = max(e * n for e, n in zip(errs, (8, 16, 32, 64)))
    ok = all(r >= 1.5 for r in ratios)
    print(
        "errors over N=8,16,32,64: "
        + ", ".join(f"{e:.3e}" for e in errs)
        + f" (C = {constant:.3e})"
    )
    _report("gauge flow halving ratio", min(ratios), 1.5, ok)
    assert ok


def test_variant_profile_report_is_produced(capsys):
    """The self-check report carries informational rows giving the deviation
    of the alternative closed-form coefficient profile at five sample points,
    and those rows never gate the exit status."""
    exit_code = main(["verify", "series"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    rows = [r for r in doc["results"] if "variant_profile" in r["name"]]
    produced = (
        len(rows) == 5
        and all(r["informational"] for r in rows)
        and all(math.isfinite(r["measured"]) for r in rows)
        and {r["name"][-2:] for r in rows} == {"m2", "m3"}
    )
    with capsys.disabled():
        _report("variant-profile report rows produced", float(len(rows)), 5.0, produced)
        for r in rows:
            print(f"  {r['name']}: deviation {r['measured']:.3e}")
    assert exit_code == 0
    assert produced
