"""The series core, the compensator action, the gauge flow's loop over node
blocks, the closure check's slot arm, the spin lift, the closed field,
exp_vector and the norm of a coset point give the same bytes under the
default OpenBLAS kernel and every pinned kernel family: their GEMMs have
single-term entries, every sum runs in a fixed order, and the slot arm, the
spin lift's frame sum and the hypot norm make no BLAS call, so no BLAS
rounding reaches the output."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import cosetrep

# None leaves OPENBLAS_CORETYPE unset, so OpenBLAS picks the CPU's kernel
_KERNELS = (None, "Haswell", "Nehalem", "Sandybridge")

# prints the sha256 of the outputs of _series on so(1,m) (the two-point
# path) and on so(1,2) (+) so(1,3) (the power tower), of
# _compensator_action in the vector and spinor reps, of flow_section on a
# vector m=3 and a spinor m=5 section one block and three nodes long, and of
# the slot arm's
# closure residuals: on the adjoint matrices of so(1,3) broken in one
# [F,H], [H,H] or [F,F] bracket and of so(1,8) with one [F,H] bracket
# perturbed, on the vector and spinor reps at m = 3 and 5 with one c_hh
# entry perturbed, and on the defining reps at m = 2, 3, 4; then of the
# norm, the closed field and exp_vector at 200 seeded points for each of
# m = 2, 3, 5, 8; then of the spin lift at m = 3, 5, 8 of 200 rotations by
# up to pi in every plane (both passes) and 200 by up to 0.2 (the first
# only), as stacks and one by one, built by Givens steps with no BLAS call
_PROBE = """
import hashlib
from types import SimpleNamespace

import numpy as np
from cosetrep import lie
from cosetrep.clifford import CliffordSpace, exp_vector
from cosetrep.induced import _BLOCK, CompositeSection, _compensator_action, flow_section, spinor_hrep, vector_hrep
from cosetrep.lie import CosetPoint, so1m_algebra
from cosetrep.series import _series, _weights, so1m_closed_field

digest = hashlib.sha256()
for m in (3, 5, 8, 9, 10):
    alg = so1m_algebra(m)
    rng = np.random.default_rng(m)
    for n in (1, 1000):
        sigma = rng.uniform(-1.0, 1.0, (n, m))
        sigma *= rng.uniform(0.0, 0.6, (n, 1)) / np.linalg.norm(sigma, axis=1, keepdims=True)
        xh = rng.uniform(-1.0, 1.0, (n, alg.dim_h))
        xf = rng.uniform(-1.0, 1.0, (n, m))
        for order in (11, 61):
            for out in _series(alg, sigma, xh, xf, _weights(order)):
                digest.update(out.tobytes())
# so(1,2) (+) so(1,3), whose S is not two-point: the core's power tower
one, two = so1m_algebra(2), so1m_algebra(3)
c_hh, c_ff, c_fh = np.zeros((4, 4, 4)), np.zeros((5, 5, 4)), np.zeros((5, 4, 5))
c_hh[:1, :1, :1], c_hh[1:, 1:, 1:] = one.c_hh, two.c_hh
c_ff[:2, :2, :1], c_ff[2:, 2:, 1:] = one.c_ff, two.c_ff
c_fh[:2, :1, :2], c_fh[2:, 1:, 2:] = one.c_fh, two.c_fh
alg = lie.ReductiveAlgebra(c_hh, c_ff, c_fh)
rng = np.random.default_rng(5)
for n in (1, 1000):
    sigma = rng.uniform(-0.3, 0.3, (n, 5))
    xh = rng.uniform(-1.0, 1.0, (n, 4))
    xf = rng.uniform(-1.0, 1.0, (n, 5))
    for order in (11, 61):
        for out in _series(alg, sigma, xh, xf, _weights(order)):
            digest.update(out.tobytes())
for m in (3, 5):
    for hrep in (vector_hrep(m), spinor_hrep(m)):
        rng = np.random.default_rng(100 + m)
        for n in (1, 1000):
            dI = rng.uniform(-1.0, 1.0, (n, hrep.algebra.dim_h))
            v = rng.uniform(-1.0, 1.0, (n, hrep.d))
            digest.update(_compensator_action(hrep, dI, v).tobytes())
for m, hrep in ((3, vector_hrep(3)), (5, spinor_hrep(5))):
    alg = so1m_algebra(m)
    rng = np.random.default_rng(300 + m)
    n = _BLOCK + 3
    section = CompositeSection(rng.uniform(-0.2, 0.2, (n, m)), rng.uniform(-1.0, 1.0, (n, hrep.d)))
    xi = rng.uniform(-0.5, 0.5, (n, alg.dim))
    flowed = flow_section(alg, section, xi, 1.0, 2, hrep)
    digest.update(flowed.sigma.tobytes())
    digest.update(flowed.v.tobytes())


def adjoint_residual(alg, *edits):
    tables = {name: np.array(getattr(alg, name)) for name in ("c_hh", "c_ff", "c_fh")}
    for name, index, delta in edits:
        tables[name][index] += delta
    c = lie._total_structure(SimpleNamespace(dim_h=alg.dim_h, dim_f=alg.dim_f, **tables))
    return lie._closure_residual(c.transpose(0, 2, 1), c)


so13 = so1m_algebra(3)
for edits in (
    [("c_fh", (0, 0, 1), 0.5)],
    [("c_hh", (0, 1, 2), 0.5), ("c_hh", (1, 0, 2), -0.5)],
    [("c_ff", (0, 1, 0), 0.25), ("c_ff", (1, 0, 0), -0.25)],
):
    digest.update(np.float64(adjoint_residual(so13, *edits)).tobytes())
digest.update(np.float64(adjoint_residual(so1m_algebra(8), ("c_fh", (0, 0, 1), 0.5))).tobytes())
for m in (3, 5):
    c_hh = np.array(so1m_algebra(m).c_hh)
    c_hh[0, 1, np.flatnonzero(c_hh[0, 1])[0]] += 0.5
    for hrep in (vector_hrep(m), spinor_hrep(m)):
        digest.update(np.float64(lie._closure_residual(hrep.generators, c_hh)).tobytes())
for m in (2, 3, 4):
    rep = lie.defining_rep_so1m(m)
    stack = np.concatenate([rep.h_gens, rep.f_gens])
    residual = lie._closure_residual(stack, lie._total_structure(so1m_algebra(m)))
    digest.update(np.float64(residual).tobytes())
for m in (2, 3, 5, 8):
    rng = np.random.default_rng(200 + m)
    space = CliffordSpace(m)
    for sigma in rng.uniform(-1.0, 1.0, (200, m)):
        point = CosetPoint(sigma)
        digest.update(np.float64(point.norm).tobytes())
        for out in so1m_closed_field(point):
            digest.update(out.tobytes())
        e = exp_vector(space, sigma)
        digest.update(np.float64(e.coeff(())).tobytes())
        digest.update(e.vector_part().tobytes())
for m in (3, 5, 8):
    rng = np.random.default_rng(400 + m)
    hrep = spinor_hrep(m)
    for size in (np.pi, 0.2):
        rho = np.broadcast_to(np.eye(m), (200, m, m)).copy()
        for i in range(m):
            for k in range(i + 1, m):
                t = rng.uniform(-size, size, (200, 1))
                c, s = np.cos(t), np.sin(t)
                rho[:, i], rho[:, k] = c * rho[:, i] - s * rho[:, k], s * rho[:, i] + c * rho[:, k]
        digest.update(hrep.lift(rho).tobytes())
        for one in rho[:3]:
            digest.update(hrep.lift(one).tobytes())
print(digest.hexdigest())
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE names x86-64 kernels",
)
def test_outputs_do_not_depend_on_the_blas_kernel():
    src = str(Path(cosetrep.__file__).resolve().parents[1])
    digests = set()
    for kernel in _KERNELS:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = src
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        run = subprocess.run(
            [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=300
        )
        assert run.returncode == 0, run.stderr
        digests.add(run.stdout.strip())
    assert len(digests) == 1, digests
