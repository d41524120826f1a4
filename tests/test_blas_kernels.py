"""The series core, the compensator action, the closure check's slot arm,
the closed field, exp_vector and the norm of a coset point give the same
bytes under the default OpenBLAS kernel and every pinned kernel family: their
GEMMs have single-term entries, every sum runs in a fixed order, and the slot
arm and the hypot norm make no BLAS call, so no BLAS rounding reaches the
output."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import cosetrep

# None leaves OPENBLAS_CORETYPE unset, so OpenBLAS picks the CPU's kernel
_KERNELS = (None, "Haswell", "Nehalem", "Sandybridge")

# prints the sha256 of the outputs of _series on so(1,m), of
# _compensator_action in the vector and spinor reps, and of the slot arm's
# closure residuals: on the adjoint matrices of so(1,3) broken in one
# [F,H], [H,H] or [F,F] bracket and of so(1,8) with one [F,H] bracket
# perturbed, on the vector and spinor reps at m = 3 and 5 with one c_hh
# entry perturbed, and on the defining reps at m = 2, 3, 4; then of the
# norm, the closed field and exp_vector at 200 seeded points for each of
# m = 2, 3, 5, 8
_PROBE = """
import hashlib
from types import SimpleNamespace

import numpy as np
from cosetrep import lie
from cosetrep.clifford import CliffordSpace, exp_vector
from cosetrep.induced import _compensator_action, spinor_hrep, vector_hrep
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
for m in (3, 5):
    for hrep in (vector_hrep(m), spinor_hrep(m)):
        rng = np.random.default_rng(100 + m)
        for n in (1, 1000):
            dI = rng.uniform(-1.0, 1.0, (n, hrep.algebra.dim_h))
            v = rng.uniform(-1.0, 1.0, (n, hrep.d))
            digest.update(_compensator_action(hrep, dI, v).tobytes())


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
