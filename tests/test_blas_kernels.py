"""The series core and the compensator action give the same bytes under every
OpenBLAS kernel family: their GEMMs have single-term entries and every sum
runs in einsum's fixed order, so no BLAS rounding reaches the output."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import cosetrep

_KERNELS = ("Haswell", "Nehalem", "Sandybridge")

# prints the sha256 of the outputs of _series on so(1,m) and of
# _compensator_action in the vector and spinor reps
_PROBE = """
import hashlib

import numpy as np
from cosetrep.induced import _compensator_action, spinor_hrep, vector_hrep
from cosetrep.lie import so1m_algebra
from cosetrep.series import _series, _weights

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
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": kernel}
        run = subprocess.run(
            [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=300
        )
        assert run.returncode == 0, run.stderr
        digests.add(run.stdout.strip())
    assert len(digests) == 1, digests
