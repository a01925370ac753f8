"""How fast the host runs right now, from a fixed calibration kernel.

On a shared host the speed of a core drifts by 20-30% over minutes, as
other tenants load the machine, and it moves every timing of a run
together. The benchmark times `measure()` around each phase of a run
(set-up, training, scoring; never inside a timed step) and rescales
the phase's timings by REFERENCE_S / (median calibration time of the
phase), so runs made at different host speeds compare. The kernel is the benchmark's own numpy code, not the
program's: a change to evanom cannot change it. It does the kinds of
work evanom's autodiff engine spends its time on: an im2col copy built
from strided slices, a BLAS contraction for the forward pass and the
weight gradient, and element-wise sigmoid and leaky ReLU.
"""
from __future__ import annotations

import time

import numpy as np

# Median of measure() on the host the benchmark was tuned on (2 vCPUs,
# shared); rescaled timings read in seconds of that host.
REFERENCE_S = 0.040

_rng = np.random.default_rng(12345)
_X = _rng.standard_normal((8, 16, 34, 34)).astype(np.float32)   # padded input
_W = _rng.standard_normal((32, 16, 4, 4)).astype(np.float32)
_Z = _rng.standard_normal((8, 32, 16, 16)).astype(np.float32)


def _step() -> float:
    cols = np.empty((8, 16, 4, 4, 16, 16), np.float32)
    for i in range(4):
        for j in range(4):
            cols[:, :, i, j] = _X[:, :, i:i + 32:2, j:j + 32:2]
    out = np.tensordot(cols, _W, axes=([1, 2, 3], [1, 2, 3]))
    grad_w = np.tensordot(out, cols, axes=([0, 1, 2], [0, 4, 5]))
    act = 1 / (1 + np.exp(-_Z))
    act = np.where(act > 0.5, act, 0.2 * act)
    return float(grad_w[0, 0, 0, 0] + act[0, 0, 0, 0])


def measure(steps: int = 8) -> float:
    """Seconds for `steps` calibration steps."""
    t = time.perf_counter()
    for _ in range(steps):
        _step()
    return time.perf_counter() - t
