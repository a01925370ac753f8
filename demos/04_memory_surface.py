"""Memory surfaces: squeeze a B-bin volume through a one-image bottleneck.

The encoder-decoder works purely along the time axis (1x1 spatial
kernels), so each pixel's B-bin history is compressed to one sigmoid
value -- the "memory surface" -- and decoded back. Training minimizes
reconstruction MSE plus an L1 sparsity term on the surface.
"""
from dataclasses import replace

import numpy as np

from evanom import io
from evanom.experiments import desk_config, normalized_volumes, training_windows
from evanom.msnet import MsNetParams, encode, reconstruct, train_ms

cfg = desk_config()
vols = normalized_volumes(training_windows(1, cfg), cfg)
print("training set:", vols.shape, "volumes")

# --- train ---------------------------------------------------------------
cfg = replace(cfg, ms_epochs=15)  # short run for the demo
params, curve = train_ms(vols, cfg, seed=1)
print(f"loss: {curve[0]:.5f} -> {curve[-1]:.5f} over {cfg.ms_epochs} epochs")

# --- inspect the bottleneck ---------------------------------------------
surfaces = encode(params, vols)
print("surfaces:", surfaces.shape, "values in "
      f"({surfaces.min():.4f}, {surfaces.max():.4f})  (sigmoid range)")

init = MsNetParams.init(cfg.bins, cfg.ms_filters, np.random.default_rng(1))
before = np.mean((reconstruct(init, vols) - vols) ** 2)
after = np.mean((reconstruct(params, vols) - vols) ** 2)
print(f"reconstruction MSE: {before:.5f} untrained -> {after:.6f} trained")

# --- checkpoints ---------------------------------------------------------
blob = io.write_evck(params.to_arrays())
back = MsNetParams.from_arrays(io.read_evck(blob))
same = np.array_equal(encode(back, vols), surfaces)
print(f"\nEVCK checkpoint: {len(blob)} bytes; reload reproduces encoding:",
      same)

# Retraining with the same seed is bit-identical -- the whole pipeline is
# reproducible from (data, seed).
params2, _ = train_ms(vols, cfg, seed=1)
print("retrain with same seed bit-identical:",
      io.write_evck(params2.to_arrays()) == blob)
