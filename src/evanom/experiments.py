"""Desk-scale experiment recipe shared by the demos and acceptance tests.

Normal data is three 2-second walking scenes (slow translation on a
64x64 sensor); the test sequence is a 5-second mixed scene containing a
running-speed anomaly and a shape anomaly. All stages are deterministic
for a fixed seed.
"""
from __future__ import annotations

import numpy as np

from . import gan, msnet, pipeline, representation, simulate


def desk_config() -> pipeline.PipelineConfig:
    """Pipeline defaults plus the stability settings the small GAN needs."""
    return pipeline.PipelineConfig(gan_epochs=8, gan_lambda_l1=50.0)


def training_windows(seed: int, cfg: pipeline.PipelineConfig):
    """Sliding windows from three walking scenes derived from one seed,
    as one (n, B+1, H, W) array."""
    streams = (simulate.render_scene(simulate.walking_scene(100 * seed + s))[0]
               for s in range(3))
    return np.concatenate([pipeline.windows_for(st, cfg) for st in streams])


def normalized_volumes(windows, cfg: pipeline.PipelineConfig) -> np.ndarray:
    return representation.window_arrays(windows, cfg.cap)[0]


def train_models(seed: int, cfg: pipeline.PipelineConfig):
    """(ms_params, ms_curve, gan_params, gan_curves) for one seed."""
    windows = training_windows(seed, cfg)
    vols = normalized_volumes(windows, cfg)
    ms_params, ms_curve = msnet.train_ms(vols, cfg, seed=seed)
    gan_params, gan_curves = gan.train_gan(windows, ms_params, cfg, seed=seed)
    return ms_params, ms_curve, gan_params, gan_curves


def score_mixed_scene(seed: int, ms_params, gan_params,
                      cfg: pipeline.PipelineConfig) -> pipeline.ScoreSeries:
    """Score the labeled mixed test scene paired with a training seed."""
    stream, track = simulate.render_scene(simulate.mixed_test_scene(1000 + seed))
    return pipeline.score_sequence(ms_params, gan_params, stream, cfg,
                                   track=track)
