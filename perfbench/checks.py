"""Correctness checks the benchmark applies to every run it measures.

Each check returns a list of problem strings; an empty list means the
check passed. The AUC reference here depends on numpy only, so it can
cross-check `pipeline.evaluate` without scikit-learn.
"""
from __future__ import annotations

import hashlib

import numpy as np


def mann_whitney_auc(scores, labels) -> float:
    """ROC AUC as the Mann-Whitney pair count: over every (positive,
    negative) pair, 1 if the positive scores higher, 1/2 on a tie.

    O(n^2) on purpose: it shares no code or sorting logic with the
    trapezoidal sweep it checks.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    pos, neg = scores[labels], scores[~labels]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("need both classes for an AUC")
    wins = np.count_nonzero(pos[:, None] > neg[None, :])
    ties = np.count_nonzero(pos[:, None] == neg[None, :])
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def finite_losses(name: str, values) -> list[str]:
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return [f"{name}: empty loss curve"]
    if not np.all(np.isfinite(vals)):
        return [f"{name}: non-finite loss in {vals.tolist()}"]
    return []


def surfaces_in_open_unit(name: str, surfaces: np.ndarray) -> list[str]:
    lo, hi = float(surfaces.min()), float(surfaces.max())
    if not (0.0 < lo and hi < 1.0):
        return [f"{name}: memory surface leaves (0,1): min {lo!r}, max {hi!r}"]
    return []


def reconstruction_falls(initial_mse: float, final_mse: float) -> list[str]:
    if not final_mse < initial_mse:
        return [f"MS reconstruction MSE did not fall: {initial_mse!r} -> "
                f"{final_mse!r}"]
    return []


def expected_frames(stream_end_us: int, cfg) -> int:
    """Window count implied by a stream's duration, written independently
    of `representation.sliding_windows` from its documented rule."""
    span = (cfg.bins + 1) * cfg.bin_dt_us
    return (stream_end_us - span) // (cfg.stride * cfg.bin_dt_us) + 1


def scored_stream(name: str, series, csv_text: str, reread, auc: float,
                  n_expected: int) -> list[str]:
    """Checks on one scored stream.

    `reread` is `read_score_csv(csv_text)`; `auc` is what
    `pipeline.evaluate` reported for `series`.
    """
    problems = []
    if len(series) != n_expected:
        problems.append(f"{name}: {len(series)} frames, duration implies "
                        f"{n_expected}")
    s = series.scores
    if not (np.all(np.isfinite(s)) and np.all(s >= 0)):
        problems.append(f"{name}: scores not finite and non-negative")
    same = (reread.t0 == series.t0 and reread.frame_dt == series.frame_dt
            and reread.scores.dtype == s.dtype
            and np.array_equal(reread.scores.view(np.uint64), s.view(np.uint64))
            and reread.labels is not None
            and np.array_equal(reread.labels, series.labels))
    if not same:
        problems.append(f"{name}: score CSV does not round-trip bit-exactly")
    problems += auc_agrees(name, series.scores, series.labels, auc)
    return problems


def auc_agrees(name: str, scores, labels, auc: float) -> list[str]:
    ref = mann_whitney_auc(scores, labels)
    if not abs(ref - auc) <= 1e-12:
        return [f"{name}: evaluate AUC {auc!r} != pair-count AUC {ref!r}"]
    return []


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()
