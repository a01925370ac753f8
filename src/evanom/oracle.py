"""Exact finite-distribution analysis of the dual-discriminator objective.

Everything here works on explicit probability tables in float64, with the
0*log(0) = 0 convention, so the closed-form optimal discriminators, the
Jensen-Shannon decomposition of the objective, and the generator optimum
can be checked against independent numeric optimization to tight
tolerances: bisection for each discriminator value, and exponentiated
gradient (Kivinen & Warmuth, 1997) for the generator. The module needs
numpy alone and never touches the tensor engine.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG2 = float(np.log(2.0))
EG_STEPS = 3000  # exponentiated-gradient steps of the best response, size 1


class TooLarge(ValueError):
    pass


@dataclass(frozen=True)
class DiscreteJoint:
    """Finite joint model of the three-player game.

    p_dd: (m, n) data joint over (x, y). p_g_cond: (m, n) generator
    conditionals, column y summing to 1. Derived quantities: the
    generator joint p_gd(x,y) = p_g(x|y) * p_d(y) and the two x
    marginals.
    """

    p_dd: np.ndarray
    p_g_cond: np.ndarray

    def __post_init__(self):
        p_dd = np.asarray(self.p_dd, dtype=np.float64)
        p_g = np.asarray(self.p_g_cond, dtype=np.float64)
        if p_dd.ndim != 2 or p_g.shape != p_dd.shape:
            raise ValueError(f"table shapes {p_dd.shape} vs {p_g.shape}")
        if (p_dd < 0).any() or (p_g < 0).any():
            raise ValueError("probabilities must be non-negative")
        if abs(p_dd.sum() - 1.0) > 1e-12:
            raise ValueError("p_dd must sum to 1")
        colsums = p_g.sum(axis=0)
        if np.max(np.abs(colsums - 1.0)) > 1e-12:
            raise ValueError("each p_g(.|y) column must sum to 1")
        object.__setattr__(self, "p_dd", p_dd)
        object.__setattr__(self, "p_g_cond", p_g)

    @property
    def p_d_y(self) -> np.ndarray:
        return self.p_dd.sum(axis=0)

    @property
    def p_gd(self) -> np.ndarray:
        return self.p_g_cond * self.p_d_y[None, :]

    @property
    def p_d_x(self) -> np.ndarray:
        return self.p_dd.sum(axis=1)

    @property
    def p_g_x(self) -> np.ndarray:
        return self.p_gd.sum(axis=1)

    @classmethod
    def random(cls, rng: np.random.Generator, m: int, n: int) -> "DiscreteJoint":
        p_dd = rng.random((m, n))
        p_dd /= p_dd.sum()
        p_g = rng.random((m, n))
        p_g /= p_g.sum(axis=0, keepdims=True)
        return cls(p_dd, p_g)


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * log(y) with 0*log(0) = 0."""
    out = np.zeros_like(x, dtype=np.float64)
    nz = x > 0
    out[nz] = x[nz] * np.log(y[nz])
    return out


def optimal_d_xy(j: DiscreteJoint) -> np.ndarray:
    """Closed-form optimal paired discriminator p_dd / (p_dd + p_gd).

    Points where both joints are zero carry no mass; they are returned
    as NaN and excluded from objectives.
    """
    tot = j.p_dd + j.p_gd
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.where(tot > 0, j.p_dd / np.where(tot > 0, tot, 1.0), np.nan)
    return d


def optimal_d_x(j: DiscreteJoint) -> np.ndarray:
    """Closed-form optimal marginal discriminator p_d(x)/(p_d(x)+p_g(x))."""
    tot = j.p_d_x + j.p_g_x
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(tot > 0, j.p_d_x / np.where(tot > 0, tot, 1.0), np.nan)


def dual_objective(j: DiscreteJoint, d_xy: np.ndarray,
                   d_x: np.ndarray) -> float:
    """Exact value of the four-term minimax objective at (d_xy, d_x):

    sum p_dd*log d_xy + sum p_gd*log(1-d_xy)
    + sum p_d(x)*log d_x + sum p_g(x)*log(1-d_x)
    """
    d_xy = np.where(np.isnan(d_xy), 0.5, d_xy)
    d_x = np.where(np.isnan(d_x), 0.5, d_x)
    return float(
        _xlogy(j.p_dd, d_xy).sum()
        + _xlogy(j.p_gd, 1.0 - d_xy).sum()
        + _xlogy(j.p_d_x, d_x).sum()
        + _xlogy(j.p_g_x, 1.0 - d_x).sum())


def jsd(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence 0.5*KL(p||m) + 0.5*KL(q||m), m=(p+q)/2."""
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    if p.shape != q.shape:
        raise ValueError(f"support sizes differ: {p.shape} vs {q.shape}")
    m = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_pm = _xlogy(p, p) - _xlogy(p, m)
        kl_qm = _xlogy(q, q) - _xlogy(q, m)
    return float(0.5 * kl_pm.sum() + 0.5 * kl_qm.sum())


def numeric_optimal_d(weight_pos: float, weight_neg: float) -> float:
    """Per-point maximizer of a*log(d) + b*log(1-d) over d in (0,1).

    Independent of the closed form: 80 bisection steps on the sign of the
    payoff's derivative a/d - b/(1-d), which strictly decreases on (0,1),
    started on [1e-12, 1 - 1e-12]. Degenerate weights take their limit
    values.
    """
    a, b = weight_pos, weight_neg
    if a <= 0 and b <= 0:
        return 0.5
    if a <= 0:
        return 0.0
    if b <= 0:
        return 1.0
    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if a / mid - b / (1.0 - mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def decomposition_residual(j: DiscreteJoint) -> float:
    """Residual of objective(D*) = -4*log 2 + 2*JSD(p_dd||p_gd)
    + 2*JSD(p_d(x)||p_g(x))."""
    lhs = dual_objective(j, optimal_d_xy(j), optimal_d_x(j))
    rhs = (-4.0 * LOG2 + 2.0 * jsd(j.p_dd, j.p_gd)
           + 2.0 * jsd(j.p_d_x, j.p_g_x))
    return abs(lhs - rhs)


def best_response_generator(p_dd: np.ndarray) -> tuple[np.ndarray, float]:
    """Generator conditionals minimizing the objective at the optimal Ds.

    Exponentiated-gradient descent on each simplex p_g(.|y), from uniform,
    for EG_STEPS steps of size 1. The envelope gradient of the objective
    at the optimal Ds is p_d(y) * [log(1 - D*_xy) + log(1 - D*_x)], with
    a D* taken as 0 at points with no mass. Small instances only
    (m*n <= 9). Returns (p_g_cond, value).
    """
    p_dd = np.asarray(p_dd, dtype=np.float64)
    m, n = p_dd.shape
    if m * n > 9:
        raise TooLarge(f"instance {m}x{n} exceeds m*n <= 9")
    p_d_y = p_dd.sum(axis=0)
    j = DiscreteJoint(p_dd, np.full((m, n), 1.0 / m))
    for _ in range(EG_STEPS):
        d_xy, d_x = map(np.nan_to_num, (optimal_d_xy(j), optimal_d_x(j)))
        p_g = j.p_g_cond * np.exp(-p_d_y * (np.log1p(-d_xy)
                                            + np.log1p(-d_x)[:, None]))
        j = DiscreteJoint(p_dd, p_g / p_g.sum(axis=0))
    return j.p_g_cond, dual_objective(j, optimal_d_xy(j), optimal_d_x(j))


def verify(instances: int = 100, seed: int = 0,
           max_outcomes: int = 4) -> dict[str, float]:
    """Run the full suite of exactness checks on random instances.

    Returns worst-case residuals: closed-form vs numeric discriminators,
    the JSD decomposition identity, and local optimality of D* under
    +-1e-3 perturbation. ValueError if no instance would be checked.
    """
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    rng = np.random.default_rng(seed)
    worst = {"d_xy": 0.0, "d_x": 0.0, "decomposition": 0.0,
             "perturbation_gain": -np.inf}
    for _ in range(instances):
        m = int(rng.integers(2, max_outcomes + 1))
        n = int(rng.integers(2, max_outcomes + 1))
        j = DiscreteJoint.random(rng, m, n)
        d_xy = optimal_d_xy(j)
        d_x = optimal_d_x(j)
        for a in range(m):
            for b in range(n):
                num = numeric_optimal_d(j.p_dd[a, b], j.p_gd[a, b])
                worst["d_xy"] = max(worst["d_xy"], abs(num - d_xy[a, b]))
            num = numeric_optimal_d(j.p_d_x[a], j.p_g_x[a])
            worst["d_x"] = max(worst["d_x"], abs(num - d_x[a]))
        worst["decomposition"] = max(worst["decomposition"],
                                     decomposition_residual(j))
        base = dual_objective(j, d_xy, d_x)
        for eps in (1e-3, -1e-3):
            pert = dual_objective(j, np.clip(d_xy + eps, 1e-9, 1 - 1e-9),
                                  np.clip(d_x + eps, 1e-9, 1 - 1e-9))
            worst["perturbation_gain"] = max(worst["perturbation_gain"],
                                             pert - base)
    return worst
