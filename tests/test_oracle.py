import numpy as np
import pytest

from evanom.oracle import (LOG2, DiscreteJoint, TooLarge,
                           best_response_generator, decomposition_residual,
                           dual_objective, jsd, numeric_optimal_d,
                           optimal_d_x, optimal_d_xy, verify)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def matched_joint(rng, m=3, n=3):
    p_dd = rng.random((m, n))
    p_dd /= p_dd.sum()
    p_g = p_dd / p_dd.sum(axis=0, keepdims=True)  # p_g(x|y) = p_d(x|y)
    return DiscreteJoint(p_dd, p_g)


def test_joint_validation():
    with pytest.raises(ValueError):
        DiscreteJoint(np.full((2, 2), 0.3), np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        DiscreteJoint(np.full((2, 2), 0.25), np.full((2, 2), 0.4))
    with pytest.raises(ValueError):
        DiscreteJoint(np.array([[0.5, 0.6], [0.5, -0.1]]) / 1.0,
                      np.full((2, 2), 0.5))


def test_derived_tables_consistent(rng):
    j = DiscreteJoint.random(rng, 3, 4)
    np.testing.assert_allclose(j.p_gd.sum(), 1.0, atol=1e-12)
    np.testing.assert_allclose(j.p_d_y, j.p_dd.sum(axis=0), atol=1e-15)
    np.testing.assert_allclose(j.p_g_x, j.p_gd.sum(axis=1), atol=1e-15)


def test_optimal_d_xy_matched_is_half(rng):
    j = matched_joint(rng)
    np.testing.assert_allclose(optimal_d_xy(j), 0.5, atol=1e-12)


def test_optimal_d_xy_one_sided():
    p_dd = np.array([[0.5, 0.0], [0.25, 0.25]])
    p_g = np.array([[0.0, 1.0], [1.0, 0.0]])
    j = DiscreteJoint(p_dd, p_g)
    d = optimal_d_xy(j)
    assert d[0, 0] == 1.0  # p_gd zero, p_dd positive


def test_optimal_d_x_matched_marginals(rng):
    j = matched_joint(rng)
    np.testing.assert_allclose(optimal_d_x(j), 0.5, atol=1e-12)


def test_optimal_d_x_degenerate_m1():
    j = DiscreteJoint(np.array([[0.4, 0.6]]), np.array([[1.0, 1.0]]))
    np.testing.assert_allclose(optimal_d_x(j), 0.5)


def test_closed_forms_match_numeric_maximization(rng):
    for _ in range(10):
        j = DiscreteJoint.random(rng, 3, 3)
        d_xy = optimal_d_xy(j)
        for a in range(3):
            for b in range(3):
                num = numeric_optimal_d(j.p_dd[a, b], j.p_gd[a, b])
                assert abs(num - d_xy[a, b]) < 1e-8
        d_x = optimal_d_x(j)
        for a in range(3):
            num = numeric_optimal_d(j.p_d_x[a], j.p_g_x[a])
            assert abs(num - d_x[a]) < 1e-8


def test_dual_objective_matched_optimum(rng):
    j = matched_joint(rng)
    val = dual_objective(j, optimal_d_xy(j), optimal_d_x(j))
    assert val == pytest.approx(-4 * LOG2, abs=1e-12)


def test_dual_objective_half_constant(rng):
    j = DiscreteJoint.random(rng, 4, 2)
    half_xy = np.full((4, 2), 0.5)
    half_x = np.full(4, 0.5)
    assert dual_objective(j, half_xy, half_x) == pytest.approx(-4 * LOG2,
                                                              abs=1e-12)


def test_decomposition_identity(rng):
    for _ in range(25):
        j = DiscreteJoint.random(rng, int(rng.integers(2, 5)),
                                 int(rng.integers(2, 5)))
        assert decomposition_residual(j) < 1e-10


def test_jsd_basic():
    p = np.array([0.2, 0.8])
    assert jsd(p, p) == 0.0
    assert jsd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == \
        pytest.approx(LOG2, abs=1e-15)
    q = np.array([0.6, 0.4])
    assert jsd(p, q) == jsd(q, p)


def test_jsd_support_mismatch():
    with pytest.raises(ValueError):
        jsd(np.array([1.0]), np.array([0.5, 0.5]))


def test_perturbing_optimal_d_never_gains(rng):
    for _ in range(20):
        j = DiscreteJoint.random(rng, 3, 3)
        d_xy, d_x = optimal_d_xy(j), optimal_d_x(j)
        base = dual_objective(j, d_xy, d_x)
        for eps in (1e-3, -1e-3):
            pert = dual_objective(j, np.clip(d_xy + eps, 1e-9, 1 - 1e-9),
                                  np.clip(d_x + eps, 1e-9, 1 - 1e-9))
            assert pert <= base + 1e-12


def test_best_response_independent_joint():
    # independent p_dd: both optimum conditions can hold at once
    p_dd = np.outer([0.3, 0.7], [0.4, 0.6])
    p_g, val = best_response_generator(p_dd)
    assert val == pytest.approx(-4 * LOG2, abs=1e-6)
    # minimizer reproduces the conditionals = marginal structure
    np.testing.assert_allclose(p_g, np.array([[0.3], [0.7]]) @ np.ones((1, 2)),
                               atol=1e-3)


def test_best_response_correlated_joint():
    # Correlated p_dd: matching conditionals equalizes the joints AND the
    # marginals (p_g(x) = sum_y p_d(x|y) p_d(y) = p_d(x)), so the brute
    # force still attains -4 log 2 with both divergence terms at zero,
    # while the condition p_g(x|y) = p_d(x) cannot hold here.
    p_dd = np.array([[0.45, 0.05], [0.05, 0.45]])
    p_g, val = best_response_generator(p_dd)
    assert val == pytest.approx(-4 * LOG2, abs=1e-6)
    cond = p_dd / p_dd.sum(axis=0, keepdims=True)
    np.testing.assert_allclose(p_g, cond, atol=1e-3)
    j = DiscreteJoint(p_dd, p_g)
    assert jsd(j.p_dd, j.p_gd) < 1e-6
    assert jsd(j.p_d_x, j.p_g_x) < 1e-6
    # conditional-vs-marginal mismatch that correlation forces
    assert np.abs(cond - j.p_d_x[:, None]).max() > 0.3


def test_best_response_degenerate_x():
    p_dd = np.array([[0.5, 0.5]])  # m = 1
    _, val = best_response_generator(p_dd)
    assert val == pytest.approx(-4 * LOG2, abs=1e-9)


def test_best_response_size_limit():
    with pytest.raises(TooLarge):
        best_response_generator(np.full((4, 3), 1 / 12))


def test_verify_suite_residuals():
    worst = verify(30, seed=11)
    assert worst["d_xy"] < 1e-8
    assert worst["d_x"] < 1e-8
    assert worst["decomposition"] < 1e-10
    assert worst["perturbation_gain"] <= 0.0


@pytest.mark.parametrize("instances", [0, -1])
def test_verify_refuses_no_instances(instances):
    """With no instance checked, every residual would read as a pass."""
    with pytest.raises(ValueError, match=f"instances must be >= 1, got "
                                         f"{instances}"):
        verify(instances)


def test_best_response_with_points_of_no_mass():
    """An outcome x that the data never takes: the generator's mass there
    underflows, its optimal D_x becomes 0/0 and is taken as 0, and the
    descent still reaches -4 log 2 with the data conditionals."""
    p_dd = np.array([[0.3, 0.2, 0.0], [0.0, 0.0, 0.0], [0.1, 0.2, 0.2]])
    p_g, val = best_response_generator(p_dd)
    assert val == pytest.approx(-4 * LOG2, abs=1e-9)
    np.testing.assert_allclose(p_g, p_dd / p_dd.sum(axis=0), atol=1e-9)
