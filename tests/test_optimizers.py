"""Minimizer behavior on analytic objectives."""

import json

import numpy as np
import pytest

from vqcbench.optimizers import (
    OptimizerConfig,
    TrainRecord,
    gradient_descent_minimize,
    nelder_mead_minimize,
    powell_minimize,
    spsa_minimize,
)
from vqcbench.storage import write_train_record


def quad1(x):
    return (x[0] - 3.0) ** 2


def quad2(x):
    return (x[0] - 1.0) ** 2 + 10.0 * (x[1] + 2.0) ** 2


def rosenbrock(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


def test_powell_1d_quadratic():
    rec = powell_minimize(quad1, [0.0], OptimizerConfig(max_iterations=100))
    x = rec.final_params
    assert abs(x[0] - 3.0) < 1e-6
    assert rec.converged


def test_powell_2d_quadratic():
    rec = powell_minimize(quad2, [0.0, 0.0], OptimizerConfig(max_iterations=200))
    x = rec.final_params
    assert np.max(np.abs(x - [1.0, -2.0])) < 1e-6
    assert rec.converged


def test_powell_rosenbrock():
    rec = powell_minimize(rosenbrock, [-1.2, 1.0], OptimizerConfig(max_iterations=500))
    x = rec.final_params
    assert np.max(np.abs(x - [1.0, 1.0])) < 1e-4
    assert rec.converged


def test_powell_iteration_cap_reports_unconverged():
    rec = powell_minimize(rosenbrock, [-1.2, 1.0], OptimizerConfig(max_iterations=1))
    assert not rec.converged
    assert rec.cost_history[-1] <= rec.cost_history[0]


def test_nelder_mead_1d():
    rec = nelder_mead_minimize(quad1, [0.0], OptimizerConfig(max_iterations=500))
    x = rec.final_params
    assert abs(x[0] - 3.0) < 1e-5
    assert rec.converged


def test_nelder_mead_2d_quadratic():
    rec = nelder_mead_minimize(quad2, [0.0, 0.0], OptimizerConfig(max_iterations=2000))
    x = rec.final_params
    assert np.max(np.abs(x - [1.0, -2.0])) < 1e-5
    assert rec.converged


def test_nelder_mead_constant_function_returns_x0():
    x0 = [0.4, -0.7]
    rec = nelder_mead_minimize(lambda v: 5.0, x0, OptimizerConfig(max_iterations=50))
    x = rec.final_params
    assert np.array_equal(x, x0)
    assert rec.converged
    assert rec.evaluations == 3  # just the initial simplex


def test_spsa_converges_on_quadratic():
    cfg = OptimizerConfig(kind="spsa", max_iterations=500, seed=11)
    rec = spsa_minimize(quad1, [0.0], cfg)
    x = rec.final_params
    assert abs(x[0] - 3.0) < 0.05


def test_spsa_rejects_empty_x0():
    with pytest.raises(ValueError, match="empty parameter vector"):
        spsa_minimize(quad1, [], OptimizerConfig(kind="spsa", max_iterations=10))


def test_spsa_seeded_runs_identical():
    cfg = OptimizerConfig(kind="spsa", max_iterations=200, seed=42)
    ra = spsa_minimize(quad2, [0.0, 0.0], cfg)
    rb = spsa_minimize(quad2, [0.0, 0.0], cfg)
    assert np.array_equal(ra.final_params, rb.final_params)
    assert ra.cost_history == rb.cost_history
    assert ra.evaluations == rb.evaluations
    assert ra.converged == rb.converged


def test_spsa_records_cost_of_returned_iterate(tmp_path):
    # A first gain this large overshoots the minimum and every later step
    # moves further away, so the best iterate is x0, not the last one.
    cfg = OptimizerConfig(kind="spsa", max_iterations=5, spsa_a=10.0)
    rec = spsa_minimize(quad1, [2.9], cfg)
    assert rec.cost_history[-1] > min(rec.cost_history)
    assert rec.final_cost == quad1(rec.final_params)
    write_train_record(tmp_path / "train_record.json", rec)
    saved = json.loads((tmp_path / "train_record.json").read_text())
    assert saved["final_cost"] == quad1(rec.final_params)


@pytest.mark.parametrize("kind", ["powell", "nelder_mead", "param_shift_gd"])
def test_final_cost_is_cost_at_returned_params(kind):
    cfg = OptimizerConfig(kind=kind, max_iterations=3, learning_rate=0.04)
    if kind == "param_shift_gd":
        grad = lambda x: np.array([2.0 * (x[0] - 1.0), 20.0 * (x[1] + 2.0)])
        rec = gradient_descent_minimize(quad2, grad, [0.0, 0.0], cfg)
        x = rec.final_params
    else:
        minimize = powell_minimize if kind == "powell" else nelder_mead_minimize
        rec = minimize(rosenbrock, [-1.2, 1.0], cfg)
        x = rec.final_params
    f = quad2 if kind == "param_shift_gd" else rosenbrock
    assert rec.final_cost == f(x)


def test_gradient_descent_quadratic():
    grad = lambda x: np.array([2.0 * (x[0] - 3.0)])
    cfg = OptimizerConfig(kind="param_shift_gd", max_iterations=500, learning_rate=0.1)
    rec = gradient_descent_minimize(quad1, grad, [0.0], cfg)
    x = rec.final_params
    assert abs(x[0] - 3.0) < 1e-6
    assert rec.converged


@pytest.mark.parametrize("f,grad,x0,lr,match", [
    (quad1, lambda x: np.array([np.nan]), [0.0], 0.1, "non-finite parameters"),
    (quad1, lambda x: np.array([2.0 * (x[0] - 3.0)]), [0.0], 1e308, "non-finite parameters"),
    (lambda x: 1.0 / x[0] if x[0] > 0 else np.inf, lambda x: np.array([1.0]), [0.5], 1.0,
     "non-finite cost"),
    # ulp(1e17) = 16: a step of 0.1 leaves x where it was, the cost repeats
    (lambda x: np.cos(x[0]), lambda x: np.array([-np.sin(x[0])]), [1e17], 0.1,
     "lost to rounding"),
])
def test_gradient_descent_raises_instead_of_converging_on_divergence(f, grad, x0, lr, match):
    cfg = OptimizerConfig(kind="param_shift_gd", max_iterations=50, learning_rate=lr)
    with pytest.raises(FloatingPointError, match=match):
        gradient_descent_minimize(f, grad, x0, cfg)


@pytest.mark.parametrize("minimize", [powell_minimize, nelder_mead_minimize, spsa_minimize])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_every_method_stops_on_a_non_finite_cost(minimize, value):
    f = lambda x: value if x[0] > 0.35 else quad1(x)
    with pytest.raises(FloatingPointError, match="non-finite cost"):
        minimize(f, [0.3], OptimizerConfig(kind="powell", max_iterations=50))


# Each case once ended in ZeroDivisionError inside Brent's parabolic step
# (cos(k x) + 0.5 cos(x / 3) at the step below); every cost is 2 pi-periodic,
# so the config now rejects any step above 2 pi and no bracket gets there.
@pytest.mark.parametrize("step,k", [(1e160, 4), (1e200, 1), (1e200, 3), (1e305, 2)])
def test_powell_huge_line_search_step_never_divides_by_zero(step, k):
    for bad in (step, 2 * np.pi * (1 + 1e-15), np.inf, np.nan):
        with pytest.raises(ValueError, match=r"line_search_step must be in \(0, 2 pi\]"):
            OptimizerConfig(kind="powell", max_iterations=3, line_search_step=bad)


def test_powell_line_search_step_of_exactly_two_pi_runs():
    f = lambda x: float(np.cos(4 * x[0]) + 0.5 * np.cos(x[0] / 3))
    cfg = OptimizerConfig(kind="powell", max_iterations=3, line_search_step=2 * np.pi)
    rec = powell_minimize(f, [0.3], cfg)
    x = rec.final_params
    assert np.all(np.isfinite(x)) and abs(x[0]) < 100
    assert rec.final_cost == f(x) < f([0.3])


def test_running_minimum_monotone():
    for minimize in (powell_minimize, nelder_mead_minimize):
        rec = minimize(rosenbrock, [-1.2, 1.0], OptimizerConfig(max_iterations=50))
        running = np.minimum.accumulate(rec.cost_history)
        assert np.all(np.diff(running) <= 0)


def test_determinism_of_deterministic_methods():
    for minimize in (powell_minimize, nelder_mead_minimize):
        ra = minimize(quad2, [0.3, 0.3], OptimizerConfig(max_iterations=100))
        rb = minimize(quad2, [0.3, 0.3], OptimizerConfig(max_iterations=100))
        assert np.array_equal(ra.final_params, rb.final_params)
        assert ra.cost_history == rb.cost_history


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(kind="adam")
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=0)
    with pytest.raises(ValueError):
        OptimizerConfig(cost_tolerance=-1.0)


@pytest.mark.parametrize("gain", [
    {"spsa_a": 0.0}, {"spsa_c": 0.0}, {"spsa_c": -0.1}, {"spsa_a": float("inf")},
    {"spsa_c": float("nan")}, {"spsa_alpha": -0.5}, {"spsa_gamma": float("nan")},
])
def test_spsa_gain_validation(gain):
    with pytest.raises(ValueError, match=next(iter(gain))):
        OptimizerConfig(kind="spsa", **gain)


def test_spsa_gain_limits_accepted():
    cfg = OptimizerConfig(kind="spsa", spsa_alpha=0.0, spsa_gamma=0.0)
    assert cfg.spsa_alpha == 0.0 and cfg.spsa_gamma == 0.0


def test_history_counts_every_evaluation():
    calls = []

    def spy(x):
        calls.append(float(x[0]))
        return quad1(x)

    rec = powell_minimize(spy, [0.0], OptimizerConfig(max_iterations=20))
    assert rec.evaluations == len(calls)
    assert len(rec.cost_history) == len(calls)


@pytest.mark.parametrize("kind", ["powell", "nelder_mead", "spsa", "param_shift_gd"])
def test_every_minimizer_returns_one_record_that_counts_its_history(kind):
    calls = []

    def spy(x):
        calls.append(np.array(x))
        return rosenbrock(x)

    def grad(x):
        return np.array([-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                         200.0 * (x[1] - x[0] ** 2)])

    cfg = OptimizerConfig(kind=kind, max_iterations=5, learning_rate=1e-3)
    if kind == "param_shift_gd":
        rec = gradient_descent_minimize(spy, grad, [-1.2, 1.0], cfg)
    else:
        minimize = {"powell": powell_minimize, "nelder_mead": nelder_mead_minimize,
                    "spsa": spsa_minimize}[kind]
        rec = minimize(spy, [-1.2, 1.0], cfg)
    assert isinstance(rec, TrainRecord)
    assert rec.evaluations == len(rec.cost_history) == len(calls) > 1
    assert rec.cost_history == [rosenbrock(x) for x in calls]
    # final_params is a point the run evaluated, and final_cost its cost there
    assert any(np.array_equal(rec.final_params, x) for x in calls)
    assert rec.final_cost == rosenbrock(rec.final_params)
