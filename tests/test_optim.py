"""Optimizer fixtures."""

import numpy as np
import pytest

from adacof.optim import AdaMaxState, adamax_step


def test_single_step_fixture():
    # theta=1, g=1, lr=0.001, beta1=0.9:
    # m = 0.1, u = 1, theta - (0.001/0.1) * 0.1 / 1 = 0.999
    state = AdaMaxState(lr=0.001)
    params = {"theta": np.array([1.0])}
    adamax_step(state, params, {"theta": np.array([1.0])})
    assert params["theta"][0] == pytest.approx(0.999, abs=1e-9)
    assert state.m["theta"][0] == pytest.approx(0.1, abs=1e-12)
    assert state.u["theta"][0] == pytest.approx(1.0, abs=1e-12)
    assert state.t == 1


def test_second_step_uses_bias_correction_and_max():
    state = AdaMaxState(lr=0.001)
    params = {"p": np.array([0.0])}
    adamax_step(state, params, {"p": np.array([2.0])})
    after_first = params["p"][0]
    adamax_step(state, params, {"p": np.array([0.5])})
    # u stays max(0.999*2, 0.5) = 1.998; m = 0.9*0.2 + 0.1*0.5 = 0.23
    assert state.u["p"][0] == pytest.approx(1.998, abs=1e-12)
    assert state.m["p"][0] == pytest.approx(0.23, abs=1e-12)
    expected = after_first - (0.001 / (1 - 0.9 ** 2)) * 0.23 / 1.998
    assert params["p"][0] == pytest.approx(expected, abs=1e-12)


def test_quadratic_convergence():
    # minimize (theta - 3)^2 from zero
    state = AdaMaxState(lr=0.01)
    params = {"theta": np.array([0.0])}
    for _ in range(2000):
        grad = 2.0 * (params["theta"] - 3.0)
        adamax_step(state, params, {"theta": grad})
    assert abs(params["theta"][0] - 3.0) < 1e-2


def test_infinity_norm_floor_prevents_division_blowup():
    state = AdaMaxState(lr=0.001)
    params = {"p": np.array([1.0])}
    adamax_step(state, params, {"p": np.array([0.0])})
    assert np.isfinite(params["p"][0])
    assert params["p"][0] == 1.0  # zero gradient moves nothing


def test_nonfinite_gradient_raises():
    state = AdaMaxState()
    params = {"p": np.array([1.0])}
    with pytest.raises(FloatingPointError):
        adamax_step(state, params, {"p": np.array([np.nan])})

