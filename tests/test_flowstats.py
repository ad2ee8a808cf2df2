"""Flow statistics and rendering tests."""

import numpy as np

from adacof.flowstats import (mean_flow, render_flow, render_occlusion,
                              variance_flow)
from adacof.warp import WarpParams

from oracles import mean_flow_oracle, random_instance, variance_flow_oracle


def _params(rng, size=6, f=3, d=1):
    _, weights, alpha, beta = random_instance(rng, size, f, d)
    return WarpParams(weights, alpha, beta, kernel_size=f, dilation=d)


def test_mean_flow_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = _params(rng)
        for include_grid in (False, True):
            got = mean_flow(p, include_grid=include_grid)
            want = mean_flow_oracle(p.weights, p.alpha, p.beta, p.kernel_size,
                                    p.dilation, include_grid=include_grid)
            assert np.abs(got - want).max() < 1e-6


def test_variance_flow_matches_oracle_and_is_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(5):
        p = _params(rng)
        var, trace = variance_flow(p)
        want = variance_flow_oracle(p.weights, p.alpha, p.beta,
                                    p.kernel_size, p.dilation)
        assert np.abs(var - want).max() < 1e-6
        assert var.min() >= 0.0
        np.testing.assert_allclose(trace, var.sum(axis=0))


def test_second_moment_identity():
    # weighted second moment minus squared mean equals the variance
    rng = np.random.default_rng(2)
    p = _params(rng, size=8, f=5, d=2)
    mean = mean_flow(p)
    var, _ = variance_flow(p)
    m2y = np.einsum("tij,tij->ij", p.weights, p.alpha * p.alpha)
    m2x = np.einsum("tij,tij->ij", p.weights, p.beta * p.beta)
    lhs = np.stack([m2y, m2x]) - mean * mean
    assert np.abs(lhs - var).max() < 1e-5


def test_grid_inclusive_mean_of_uniform_kernel_is_zero():
    # the centered tap grid averages to zero under uniform weights
    h = w = 4
    f, d = 3, 2
    p = WarpParams(np.full((f * f, h, w), 1.0 / (f * f)),
                   np.zeros((f * f, h, w)), np.zeros((f * f, h, w)),
                   kernel_size=f, dilation=d)
    assert np.abs(mean_flow(p, include_grid=True)).max() < 1e-12


def test_render_flow_output_range_and_zero_flow_white():
    rng = np.random.default_rng(3)
    flow = rng.normal(size=(2, 8, 8))
    img = render_flow(flow)
    assert img.min() >= 0.0 and img.max() <= 1.0
    white = render_flow(np.zeros((2, 4, 4)))
    np.testing.assert_allclose(white, 1.0)


def test_render_occlusion_endpoints():
    v = np.array([[0.0, 0.5, 1.0]])
    img = render_occlusion(v)
    np.testing.assert_allclose(img[:, 0, 0], [0.0, 0.0, 1.0])  # V=0 blue
    np.testing.assert_allclose(img[:, 0, 1], [0.0, 1.0, 0.0])  # V=0.5 green
    np.testing.assert_allclose(img[:, 0, 2], [1.0, 0.0, 0.0])  # V=1 red
