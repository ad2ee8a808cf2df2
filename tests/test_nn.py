"""Network primitive tests: forward oracles and VJP finite differences."""

import numpy as np
import pytest

from adacof import nn


def _fd_dot(f, x, direction, h=1e-6):
    """Directional derivative of scalar f along direction at x."""
    return (f(x + h * direction) - f(x - h * direction)) / (2 * h)


def test_conv3x3_matches_direct_loop():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 5, 6))
    k = rng.normal(size=(4, 3, 3, 3))
    bias = rng.normal(size=4)
    y, _ = nn.conv3x3(x, k, bias)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    want = np.zeros((2, 4, 5, 6))
    for b in range(2):
        for o in range(4):
            for i in range(5):
                for j in range(6):
                    want[b, o, i, j] = (xp[b, :, i:i + 3, j:j + 3] * k[o]).sum() \
                        + bias[o]
    np.testing.assert_allclose(y, want, atol=1e-12)


def test_conv3x3_vjp():
    # the second input is a batch of non-square frames with C != O
    for x_shape, out_channels in (((1, 2, 4, 4), 3), ((3, 5, 6, 4), 2)):
        rng = np.random.default_rng(1)
        x = rng.normal(size=x_shape)
        k = rng.normal(size=(out_channels, x_shape[1], 3, 3))
        bias = rng.normal(size=out_channels)
        y, vjp = nn.conv3x3(x, k, bias)
        up = rng.normal(size=y.shape)
        gx, gk, gb = vjp(up)
        dx = rng.normal(size=x.shape)
        dk = rng.normal(size=k.shape)
        assert float((gx * dx).sum()) == pytest.approx(
            _fd_dot(lambda z: float((nn.conv3x3(z, k, bias)[0] * up).sum()), x, dx),
            rel=1e-6)
        assert float((gk * dk).sum()) == pytest.approx(
            _fd_dot(lambda z: float((nn.conv3x3(x, z, bias)[0] * up).sum()), k, dk),
            rel=1e-6)
        assert gb == pytest.approx(up.sum(axis=(0, 2, 3)))


def test_relu_forward_and_mask():
    x = np.array([[[[-1.0, 0.0], [2.0, -3.0]]]])
    y, vjp = nn.relu(x)
    np.testing.assert_array_equal(y, [[[[0.0, 0.0], [2.0, 0.0]]]])
    g = vjp(np.ones_like(x))
    np.testing.assert_array_equal(g, [[[[0.0, 0.0], [1.0, 0.0]]]])


def test_avgpool2_forward_and_vjp():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 2, 4, 6))
    y, vjp = nn.avgpool2(x)
    assert y.shape == (1, 2, 2, 3)
    assert y[0, 0, 0, 0] == pytest.approx(x[0, 0, :2, :2].mean())
    up = rng.normal(size=y.shape)
    g = vjp(up)
    dx = rng.normal(size=x.shape)
    assert float((g * dx).sum()) == pytest.approx(
        _fd_dot(lambda z: float((nn.avgpool2(z)[0] * up).sum()), x, dx), rel=1e-6)


def test_upsample_bilinear2_constant_preserved():
    x = np.full((1, 1, 3, 4), 0.7)
    y, _ = nn.upsample_bilinear2(x)
    assert y.shape == (1, 1, 6, 8)
    np.testing.assert_allclose(y, 0.7)


def test_upsample_bilinear2_vjp():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 2, 3, 3))
    y, vjp = nn.upsample_bilinear2(x)
    up = rng.normal(size=y.shape)
    g = vjp(up)
    dx = rng.normal(size=x.shape)
    assert float((g * dx).sum()) == pytest.approx(
        _fd_dot(lambda z: float((nn.upsample_bilinear2(z)[0] * up).sum()), x, dx),
        rel=1e-6)


def test_softmax_channels_simplex_and_vjp():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 5, 3, 3))
    y, vjp = nn.softmax_channels(x)
    assert y.min() > 0.0
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
    up = rng.normal(size=y.shape)
    g = vjp(up)
    dx = rng.normal(size=x.shape)
    assert float((g * dx).sum()) == pytest.approx(
        _fd_dot(lambda z: float((nn.softmax_channels(z)[0] * up).sum()), x, dx),
        rel=1e-6)


def test_sigmoid_and_global_mean_vjp():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 4, 4))
    y, vjp = nn.sigmoid(x)
    assert y.min() > 0.0 and y.max() < 1.0
    up = rng.normal(size=y.shape)
    dx = rng.normal(size=x.shape)
    assert float((vjp(up) * dx).sum()) == pytest.approx(
        _fd_dot(lambda z: float((nn.sigmoid(z)[0] * up).sum()), x, dx), rel=1e-6)

    m, vjp_m = nn.global_mean(x)
    assert m.shape == (2,)
    assert m[0] == pytest.approx(x[0].mean())
    gm = vjp_m(np.array([1.0, 2.0]))
    np.testing.assert_allclose(gm[0], 1.0 / x[0].size)
    np.testing.assert_allclose(gm[1], 2.0 / x[1].size)


def test_concat_channels_roundtrip():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(1, 2, 3, 3))
    b = rng.normal(size=(1, 4, 3, 3))
    y, vjp = nn.concat_channels(a, b)
    assert y.shape == (1, 6, 3, 3)
    ga, gb = vjp(y)
    np.testing.assert_array_equal(ga, a)
    np.testing.assert_array_equal(gb, b)
