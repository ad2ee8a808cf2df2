"""Network primitive tests: forward oracles and VJP finite differences."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from adacof import nn
from adacof.model import ModelConfig, param_shapes


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


def _row_major_im2col_conv(x, kernel, bias, gy):
    """Oracle: the conv and its VJP through a (B*H*W, C*9) im2col built from
    a sliding-window view. Returns (y, gx, gkernel, gbias)."""
    b, c, h, w = x.shape
    o = kernel.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = sliding_window_view(xp, (3, 3), axis=(2, 3))  # (B,C,H,W,3,3)
    cols_mat = cols.transpose(0, 2, 3, 1, 4, 5).reshape(b * h * w, c * 9)
    kmat = kernel.reshape(o, c * 9)
    y = (cols_mat @ kmat.T + bias).reshape(b, h, w, o).transpose(0, 3, 1, 2)
    gy_mat = gy.transpose(0, 2, 3, 1).reshape(b * h * w, o)
    gk = (gy_mat.T @ cols_mat).reshape(kernel.shape)
    gb = gy_mat.sum(axis=0)
    gxp = np.zeros((b, h + 2, w + 2, c))
    for di in range(3):
        for dj in range(3):
            tap = gy_mat @ kernel[:, :, di, dj]
            gxp[:, di:di + h, dj:dj + w] += tap.reshape(b, h, w, c)
    return y, gxp[:, 1:h + 1, 1:w + 1].transpose(0, 3, 1, 2), gk, gb


def _conv_case(rng, b, c, o, h, w, channel_major_gy=False):
    x = rng.normal(size=(b, c, h, w))
    kernel = rng.normal(size=(o, c, 3, 3))
    bias = rng.normal(size=o)
    gy = rng.normal(size=(b, o, h, w))
    if channel_major_gy:  # the memory layout of gradients built from conv outputs
        gy = np.ascontiguousarray(gy.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    return x, kernel, bias, gy


@settings(max_examples=60, derandomize=True, deadline=None)
@given(b=st.integers(1, 4), c=st.integers(1, 12), o=st.integers(1, 12),
       h=st.integers(1, 9), w=st.integers(1, 9), channel_major_gy=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(b=1, c=11, o=8, h=1, w=7, channel_major_gy=False, seed=0)
@example(b=4, c=3, o=12, h=6, w=1, channel_major_gy=True, seed=1)
@example(b=3, c=5, o=4, h=7, w=5, channel_major_gy=False, seed=2)
def test_conv3x3_matches_row_major_im2col(b, c, o, h, w, channel_major_gy, seed):
    """Equal to the oracle up to summation order: each difference is within
    twice the rounding bound n*eps*sum|terms| of one dot product of n terms.
    gbias, the same expression in both, is bit-identical. Each case also runs
    with 16-pixel bands, which split most frames into several row bands, the
    last one short (7 rows of 5 pixels: 3, 3 and 1 rows)."""
    x, kernel, bias, gy = _conv_case(np.random.default_rng(seed), b, c, o, h, w,
                                     channel_major_gy)
    want = _row_major_im2col_conv(x, kernel, bias, gy)
    scale = _row_major_im2col_conv(abs(x), abs(kernel), abs(bias), abs(gy))
    n = max(9 * c + 1, 9 * o, b * h * w)
    for band_pixels in (nn.BAND_PIXELS, 16):
        with mock.patch.object(nn, "BAND_PIXELS", band_pixels):
            y, vjp = nn.conv3x3(x, kernel, bias)
        got = (y, *vjp(gy))
        for g, expected, s in zip(got[:3], want, scale):
            assert np.all(abs(g - expected) <= 2 * n * np.finfo(float).eps * s), band_pixels
        np.testing.assert_array_equal(got[3], want[3])


@pytest.mark.parametrize("b, size", [(4, 32), (1, 128)], ids=["B4-32x32", "B1-128x128"])
def test_conv3x3_is_bit_identical_at_the_network_layer_shapes(b, size):
    """Every conv of the acceptance config (F=5, depth 2, widths (8, 16)), at
    training's batch shape and at a large single frame: here the two im2col
    layouts reach the same BLAS summation orders (OpenBLAS 0.3.31), so y and
    all three gradients are bit-identical. At other shapes the orders, and
    so the last bits, may differ (see test_conv3x3_matches_row_major_im2col);
    at B=1 and 32x32 three layers differ."""
    cfg = ModelConfig(kernel_size=5, dilation=1, depth=2, widths=(8, 16))
    levels = {"bottleneck": cfg.depth, "head": 0}  # enc{i} and dec{i} run at level i
    rng = np.random.default_rng(7)
    for name, shape in param_shapes(cfg).items():
        if not name.endswith(".w"):
            continue
        level = levels[name[:-2]] if name[:-2] in levels else int(name[-3])
        o, c = shape[:2]
        side = size >> level
        x, kernel, bias, gy = _conv_case(rng, b, c, o, side, side)
        y, vjp = nn.conv3x3(x, kernel, bias)
        for got, want in zip((y, *vjp(gy)), _row_major_im2col_conv(x, kernel, bias, gy)):
            np.testing.assert_array_equal(got, want, err_msg=name)


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


def test_upsample_matrix_is_shared_and_refuses_writes():
    m = nn._upsample_matrix(4)
    assert nn._upsample_matrix(4) is m
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 1.0


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


def test_softmax_channels_keeps_its_input_and_the_three_step_bits():
    """The input is a view of the head output that the offset groups share,
    so it must come back unchanged. Output and vjp equal the formula
    exp(z) / sum exp(z), z = x - max, bit for bit."""
    rng = np.random.default_rng(8)
    head = rng.normal(size=(2, 3 * 9, 5, 4)) * 4.0
    kept = head.copy()
    x = head[:, 9:18]
    y, vjp = nn.softmax_channels(x)
    np.testing.assert_array_equal(head, kept)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    want = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_array_equal(y, want)
    gy = rng.normal(size=y.shape)
    np.testing.assert_array_equal(vjp(gy), want * (gy - (gy * want).sum(axis=1, keepdims=True)))


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


def test_executor_matches_the_hand_composition():
    """x feeds a conv unit and, as a skip, the concat after it: the forward
    and the replayed vjp equal the same primitives composed by hand, bit for
    bit, x's gradient is the sum of its two paths' and passes a central
    difference, and only the outputs and the input no stage reads remain."""
    rng = np.random.default_rng(11)
    stages = [*nn.conv_unit("h", "x", 3), ("p", "avgpool2", ("h",), 0),
              ("u", "upsample_bilinear2", ("p",), 0), ("cat", "concat_channels", ("u", "x"), 0),
              ("y", "conv3x3", ("cat",), 2)]
    shapes = nn.param_shapes(stages, {"x": 2})
    assert shapes == {"h.w": (3, 2, 3, 3), "h.b": (3,), "y.w": (2, 5, 3, 3), "y.b": (2,)}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    x, spare = rng.normal(size=(2, 2, 4, 6)), rng.normal(size=(1,))
    values, tape = nn.forward(stages, params, {"x": x, "spare": spare})
    assert values.keys() == {"y", "spare"}
    gy = rng.normal(size=values["y"].shape)
    grads = nn.backward(tape, {"y": gy})

    h, vjp_conv_h = nn.conv3x3(x, params["h.w"], params["h.b"])
    h, vjp_relu = nn.relu(h)
    p, vjp_pool = nn.avgpool2(h)
    u, vjp_up = nn.upsample_bilinear2(p)
    cat, vjp_cat = nn.concat_channels(u, x)
    y, vjp_conv_y = nn.conv3x3(cat, params["y.w"], params["y.b"])
    np.testing.assert_array_equal(values["y"], y)
    g_cat, gk_y, gb_y = vjp_conv_y(gy)
    g_u, g_skip = vjp_cat(g_cat)
    g_unit, gk_h, gb_h = vjp_conv_h(vjp_relu(vjp_pool(vjp_up(g_u))))
    assert grads.keys() == {"x", "h.w", "h.b", "y.w", "y.b"}
    for got, want in ((grads["x"], g_skip + g_unit), (grads["h.w"], gk_h), (grads["h.b"], gb_h),
                      (grads["y.w"], gk_y), (grads["y.b"], gb_y)):
        np.testing.assert_array_equal(got, want)
    assert not np.array_equal(grads["x"], g_unit) and not np.array_equal(grads["x"], g_skip)

    dx = rng.normal(size=x.shape)
    numeric = _fd_dot(lambda z: float(
        (nn.forward(stages, params, {"x": z})[0]["y"] * gy).sum()), x, dx)
    assert float((grads["x"] * dx).sum()) == pytest.approx(numeric, rel=1e-6)
