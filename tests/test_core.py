"""Bilinear sampler tests."""

import numpy as np
import pytest

from adacof.core import sample_grid, sample_grid_with_grad


def brute_bilinear(channel, y, x):
    """Reference bilinear interpolation with replicate boundary."""
    h, w = channel.shape
    y = min(max(y, 0.0), h - 1.0)
    x = min(max(x, 0.0), w - 1.0)
    y0, x0 = int(np.floor(y)), int(np.floor(x))
    y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
    fy, fx = y - y0, x - x0
    return ((1 - fy) * (1 - fx) * channel[y0, x0]
            + (1 - fy) * fx * channel[y0, x1]
            + fy * (1 - fx) * channel[y1, x0]
            + fy * fx * channel[y1, x1])


def sample_at(channel, y, x):
    """sample_grid of one (H, W) channel at a single coordinate."""
    return float(sample_grid(channel[None], np.float64(y), np.float64(x))[0])


def test_bilinear_sample_matches_reference():
    rng = np.random.default_rng(0)
    channel = rng.random((7, 9))
    for _ in range(200):
        y = rng.uniform(-3.0, 9.0)
        x = rng.uniform(-3.0, 11.0)
        assert sample_at(channel, y, x) == pytest.approx(
            brute_bilinear(channel, y, x), abs=1e-12)


def test_bilinear_sample_integer_coords_exact():
    rng = np.random.default_rng(1)
    channel = rng.random((5, 5))
    for i in range(5):
        for j in range(5):
            assert sample_at(channel, float(i), float(j)) == channel[i, j]


def test_replicate_boundary():
    channel = np.arange(12, dtype=np.float64).reshape(3, 4)
    assert sample_at(channel, -10.0, -10.0) == channel[0, 0]
    assert sample_at(channel, 100.0, 100.0) == channel[-1, -1]
    assert sample_at(channel, 1.0, -5.0) == channel[1, 0]


def test_sample_grid_matches_scalar_sampler():
    rng = np.random.default_rng(2)
    image = rng.random((3, 6, 8))
    ys = rng.uniform(-1.0, 7.0, size=(4, 5))
    xs = rng.uniform(-1.0, 9.0, size=(4, 5))
    out = sample_grid(image, ys, xs)
    assert out.shape == (3, 4, 5)
    for c in range(3):
        for a in range(4):
            for b in range(5):
                assert out[c, a, b] == pytest.approx(
                    brute_bilinear(image[c], ys[a, b], xs[a, b]), abs=1e-12)


def test_sample_grid_with_grad_finite_difference():
    rng = np.random.default_rng(3)
    image = rng.random((2, 8, 8))
    # keep coordinates away from integer kinks
    ys = rng.uniform(0.2, 6.8, size=(3, 3))
    ys += np.where(ys - np.floor(ys) < 0.15, 0.2, 0.0)
    xs = rng.uniform(0.2, 6.8, size=(3, 3))
    xs += np.where(xs - np.floor(xs) < 0.15, 0.2, 0.0)
    upstream = rng.normal(size=(2, 3, 3))
    vals, dy, dx = sample_grid_with_grad(image, ys, xs, upstream)

    def contracted(y, x):
        return (sample_grid(image, y, x) * upstream).sum(axis=0)

    h = 1e-6
    fd_y = (contracted(ys + h, xs) - contracted(ys - h, xs)) / (2 * h)
    fd_x = (contracted(ys, xs + h) - contracted(ys, xs - h)) / (2 * h)
    np.testing.assert_allclose(dy, fd_y, atol=1e-6)
    np.testing.assert_allclose(dx, fd_x, atol=1e-6)
    np.testing.assert_allclose(vals, contracted(ys, xs), atol=1e-12)


def test_coordinate_gradient_zero_outside_frame():
    image = np.random.default_rng(4).random((1, 5, 5))
    ys = np.array([-2.5, 6.5, 2.5])
    xs = np.array([2.5, 2.5, -3.0])
    _, dy, dx = sample_grid_with_grad(image, ys, xs, np.ones((1, 3)))
    assert dy[0] == 0.0 and dy[1] == 0.0
    assert dx[2] == 0.0


def test_sample_grid_channel_major_batch_matches_per_image():
    rng = np.random.default_rng(3)
    images = rng.random((3, 4, 6, 8))  # (C, B, H, W)
    ys = rng.uniform(-1.0, 7.0, size=(4, 5, 2))
    xs = rng.uniform(-1.0, 9.0, size=(4, 5, 2))
    out = sample_grid(images, ys, xs)
    assert out.shape == (3, 4, 5, 2)
    upstream = rng.normal(size=out.shape)
    grads = sample_grid_with_grad(images, ys, xs, upstream)
    for b in range(4):
        np.testing.assert_array_equal(out[:, b], sample_grid(images[:, b], ys[b], xs[b]))
        for got, want in zip(grads, sample_grid_with_grad(images[:, b], ys[b], xs[b],
                                                          upstream[:, b])):
            np.testing.assert_array_equal(got[b], want)

