"""Independent brute-force reference implementations used by the tests.

Everything here except the per-tap formulas at the end is written as
literal loops over output pixels and kernel taps, sharing no code with the
package internals beyond the scalar bilinear sampler semantics
(reimplemented locally). The per-tap formulas call the package's sampler
one tap at a time over the whole frame: they pin how the warp groups its
taps, bit for bit, not what the sampler computes.
"""

import numpy as np

from adacof.core import bilinear_corners, sample_grid, sample_grid_with_grad


def bilinear(channel, y, x):
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


def warp_oracle(image, weights, alpha, beta, f, d):
    """Literal tap-loop evaluation of the adaptive warp."""
    c, h, w = image.shape
    out = np.zeros((c, h, w))
    center = d * (f - 1) / 2.0
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for k in range(f):
                    for l in range(f):
                        t = k * f + l
                        y = i + d * k - center + alpha[t, i, j]
                        x = j + d * l - center + beta[t, i, j]
                        acc += weights[t, i, j] * bilinear(image[ch], y, x)
                out[ch, i, j] = acc
    return out


def kernel_only_oracle(image, weights, f, d):
    """Adaptive convolution: per-pixel kernel on the rigid dilated grid."""
    return warp_oracle(image, weights, np.zeros_like(weights),
                       np.zeros_like(weights), f, d)


def flow_only_oracle(image, flow):
    """Single-flow backward warp: out(i,j) = I(i + fy, j + fx)."""
    c, h, w = image.shape
    out = np.zeros((c, h, w))
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                out[ch, i, j] = bilinear(image[ch], i + flow[0, i, j],
                                         j + flow[1, i, j])
    return out


def shift_then_kernel_oracle(image, weights, flow, f, d):
    """One flow per pixel shared by every tap of the rigid kernel."""
    c, h, w = image.shape
    out = np.zeros((c, h, w))
    center = d * (f - 1) / 2.0
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for k in range(f):
                    for l in range(f):
                        t = k * f + l
                        y = i + d * k - center + flow[0, i, j]
                        x = j + d * l - center + flow[1, i, j]
                        acc += weights[t, i, j] * bilinear(image[ch], y, x)
                out[ch, i, j] = acc
    return out


def mean_flow_oracle(weights, alpha, beta, f, d, include_grid=False):
    f2, h, w = weights.shape
    out = np.zeros((2, h, w))
    center = d * (f - 1) / 2.0
    for i in range(h):
        for j in range(w):
            my = mx = 0.0
            for k in range(f):
                for l in range(f):
                    t = k * f + l
                    ay = alpha[t, i, j]
                    bx = beta[t, i, j]
                    if include_grid:
                        ay += d * k - center
                        bx += d * l - center
                    my += weights[t, i, j] * ay
                    mx += weights[t, i, j] * bx
            out[0, i, j], out[1, i, j] = my, mx
    return out


def variance_flow_oracle(weights, alpha, beta, f, d):
    f2, h, w = weights.shape
    mean = mean_flow_oracle(weights, alpha, beta, f, d)
    var = np.zeros((2, h, w))
    for i in range(h):
        for j in range(w):
            for t in range(f2):
                var[0, i, j] += weights[t, i, j] * (alpha[t, i, j]
                                                    - mean[0, i, j]) ** 2
                var[1, i, j] += weights[t, i, j] * (beta[t, i, j]
                                                    - mean[1, i, j]) ** 2
    return var


def random_instance(rng, size, f, d, channels=3):
    """Random valid warp parameters plus an image."""
    f2 = f * f
    logits = rng.normal(size=(f2, size, size))
    e = np.exp(logits - logits.max(axis=0))
    weights = e / e.sum(axis=0)
    alpha = rng.uniform(-2.0, 2.0, size=(f2, size, size))
    beta = rng.uniform(-2.0, 2.0, size=(f2, size, size))
    image = rng.random((channels, size, size))
    return image, weights, alpha, beta


def _per_tap_coords(params):
    """(t, ys, xs) of each tap of batched params, each (B, H, W)."""
    gy, gx = params.tap_grid_offsets()
    i = np.arange(params.height, dtype=np.float64)[:, None]
    j = np.arange(params.width, dtype=np.float64)
    for t in range(len(gy)):
        yield t, (i + gy[t]) + params.alpha[:, t], (j + gx[t]) + params.beta[:, t]


def _channel_major(arr):
    return np.ascontiguousarray(np.asarray(arr, dtype=np.float64).transpose(1, 0, 2, 3))


def per_tap_warp(images, params):
    """forward_warp of (B, C, H, W) images, one sample_grid call per tap,
    added in tap order."""
    src = _channel_major(images)
    out = 0.0
    for t, ys, xs in _per_tap_coords(params):
        out += params.weights[:, t] * sample_grid(src, ys, xs)
    return out.transpose(1, 0, 2, 3)


def per_tap_warp_vjp(images, params, upstream):
    """backward_warp_vjp of (B, C, H, W) images, one tap at a time."""
    src, up = _channel_major(images), _channel_major(upstream)
    grads = [np.empty_like(params.weights) for _ in range(3)]
    for t, ys, xs in _per_tap_coords(params):
        grads[0][:, t], d_dy, d_dx = sample_grid_with_grad(src, ys, xs, up)
        grads[1][:, t] = params.weights[:, t] * d_dy
        grads[2][:, t] = params.weights[:, t] * d_dx
    return tuple(grads)


def per_tap_image_vjp(params, upstream):
    """backward_warp_image_vjp of a (B, C, H, W) upstream: every tap's
    corner entries listed in tap order, summed by one bincount."""
    b, c, h, w = upstream.shape
    offsets = (np.arange(b * c) * (h * w)).reshape(b, c, 1, 1)
    idx, vals = [], []
    for t, ys, xs in _per_tap_coords(params):
        i00, i01, i10, i11, fy, fx = bilinear_corners(h, w, ys, xs)
        gy, gx = 1.0 - fy, 1.0 - fx
        for i, coeff in ((i00, gy * gx), (i01, gy * fx), (i10, fy * gx), (i11, fy * fx)):
            idx.append((offsets + i[:, None]).ravel())
            vals.append(((params.weights[:, t] * coeff)[:, None] * upstream).ravel())
    grad = np.bincount(np.concatenate(idx), np.concatenate(vals), b * c * h * w)
    return grad.reshape(upstream.shape)
