"""Batched neural-network primitives with explicit vector-Jacobian products.

Every primitive takes (B, C, H, W) arrays and returns (output, vjp); the
vjp maps an upstream gradient back to input (and parameter) gradients. A
network is a list of stages, each (output name, op name, input names, conv
width or 0): forward runs it and records a tape, backward replays the tape.
Ops are looked up by name as each stage runs, so a wrapper installed on
this module sees every call.

conv3x3 works channel-major inside, on the zero-padded (C, B, H+2, W+2)
input: the input copied into its interior, then its border zeroed. Its
im2col is filled from nine shifted slabs of that input, so each copy moves
W-long runs. The forward builds it one (sample, row band) at a time, at
most BAND_PIXELS output pixels, into a buffer the heap can reuse, and
multiplies each band into its slice of the (O, B, H, W) output, returned
as a transposed (B, O, H, W) view, C-contiguous at B=1. The vjp keeps only
the padded input and rebuilds the whole (C*9, B*H*W) im2col for the kernel
gradient. The input gradient adds each tap's gradient back at its shift,
one sample at a time, on rows of pitch W+2, where a shift is one flat offset.
upsample_bilinear2's interpolation matrices are built once per size and
shared read-only.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import BAND_PIXELS


def _im2col(xp, h, w):
    """(C*9, B*h*w) im2col of a padded channel-major (C, B, h+2, w+2) input."""
    c, b = xp.shape[:2]
    cols = np.empty((c, 3, 3, b, h, w))
    for di in range(3):
        for dj in range(3):
            cols[:, di, dj] = xp[:, :, di:di + h, dj:dj + w]
    return cols.reshape(c * 9, b * h * w)


def conv3x3(x, kernel, bias):
    """Same-padded 3x3 convolution; vjp returns (gx, gkernel, gbias)."""
    b, c, h, w = x.shape
    o = kernel.shape[0]
    xp = np.empty((c, b, h + 2, w + 2))
    xp[:, :, 1:-1, 1:-1] = x.transpose(1, 0, 2, 3)
    xp[:, :, ::h + 1] = xp[..., ::w + 1] = 0.0  # the border rows and columns
    kmat = kernel.reshape(o, c * 9)
    y = np.empty((o, b, h, w))
    rows = max(1, BAND_PIXELS // w)
    for i in range(b):
        for r in range(0, h, rows):
            n = min(rows, h - r)
            np.matmul(kmat, _im2col(xp[:, i:i + 1, r:r + n + 2], n, w),
                      out=y[:, i, r:r + n].reshape(o, n * w))
    y += bias[:, None, None, None]
    y = y.transpose(1, 0, 2, 3)

    def vjp(gy):
        cols = _im2col(xp, h, w)
        # this sum order keeps gbias bit-identical to a (B*H*W, O) im2col's
        gb = gy.transpose(0, 2, 3, 1).reshape(b * h * w, o).sum(axis=0)
        gk = (gy.transpose(1, 0, 2, 3).reshape(o, b * h * w) @ cols.T).reshape(kernel.shape)
        # adjoint of the im2col. A row of gpad is w+2 long, so each tap's shift
        # is one flat offset; its two zero columns add only zeros, the last
        # tap's into two spare elements past the padded plane
        n = h * (w + 2)
        gxp = np.zeros((c, b, (h + 2) * (w + 2) + 2))
        gpad = np.zeros((o, h, w + 2))
        for i in range(b):
            gpad[..., :w] = gy[i]
            for di in range(3):
                for dj in range(3):
                    off = di * (w + 2) + dj
                    gxp[:, i, off:off + n] += kernel[:, :, di, dj].T @ gpad.reshape(o, n)
        gx = gxp[..., :-2].reshape(c, b, h + 2, w + 2)[:, :, 1:h + 1, 1:w + 1]
        return gx.transpose(1, 0, 2, 3), gk, gb

    return y, vjp


def relu(x):
    y = np.maximum(x, 0.0)
    mask = x > 0.0
    return y, lambda gy: gy * mask


def avgpool2(x):
    """2x2 average pooling with stride 2; height/width must be even."""
    b, c, h, w = x.shape
    y = x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))

    def vjp(gy):
        return np.repeat(np.repeat(gy, 2, axis=2), 2, axis=3) * 0.25

    return y, vjp


@functools.lru_cache(maxsize=None)
def _upsample_matrix(n):
    """(2n, n) bilinear interpolation matrix (half-pixel-centered, clamped)."""
    src = np.clip((np.arange(2 * n) + 0.5) / 2.0 - 0.5, 0.0, n - 1.0)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, n - 1)
    f = src - i0
    m = np.zeros((2 * n, n))
    np.add.at(m, (np.arange(2 * n), i0), 1.0 - f)
    np.add.at(m, (np.arange(2 * n), i1), f)
    m.flags.writeable = False
    return m


def upsample_bilinear2(x):
    """Bilinear 2x upsampling along both spatial axes."""
    b, c, h, w = x.shape
    my = _upsample_matrix(h)
    mx = _upsample_matrix(w)
    y = np.einsum("ph,bchw->bcpw", my, x, optimize=True)
    y = np.einsum("qw,bcpw->bcpq", mx, y, optimize=True)

    def vjp(gy):
        gx = np.einsum("qw,bcpq->bcpw", mx, gy, optimize=True)
        return np.einsum("ph,bcpw->bchw", my, gx, optimize=True)

    return y, vjp


def concat_channels(a, b):
    ca = a.shape[1]
    y = np.concatenate([a, b], axis=1)
    return y, lambda gy: (gy[:, :ca], gy[:, ca:])


def sigmoid(x):
    y = 1.0 / (1.0 + np.exp(-x))
    return y, lambda gy: gy * y * (1.0 - y)


def softmax_channels(x):
    """Softmax over the channel axis at every pixel."""
    y = x - x.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)

    def vjp(gy):
        return y * (gy - (gy * y).sum(axis=1, keepdims=True))

    return y, vjp


def global_mean(x):
    """Mean over channels and space, (B, C, H, W) -> (B,)."""
    b = x.shape[0]
    n = x[0].size
    y = x.reshape(b, -1).mean(axis=1)

    def vjp(gy):
        return np.broadcast_to(gy[:, None, None, None] / n, x.shape).copy()

    return y, vjp


def conv_unit(name, src, width):
    """The two stages of a 3x3 conv + ReLU unit reading src, both writing name."""
    return [(name, "conv3x3", (src,), width), (name, "relu", (name,), 0)]


def param_shapes(stages, channels):
    """Each conv stage's kernel and bias shape, named output.w and output.b,
    in stage order; channels gives each input value's channel count."""
    channels, shapes = dict(channels), {}
    for out, _, ins, width in stages:
        if width:
            shapes[f"{out}.w"] = (width, channels[ins[0]], 3, 3)
            shapes[f"{out}.b"] = (width,)
        channels[out] = width or sum(channels[name] for name in ins)
    return shapes


def he_init(shapes, seed, zeroed=()):
    """He-style fan-in normal draws for the kernels of shapes, in its order;
    biases and the convs named in zeroed start at zero."""
    rng = np.random.default_rng(seed)
    return {name: np.zeros(shape) if name.endswith(".b") or name[:-2] in zeroed
            else rng.normal(0.0, np.sqrt(2.0 / (shape[1] * 9)), size=shape)
            for name, shape in shapes.items()}


def forward(stages, params, values):
    """Run stages on values, a dict of named inputs, dropping each value after its
    last reader; a conv stage also reads params output.w and output.b. Returns
    (the values no stage reads, a tape of (output, input names, vjp) records)."""
    last = {name: k for k, (_, _, ins, _) in enumerate(stages) for name in ins}
    tape = []
    for k, (out, op, ins, width) in enumerate(stages):
        names = ins + ((f"{out}.w", f"{out}.b") if width else ())
        args = [values[name] for name in ins] + [params[name] for name in names[len(ins):]]
        for name in {name for name in ins if last[name] == k}:
            del values[name]
        values[out], vjp = globals()[op](*args)
        tape.append((out, names, vjp))
    return values, tape


def backward(tape, grads):
    """Replay forward's tape in reverse from grads, its outputs' gradients by name;
    returns its inputs' and parameters', each summed over the stages reading it."""
    grads = dict(grads)
    for out, names, vjp in reversed(tape):
        g = vjp(grads.pop(out))
        for name, gi in zip(names, g if isinstance(g, tuple) else (g,)):
            grads[name] = grads[name] + gi if name in grads else gi
    return grads
