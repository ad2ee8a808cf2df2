"""The adaptive collaboration-of-flows warp operator.

Forward evaluation, analytic vector-Jacobian products, occlusion blending,
reduced-degree-of-freedom operator modes, and the ".acof" parameter dump.
WarpMode names the paper's ablation: the full operator, its flow-only,
kernel-only, shared-weight and shift-then-kernel cases, and no occlusion.

Per output pixel (i, j) the operator sums F*F bilinear samples of the input
at (i + d*k - d*(F-1)/2 + alpha[k,l], j + d*l - d*(F-1)/2 + beta[k,l]),
combined with per-pixel convex weights. The tap grid is centered so that
zero offsets give a symmetric kernel around the output pixel. The sampler
takes the taps in blocks of at most BAND_PIXELS samples, and the sums run
one tap at a time in tap order, so no output depends on the block size.
forward_warp's row offset top lets maps for rows top..top+n alone give
those rows of the output, sampled from the whole image.
"""

from __future__ import annotations

import enum
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import (BAND_PIXELS, bilinear_corners, check_finite, sample_grid,
                   sample_grid_with_grad)

ACOF_MAGIC = b"ACOF"
ACOF_VERSION = 1

# weight-simplex validation tolerance; 1e-5 (not 1e-6) so that float32
# round-tripped dumps of exactly-normalized weights still validate
WEIGHT_ATOL = 1e-5


class WarpMode(enum.Enum):
    ADACOF = "adacof"
    FLOW_ONLY = "fb"
    KERNEL_ONLY = "kb"
    SHARED_WEIGHT = "ws"
    SDC = "sdc"
    NO_OCCLUSION = "woocc"  # adacof maps, blended with a constant 1/2 map


@dataclass
class WarpParams:
    """Per-pixel kernel weights and offset maps for one warp direction.

    weights/alpha/beta are (F*F, H, W), or (B, F*F, H, W) for a batch;
    alpha holds vertical offsets in pixels, beta horizontal ones. Weights
    must be nonnegative and sum to 1 over the tap axis at every pixel.
    """

    weights: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    kernel_size: int
    dilation: int = 0

    def __post_init__(self):
        for name in ("weights", "alpha", "beta"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))

    @property
    def height(self):
        return self.weights.shape[-2]

    @property
    def width(self):
        return self.weights.shape[-1]

    def at(self, i):
        """The maps indexed on their leading axis: sample i of a batch, or
        with i=None a batch of one."""
        return replace(self, weights=self.weights[i], alpha=self.alpha[i],
                       beta=self.beta[i])

    def validate(self):
        f2 = self.kernel_size * self.kernel_size
        if self.kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        if self.dilation < 0:
            raise ValueError("dilation must be >= 0")
        shape = self.weights.shape[:-3] + (f2, self.height, self.width)
        for name in ("weights", "alpha", "beta"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            check_finite(arr, name)
        if self.weights.min() < -WEIGHT_ATOL:
            raise ValueError("negative kernel weight")
        sums = self.weights.sum(axis=-3)
        if np.abs(sums - 1.0).max() > WEIGHT_ATOL:
            raise ValueError("kernel weights must sum to 1 at every pixel")

    def tap_grid_offsets(self):
        """Centered dilated base-grid displacement of each tap, two (F*F,) arrays."""
        f, d = self.kernel_size, self.dilation
        k, l = np.divmod(np.arange(f * f), f)
        center = d * (f - 1) / 2.0
        return d * k - center, d * l - center


def identity_params(height, width):
    """F=1 parameters that make forward_warp the identity map."""
    return WarpParams(np.ones((1, height, width)), np.zeros((1, height, width)),
                      np.zeros((1, height, width)), kernel_size=1, dilation=0)


def _tap_blocks(params, per_block, rows=slice(None), top=0):
    """Yield (taps, ys, xs): the sampling coordinates on the given rows of a
    slice of at most per_block taps, shaped (..., T, rows, W). The maps' row
    r is the image's row top + r."""
    gy, gx = params.tap_grid_offsets()
    i = np.arange(top, top + params.height, dtype=np.float64)[rows][:, None]
    j = np.arange(params.width, dtype=np.float64)
    for t in range(0, len(gy), per_block):
        taps = slice(t, t + per_block)
        yield (taps, (i + gy[taps, None, None]) + params.alpha[..., taps, rows, :],
               (j + gx[taps, None, None]) + params.beta[..., taps, rows, :])


def _as_batch(image, params, top=None):
    """(B, C, H, W) pixels and batched params, and whether the call was unbatched.

    The maps cover the image's rows top..top+height, or with top=None all of them."""
    pixels, maps = np.asarray(image, dtype=np.float64), params.weights.shape
    h = pixels.shape[-2]
    rows_fit = maps[-2] == h if top is None else 0 <= top <= h - maps[-2]
    if pixels.shape[:-3] + pixels.shape[-1:] != maps[:-3] + maps[-1:] or not rows_fit:
        at = "" if top is None else f" from row {top}"
        raise ValueError(f"image {pixels.shape} does not match params maps {maps}{at}")
    return (pixels[None], params.at(None), True) if pixels.ndim == 3 else (pixels, params, False)


def forward_warp(image, params, threads=1, validate=True, top=0):
    """Warp a (C, H, W) image by (F*F, H, W) maps, or a
    (B, C, H, W) batch by (B, F*F, H, W) maps, bit-identical per sample.

    Output pixels are convex sums of bilinear samples over row slices of up
    to BAND_PIXELS pixels (one row at least), whatever the thread count;
    threads only spread the slices. Each slice samples a block of taps per
    call, at most BAND_PIXELS samples, then adds the taps in tap order;
    every operation is elementwise per pixel, so any thread count or block
    size gives the same bits. validate=False skips the weight-simplex check
    (finite-difference probing evaluates slightly off the simplex).

    Maps n rows high give the output rows top..top+n of the whole warp:
    the taps sample the whole image, and each output row equals that row
    of the warp by the whole-frame maps.
    """
    if validate:
        params.validate()
    pixels, params, single = _as_batch(image, params, top)
    b, (h, w) = len(pixels), params.weights.shape[-2:]  # the output rows: the maps'
    src = np.ascontiguousarray(pixels.transpose(1, 0, 2, 3))  # (C, B, H, W)

    def band(rows):
        out = 0.0
        for taps, ys, xs in _tap_blocks(params, per_block, rows, top):
            block = params.weights[:, taps, rows] * sample_grid(src, ys, xs)
            for k in range(block.shape[2]):
                out += block[:, :, k]
        return out

    rows_per = max(1, min(BAND_PIXELS // (b * w), h))
    per_block = max(1, BAND_PIXELS // (b * rows_per * w))
    slices = [slice(r, r + rows_per) for r in range(0, h, rows_per)]
    if threads > 1 and len(slices) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(slices))) as pool:
            parts = list(pool.map(band, slices))
    else:
        parts = [band(rows) for rows in slices]
    out = np.concatenate(parts, axis=2)
    return out[:, 0] if single else np.ascontiguousarray(out.transpose(1, 0, 2, 3))


def backward_warp_vjp(image, params, upstream):
    """VJP of forward_warp w.r.t. the maps: (grad_weights, grad_alpha, grad_beta).

    The corners are recomputed from params by core.sample_grid_with_grad,
    a block of taps over the whole frame per call, at most BAND_PIXELS
    samples. The image gradient, which training never needs, is
    backward_warp_image_vjp.
    """
    params.validate()
    pixels, params, single = _as_batch(image, params)
    src = np.ascontiguousarray(pixels.transpose(1, 0, 2, 3))
    up = np.ascontiguousarray(np.reshape(upstream, pixels.shape).transpose(1, 0, 2, 3))
    grads = [np.empty_like(params.weights) for _ in range(3)]
    per_block = max(1, BAND_PIXELS // params.weights[:, 0].size)
    for taps, ys, xs in _tap_blocks(params, per_block):
        grads[0][:, taps], d_dy, d_dx = sample_grid_with_grad(src, ys, xs, up[:, :, None])
        grads[1][:, taps] = params.weights[:, taps] * d_dy
        grads[2][:, taps] = params.weights[:, taps] * d_dx
    return tuple(g[0] for g in grads) if single else tuple(grads)


def backward_warp_image_vjp(params, upstream):
    """VJP of forward_warp w.r.t. the image, shaped like upstream.

    All taps, corners and channels scatter in one bincount over flat
    indices offset by (b*C + c)*H*W, listed one tap at a time (blocks of
    one), since bincount sums each bin's entries in list order.
    """
    params.validate()
    up, params, single = _as_batch(upstream, params)
    b, c, h, w = up.shape
    offsets = (np.arange(b * c) * (h * w)).reshape(b, c, 1, 1)
    idx, vals = [], []
    for taps, ys, xs in _tap_blocks(params, 1):  # (B, 1, H, W) broadcasts over C
        i00, i01, i10, i11, fy, fx = bilinear_corners(h, w, ys, xs)
        gy, gx = 1.0 - fy, 1.0 - fx
        for i, coeff in ((i00, gy * gx), (i01, gy * fx), (i10, fy * gx), (i11, fy * fx)):
            idx.append((offsets + i).ravel())
            vals.append((params.weights[:, taps] * coeff * up).ravel())
    grad = np.bincount(np.concatenate(idx), np.concatenate(vals), b * c * h * w)
    return grad.reshape(up.shape)[0] if single else grad.reshape(up.shape)


def occlusion_blend(fwd, bwd, v):
    """Blend the two warped frames with the per-pixel visibility map v.

    out = v * fwd + (1 - v) * bwd. Frames are (C, H, W) with an (H, W) map,
    or (B, C, H, W) with a (B, H, W) map.
    """
    fwd, bwd = np.asarray(fwd, dtype=np.float64), np.asarray(bwd, dtype=np.float64)
    if fwd.shape != bwd.shape:
        raise ValueError(f"shape mismatch: {fwd.shape} vs {bwd.shape}")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != fwd.shape[:-3] + fwd.shape[-2:]:
        raise ValueError(f"occlusion map {v.shape} does not match frame {fwd.shape}")
    if not (v.min() >= 0.0 and v.max() <= 1.0):  # also rejects NaN
        raise ValueError("occlusion map values must lie in [0, 1]")
    v = v[..., None, :, :]
    return v * fwd + (1.0 - v) * bwd


def occlusion_blend_vjp(fwd, bwd, v, upstream):
    """VJP of occlusion_blend; grad_v sums over channels (one shared map)."""
    fwd, bwd = np.asarray(fwd, dtype=np.float64), np.asarray(bwd, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)[..., None, :, :]
    grad_fwd = v * upstream
    grad_bwd = (1.0 - v) * upstream
    grad_v = ((fwd - bwd) * upstream).sum(axis=-3)
    return grad_fwd, grad_bwd, grad_v


def project_mode(mode, weights, alpha, beta):
    """Constrain raw parameter maps to a mode's structure, with a VJP.

    The maps are (F*F, H, W), or (B, F*F, H, W) for a batch, and keep their
    shapes so everything still evaluates through forward_warp. 'fb' maps
    pass through: its single tap is ModelConfig's F=1, d=0; 'woocc' differs
    only in synthesize's blend. Returns ((weights, alpha, beta), vjp). Each
    mode is an orthogonal projection (identity, zero offsets, or a mean
    broadcast back), linear and self-adjoint, so the vjp is the projection.
    """
    mode = WarpMode(mode)

    def mean(arr, axis):  # broadcast back to the full shape
        return np.broadcast_to(arr.mean(axis=axis, keepdims=True), arr.shape).copy()

    def project(w, a, b):
        if mode is WarpMode.KERNEL_ONLY:
            return w, np.zeros_like(a), np.zeros_like(b)
        if mode is WarpMode.SHARED_WEIGHT:  # one weight vector: the spatial mean, a simplex point
            return mean(w, (-2, -1)), a, b
        if mode is WarpMode.SDC:  # one flow per pixel, the tap mean, shared by every tap
            return w, mean(a, -3), mean(b, -3)
        return w, a, b

    return project(weights, alpha, beta), project


def save_acof(path, params, occlusion=None):
    """Write the binary parameter dump (little-endian float32 payload)."""
    params.validate()
    h, w = params.height, params.width
    if occlusion is None:
        occlusion = np.full((h, w), 0.5)
    with open(path, "wb") as f:
        f.write(ACOF_MAGIC)
        f.write(struct.pack("<5I", ACOF_VERSION, params.kernel_size,
                            params.dilation, h, w))
        for arr in (params.weights, params.alpha, params.beta, occlusion):
            f.write(np.asarray(arr, dtype="<f4").tobytes())


def load_acof(path):
    """Read a parameter dump; returns (WarpParams, occlusion map)."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != ACOF_MAGIC:
        raise ValueError(f"{path}: not an .acof file")
    offset = 4 + struct.calcsize("<5I")
    if len(data) < offset:
        raise ValueError(f"{path}: {len(data)} bytes, shorter than the {offset}-byte header")
    version, fsize, dil, h, w = struct.unpack_from("<5I", data, 4)
    if version != ACOF_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    if min(fsize, h, w) < 1:
        raise ValueError(f"{path}: header declares F={fsize} at {h}x{w}; "
                         "F and both sides must be at least 1")
    f2 = fsize * fsize
    expected = offset + 4 * (3 * f2 + 1) * h * w
    if len(data) != expected:
        raise ValueError(f"{path}: header declares F={fsize} at {h}x{w}, "
                         f"{expected} bytes in all, but the file has {len(data)} bytes")
    payload = np.frombuffer(data, dtype="<f4", offset=offset).astype(np.float64)
    weights, alpha, beta = payload[:3 * f2 * h * w].reshape(3, f2, h, w)
    params = WarpParams(weights, alpha, beta, kernel_size=fsize, dilation=dil)
    try:
        params.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    occ = payload[3 * f2 * h * w:].reshape(h, w)
    if not (occ.min() >= 0.0 and occ.max() <= 1.0):  # also rejects NaN
        raise ValueError(f"{path}: occlusion map spans [{occ.min():g}, {occ.max():g}], "
                         "outside [0, 1]")
    return params, occ
