"""The adaptive collaboration-of-flows warp operator.

Forward evaluation, analytic vector-Jacobian products, occlusion blending,
reduced-degree-of-freedom operator modes, and the ".acof" parameter dump.

Per output pixel (i, j) the operator sums F*F bilinear samples of the input
at (i + d*k - d*(F-1)/2 + alpha[k,l], j + d*l - d*(F-1)/2 + beta[k,l]),
combined with per-pixel convex weights. The tap grid is centered so that
zero offsets give a symmetric kernel around the output pixel.
"""

from __future__ import annotations

import enum
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import Frame, _corner_setup, check_finite, sample_grid, sample_grid_with_grad

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


@dataclass
class WarpParams:
    """Per-pixel kernel weights and offset maps for one warp direction.

    weights/alpha/beta are (F*F, H, W); alpha holds vertical offsets in
    pixels, beta horizontal ones. Weights must be nonnegative and sum to 1
    over the tap axis at every pixel.
    """

    weights: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    kernel_size: int
    dilation: int = 0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)

    @property
    def height(self):
        return self.weights.shape[1]

    @property
    def width(self):
        return self.weights.shape[2]

    def validate(self):
        f2 = self.kernel_size * self.kernel_size
        if self.kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        if self.dilation < 0:
            raise ValueError("dilation must be >= 0")
        shape = (f2, self.height, self.width)
        for name in ("weights", "alpha", "beta"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            check_finite(arr, name)
        if self.weights.min() < -WEIGHT_ATOL:
            raise ValueError("negative kernel weight")
        sums = self.weights.sum(axis=0)
        if np.abs(sums - 1.0).max() > WEIGHT_ATOL:
            raise ValueError("kernel weights must sum to 1 at every pixel")

    def tap_grid_offsets(self):
        """Centered dilated base-grid displacement of each tap, two (F*F,) arrays."""
        f, d = self.kernel_size, self.dilation
        k = np.arange(f * f) // f
        l = np.arange(f * f) % f
        center = d * (f - 1) / 2.0
        return d * k - center, d * l - center


def identity_params(height, width):
    """F=1 parameters that make forward_warp the identity map."""
    return WarpParams(np.ones((1, height, width)), np.zeros((1, height, width)),
                      np.zeros((1, height, width)), kernel_size=1, dilation=0)


def _as_pixels(image):
    if isinstance(image, Frame):
        return image.pixels
    return np.asarray(image, dtype=np.float64)


def _sample_coords(params, rows=None):
    """(ys, xs) sampling coordinates, each (F*F, R, W)."""
    h, w = params.height, params.width
    gy, gx = params.tap_grid_offsets()
    rows = slice(None) if rows is None else rows
    i = np.arange(h, dtype=np.float64)[rows][None, :, None]
    j = np.arange(w, dtype=np.float64)[None, None, :]
    ys = i + gy[:, None, None] + params.alpha[:, rows, :]
    xs = j + gx[:, None, None] + params.beta[:, rows, :]
    return ys, xs


def forward_warp(image, params, threads=1, validate=True):
    """Warp a (C, H, W) image (or Frame) by the given parameters.

    Output pixels are convex combinations of bilinear samples, so values
    stay within the input's range. Row bands are independent, which makes
    the multithreaded result bit-identical to the serial one. validate=False
    skips the weight-simplex check (finite-difference probing needs to
    evaluate slightly off the simplex).
    """
    pixels = _as_pixels(image)
    if validate:
        params.validate()
    c, h, w = pixels.shape
    if (h, w) != (params.height, params.width):
        raise ValueError(f"image is {h}x{w} but params are "
                         f"{params.height}x{params.width}")

    def band(rows):
        ys, xs = _sample_coords(params, rows)
        samples = sample_grid(pixels, ys, xs)
        return np.einsum("tij,ctij->cij", params.weights[:, rows, :], samples)

    if threads <= 1 or h < 2 * threads:
        return band(slice(None))
    bounds = np.linspace(0, h, threads + 1, dtype=int)
    slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with ThreadPoolExecutor(max_workers=len(slices)) as pool:
        parts = list(pool.map(band, slices))
    return np.concatenate(parts, axis=1)


def backward_warp_vjp(image, params, upstream):
    """VJP of forward_warp w.r.t. the image and all three parameter maps.

    Returns (grad_image, grad_weights, grad_alpha, grad_beta).
    """
    pixels = _as_pixels(image)
    params.validate()
    upstream = np.asarray(upstream, dtype=np.float64)
    c, h, w = pixels.shape
    ys, xs = _sample_coords(params)
    samples, ds_dy, ds_dx = sample_grid_with_grad(pixels, ys, xs)  # (C,F2,H,W)

    grad_weights = np.einsum("cij,ctij->tij", upstream, samples)
    grad_alpha = params.weights * np.einsum("cij,ctij->tij", upstream, ds_dy)
    grad_beta = params.weights * np.einsum("cij,ctij->tij", upstream, ds_dx)

    # scatter into the input image: 4 corners per tap, one bincount per channel
    y0, x0, y1, x1, fy, fx = _corner_setup(h, w, ys, xs)
    idx = np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1]).ravel()
    coeff = np.stack([(1.0 - fy) * (1.0 - fx), (1.0 - fy) * fx,
                      fy * (1.0 - fx), fy * fx])
    coeff = coeff * params.weights[None]  # (4, F2, H, W)
    grad_image = np.empty_like(pixels)
    for ch in range(c):
        vals = (coeff * upstream[ch][None, None]).ravel()
        grad_image[ch] = np.bincount(idx, weights=vals, minlength=h * w).reshape(h, w)
    return grad_image, grad_weights, grad_alpha, grad_beta


def occlusion_blend(fwd, bwd, v, enabled=True):
    """Blend the two warped frames with the per-pixel visibility map v.

    out = v * fwd + (1 - v) * bwd; with blending disabled the plain average
    (fwd + bwd) / 2 is returned regardless of v.
    """
    fwd = _as_pixels(fwd)
    bwd = _as_pixels(bwd)
    if fwd.shape != bwd.shape:
        raise ValueError(f"shape mismatch: {fwd.shape} vs {bwd.shape}")
    if not enabled:
        return 0.5 * (fwd + bwd)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != fwd.shape[1:]:
        raise ValueError(f"occlusion map {v.shape} does not match frame {fwd.shape}")
    if v.min() < 0.0 or v.max() > 1.0:
        raise ValueError("occlusion map values must lie in [0, 1]")
    return v[None] * fwd + (1.0 - v[None]) * bwd


def occlusion_blend_vjp(fwd, bwd, v, upstream, enabled=True):
    """VJP of occlusion_blend; grad_v sums over channels (one shared map)."""
    fwd = _as_pixels(fwd)
    bwd = _as_pixels(bwd)
    upstream = np.asarray(upstream, dtype=np.float64)
    if not enabled:
        half = 0.5 * upstream
        return half, half.copy(), np.zeros(fwd.shape[1:])
    v = np.asarray(v, dtype=np.float64)
    grad_fwd = v[None] * upstream
    grad_bwd = (1.0 - v[None]) * upstream
    grad_v = ((fwd - bwd) * upstream).sum(axis=0)
    return grad_fwd, grad_bwd, grad_v


def project_mode(mode, weights, alpha, beta):
    """Constrain raw parameter maps to a mode's structure, with a VJP.

    Returns ((weights, alpha, beta), vjp) where vjp maps gradients on the
    constrained maps back onto the raw maps. The maps are (F*F, H, W), or
    (B, F*F, H, W) for a batch. All modes keep the full-map shapes so
    everything still evaluates through forward_warp.
    """
    n = weights.shape[-3]
    hw = weights.shape[-2] * weights.shape[-1]
    if mode in (WarpMode.ADACOF, WarpMode.FLOW_ONLY):
        return (weights, alpha, beta), lambda gw, ga, gb: (gw, ga, gb)
    if mode is WarpMode.KERNEL_ONLY:
        zero = np.zeros_like(alpha)
        return ((weights, zero, zero.copy()),
                lambda gw, ga, gb: (gw, np.zeros_like(ga), np.zeros_like(gb)))
    if mode is WarpMode.SHARED_WEIGHT:
        # one weight vector for the whole image: spatial mean of the
        # per-pixel simplex points (still on the simplex), broadcast back
        shared = weights.mean(axis=(-2, -1), keepdims=True)
        w_out = np.broadcast_to(shared, weights.shape).copy()

        def vjp(gw, ga, gb):
            gw_raw = np.broadcast_to(gw.sum(axis=(-2, -1), keepdims=True) / hw,
                                     weights.shape).copy()
            return gw_raw, ga, gb

        return (w_out, alpha, beta), vjp
    if mode is WarpMode.SDC:
        # a single flow vector per pixel (tap-mean of the raw offsets)
        # shared by every tap of the rigid dilated kernel
        a_out = np.broadcast_to(alpha.mean(axis=-3, keepdims=True), alpha.shape).copy()
        b_out = np.broadcast_to(beta.mean(axis=-3, keepdims=True), beta.shape).copy()

        def vjp(gw, ga, gb):
            ga_raw = np.broadcast_to(ga.sum(axis=-3, keepdims=True) / n, alpha.shape).copy()
            gb_raw = np.broadcast_to(gb.sum(axis=-3, keepdims=True) / n, beta.shape).copy()
            return gw, ga_raw, gb_raw

        return (weights, a_out, b_out), vjp
    raise ValueError(f"unknown warp mode {mode!r}")


def make_mode_params(mode, *, weights=None, alpha=None, beta=None, flow=None,
                     kernel_size=None, dilation=0):
    """Build WarpParams satisfying a mode's structural constraint.

    flow_only takes a (2, H, W) flow; sdc takes a flow plus an (F*F, H, W)
    weight map; shared_weight accepts either an (F*F,) vector or a full map
    (which is spatially averaged); kernel_only zeroes the offsets.
    """
    if mode is WarpMode.FLOW_ONLY:
        if flow is None:
            raise ValueError("flow_only mode needs a (2, H, W) flow")
        flow = np.asarray(flow, dtype=np.float64)
        _, h, w = flow.shape
        return WarpParams(np.ones((1, h, w)), flow[0:1].copy(), flow[1:2].copy(),
                          kernel_size=1, dilation=0)
    if mode is WarpMode.SDC:
        if flow is None or weights is None:
            raise ValueError("sdc mode needs flow and weights")
        flow = np.asarray(flow, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        f = kernel_size or int(round(np.sqrt(weights.shape[0])))
        alpha = np.broadcast_to(flow[0:1], weights.shape).copy()
        beta = np.broadcast_to(flow[1:2], weights.shape).copy()
        return WarpParams(weights.copy(), alpha, beta, kernel_size=f,
                          dilation=dilation)
    if weights is None:
        raise ValueError(f"{mode.value} mode needs a weight map")
    weights = np.asarray(weights, dtype=np.float64)
    f = kernel_size or int(round(np.sqrt(weights.shape[0])))
    if mode is WarpMode.SHARED_WEIGHT and weights.ndim == 1:
        h, w = np.asarray(alpha).shape[1:]
        weights = np.broadcast_to(weights[:, None, None], (f * f, h, w)).copy()
    if alpha is None:
        alpha = np.zeros_like(weights)
        beta = np.zeros_like(weights)
    (w_out, a_out, b_out), _ = project_mode(mode, weights,
                                            np.asarray(alpha, dtype=np.float64),
                                            np.asarray(beta, dtype=np.float64))
    return WarpParams(w_out, a_out, b_out, kernel_size=f, dilation=dilation)


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
    version, fsize, dil, h, w = struct.unpack_from("<5I", data, 4)
    if version != ACOF_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    f2 = fsize * fsize
    counts = [f2 * h * w] * 3 + [h * w]
    offset = 24
    arrays = []
    for n in counts:
        arrays.append(np.frombuffer(data, dtype="<f4", count=n,
                                    offset=offset).astype(np.float64))
        offset += 4 * n
    weights, alpha, beta, occ = arrays
    params = WarpParams(weights.reshape(f2, h, w), alpha.reshape(f2, h, w),
                        beta.reshape(f2, h, w), kernel_size=fsize, dilation=dil)
    params.validate()
    return params, occ.reshape(h, w)
