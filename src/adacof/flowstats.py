"""Flow statistics and visualizations derived from warp parameters.

Mean flow is the per-pixel weighted mean of the learned offsets; variance
flow is the weighted per-component variance around it. Rendering follows
the usual color-wheel convention for flow (hue = direction, saturation =
magnitude) and a blue/green/red ramp for the occlusion map.
"""

from __future__ import annotations

import numpy as np


def mean_flow(params, include_grid=False):
    """Weighted mean offset per pixel, shape (2, H, W) as (dy, dx).

    By default only the learned offsets enter the mean; include_grid adds
    the centered dilated tap-grid displacement, giving total displacement
    (an optical-flow-like map).
    """
    params.validate()
    ay, bx = params.alpha, params.beta
    if include_grid:
        gy, gx = params.tap_grid_offsets()
        ay = ay + gy[:, None, None]
        bx = bx + gx[:, None, None]
    fy = np.einsum("tij,tij->ij", params.weights, ay)
    fx = np.einsum("tij,tij->ij", params.weights, bx)
    return np.stack([fy, fx])


def variance_flow(params):
    """Weighted per-component offset variance plus its scalar trace map.

    Returns (var, trace) with var shaped (2, H, W) and trace (H, W); both
    are clipped at zero to absorb rounding in the weighted sums.
    """
    params.validate()
    mean = mean_flow(params)
    dy = params.alpha - mean[0][None]
    dx = params.beta - mean[1][None]
    vy = np.einsum("tij,tij->ij", params.weights, dy * dy)
    vx = np.einsum("tij,tij->ij", params.weights, dx * dx)
    var = np.maximum(np.stack([vy, vx]), 0.0)
    return var, var.sum(axis=0)


def _hsv_to_rgb(h, s, v):
    """Vectorized HSV -> RGB, all components in [0, 1]."""
    i = np.floor(h * 6.0).astype(int) % 6
    f = h * 6.0 - np.floor(h * 6.0)
    p = v * (1.0 - s)
    q = v * (1.0 - f * s)
    t = v * (1.0 - (1.0 - f) * s)
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b])


def render_flow(flow):
    """Color-wheel rendering of a (2, H, W) flow field as a (3, H, W) image.

    Hue encodes direction, saturation encodes magnitude normalized by the
    99th-percentile magnitude (zero flow renders white).
    """
    flow = np.asarray(flow, dtype=np.float64)
    mag = np.hypot(flow[0], flow[1])
    scale = np.percentile(mag, 99.0)
    if scale <= 0.0:
        scale = 1.0
    sat = np.clip(mag / scale, 0.0, 1.0)
    hue = (np.arctan2(-flow[0], flow[1]) / (2.0 * np.pi)) % 1.0
    return _hsv_to_rgb(hue, sat, np.ones_like(sat))


def render_occlusion(v):
    """Render an occlusion map: V=1 red, V=0.5 green, V=0 blue."""
    v = np.asarray(v, dtype=np.float64)
    r = np.clip(2.0 * v - 1.0, 0.0, 1.0)
    g = 1.0 - np.abs(2.0 * v - 1.0)
    b = np.clip(1.0 - 2.0 * v, 0.0, 1.0)
    return np.stack([r, g, b])
