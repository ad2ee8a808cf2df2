"""Dense image/tensor carrier and the bilinear sampler shared by every module.

Arrays are plain numpy ndarrays in channel-outermost (C, H, W) layout.
Computation runs in float64; file formats store float32 (see ppm/warp I/O).
Boundary policy everywhere is replicate (coordinates clamped to the frame
before corner lookup), and the subgradient at exactly-integer coordinates
uses the cell to the right/below (right-continuous convention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def check_finite(arr, what="array"):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")


@dataclass(frozen=True)
class Frame:
    """An image with values in [0, 1], stored as (C, H, W) float64."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim == 2:
            px = px[None]
        if px.ndim != 3 or px.shape[0] not in (1, 3):
            raise ValueError(f"expected (C, H, W) with C in {{1, 3}}, got {px.shape}")
        check_finite(px, "frame")
        if px.min() < 0.0 or px.max() > 1.0:
            raise ValueError("frame values must lie in [0, 1]")
        object.__setattr__(self, "pixels", px)

    @property
    def channels(self):
        return self.pixels.shape[0]

    @property
    def height(self):
        return self.pixels.shape[1]

    @property
    def width(self):
        return self.pixels.shape[2]

    @property
    def shape(self):
        return self.pixels.shape


def _corner_setup(h, w, ys, xs):
    """Clamp coordinates and return corner indices plus fractional weights."""
    yc = np.clip(ys, 0.0, h - 1.0)
    xc = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(yc).astype(np.intp)
    x0 = np.floor(xc).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = yc - y0
    fx = xc - x0
    return y0, x0, y1, x1, fy, fx


def sample_grid(image, ys, xs):
    """Bilinearly sample (C, H, W) image at arrays of (y, x) coordinates.

    Returns an array of shape (C,) + ys.shape. Coordinates outside the frame
    are clamped (replicate boundary).
    """
    image = np.asarray(image, dtype=np.float64)
    c, h, w = image.shape
    y0, x0, y1, x1, fy, fx = _corner_setup(h, w, ys, xs)
    w00 = (1.0 - fy) * (1.0 - fx)
    w01 = (1.0 - fy) * fx
    w10 = fy * (1.0 - fx)
    w11 = fy * fx
    return (w00 * image[:, y0, x0] + w01 * image[:, y0, x1]
            + w10 * image[:, y1, x0] + w11 * image[:, y1, x1])


def sample_grid_with_grad(image, ys, xs):
    """Sample and return coordinate derivatives as well.

    Returns (values, dv_dy, dv_dx), each shaped (C,) + ys.shape.
    Coordinate derivatives are zero where the raw coordinate lies outside
    [0, extent-1] (the replicate extension is constant there).
    """
    image = np.asarray(image, dtype=np.float64)
    c, h, w = image.shape
    y0, x0, y1, x1, fy, fx = _corner_setup(h, w, ys, xs)
    i00 = image[:, y0, x0]
    i01 = image[:, y0, x1]
    i10 = image[:, y1, x0]
    i11 = image[:, y1, x1]
    vals = ((1.0 - fy) * (1.0 - fx) * i00 + (1.0 - fy) * fx * i01
            + fy * (1.0 - fx) * i10 + fy * fx * i11)
    in_y = (ys >= 0.0) & (ys <= h - 1.0)
    in_x = (xs >= 0.0) & (xs <= w - 1.0)
    dv_dy = ((1.0 - fx) * (i10 - i00) + fx * (i11 - i01)) * in_y
    dv_dx = ((1.0 - fy) * (i01 - i00) + fy * (i11 - i10)) * in_x
    return vals, dv_dy, dv_dx
