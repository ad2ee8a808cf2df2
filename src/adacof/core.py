"""Shared helpers and the one bilinear sampler of the package.

An image is a plain (C, H, W) float64 array, checked only at the PPM files
(see ppm). Computation runs in float64; .acof and .ackp files store float32.
The sampler works on any array of coordinates, such as a block of warp
taps: bilinear_corners maps (y, x) coordinates to the flat indices
y*W + x of their cell's corners, which sample_grid gathers from the image
flattened to (C, N) and interpolates; sample_grid_with_grad is its VJP
side. Every step is elementwise per coordinate. The warp, its VJPs and
the data generator all sample through these functions. process_map runs
independent tasks in forked worker processes.
Boundary policy is replicate (coordinates clamped to the frame before
corner lookup); the subgradient at exactly-integer coordinates uses the
cell to the right/below (right-continuous convention).
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

# the most samples one warp sampler call takes (a row band times a block of
# taps), and the most output pixels per band of conv3x3's forward: small
# enough that the temporaries are reused from the heap, not freshly mapped
BAND_PIXELS = 8192


# the (fn, items) of process_map, set in each worker as it starts
_TASK = None


def _set_task(fn, items):
    global _TASK
    _TASK = fn, items


def _run_task(index):
    fn, items = _TASK
    return fn(items[index])


def process_map(fn, items, workers):
    """[fn(item) for item in items], in up to `workers` forked processes.

    The workers inherit fn and items through fork: only indices go to them
    and only results come back, in item order. One worker, or a platform
    without fork, runs in-process. An exception raised by fn reaches the
    caller unchanged, the first in item order; a worker that dies raises
    ChildProcessError. Every worker is joined before this returns.
    """
    workers = min(workers, len(items))
    if workers > 1:  # imported here, so that in-process calls do not load them
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    # a forked worker gets the initializer's arguments from memory, unpickled
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_set_task, initargs=(fn, items))
    try:
        return list(pool.map(_run_task, range(len(items)),
                             chunksize=max(1, len(items) // (4 * workers))))
    except BrokenProcessPool:
        raise ChildProcessError("a worker process ended without a result") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def check_finite(arr, what="array"):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")


def config_from_dict(cls, raw, source):
    """Build dataclass cls from a dict read from outside the program. Each key
    must name a field, its value of the default's type (an int fits a float,
    a list of ints a tuple); a failure is a ValueError starting with source."""
    if not isinstance(raw, dict):
        raise ValueError(f"{source}: expected a JSON object, got {type(raw).__name__}")
    defaults = {f.name: f.default for f in fields(cls)}
    for key, value in raw.items():
        if key not in defaults:
            raise ValueError(f"{source}: unknown config key {key!r}")
        want = type(defaults[key])
        ok = {float: (int, float), tuple: (list, tuple)}.get(want, (want,))
        if type(value) not in ok or (want is tuple and any(type(v) is not int for v in value)):
            raise ValueError(f"{source}: config key {key!r} must be {want.__name__}, "
                             f"got {value!r}")
    try:
        return cls(**raw)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def bilinear_corners(h, w, ys, xs, base=0):
    """Corners of the bilinear cell around each clamped (y, x) coordinate.

    Returns (i00, i01, i10, i11, fy, fx): the flat indices base + y*w + x
    of the top-left, top-right, bottom-left and bottom-right corners, and
    the fractional position inside the cell. base offsets the indices into
    a stack of flattened h*w images.
    """
    yc = np.clip(ys, 0.0, h - 1.0)
    xc = np.clip(xs, 0.0, w - 1.0)
    # truncation is floor on the clamped, nonnegative coordinates
    y0 = yc.astype(np.intp)
    x0 = xc.astype(np.intp)
    r0 = y0 * w + base
    r1 = np.minimum(y0 + 1, h - 1) * w + base
    x1 = np.minimum(x0 + 1, w - 1)
    return r0 + x0, r0 + x1, r1 + x0, r1 + x1, yc - y0, xc - x0


def _gather(image, ys, xs):
    """The four corner values of each (y, x), gathered from the image
    flattened to (C, N) with np.take, and the cell fractions (fy, fx)."""
    image = np.asarray(image, dtype=np.float64)
    c, h, w = image.shape[0], image.shape[-2], image.shape[-1]
    # in a batch, image b starts at flat index b*h*w
    base = 0 if image.ndim == 3 else np.arange(image.shape[1]).reshape(
        (-1,) + (1,) * (np.ndim(ys) - 1)) * (h * w)
    flat = image.reshape(c, -1)
    *corners, fy, fx = bilinear_corners(h, w, ys, xs, base)
    return [np.take(flat, i, axis=1) for i in corners], fy, fx


def sample_grid(image, ys, xs):
    """Bilinearly sample an image at arrays of (y, x) coordinates.

    image is (C, H, W), giving (C,) + ys.shape; or a channel-major batch
    (C, B, H, W) with ys and xs shaped (B, ...), where ys[b] samples image
    b, giving (C, B, ...). One call evaluates a block of warp taps.
    """
    (v00, v01, v10, v11), fy, fx = _gather(image, ys, xs)
    gy, gx = 1.0 - fy, 1.0 - fx
    return gy * gx * v00 + gy * fx * v01 + fy * gx * v10 + fy * fx * v11


def sample_grid_with_grad(image, ys, xs, upstream):
    """The VJP side of sample_grid for a block of warp taps.

    upstream is shaped like sample_grid's result. Returns (value, d_dy,
    d_dx), each shaped like ys: the channel sum of upstream * sample and
    its derivatives w.r.t. the coordinates, zero where the raw coordinate
    lies outside the frame (the replicate extension is constant there).
    """
    corners, fy, fx = _gather(image, ys, xs)
    u00, u01, u10, u11 = ((upstream * v).sum(axis=0) for v in corners)
    gy, gx = 1.0 - fy, 1.0 - fx
    h, w = np.shape(image)[-2:]
    return (gy * gx * u00 + gy * fx * u01 + fy * gx * u10 + fy * fx * u11,
            np.where((ys >= 0.0) & (ys <= h - 1.0), gx * (u10 - u00) + fx * (u11 - u01), 0.0),
            np.where((xs >= 0.0) & (xs <= w - 1.0), gy * (u01 - u00) + fy * (u11 - u10), 0.0))
