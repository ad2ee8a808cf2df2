"""Binary PPM (P6) reader and writer, maxval 255.

Values map linearly between [0, 1] and [0, 255] with round-half-up, so any
value already on the 1/255 grid round-trips bit-exactly. Both functions
check the image they pass and name the file in any ValueError.
"""

from __future__ import annotations

import re

import numpy as np

from .core import check_finite


def _quantize(values):
    # round half up, as floor(x*255 + 0.5)
    return np.floor(np.clip(values, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


# P6, width, height and maxval (at most 10 digits each, inside int()'s digit
# limit) after whitespace or '#' comments, one whitespace byte
_SEP = rb"(?:\s|#[^\n]*\n)+"
_HEADER = re.compile(rb"P6" + (_SEP + rb"(\d{1,10})") * 3 + rb"\s")


def _read_header(data, path):
    if not data.startswith(b"P6"):
        raise ValueError(f"{path}: not a binary PPM (P6) file, it starts with {data[:2]!r}")
    m = _HEADER.match(data)
    if m is None:
        raise ValueError(f"{path}: P6 header is cut short or malformed: it must give width, "
                         "height and maxval, each of 1-10 digits after whitespace")
    width, height, maxval = (int(n) for n in m.groups())
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    if width == 0 or height == 0:
        raise ValueError(f"{path}: header declares a {width}x{height} image; "
                         "both sides must be at least 1")
    return width, height, m.end()


def write_ppm(path, image):
    """Write an (H, W) or (C, H, W) image, C in {1, 3}, as binary P6: one
    channel is replicated to three, values are clipped to [0, 1]."""
    px = np.asarray(image, dtype=np.float64)
    if px.ndim == 2:
        px = px[None]
    if px.ndim != 3 or px.shape[0] not in (1, 3) or px.size == 0:
        raise ValueError(f"{path}: expected an (H, W) or (C, H, W) image with C in "
                         f"{{1, 3}} and both sides at least 1, got shape {px.shape}")
    check_finite(px, f"{path}: image")
    _, h, w = px.shape
    raw = _quantize(np.broadcast_to(px, (3, h, w))).transpose(1, 2, 0).tobytes()
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(raw)


def read_ppm(path):
    """The (3, H, W) float64 image of a P6 file, values in [0, 1]."""
    with open(path, "rb") as f:
        data = f.read()
    width, height, pos = _read_header(data, path)
    size = width * height * 3
    if len(data) - pos < size:
        raise ValueError(f"{path}: header declares {width}x{height} pixels "
                         f"({size} bytes) but only {len(data) - pos} bytes follow it")
    if len(data) - pos > size:
        raise ValueError(f"{path}: {len(data) - pos - size} bytes follow the "
                         f"{width}x{height} pixel data")
    raw = np.frombuffer(data, dtype=np.uint8, count=size, offset=pos)
    return raw.reshape(height, width, 3).transpose(2, 0, 1).astype(np.float64) / 255.0
