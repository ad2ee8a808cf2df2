"""Computations the benchmark checks the program against.

Nothing here imports adacof: the readers, the warp and the quality metric
are written again from the file formats and the operator's definition, so
that a fault in the program cannot hide itself by also being in the check.

The warp follows the definition in PAPER.md and the adacof README: output
pixel (i, j) is the weighted sum over the F*F taps (k, l) of a bilinear
sample of the input at (i + d*k - d*(F-1)/2 + alpha, j + d*l - d*(F-1)/2 +
beta), with coordinates clamped to the frame (replicate boundary).
"""

from __future__ import annotations

import math
import struct

import numpy as np


def read_ppm(path):
    """Binary P6 with maxval 255 -> (3, H, W) float64 in [0, 1]."""
    with open(path, "rb") as f:
        data = f.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            pos = data.index(b"\n", pos) + 1
            continue
        end = pos
        while end < len(data) and not data[end:end + 1].isspace():
            end += 1
        if end == pos:
            raise ValueError(f"{path}: truncated header")
        fields.append(data[pos:end])
        pos = end
    magic, width, height, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
    pos += 1
    if magic != b"P6" or maxval != 255:
        raise ValueError(f"{path}: not a maxval-255 P6 file")
    raw = data[pos:]
    if len(raw) != width * height * 3:
        raise ValueError(f"{path}: {len(raw)} pixel bytes, expected {width * height * 3}")
    px = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)
    return px.transpose(2, 0, 1).astype(np.float64) / 255.0


def write_ppm(path, pixels):
    """(3, H, W) values in [0, 1] -> binary P6, rounding half up."""
    q = np.floor(np.clip(pixels, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    _, h, w = q.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(q.transpose(1, 2, 0).tobytes())


def read_acof(path):
    """Parameter dump -> dict with F, d, weights, alpha, beta (F*F, H, W), occ (H, W)."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"ACOF":
        raise ValueError(f"{path}: not an .acof file")
    _, fsize, dil, h, w = struct.unpack_from("<5I", data, 4)
    f2 = fsize * fsize
    payload = np.frombuffer(data, dtype="<f4", offset=24).astype(np.float64)
    if payload.size != 3 * f2 * h * w + h * w:
        raise ValueError(f"{path}: payload of {payload.size} floats does not match "
                         f"F={fsize}, {h}x{w}")
    maps = payload[:3 * f2 * h * w].reshape(3, f2, h, w)
    return {"F": fsize, "d": dil, "weights": maps[0], "alpha": maps[1],
            "beta": maps[2], "occ": payload[3 * f2 * h * w:].reshape(h, w)}


def warp_pixels(image, params, rows, cols):
    """Warped values (C, n) at output pixels (rows[n], cols[n]), one tap at a time."""
    _, h, w = image.shape
    f, d = params["F"], params["d"]
    center = d * (f - 1) / 2.0
    out = np.zeros((image.shape[0], len(rows)))
    for k in range(f):
        for l in range(f):
            t = k * f + l
            y = np.clip(rows + d * k - center + params["alpha"][t, rows, cols], 0.0, h - 1.0)
            x = np.clip(cols + d * l - center + params["beta"][t, rows, cols], 0.0, w - 1.0)
            y0 = np.floor(y).astype(int)
            x0 = np.floor(x).astype(int)
            y1 = np.minimum(y0 + 1, h - 1)
            x1 = np.minimum(x0 + 1, w - 1)
            fy = y - y0
            fx = x - x0
            sample = ((1 - fy) * (1 - fx) * image[:, y0, x0] + (1 - fy) * fx * image[:, y0, x1]
                      + fy * (1 - fx) * image[:, y1, x0] + fy * fx * image[:, y1, x1])
            out += params["weights"][t, rows, cols] * sample
    return out


def interpolate_pixels(frame0, frame1, fwd, bwd, rows, cols):
    """Occlusion-blended middle frame (C, n): v * warp(frame0) + (1 - v) * warp(frame1)."""
    v = fwd["occ"][rows, cols]
    return (v * warp_pixels(frame0, fwd, rows, cols)
            + (1 - v) * warp_pixels(frame1, bwd, rows, cols))


def psnr(a, b):
    """PSNR in dB of two images on the [0, 1] scale."""
    mse = float(np.mean((np.asarray(a) - np.asarray(b)) ** 2))
    return math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse)
