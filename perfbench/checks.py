"""Checks of the program's outputs against the computations in reference.py.

Each check raises CheckFailed with a message naming the file and the
quantity that disagreed. They all run outside the timed section.
"""

from __future__ import annotations

import math
import os

import numpy as np

import reference

# Output PPMs are quantised to 1/255 with round-half-up: at most half a level off.
QUANT_TOL = 0.5 / 255.0
# The .acof dump holds float32 copies of float64 maps. Rounding the weights,
# offsets and occlusion map to float32 moves a convex sum of values in [0, 1]
# by about 1e-6 at most; 1e-5 leaves a tenfold margin.
DUMP_TOL = 1e-5
# Per-triplet PSNR printed with 6 significant digits, recomputed from dumped
# float32 maps: a few 1e-4 dB apart at most.
PSNR_TOL_DB = 0.01


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def bwd_dump_path(dump):
    root, ext = os.path.splitext(dump)
    return f"{root}.bwd{ext}"


def sample_pixels(h, w, n, rng):
    """n seeded pixel positions plus the four corners, where the clamp matters most."""
    rows = np.concatenate([rng.integers(0, h, n), [0, 0, h - 1, h - 1]])
    cols = np.concatenate([rng.integers(0, w, n), [0, w - 1, 0, w - 1]])
    return rows, cols


def check_interp_output(frame0, frame1, out, dump, rows, cols):
    """The interpolated PPM matches the reference warp of its dumped parameters.

    The output must have the input's size, and at each sampled pixel lie
    within quantisation plus dump rounding of the reference blend.
    """
    f0 = reference.read_ppm(frame0)
    f1 = reference.read_ppm(frame1)
    result = reference.read_ppm(out)
    if result.shape != f0.shape:
        raise CheckFailed(f"{out}: output is {result.shape[1]}x{result.shape[2]}, "
                          f"input is {f0.shape[1]}x{f0.shape[2]}")
    fwd = reference.read_acof(dump)
    bwd = reference.read_acof(bwd_dump_path(dump))
    expected = reference.interpolate_pixels(f0, f1, fwd, bwd, rows, cols)
    err = np.abs(expected - result[:, rows, cols])
    if err.max() > QUANT_TOL + DUMP_TOL:
        c, i = np.unravel_index(int(err.argmax()), err.shape)
        raise CheckFailed(f"{out}: pixel ({rows[i]}, {cols[i]}) channel {c} is "
                          f"{result[c, rows[i], cols[i]]:.6f}, reference "
                          f"{expected[c, i]:.6f}")


def check_same_bytes(path_a, path_b, what):
    with open(path_a, "rb") as a, open(path_b, "rb") as b:
        if a.read() != b.read():
            raise CheckFailed(f"{what}: {path_a} and {path_b} differ")


def parse_eval_report(text):
    """`adacof eval` stdout -> ({name: psnr}, mean psnr)."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "name,psnr_db,ssim,ie":
        raise CheckFailed(f"eval report has no header: {text[:80]!r}")
    rows = {}
    mean = None
    for line in lines[1:]:
        name, psnr_db, _, _ = line.split(",")
        if name == "mean":
            mean = float(psnr_db)
        else:
            rows[name] = float(psnr_db)
    if mean is None:
        raise CheckFailed("eval report has no mean row")
    return rows, mean


def check_eval_report(text, names):
    """Every triplet appears once, in manifest order, and the mean row is their mean."""
    rows, mean = parse_eval_report(text)
    if list(rows) != list(names):
        raise CheckFailed(f"eval rows {list(rows)[:4]}... do not follow the manifest")
    expected = float(np.mean([min(p, 100.0) for p in rows.values()]))
    if abs(mean - expected) > PSNR_TOL_DB:
        raise CheckFailed(f"eval mean row {mean} is not the mean {expected:.6g} of its rows")
    return rows, mean


def check_triplet_psnr(reported, triplet_dir, dump):
    """A reported per-triplet PSNR matches PSNR of the reference interpolation."""
    f0, mid, f1 = (reference.read_ppm(os.path.join(triplet_dir, f"frame{i}.ppm"))
                   for i in range(3))
    _, h, w = f0.shape
    rows, cols = (a.ravel() for a in np.mgrid[0:h, 0:w])
    fwd = reference.read_acof(dump)
    bwd = reference.read_acof(bwd_dump_path(dump))
    expected = reference.psnr(reference.interpolate_pixels(f0, f1, fwd, bwd, rows, cols),
                              mid[:, rows, cols])
    if not abs(reported - expected) <= PSNR_TOL_DB:
        raise CheckFailed(f"{triplet_dir}: eval reported {reported} dB, "
                          f"reference gives {expected:.6g} dB")


def frame_average_psnr(triplet_dirs):
    """Mean PSNR of (first + last) / 2 against the middle frame."""
    psnrs = []
    for d in triplet_dirs:
        f0, mid, f1 = (reference.read_ppm(os.path.join(d, f"frame{i}.ppm")) for i in range(3))
        psnrs.append(min(reference.psnr(0.5 * (f0 + f1), mid), 100.0))
    return float(np.mean(psnrs))


def check_training(final_line, metrics_csv, baseline_db):
    """Training beat frame averaging on its validation split, and its loss fell.

    Returns the final validation PSNR from the `final,` line.
    """
    fields = final_line.split(",")
    if len(fields) != 4 or fields[0] != "final":
        raise CheckFailed(f"train printed {final_line!r}, expected final,loss,psnr,ssim")
    final_psnr = float(fields[2])
    if not math.isfinite(final_psnr):
        raise CheckFailed(f"final validation PSNR is {final_psnr}")
    if not final_psnr > baseline_db:
        raise CheckFailed(f"final validation PSNR {final_psnr} dB does not beat frame "
                          f"averaging at {baseline_db:.4f} dB")
    with open(metrics_csv) as f:
        losses = [float(line.split(",")[2]) for line in f.read().splitlines()[1:]]
    if len(losses) < 2 or not losses[-1] < losses[0]:
        raise CheckFailed(f"{metrics_csv}: loss went from {losses[0] if losses else None} "
                          f"to {losses[-1] if losses else None}")
    return final_psnr
