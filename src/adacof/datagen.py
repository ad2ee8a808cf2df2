"""Synthetic frame-triplet generation with known motion and occlusion truth.

One motion model renders every kind. Frame t in {0, 1/2, 1} bilinearly samples
a smooth base texture turned by t·angle about the centre and shifted by t·shift
(the warp operator's sampler convention); the truth flow is that displacement
at t = 1/2. Only a rotation turns. An occluder's background holds still while a
textured square moves over it by t·displacement (flow displacement/2 on it),
and the covered/uncovered mask is exact.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import sample_grid
from .ppm import read_ppm, write_ppm
from .warp import WarpParams, load_acof, save_acof

KINDS = ("global_translation", "rotation", "occluder")
MIN_SIZE = 16  # the smallest frame side generate_triplet renders


@dataclass
class MotionSpec:
    kind: str = "global_translation"
    displacement: tuple = (0.0, 0.0)  # (dy, dx) pixels per full step
    angle_deg: float = 0.0            # read by rotation only, per full step
    occluder_size: int = 10
    occluder_pos: Optional[tuple] = None  # top-left at t=0; default centered
    texture_seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown motion kind {self.kind!r}")


@dataclass
class Triplet:
    first: np.ndarray   # (C, H, W) frames at t = 0, 1/2, 1
    middle: np.ndarray
    last: np.ndarray
    flow: Optional[np.ndarray] = None       # (2, H, W) forward offsets, half step
    occlusion: Optional[np.ndarray] = None  # (H, W) visibility truth


def smooth_texture(rng, channels, h, w):
    """Band-limited random texture in [0.05, 0.95]: three [1, 2, 1] blurs per axis."""
    tex = rng.random((channels, h, w))
    kernel = np.array([1.0, 2.0, 1.0]) / 4.0
    for _ in range(3):
        for axis in (1, 2):
            tex = (kernel[0] * np.roll(tex, 1, axis=axis) + kernel[1] * tex
                   + kernel[2] * np.roll(tex, -1, axis=axis))
    lo = tex.min(axis=(1, 2), keepdims=True)
    hi = tex.max(axis=(1, 2), keepdims=True)
    return 0.05 + 0.9 * (tex - lo) / np.maximum(hi - lo, 1e-12)


def _radius(size):
    """The farthest a pixel lies from the frame's centre: the lever arm of a turn."""
    return math.hypot(size / 2.0, size / 2.0)


def _max_displacement(spec, size):
    """A bound on how far any sampling coordinate moves over the full step:
    the shift's larger axis plus, for a rotation, the farthest pixel's arc."""
    dy, dx = spec.displacement
    turn = _radius(size) * abs(math.radians(spec.angle_deg)) if spec.kind == "rotation" else 0.0
    return max(abs(dy), abs(dx)) + turn


def generate_triplet(spec, size, seed, max_disp=3.0):
    """Render (first, middle, last) at t = 0, 1/2, 1 with ground truth, in one
    loop over t for every kind (see the module docstring)."""
    if size < MIN_SIZE:
        raise ValueError(f"size must be >= {MIN_SIZE}")
    if _max_displacement(spec, size) > max_disp:
        raise ValueError(f"motion exceeds the configured maximum {max_disp}")
    rng = np.random.default_rng((seed, spec.texture_seed))
    margin = int(math.ceil(max_disp)) + 2
    base = smooth_texture(rng, 3, size + 2 * margin, size + 2 * margin)
    grid_y, grid_x = np.indices((size, size), dtype=np.float64)
    centre = (size - 1) / 2.0
    ry, rx = grid_y - centre, grid_x - centre
    dy, dx = spec.displacement
    occluder = spec.kind == "occluder"
    angle = math.radians(spec.angle_deg) if spec.kind == "rotation" else 0.0
    sy, sx = (0.0, 0.0) if occluder else (dy, dx)
    if occluder:
        s = spec.occluder_size
        oy0, ox0 = spec.occluder_pos or ((size - s) / 2.0 - max(abs(dy), abs(dx)),) * 2
        patch = smooth_texture(rng, 3, s + 4, s + 4)

    frames, covers = [], []
    for t in (0.0, 0.5, 1.0):
        cos, sin = math.cos(t * angle), math.sin(t * angle)
        img = sample_grid(base, centre + cos * ry - sin * rx + t * sy + margin,
                          centre + sin * ry + cos * rx + t * sx + margin)
        if occluder:  # the square, its top-left at t, drawn over the background
            oy, ox = oy0 + t * dy, ox0 + t * dx
            covers.append((grid_y >= oy) & (grid_y < oy + s) & (grid_x >= ox) & (grid_x < ox + s))
            square = sample_grid(patch, grid_y - oy + 2.0, grid_x - ox + 2.0)
            img = np.where(covers[-1][None], square, img)
        if t == 0.5:  # the truth: the displacement that drew this frame
            flow = np.stack([cos * ry - sin * rx - ry + t * sy, sin * ry + cos * rx - rx + t * sx])
            if occluder:
                flow[:, covers[-1]] = [[t * dy], [t * dx]]
        frames.append(img)

    occ = np.full((size, size), 0.5)
    if occluder:
        # V = 1: background visible only in the first frame (covered at t=1),
        # V = 0: visible only in the last; everything else is unoccluded.
        c0, half, c1 = covers
        occ[~half & c1 & ~c0] = 1.0
        occ[~half & c0 & ~c1] = 0.0
    return Triplet(*frames, flow, occ)


def augment(triplet, seed, crop=None):
    """Random square crop, or with crop=None the whole frame; horizontal and
    vertical flips and temporal swap, each with p = 1/2.

    Returns the frames only: training reads no motion truth, so the
    triplet's flow and occlusion are not carried over.
    """
    rng = np.random.default_rng(seed)
    h, w = triplet.first.shape[1:]
    ch, cw = (h, w) if crop is None else (crop, crop)
    if ch > h or cw > w:
        raise ValueError(f"crop {crop} larger than frame {h}x{w}")
    y0 = int(rng.integers(0, h - ch + 1))
    x0 = int(rng.integers(0, w - cw + 1))
    frames = [f[:, y0:y0 + ch, x0:x0 + cw]
              for f in (triplet.first, triplet.middle, triplet.last)]
    for axis in (2, 1):  # horizontal, then vertical
        if rng.random() < 0.5:
            frames = [np.flip(f, axis) for f in frames]
    if rng.random() < 0.5:
        frames.reverse()
    return Triplet(*(f.copy() for f in frames))


def random_spec(rng, max_disp, size):
    """Draw a motion spec; kinds are sampled uniformly.

    Displacement magnitudes are biased to the upper half of the allowed
    range so the triplets actually exercise motion compensation (tiny
    motions make plain frame averaging near-optimal).
    """
    kind = KINDS[int(rng.integers(0, len(KINDS)))]
    mag = rng.uniform(0.5 * max_disp, max_disp)
    ang = rng.uniform(0.0, 2.0 * math.pi)
    disp = (mag * math.sin(ang), mag * math.cos(ang))
    seed = int(rng.integers(0, 2 ** 31))
    if kind == "rotation":
        max_angle = math.degrees(max_disp / _radius(size))
        angle = rng.uniform(0.5 * max_angle, max_angle) * rng.choice((-1.0, 1.0))
        return MotionSpec(kind=kind, displacement=(0.0, 0.0),
                          angle_deg=float(angle), texture_seed=seed)
    if kind == "occluder":
        return MotionSpec(kind=kind, displacement=disp,
                          occluder_size=size // 3, texture_seed=seed)
    return MotionSpec(kind=kind, displacement=disp, texture_seed=seed)


def save_triplet(dirpath, triplet):
    os.makedirs(dirpath, exist_ok=True)
    for i, frame in enumerate((triplet.first, triplet.middle, triplet.last)):
        write_ppm(os.path.join(dirpath, f"frame{i}.ppm"), frame)
    if triplet.flow is not None:  # the truth as an F=1 warp: one flow, weight 1
        flow = triplet.flow
        params = WarpParams(np.ones((1,) + flow.shape[1:]), flow[0:1], flow[1:2], kernel_size=1)
        save_acof(os.path.join(dirpath, "truth.acof"), params, triplet.occlusion)


def load_triplet(dirpath):
    frames = [read_ppm(os.path.join(dirpath, f"frame{i}.ppm")) for i in range(3)]
    sizes = [f"{h}x{w}" for h, w in (f.shape[1:] for f in frames)]
    if len(set(sizes)) > 1:
        raise ValueError(f"{dirpath}: frames are {', '.join(sizes)}; "
                         "a triplet's three frames must have one size")
    flow = occ = None
    truth_path = os.path.join(dirpath, "truth.acof")
    if os.path.exists(truth_path):
        params, occ = load_acof(truth_path)
        flow = np.concatenate([params.alpha, params.beta])
    return Triplet(frames[0], frames[1], frames[2], flow, occ)


def write_dataset(out_dir, count, size, max_disp, seed):
    """Generate a dataset directory with an index manifest."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    names = []
    for idx in range(count):
        spec = random_spec(rng, max_disp, size)
        triplet = generate_triplet(spec, size, seed=seed + idx, max_disp=max_disp)
        name = f"{idx:04d}"
        save_triplet(os.path.join(out_dir, name), triplet)
        names.append(name)
    with open(os.path.join(out_dir, "index.txt"), "w") as f:
        f.write("\n".join(names) + "\n")
    return names


def read_manifest(data_dir):
    path = os.path.join(data_dir, "index.txt")
    with open(path) as f:
        names = [line.strip() for line in f if line.strip()]
    if not names:
        raise ValueError(f"{path}: lists no triplets")
    return names
