"""Scaled-down trainable network emitting the warp parameter groups.

An encoder-decoder with skip connections (3x3 conv + ReLU units, average
pooling down, bilinear interpolation up) feeds one head convolution whose
output channels split into seven groups: kernel weights, vertical and
horizontal offsets for each warp direction, and the occlusion map. Weight
groups go through a per-pixel softmax over the tap axis, the occlusion
group through a sigmoid, offset groups are left unconstrained. The head is
zero-initialized so an untrained model emits uniform weights, zero
offsets, and a 0.5 occlusion map. The network is one nn stage list,
unet_stages, from which the executor, param_shapes and the init all work.
The head conv's raw output, and its gradient, are all that pass between
the network and synthesize, which alone splits and activates it.

ModelConfig describes the whole model, its warp mode included; a checkpoint's
config block is the ModelConfig, so a loaded model warps as it was trained.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .core import config_from_dict
from .warp import (WarpMode, WarpParams, backward_warp_vjp, forward_warp, occlusion_blend,
                   occlusion_blend_vjp, project_mode)

CKPT_MAGIC = b"ACKP"
CKPT_VERSION = 3


@dataclass
class ModelConfig:
    kernel_size: int = 5
    dilation: int = 1
    depth: int = 3
    widths: tuple = (16, 32, 64)
    seed: int = 0
    warp_mode: str = "adacof"  # a WarpMode value

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        modes = [m.value for m in WarpMode]
        if self.warp_mode not in modes:
            raise ValueError(f"warp_mode must be one of {', '.join(modes)}, "
                             f"got {self.warp_mode!r}")
        if self.warp_mode == WarpMode.FLOW_ONLY.value:  # one flow: a single tap
            self.kernel_size, self.dilation = 1, 0
        if self.depth < 1 or len(self.widths) != self.depth or min(self.widths) <= 0:
            raise ValueError(f"widths must be one positive width per encoder level "
                             f"(depth {self.depth}), got {list(self.widths)}")
        for key, low in (("kernel_size", 1), ("dilation", 0), ("seed", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)!r}")

    @property
    def head_sizes(self):
        """Channels of each head group, in HEAD_NAMES order."""
        return [1 if name == "occ" else self.kernel_size ** 2 for name in HEAD_NAMES]


# the head convolution's channel groups, stacked in this (sorted) order
HEAD_NAMES = ("alpha_b", "alpha_f", "beta_b", "beta_f", "occ", "weight_b", "weight_f")

IN_CHANNELS = 6  # the first frame's RGB, then the last frame's
# channels appended by the motion frontend: temporal difference, two
# spatial gradients, and the two components of the local least-squares flow
MOTION_FEATURES = 5
MAX_FLOW = 3.0  # bound on the least-squares flow feature, in pixels


def _box5(img):
    """5x5 box sum of a (B, H, W) map with replicate padding.

    Separable: each padded row is summed over five shifted column slabs,
    then five shifted rows of those sums are added. Both sums run left to
    right, window row outer and window column inner, which is the order in
    which numpy reduces a sliding_window_view(padded, (5, 5)) over its last
    two axes, so for W > 1 the result is bit-identical to that two-axis sum
    (at W = 1 numpy sums each window as one contiguous run of 25).
    """
    b, h, w = img.shape
    padded = np.empty((b, h + 4, w + 4))  # replicate edge, copied in slices
    padded[:, 2:-2, 2:-2] = img
    padded[:, 2:-2, :2], padded[:, 2:-2, -2:] = img[:, :, :1], img[:, :, -1:]
    padded[:, :2], padded[:, -2:] = padded[:, 2:3], padded[:, -3:-2]
    rows = padded[:, :, 0:w] + padded[:, :, 1:w + 1]
    for dj in range(2, 5):
        rows += padded[:, :, dj:dj + w]
    out = rows[:, 0:h] + rows[:, 1:h + 1]
    for di in range(2, 5):
        out += rows[:, di:di + h]
    return out


def motion_features(x):
    """Fixed motion descriptors for a (B, 6, H, W) frame-pair batch.

    Produces the grayscale temporal difference, the spatial gradients of
    the mean frame, and a windowed least-squares brightness-constancy flow
    estimate (clipped to +-MAX_FLOW pixels). These are deterministic functions of
    the input, so no gradient flows through them; they give the encoder a
    direct view of local motion instead of leaving it to discover
    correlation features from raw pixels.
    """
    g0 = x[:, :3].mean(axis=1)
    g1 = x[:, 3:6].mean(axis=1)
    it = g1 - g0
    mean = 0.5 * (g0 + g1)
    iy = np.gradient(mean, axis=1)
    ix = np.gradient(mean, axis=2)
    syy = _box5(iy * iy)
    sxx = _box5(ix * ix)
    sxy = _box5(iy * ix)
    syt = _box5(iy * it)
    sxt = _box5(ix * it)
    reg = 1e-4
    det = (syy + reg) * (sxx + reg) - sxy * sxy
    fy = (-(sxx + reg) * syt + sxy * sxt) / det
    fx = (sxy * syt - (syy + reg) * sxt) / det
    fy = np.clip(fy, -MAX_FLOW, MAX_FLOW)
    fx = np.clip(fx, -MAX_FLOW, MAX_FLOW)
    return np.stack([it, iy, ix, fy, fx], axis=1)


def synthesize(config, head, x, threads=1, top=0):
    """Middle frames of a (B, 6, H, W) batch x from head, the head conv's raw output.

    Splits head into the HEAD_NAMES groups with a softmax over each weight
    group and a sigmoid on occ, projects the maps onto config.warp_mode,
    warps the first frames forward and the last backward (one batched
    forward_warp each) and blends with occ, or under 'woocc' with 1/2, which
    gives occ no gradient. Returns the (B, 3, H, W) frames, (forward WarpParams,
    backward WarpParams, (B, H, W) occ), and a vjp from frame gradients to
    head's. A head n rows high (SynthModel.head's) gives the frames' rows top..top+n.
    """
    mode = WarpMode(config.warp_mode)
    occluded = mode is not WarpMode.NO_OCCLUSION
    raw = dict(zip(HEAD_NAMES, np.split(head, np.cumsum(config.head_sizes)[:-1], axis=1)))
    wf, vjp_wf = nn.softmax_channels(raw["weight_f"])
    wb, vjp_wb = nn.softmax_channels(raw["weight_b"])
    occ, vjp_occ = nn.sigmoid(raw["occ"][:, 0])
    (wf, af, bf), project = project_mode(mode, wf, raw["alpha_f"], raw["beta_f"])
    (wb, ab, bb), _ = project_mode(mode, wb, raw["alpha_b"], raw["beta_b"])
    pf = WarpParams(wf, af, bf, config.kernel_size, config.dilation)
    pb = WarpParams(wb, ab, bb, config.kernel_size, config.dilation)
    fwd = forward_warp(x[:, :3], pf, threads=threads, top=top)
    bwd = forward_warp(x[:, 3:], pb, threads=threads, top=top)
    v = occ if occluded else np.full_like(occ, 0.5)
    frames = occlusion_blend(fwd, bwd, v)

    def vjp(upstream):
        gf, gb, gv = occlusion_blend_vjp(fwd, bwd, v, upstream)
        g_wf, g_af, g_bf = project(*backward_warp_vjp(x[:, :3], pf, gf))
        g_wb, g_ab, g_bb = project(*backward_warp_vjp(x[:, 3:], pb, gb))
        g = {"weight_f": vjp_wf(g_wf), "alpha_f": g_af, "beta_f": g_bf,
             "weight_b": vjp_wb(g_wb), "alpha_b": g_ab, "beta_b": g_bb,
             "occ": vjp_occ(gv)[:, None] if occluded else np.zeros_like(raw["occ"])}
        return np.concatenate([g[name] for name in HEAD_NAMES], axis=1)

    return frames, (pf, pb, occ), vjp


def unet_stages(config):
    """The network as an nn stage list: per level a conv unit and a pool down,
    a bottleneck unit, per level an upsample, its skip and a conv unit up, the head."""
    stages, h = [], "x"
    for i, width in enumerate(config.widths):
        stages += [*nn.conv_unit(f"enc{i}", h, width), (f"pool{i}", "avgpool2", (f"enc{i}",), 0)]
        h = f"pool{i}"
    stages += nn.conv_unit("bottleneck", h, config.widths[-1])
    h = "bottleneck"
    for i in reversed(range(config.depth)):
        stages += [(f"up{i}", "upsample_bilinear2", (h,), 0),
                   (f"cat{i}", "concat_channels", (f"up{i}", f"enc{i}"), 0),
                   *nn.conv_unit(f"dec{i}", f"cat{i}", config.widths[i])]
        h = f"dec{i}"
    return stages + [("head", "conv3x3", (h,), sum(config.head_sizes))]


class SynthModel:
    """Fully convolutional parameter estimator: unet_stages on nn's executor.

    forward runs the whole list, for training. Inference runs it in two
    steps: trunk, every stage but the head, on the whole frame, then head on
    one band of rows at a time, so the head's maps exist for one band only.
    """

    def __init__(self, config, params=None):
        self.config = config
        self.params = params if params is not None else nn.he_init(
            param_shapes(config), config.seed, zeroed=("head",))

    def _network_input(self, x):
        """The (B, IN_CHANNELS, H, W) frame pairs x with their motion features;
        height and width must be divisible by 2**depth."""
        b, c, h, w = x.shape
        if c != IN_CHANNELS:
            raise ValueError(f"expected {IN_CHANNELS} input channels, got {c}")
        div = 2 ** self.config.depth
        if h % div or w % div:
            raise ValueError(f"input {h}x{w} not divisible by 2^depth = {div}")
        return {"x": np.concatenate([x, motion_features(x)], axis=1)}

    def forward(self, x):
        """Run the network on (B, IN_CHANNELS, H, W); returns (the head conv's
        raw (B, 6*F*F+1, H, W) output, which synthesize takes, tape).

        Height and width must be divisible by 2**depth.
        """
        values, tape = nn.forward(unet_stages(self.config), self.params, self._network_input(x))
        return values["head"], tape

    def trunk(self, x):
        """The features the head reads: every stage but the head, run on the
        whole of x as forward does, its tape dropped."""
        values, _ = nn.forward(unet_stages(self.config)[:-1], self.params, self._network_input(x))
        (features,) = values.values()
        return features

    def head(self, features, top, n):
        """Rows top..top+n of forward's raw head output, from the trunk's features.

        The head conv runs on those rows and one halo row above and below,
        whose own outputs are cropped off, so each row equals forward's."""
        stage = unet_stages(self.config)[-1]
        (src,) = stage[2]
        lo, hi = max(top - 1, 0), min(top + n + 1, features.shape[2])
        values, _ = nn.forward([stage], self.params, {src: features[:, :, lo:hi]})
        return values["head"][:, :, top - lo:top - lo + n]

    def backward(self, tape, g_head):
        """VJP through the whole network from g_head, the gradient on forward's
        raw head output (synthesize's vjp returns it); returns a dict of
        parameter gradients congruent with self.params."""
        grads = nn.backward(tape, {"head": g_head})
        return {name: grads[name] for name in self.params}


def param_shapes(config):
    """Each tensor's shape by name, in the init's draw order; allocates nothing."""
    return nn.param_shapes(unet_stages(config), {"x": IN_CHANNELS + MOTION_FEATURES})


def save_checkpoint(path, model, extra=None):
    """Binary checkpoint: magic, version, JSON config block, named tensors.
    extra is metadata, kept in the config block and never read back."""
    cfg = asdict(model.config)
    if extra:
        cfg["extra"] = extra
    blob = json.dumps(cfg, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<2I", CKPT_VERSION, len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(model.params)))
        for name in sorted(model.params):
            arr = np.ascontiguousarray(model.params[name], dtype="<f4")
            nb = name.encode()
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path):
    """The SynthModel a save_checkpoint file holds."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    pos = 4

    def take(n):
        nonlocal pos
        if pos + n > len(data):
            raise ValueError(f"{path}: checkpoint is cut short: {len(data)} bytes, "
                             f"the next field ends at byte {pos + n}")
        pos += n
        return data[pos - n:pos]

    def uints(k):
        return struct.unpack(f"<{k}I", take(4 * k))

    version, blob_len = uints(2)
    if version != CKPT_VERSION:
        raise ValueError(f"{path}: checkpoint version {version}, "
                         f"only version {CKPT_VERSION} is supported")
    try:
        cfg = json.loads(take(blob_len).decode())
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: config block is not valid JSON: {exc}") from None
    if isinstance(cfg, dict):
        cfg.pop("extra", None)
    config = config_from_dict(ModelConfig, cfg, path)
    want = param_shapes(config)

    def check(name, got):
        if got != want.get(name, "absent"):
            raise ValueError(f"{path}: tensor {name} is {got} in the file but "
                             f"{want.get(name, 'absent')} in its model config")

    params = {}
    for _ in range(uints(1)[0]):
        raw_name = take(uints(1)[0])
        try:
            name = raw_name.decode()
        except UnicodeDecodeError:
            raise ValueError(f"{path}: tensor name {raw_name!r} is not UTF-8") from None
        shape = uints(uints(1)[0])
        check(name, shape)  # before any byte of it is read: the config bounds its size
        raw = take(4 * math.prod(shape))
        params[name] = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)
    for name in sorted(want.keys() - params.keys()):
        check(name, "absent")
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} bytes follow the last tensor")
    return SynthModel(config, params)
