"""Training loop: batching, the two-phase objective, validation metrics,
checkpointing, and the inference band loop shared with the CLI: the
network's trunk on the whole frame, then its head conv and synthesize one
band of rows at a time. The head conv's raw output and its gradient are all
that pass between the network and synthesize, here as in training.

TrainConfig.model_config() is the network a config trains, its warp mode
included, so inference and evaluation take the mode from the model alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import metrics
from .core import BAND_PIXELS, config_from_dict, process_map
from .datagen import augment, load_triplet, read_manifest
from .losses import (Discriminator, charbonnier_l1, discriminator_loss,
                     generator_entropy_loss, perceptual_loss)
from .model import ModelConfig, SynthModel, save_checkpoint, synthesize
from .optim import AdaMaxState, adamax_step
from .warp import WarpMode, WarpParams
# forward_warp is unused here: perfbench's tracer test reads this module's binding
from .warp import forward_warp  # noqa: F401

# short names accepted for TrainConfig fields, as in the paper's notation
KEY_ALIASES = {"F": "kernel_size", "d": "dilation"}

# the fewest pixels (per frame, summed over its triplets) worth a worker
# process of evaluate, whose first triplets run slower than warm ones: on a
# 2-core host two workers beat one process from 16 triplets of 32x32 and
# from 2 of 256x256
WORKER_PIXELS = 8 * 32 * 32


@dataclass
class TrainConfig(ModelConfig):
    """The network a config trains (ModelConfig's fields) and the training protocol."""

    dataset_dir: str = ""
    seed: int = 7
    lr: float = 0.001
    batch: int = 4
    epochs: int = 30
    mode: str = "distortion"          # distortion | perception
    lambda_1: float = 0.01
    lambda_vgg: float = 1.0
    lambda_adv: float = 0.005
    adv_epochs: int = 0               # fine-tuning epochs for perception mode
    schedule_period: int = 20
    val_fraction: float = 0.125
    crop: int = 0                     # 0 = full frame
    augment: bool = True

    def __post_init__(self):
        self.widths = tuple(self.widths)
        self.model_config()  # ModelConfig's checks; fb's F=1, d=0 is set on the model only
        div = 2 ** self.depth
        checks = {  # key: (holds, what it must be)
            "mode": (self.mode in ("distortion", "perception"),
                     "'distortion' or 'perception'"),
            "batch": (self.batch >= 1, ">= 1"),
            "epochs": (self.epochs >= 1, ">= 1"),
            "schedule_period": (self.schedule_period >= 1, ">= 1"),
            # lr = 0 stays allowed: it trains nothing and keeps the untrained baseline
            **{key: (0.0 <= getattr(self, key) < float("inf"), "a finite number >= 0")
               for key in ("lr", "lambda_1", "lambda_vgg", "lambda_adv")},
            "adv_epochs": (self.adv_epochs >= 0, ">= 0"),
            "val_fraction": (0.0 < self.val_fraction < 1.0, "between 0 and 1"),
            "crop": (self.crop >= 0 and self.crop % div == 0,
                     f"0 or a positive multiple of 2^depth = {div}"),
        }
        for key, (holds, want) in checks.items():
            if not holds:
                raise ValueError(f"{key} must be {want}, got {getattr(self, key)!r}")

    @classmethod
    def from_json(cls, path):
        with open(path) as f:
            try:
                raw = json.load(f)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{path}: not valid JSON: {exc}") from None
        if isinstance(raw, dict):
            raw = {KEY_ALIASES.get(k, k): v for k, v in raw.items()}
        return config_from_dict(cls, raw, path)

    def model_config(self):
        """The network this config trains."""
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})

    def lr_at(self, epoch):
        """Learning rate for a zero-based epoch index: lr halved every schedule_period."""
        return self.lr * 0.5 ** (epoch // self.schedule_period)


def _banded(model, first, last, threads, keep):
    """The inference band loop: the trunk on the whole frame pair, then per band
    of BAND_PIXELS // W rows SynthModel.head and synthesize, which samples the
    whole pair. keep(frame rows, (fwd, bwd) WarpParams, occ rows) picks a band's
    arrays, joined into whole-frame arrays band by band; a band of the whole
    frame is returned uncopied. A 'ws' model's shared weights are a mean over
    the frame, so its band is the whole frame.
    """
    x = np.concatenate([first, last]).astype(np.float64, copy=False)[None]
    features = model.trunk(x)
    h, w = x.shape[2:]
    n = h if model.config.warp_mode == WarpMode.SHARED_WEIGHT.value else max(1, BAND_PIXELS // w)
    whole = None
    for top in range(0, h, n):
        rows = slice(top, min(top + n, h))
        head = model.head(features, top, rows.stop - top)
        frames, (pf, pb, occ) = synthesize(model.config, head, x, threads, top=top)[:2]
        arrays = keep(frames[0], [pf.at(0), pb.at(0)], occ[0])
        if rows == slice(0, h):
            return arrays
        if whole is None:
            whole = [np.empty(a.shape[:-2] + (h, w)) for a in arrays]
        for k, dst in enumerate(whole):
            dst[..., rows, :] = arrays[k]
        del head, frames, pf, pb, occ, arrays  # before the next band's maps are made
    return whole


def interpolate(model, first, last, threads=1):
    """The (3, H, W) middle frame of a pair; holds one band's maps at a time."""
    return _banded(model, first, last, threads, lambda frame, params, v: [frame])[0]


def infer(model, first, last, threads=1):
    """Full interpolation pass; returns (output, params_fwd, params_bwd, v),
    the maps joined from the band loop's bands."""
    frame, v, *maps = _banded(model, first, last, threads, lambda frame, params, v: [
        frame, v, *(getattr(p, name) for p in params for name in ("weights", "alpha", "beta"))])
    f, d = model.config.kernel_size, model.config.dilation
    return frame, WarpParams(*maps[:3], f, d), WarpParams(*maps[3:], f, d), v


def _batch_losses_and_grads(model, batch, config, disc=None):
    """Loss and parameter gradients for one batch of triplets.

    The loss is the Charbonnier distance, or, given the classifier disc, the
    perception objective weighted by config's lambdas. Returns (mean loss,
    model grads, classifier vjps): with disc, one (c1, vjp1, c2, vjp2) per
    triplet for the classifier step.
    """
    x = np.stack([np.concatenate([t.first, t.last]) for t in batch])
    head, net_tape = model.forward(x)
    frames, _, synth_vjp = synthesize(model.config, head, x)
    g_frames = np.empty_like(frames)
    total = 0.0
    disc_vjps = []
    for i, (triplet, blended) in enumerate(zip(batch, frames)):
        gt = triplet.middle
        l1, g_l1 = charbonnier_l1(blended, gt)
        if disc is not None:
            vgg, g_vgg = perceptual_loss(blended, gt)
            c1, vjp1 = disc.forward(np.concatenate([triplet.first, blended]))
            c2, vjp2 = disc.forward(np.concatenate([blended, triplet.last]))
            disc_vjps.append((c1, vjp1, c2, vjp2))
            adv, d_c1, d_c2 = generator_entropy_loss(c1, c2)
            _, g_in1 = vjp1(d_c1)
            _, g_in2 = vjp2(d_c2)
            g_adv = g_in1[3:] + g_in2[:3]
            loss = config.lambda_1 * l1 + config.lambda_vgg * vgg + config.lambda_adv * adv
            g_frames[i] = (config.lambda_1 * g_l1 + config.lambda_vgg * g_vgg
                           + config.lambda_adv * g_adv)
        else:
            loss, g_frames[i] = l1, g_l1
        total += loss
    g_head = synth_vjp(g_frames)
    g_head /= len(batch)
    return total / len(batch), model.backward(net_tape, g_head), disc_vjps


def _discriminator_step(disc, disc_state, disc_vjps):
    """One classifier update on real-first vs generated-first orderings,
    through the classifier vjps of the generator step."""
    acc = {name: np.zeros_like(p) for name, p in disc.params.items()}
    for c1, vjp1, c2, vjp2 in disc_vjps:
        _, d_c1, d_c2 = discriminator_loss(c1, c2)
        g1, _ = vjp1(d_c1)
        g2, _ = vjp2(d_c2)
        for name in acc:
            acc[name] += g1[name] + g2[name]
    for name in acc:
        acc[name] /= len(disc_vjps)
    adamax_step(disc_state, disc.params, acc)


def score(model, triplet):
    """The (psnr, ssim, ie) row of one triplet, a Triplet or a triplet
    directory, which is then loaded here and named in an error about its frames."""
    if isinstance(triplet, str):
        t = load_triplet(triplet)
        try:
            return score(model, t)
        except ValueError as exc:
            raise ValueError(f"{triplet}: {exc}") from None
    blended = interpolate(model, triplet.first, triplet.last)
    return (metrics.psnr(blended, triplet.middle), metrics.ssim(blended, triplet.middle),
            metrics.interpolation_error(blended, triplet.middle))


def eval_workers(threads, triplets, pixels):
    """How many processes evaluate scores a set in: one per thread, but no
    more than triplets or than WORKER_PIXELS shares of the set's pixels."""
    return max(1, min(threads, triplets, pixels // WORKER_PIXELS))


def _pixels(triplet):
    """A triplet's pixels per frame; a directory's from frame0's file size
    (3 bytes a pixel), or 0 if it cannot be read: scoring names the file."""
    if not isinstance(triplet, str):
        return triplet.first[0].size
    try:
        return os.path.getsize(os.path.join(triplet, "frame0.ppm")) // 3
    except OSError:
        return 0


def evaluate(model, triplets, threads=1):
    """score's row for each item of the sequence triplets, in order. With
    threads > 1 a large set is scored in eval_workers forked processes, each
    with one warp thread (core.process_map); the rows do not depend on it."""
    workers = eval_workers(threads, len(triplets), sum(map(_pixels, triplets)))
    return process_map(partial(score, model), triplets, workers)


def mean_metrics(rows):
    """Means of evaluate's rows, with PSNR capped at 100 dB per triplet."""
    psnrs, ssims, ies = zip(*rows)
    return (float(np.mean([min(p, 100.0) for p in psnrs])),
            float(np.mean(ssims)), float(np.mean(ies)))


def train(config, out_dir, log=None):
    """Run the full training protocol; returns (model, history).

    Phase 1 minimizes the distortion objective; when the config asks for
    the perception objective, a fine-tuning phase alternates one
    discriminator step with one generator step per batch. History rows
    mirror the metrics CSV: epoch, phase, loss, val_psnr, val_ssim, plus
    per-quarter mean losses.
    """
    names = read_manifest(config.dataset_dir)
    n_val = max(1, int(round(len(names) * config.val_fraction)))
    n_train = len(names) - n_val
    if n_train < config.batch:
        raise ValueError(f"{config.dataset_dir}: {n_train} train triplets, "
                         f"fewer than batch {config.batch}")
    paths = [os.path.join(config.dataset_dir, name) for name in names]
    triplets = [load_triplet(path) for path in paths]
    div = 2 ** config.depth
    size = triplets[0].first.shape[1:]
    for path, t in zip(paths, triplets):  # validation scores whole frames: they must divide
        h, w = t.first.shape[1:]
        where = f"{path}: frames are {h}x{w}"
        if config.crop > min(h, w):
            raise ValueError(f"{where}, smaller than crop {config.crop}")
        if min(h, w) < metrics.SSIM_WINDOW:
            raise ValueError(f"{where}, smaller than SSIM's {metrics.SSIM_WINDOW}-pixel window")
        if h % div or w % div:
            raise ValueError(f"{where}, not divisible by 2^depth = {div} (depth {config.depth})")
        if not config.crop and (h, w) != size:  # whole frames are stacked into batches
            raise ValueError(f"{where}, but {paths[0]}'s are {size[0]}x{size[1]}; "
                             "with crop 0 every triplet must have one frame size")
    train_set = triplets[:-n_val]
    val_set = triplets[-n_val:]

    model = SynthModel(config.model_config())  # before the run directory: it may not fit
    os.makedirs(out_dir, exist_ok=True)
    state = AdaMaxState(lr=config.lr)
    rng = np.random.default_rng(config.seed)
    history = []
    csv_path = os.path.join(out_dir, "metrics.csv")
    with open(csv_path, "w") as f:
        f.write("epoch,phase,loss,val_psnr,val_ssim\n")

    disc = disc_state = None
    phases = [("distortion", config.epochs)]
    if config.mode == "perception" and config.adv_epochs > 0:
        phases.append(("perception", config.adv_epochs))

    epoch_index = 0
    for phase, n_epochs in phases:
        if phase == "perception":
            disc = Discriminator(seed=config.seed + 1)
            disc_state = AdaMaxState(lr=config.lr)
        for _ in range(n_epochs):
            state.lr = config.lr_at(epoch_index)
            order = rng.permutation(len(train_set))
            step_losses = []
            for start in range(0, len(order) - config.batch + 1, config.batch):
                idx = order[start:start + config.batch]
                batch = [_augmented(train_set[i], rng, config) for i in idx]
                loss, grads, disc_vjps = _batch_losses_and_grads(model, batch, config, disc)
                if not np.isfinite(loss):
                    raise FloatingPointError(f"loss became {loss} at epoch "
                                             f"{epoch_index}")
                adamax_step(state, model.params, grads)
                if disc is not None:
                    _discriminator_step(disc, disc_state, disc_vjps)
                step_losses.append(loss)
            quarters = [float(np.mean(q)) for q in
                        np.array_split(np.asarray(step_losses),
                                       min(4, len(step_losses)))]
            val_psnr, val_ssim, _ = mean_metrics(evaluate(model, val_set))
            row = {"epoch": epoch_index, "phase": phase,
                   "loss": float(np.mean(step_losses)),
                   "val_psnr": val_psnr, "val_ssim": val_ssim,
                   "quarter_losses": quarters}
            history.append(row)
            with open(csv_path, "a") as f:
                f.write(f"{epoch_index},{phase},{row['loss']:.6g},"
                        f"{val_psnr:.6g},{val_ssim:.6g}\n")
            save_checkpoint(os.path.join(out_dir, f"ckpt_epoch{epoch_index:03d}.ackp"),
                            model, extra={"epoch": epoch_index})
            if log:
                log(f"epoch {epoch_index} [{phase}] loss {row['loss']:.5f} "
                    f"val_psnr {val_psnr:.3f} val_ssim {val_ssim:.4f}")
            epoch_index += 1
    save_checkpoint(os.path.join(out_dir, "ckpt_final.ackp"), model,
                    extra={"epoch": epoch_index - 1})
    return model, history


def _augmented(triplet, rng, config):
    seed = int(rng.integers(0, 2 ** 31))  # drawn either way: later batches keep their order
    return augment(triplet, seed, crop=config.crop or None) if config.augment else triplet
