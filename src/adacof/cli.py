"""Command-line entry point exposing every capability for scripting.

All machine-readable output is CSV on stdout; diagnostics go to stderr.
Exit codes: 0 success, 1 validation/check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

import numpy as np

from . import gradcheck as gc
from . import metrics
from .datagen import MIN_SIZE, read_manifest, write_dataset
from .flowstats import mean_flow, render_flow, render_occlusion, variance_flow
from .model import load_checkpoint, param_shapes
from .ppm import read_ppm, write_ppm
from .train import (KEY_ALIASES, TrainConfig, evaluate, infer, interpolate, mean_metrics,
                    train)
from .warp import WarpMode, forward_warp, load_acof, save_acof

GRADCHECK_THRESHOLDS = {"adacof": 1e-4, "losses": 1e-4, "network": 1e-3}


def _err(msg):
    print(msg, file=sys.stderr)


def _checked(convert, holds, want):
    """An argparse type: convert(text), a usage error naming the text unless
    the value holds."""
    def parse(text):
        try:
            value = convert(text)
            if holds(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")
    return parse


_positive_int = _checked(int, lambda n: n >= 1, "a positive integer")
_nonnegative_int = _checked(int, lambda n: n >= 0, "an integer >= 0")


def _usable_cpus():
    """The CPUs this process may run on: its affinity mask, else the core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _frame_size(text):
    """bench --size HxW: two positive integers."""
    try:
        h, w = map(_positive_int, text.split("x"))
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"must be HxW with positive integers, got {text!r}") from None
    return h, w


def _sweep_param(text):
    """sweep --param KEY=V1,V2,...: an int TrainConfig field and its values.

    The values' ranges are checked against the config file when the sweep
    builds its variants."""
    key, _, values = text.partition("=")
    key = KEY_ALIASES.get(key, key)
    default = {f.name: f.default for f in dataclasses.fields(TrainConfig)}.get(key)
    if type(default) is not int:
        what = "unknown config key" if default is None else "not an int config key"
        raise argparse.ArgumentTypeError(f"{text}: {what} {key!r}")
    try:
        return key, [int(v) for v in values.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text}: values must be ints") from None


def cmd_gen_data(args):
    write_dataset(args.out, args.count, args.size, args.max_disp, args.seed)
    _err(f"wrote {args.count} triplets to {args.out}")
    return 0


def _train(config_path, config, out_dir):
    """train(), an out-of-memory model reported against its config file."""
    try:
        return train(config, out_dir, log=_err)
    except MemoryError:
        n = sum(math.prod(shape) for shape in param_shapes(config.model_config()).values())
        raise ValueError(f"{config_path}: out of memory for widths {list(config.widths)} "
                         f"and kernel_size {config.kernel_size}: {n:,} parameters") from None


def cmd_train(args):
    _, history = _train(args.config, TrainConfig.from_json(args.config), args.out)
    last = history[-1]
    print(f"final,{last['loss']:.6g},{last['val_psnr']:.6g},{last['val_ssim']:.6g}")
    return 0


def cmd_interp(args):
    model = load_checkpoint(args.ckpt)
    frame0 = read_ppm(args.frame0)
    frame1 = read_ppm(args.frame1)
    if frame0.shape != frame1.shape:
        (h0, w0), (h1, w1) = frame0.shape[1:], frame1.shape[1:]
        raise ValueError(f"frames differ in size: {args.frame0} is {h0}x{w0}, "
                         f"{args.frame1} is {h1}x{w1}")
    if not args.dump_params:  # the frame alone: one band of maps at a time
        write_ppm(args.out, interpolate(model, frame0, frame1, threads=args.threads))
        return 0
    blended, pf, pb, v = infer(model, frame0, frame1, threads=args.threads)
    write_ppm(args.out, blended)
    save_acof(args.dump_params, pf, v)
    root, ext = os.path.splitext(args.dump_params)
    save_acof(f"{root}.bwd{ext}", pb, v)
    return 0


def cmd_warp(args):
    params, _ = load_acof(args.params)
    image = read_ppm(args.input)
    h, w = image.shape[1:]
    if (h, w) != (params.height, params.width):
        raise ValueError(f"image and parameter maps differ in size: {args.input} is "
                         f"{h}x{w}, {args.params} is {params.height}x{params.width}")
    warped = forward_warp(image, params, threads=args.threads)
    write_ppm(args.out, warped)
    return 0


def cmd_gradcheck(args):
    modules = [args.module] if args.module else ["adacof", "losses", "network"]
    checks = {"adacof": gc.check_adacof, "losses": gc.check_losses,
              "network": gc.check_network}
    status = 0
    for name in modules:
        err = checks[name](seed=args.seed)
        threshold = GRADCHECK_THRESHOLDS[name]
        ok = err < threshold
        print(f"{name},{err:.3e},{'pass' if ok else 'FAIL'}")
        if not ok:
            status = 1
    return status


def cmd_visualize(args):
    params, occ = load_acof(args.params)
    flow = mean_flow(params, include_grid=args.include_grid)
    var, trace = variance_flow(params)
    write_ppm(f"{args.out_prefix}_meanflow.ppm", render_flow(flow))
    scale = max(float(np.percentile(trace, 99.0)), 1e-12)
    write_ppm(f"{args.out_prefix}_varflow.ppm", np.clip(trace / scale, 0.0, 1.0))
    write_ppm(f"{args.out_prefix}_occlusion.ppm", render_occlusion(occ))
    return 0


def _train_variants(config_path, column, variants):
    """Train one config variant per (label, out_dir, overrides) and print
    a `column,val_psnr,val_ssim` row for each."""
    config = TrainConfig.from_json(config_path)
    try:  # every variant is checked before the first one trains
        runs = [(label, out_dir, dataclasses.replace(config, **overrides))
                for label, out_dir, overrides in variants]
    except ValueError as exc:
        raise ValueError(f"{config_path}: {exc}") from None
    print(f"{column},val_psnr,val_ssim")
    for label, out_dir, run in runs:
        _, history = _train(config_path, run, out_dir)
        last = history[-1]
        print(f"{label},{last['val_psnr']:.6g},{last['val_ssim']:.6g}")
    return 0


def _warp_modes(text):
    """ablate --modes M1,M2,...: each a WarpMode value."""
    modes, known = text.split(","), [m.value for m in WarpMode]
    for mode in modes:
        if mode not in known:
            raise argparse.ArgumentTypeError(
                f"each mode must be one of {', '.join(known)}, got {mode!r}")
    return modes


def cmd_ablate(args):
    return _train_variants(args.config, "mode", [
        (mode, os.path.join(args.out, mode), {"warp_mode": mode})
        for mode in args.modes])


def cmd_sweep(args):
    key, values = args.param
    return _train_variants(args.config, key, [
        (value, os.path.join(args.out, f"{key}{value}"), {key: value})
        for value in values])


def cmd_bench(args):
    h, w = args.size
    rng = np.random.default_rng(args.seed)
    image, params = gc.random_warp_instance(rng, (h, w), args.F, args.d, channels=3)
    print("threads,seconds,megapixel_taps_per_s")
    for threads in args.threads:
        forward_warp(image, params, threads=threads)  # warm-up
        start = time.perf_counter()
        for _ in range(args.reps):
            forward_warp(image, params, threads=threads)
        elapsed = (time.perf_counter() - start) / args.reps
        mts = h * w * args.F * args.F / elapsed / 1e6
        print(f"{threads},{elapsed:.4f},{mts:.1f}")
    return 0


def cmd_eval(args):
    model = load_checkpoint(args.ckpt)
    names = read_manifest(args.data)
    try:
        rows = evaluate(model, [os.path.join(args.data, n) for n in names], args.threads)
    except ChildProcessError as exc:
        raise ChildProcessError(f"{args.data}: {exc}") from None
    print("name,psnr_db,ssim,ie")
    for name, row in zip(names, rows):
        print(metrics.metrics_row(name, *row))
    print(metrics.metrics_row("mean", *mean_metrics(rows)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="adacof")
    try:  # ADACOF_THREADS, else the cores this process may run on
        threads = _positive_int(os.environ.get("ADACOF_THREADS") or _usable_cpus())
    except argparse.ArgumentTypeError as exc:
        parser.error(f"ADACOF_THREADS {exc}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic triplet dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=_positive_int, default=512)
    p.add_argument("--size", default=32, type=_checked(
        int, lambda n: n >= MIN_SIZE, f"an integer >= {MIN_SIZE}"))
    p.add_argument("--max-disp", default=3.0, type=_checked(
        float, lambda x: 0.0 <= x < float("inf"), "a finite number >= 0"))
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train an interpolation model")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("interp", help="interpolate the middle frame")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--frame0", required=True)
    p.add_argument("--frame1", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-params")
    p.add_argument("--threads", type=_positive_int, default=threads)
    p.set_defaults(func=cmd_interp)

    p = sub.add_parser("warp", help="apply a raw parameter dump to an image")
    p.add_argument("--params", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=_positive_int, default=threads)
    p.set_defaults(func=cmd_warp)

    p = sub.add_parser("gradcheck", help="finite-difference verification")
    p.add_argument("--module", choices=["adacof", "network", "losses"])
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("visualize", help="render flow statistics maps")
    p.add_argument("--params", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--include-grid", action="store_true")
    p.set_defaults(func=cmd_visualize)

    p = sub.add_parser("ablate", help="train each operator mode")
    p.add_argument("--config", required=True)
    p.add_argument("--modes", default="fb,kb,ws,woocc,sdc,adacof", type=_warp_modes)
    p.add_argument("--out", default="ablate_out")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="sweep kernel size or dilation")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True, type=_sweep_param,
                   help="e.g. F=1,3,5,7 or d=0,1,2")
    p.add_argument("--out", default="sweep_out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="warp throughput report")
    p.add_argument("--size", default="256x256", type=_frame_size)
    p.add_argument("--F", type=_positive_int, default=5)
    p.add_argument("--d", type=_nonnegative_int, default=1)
    p.add_argument("--threads", default=str(threads),
                   type=lambda text: [_positive_int(t) for t in text.split(",")])
    p.add_argument("--reps", type=_positive_int, default=3)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("eval", help="PSNR/SSIM/IE report on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--threads", type=_positive_int, default=threads)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FloatingPointError, OSError) as exc:
        _err(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
