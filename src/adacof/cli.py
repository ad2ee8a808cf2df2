"""Command-line entry point exposing every capability for scripting.

All machine-readable output is CSV on stdout; diagnostics go to stderr.
Exit codes: 0 success, 1 validation/check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from . import gradcheck as gc
from . import metrics
from .core import config_from_dict
from .datagen import load_triplet, read_manifest, write_dataset
from .flowstats import mean_flow, render_flow, render_occlusion, variance_flow
from .model import load_checkpoint
from .ppm import read_ppm, write_ppm
from .train import (KEY_ALIASES, WARP_MODES, TrainConfig, evaluate, infer, mean_metrics,
                    train)
from .warp import WarpMode, WarpParams, forward_warp, load_acof, save_acof

GRADCHECK_THRESHOLDS = {"adacof": 1e-4, "losses": 1e-4, "network": 1e-3}


def _err(msg):
    print(msg, file=sys.stderr)


def _positive_int(text):
    """The one check of a thread count or of bench --F: a positive integer."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _frame_size(text):
    """bench --size HxW: two positive integers."""
    try:
        h, w = map(_positive_int, text.split("x"))
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"must be HxW with positive integers, got {text!r}") from None
    return h, w


def _sweep_param(text):
    """sweep --param KEY=V1,V2,...: a TrainConfig field and its integer values.

    Each value is checked on its own here; depth 0 puts no bound on a crop,
    which is checked against the config's depth when the sweep builds its
    variants."""
    key, _, values = text.partition("=")
    key = KEY_ALIASES.get(key, key)
    try:
        values = [int(v) for v in values.split(",")]
        for value in values:
            config_from_dict(TrainConfig, {"depth": 0, key: value}, text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return key, values


def cmd_gen_data(args):
    write_dataset(args.out, args.count, args.size, args.max_disp, args.seed)
    _err(f"wrote {args.count} triplets to {args.out}")
    return 0


def cmd_train(args):
    config = TrainConfig.from_json(args.config)
    _, history = train(config, args.out, log=_err)
    last = history[-1]
    print(f"final,{last['loss']:.6g},{last['val_psnr']:.6g},{last['val_ssim']:.6g}")
    return 0


def _load_model(path):
    model, extra = load_checkpoint(path)
    extra = {} if extra is None else extra
    if not isinstance(extra, dict):
        raise ValueError(f"{path}: config key 'extra' must be a JSON object, "
                         f"got {type(extra).__name__}")
    modes = [m.value for m in WarpMode]
    wmode = extra.get("warp_mode", "adacof")
    if wmode not in modes:
        raise ValueError(f"{path}: extra key 'warp_mode' must be one of "
                         f"{', '.join(modes)}, got {wmode!r}")
    occlusion_enabled = extra.get("occlusion_enabled", True)
    if type(occlusion_enabled) is not bool:
        raise ValueError(f"{path}: extra key 'occlusion_enabled' must be bool, "
                         f"got {occlusion_enabled!r}")
    return model, WarpMode(wmode), occlusion_enabled


def cmd_interp(args):
    model, wmode, occ_on = _load_model(args.ckpt)
    frame0 = read_ppm(args.frame0)
    frame1 = read_ppm(args.frame1)
    if frame0.shape != frame1.shape:
        (h0, w0), (h1, w1) = frame0.shape[1:], frame1.shape[1:]
        raise ValueError(f"frames differ in size: {args.frame0} is {h0}x{w0}, "
                         f"{args.frame1} is {h1}x{w1}")
    blended, pf, pb, v = infer(model, frame0.pixels, frame1.pixels, wmode,
                               occ_on, threads=args.threads)
    write_ppm(args.out, blended)
    if args.dump_params:
        save_acof(args.dump_params, pf, v)
        root, ext = os.path.splitext(args.dump_params)
        save_acof(f"{root}.bwd{ext}", pb, v)
    return 0


def cmd_warp(args):
    params, _ = load_acof(args.params)
    image = read_ppm(args.input)
    warped = forward_warp(image.pixels, params, threads=args.threads)
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
        _, history = train(run, out_dir, log=_err)
        last = history[-1]
        print(f"{label},{last['val_psnr']:.6g},{last['val_ssim']:.6g}")
    return 0


def _warp_modes(text):
    """ablate --modes M1,M2,...: each one of train.WARP_MODES."""
    modes = text.split(",")
    for mode in modes:
        if mode not in WARP_MODES:
            raise argparse.ArgumentTypeError(
                f"each mode must be one of {', '.join(WARP_MODES)}, got {mode!r}")
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
        reps = max(1, args.reps)
        start = time.perf_counter()
        for _ in range(reps):
            forward_warp(image, params, threads=threads)
        elapsed = (time.perf_counter() - start) / reps
        mts = h * w * args.F * args.F / elapsed / 1e6
        print(f"{threads},{elapsed:.4f},{mts:.1f}")
    return 0


def cmd_eval(args):
    model, wmode, occ_on = _load_model(args.ckpt)
    names = read_manifest(args.data)
    rows = evaluate(model, (load_triplet(os.path.join(args.data, n)) for n in names),
                    wmode, occ_on)
    print("name,psnr_db,ssim,ie")
    for name, row in zip(names, rows):
        print(metrics.metrics_row(name, *row))
    print(metrics.metrics_row("mean", *mean_metrics(rows)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="adacof")
    try:  # ADACOF_THREADS, else the core count
        threads = _positive_int(os.environ.get("ADACOF_THREADS") or os.cpu_count() or 1)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"ADACOF_THREADS {exc}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic triplet dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=512)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--max-disp", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--threads", default=str(threads),
                   type=lambda text: [_positive_int(t) for t in text.split(",")])
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("eval", help="PSNR/SSIM/IE report on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
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
