"""The three workloads: seeded inputs, one round of CLI operations, and checks.

Each workload is a closed loop with one client: the harness runs the
operations of a round one after another through ``adacof.cli.main`` and
starts the next only when the previous one has returned.

- train-acc: ``adacof train`` at the acceptance config (F=5, d=1, depth 2,
  widths (8, 16), lr 0.003, batch 4, distortion objective, augmentation
  on). The only workload that runs the warp VJP, the network VJP, AdaMax
  and per-epoch checkpoints.
- interp-256: ``adacof interp`` on 256x256 frame pairs with a checkpoint
  whose heads are non-zero. Forward only at large frames. One pair in
  each round has sides not divisible by 2^depth; today the program
  rejects it, and the harness counts it as a failed operation.
- eval-32: ``adacof eval`` over many 32x32 triplets with the same kind of
  checkpoint. Forward only at small frames, where per-call costs weigh most.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import checks
import reference

MODEL = {"F": 5, "d": 1, "depth": 2, "widths": [8, 16]}
# Standard deviation of the checkpoint's head weights. Zero heads give
# uniform kernels and zero offsets; at this scale the offsets are a few
# pixels and the kernels far from uniform (see README.md).
HEAD_SCALE = 0.1


@dataclass
class Op:
    argv: list
    items: int
    known_fault: bool = False  # the odd-sized interp pair


def make_checkpoint(path, seed):
    """A depth-2, F=5 model whose seven heads get seeded non-zero weights."""
    from adacof.model import ModelConfig, SynthModel, save_checkpoint

    model = SynthModel(ModelConfig(kernel_size=MODEL["F"], dilation=MODEL["d"],
                                   depth=MODEL["depth"], widths=MODEL["widths"], seed=seed))
    rng = np.random.default_rng(seed)
    for name in sorted(model.params):
        if name.startswith("head.") and name.endswith(".w"):
            model.params[name] = rng.normal(0.0, HEAD_SCALE, model.params[name].shape)
    save_checkpoint(path, model, extra={"warp_mode": "adacof", "occlusion_enabled": True})


def interp_argv(ckpt, triplet_dir, out, *extra, threads=1):
    """`adacof interp` from frame 0 to frame 2 of a triplet directory."""
    return ["interp", "--ckpt", ckpt, "--frame0", os.path.join(triplet_dir, "frame0.ppm"),
            "--frame1", os.path.join(triplet_dir, "frame2.ppm"), "--out", out,
            "--threads", str(threads), *extra]


class Workload:
    def __init__(self, run_op, workdir, seed):
        self.run_op = run_op  # argv -> (exit code, stdout, stderr)
        self.dir = workdir
        self.seed = seed

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def must(self, argv):
        """Run an untimed operation that has to succeed."""
        code, out, err = self.run_op(argv)
        if code != 0:
            raise checks.CheckFailed(f"adacof {' '.join(argv)} exited {code}: {err.strip()}")
        return out

    def gen_data(self, out, count, size, max_disp, seed):
        self.must(["gen-data", "--out", self.path(out), "--count", str(count),
                   "--size", str(size), "--max-disp", str(max_disp), "--seed", str(seed)])
        with open(self.path(out, "index.txt")) as f:
            return f.read().split()

    def record(self, out):
        """Keep what the checks need from the stdout of a successful timed operation."""


class TrainAcc(Workload):
    COUNT = 64
    EPOCHS = 5
    BATCH = 4
    VAL_FRACTION = 0.25

    def prepare(self):
        names = self.gen_data("data", self.COUNT, 32, 3, self.seed)
        n_val = max(1, int(round(self.COUNT * self.VAL_FRACTION)))
        self.val_dirs = [self.path("data", n) for n in names[-n_val:]]
        self.items = self.EPOCHS * ((self.COUNT - n_val) // self.BATCH) * self.BATCH
        config = {"dataset_dir": self.path("data"), "kernel_size": MODEL["F"],
                  "dilation": MODEL["d"], "depth": MODEL["depth"], "widths": MODEL["widths"],
                  "lr": 0.003, "batch": self.BATCH, "epochs": self.EPOCHS, "seed": self.seed,
                  "mode": "distortion", "augment": True, "val_fraction": self.VAL_FRACTION}
        for name, epochs in (("train.json", self.EPOCHS), ("warmup.json", 1)):
            with open(self.path(name), "w") as f:
                json.dump({**config, "epochs": epochs}, f)
        self.finals = []

    def warmup(self):
        self.must(["train", "--config", self.path("warmup.json"), "--out", self.path("warmup")])

    def round(self):
        return [Op(["train", "--config", self.path("train.json"), "--out", self.path("run")],
                   self.items)]

    def record(self, out):
        self.finals.append(out.strip().splitlines()[-1] if out.strip() else "")

    def check(self):
        if len(set(self.finals)) != 1:
            raise checks.CheckFailed(f"repeated training calls disagree: {sorted(set(self.finals))}")
        return checks.check_training(self.finals[0], self.path("run", "metrics.csv"),
                                     checks.frame_average_psnr(self.val_dirs))


class Interp256(Workload):
    PAIRS = 3
    SIZE = 256
    ODD_SIZE = (250, 254)  # not divisible by 2^depth = 4
    CHECKED_PAIRS = 2
    PIXELS_PER_CHECK = 2000

    def prepare(self):
        names = self.gen_data("pairs", self.PAIRS, self.SIZE, 4, self.seed)
        self.pair_dirs = [self.path("pairs", n) for n in names]
        # The odd-sized pair does not depend on the seed, so that its
        # failure is the same share of every run.
        odd_src = self.gen_data("odd_src", 1, self.SIZE, 4, 0)[0]
        h, w = self.ODD_SIZE
        os.makedirs(self.path("odd"))
        for i in range(3):
            px = reference.read_ppm(self.path("odd_src", odd_src, f"frame{i}.ppm"))
            reference.write_ppm(self.path("odd", f"frame{i}.ppm"), px[:, :h, :w])
        self.pair_dirs.append(self.path("odd"))
        make_checkpoint(self.path("model.ackp"), self.seed)

    def argv(self, pair_dir, out, *extra, threads=1):
        return interp_argv(self.path("model.ackp"), pair_dir, out, *extra, threads=threads)

    def warmup(self):
        self.must(self.argv(self.pair_dirs[0], self.path("warmup.ppm")))

    def round(self):
        return [Op(self.argv(d, os.path.join(d, "out.ppm")), 1,
                   known_fault=(i == self.PAIRS))
                for i, d in enumerate(self.pair_dirs)]

    def check(self):
        rng = np.random.default_rng(self.seed)
        for d in self.pair_dirs[:self.CHECKED_PAIRS]:
            checked = os.path.join(d, "checked.ppm")
            dump = os.path.join(d, "params.acof")
            self.must(self.argv(d, checked, "--dump-params", dump))
            rows, cols = checks.sample_pixels(self.SIZE, self.SIZE, self.PIXELS_PER_CHECK, rng)
            checks.check_interp_output(os.path.join(d, "frame0.ppm"),
                                       os.path.join(d, "frame2.ppm"), checked, dump, rows, cols)
            checks.check_same_bytes(os.path.join(d, "out.ppm"), checked,
                                    "timed output vs checked output")
        d = self.pair_dirs[0]
        threaded = os.path.join(d, "threads2.ppm")
        self.must(self.argv(d, threaded, threads=2))
        checks.check_same_bytes(os.path.join(d, "out.ppm"), threaded, "--threads 2 vs --threads 1")
        psnrs = []
        for d in self.pair_dirs:
            out = os.path.join(d, "out.ppm")
            if not os.path.exists(out):  # the known fault wrote nothing
                continue
            result = reference.read_ppm(out)
            middle = reference.read_ppm(os.path.join(d, "frame1.ppm"))
            if result.shape != middle.shape:
                raise checks.CheckFailed(f"{out}: output is {result.shape}, input is {middle.shape}")
            psnrs.append(reference.psnr(result, middle))
        return float(np.mean(psnrs))


class Eval32(Workload):
    COUNT = 96
    CHECKED_TRIPLETS = 3

    def prepare(self):
        self.names = self.gen_data("data", self.COUNT, 32, 3, self.seed)
        make_checkpoint(self.path("model.ackp"), self.seed)
        self.reports = []

    def argv(self):
        return ["eval", "--ckpt", self.path("model.ackp"), "--data", self.path("data")]

    def warmup(self):
        self.must(self.argv())

    def round(self):
        return [Op(self.argv(), self.COUNT)]

    def record(self, out):
        self.reports.append(out)

    def check(self):
        if len(set(self.reports)) != 1:
            raise checks.CheckFailed("repeated eval calls printed different reports")
        rows, mean = checks.check_eval_report(self.reports[0], self.names)
        rng = np.random.default_rng(self.seed)
        for name in rng.choice(self.names, self.CHECKED_TRIPLETS, replace=False):
            d = self.path("data", name)
            dump = os.path.join(d, "params.acof")
            self.must(interp_argv(self.path("model.ackp"), d, os.path.join(d, "checked.ppm"),
                                  "--dump-params", dump))
            checks.check_triplet_psnr(rows[name], d, dump)
        return mean


WORKLOADS = {"train-acc": TrainAcc, "interp-256": Interp256, "eval-32": Eval32}
