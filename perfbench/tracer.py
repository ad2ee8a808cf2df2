"""Per-layer spans for the traced run, recorded from outside the program.

The tracer replaces each traced function of the adacof modules with a
wrapper that records a span (name, start, end, parent span) and the work
counts of the call. Every binding of the function across the adacof
modules is replaced, so calls reached through ``from ... import`` are seen
as well; the VJP closures that the ``nn`` primitives return are wrapped as
spans of their own. Spans are held in memory and written out when the run
ends. A layer's self time is its span's duration minus the durations of its
direct child spans.

A traced name the program no longer has is reported as absent (value 0 and
a line on stderr) instead of failing, and a function whose arguments or
result no longer fit its work count is timed but not counted, so internal
renames and signature changes do not break the benchmark.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict


def _warp_mtaps(args, result, counts, name):
    p = args[1]
    counts[f"{name}.mtaps"] += p.kernel_size ** 2 * p.height * p.width / 1e6


def _conv_macs(args):
    b, c, h, w = args[0].shape
    return b * h * w * args[1].shape[0] * c * 9 / 1e9


def _conv_gmac(args, result, counts, name):
    counts[f"{name}.gmac"] += _conv_macs(args)


def _conv_vjp_gmac(fwd_args):
    """The VJP computes the input and the kernel gradients: twice the forward MACs."""
    macs = 2 * _conv_macs(fwd_args)

    def count(args, result, counts, name):
        counts["nn.conv3x3.gmac"] += macs

    return count


def _file_bytes(args, result, counts, name):
    counts[f"{name}.bytes"] += os.path.getsize(args[0])


def _vjp_uncounted(fwd_args):
    """Wrap the returned VJP as a span of its own, with no work count."""
    return None


def _adamax_mparams(args, result, counts, name):
    counts[f"{name}.mparams"] += sum(g.size for g in args[2].values()) / 1e6


# (module, attribute path, count hook, count hook for the returned VJP)
TARGETS = [
    ("warp", "forward_warp", _warp_mtaps, None),
    ("warp", "backward_warp_vjp", _warp_mtaps, None),
    ("warp", "WarpParams.validate", None, None),
    ("warp", "project_mode", None, None),
    ("warp", "occlusion_blend", None, None),
    ("warp", "occlusion_blend_vjp", None, None),
    ("core", "sample_grid", None, None),
    ("core", "sample_grid_with_grad", None, None),
    ("nn", "conv3x3", _conv_gmac, _conv_vjp_gmac),
    ("nn", "softmax_channels", None, _vjp_uncounted),
    ("nn", "sigmoid", None, _vjp_uncounted),
    ("nn", "upsample_bilinear2", None, _vjp_uncounted),
    ("nn", "avgpool2", None, _vjp_uncounted),
    ("nn", "relu", None, _vjp_uncounted),
    ("model", "SynthModel.forward", None, None),
    ("model", "SynthModel.backward", None, None),
    ("model", "motion_features", None, None),
    ("model", "load_checkpoint", None, None),
    ("model", "save_checkpoint", _file_bytes, None),
    ("losses", "charbonnier_l1", None, None),
    ("optim", "adamax_step", _adamax_mparams, None),
    ("metrics", "psnr", None, None),
    ("metrics", "ssim", None, None),
    ("metrics", "interpolation_error", None, None),
    ("datagen", "augment", None, None),
    ("datagen", "load_triplet", None, None),
    ("ppm", "read_ppm", _file_bytes, None),
    ("ppm", "write_ppm", None, None),
    ("train", "infer", None, None),
    ("train", "evaluate", None, None),
    ("train", "train", None, None),
    ("cli", "main", None, None),
]


PACKAGE = "adacof"


class Tracer:
    """Installs span-recording wrappers into the adacof modules and accounts for them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.absent = []
        self.uncounted = set()
        self._local = threading.local()
        self._patches = []  # (owner, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, count=None, vjp_count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            tracer.counts[f"{name}.calls"] += 1
            try:
                if count is not None:
                    count(args, result, tracer.counts, name)
                if vjp_count is not None:
                    y, vjp = result
                    return y, tracer._wrap(f"{name}.vjp", vjp, vjp_count(args))
            except (TypeError, ValueError, IndexError, AttributeError):
                # the function's signature or result changed: time it, count nothing
                tracer.uncounted.add(name)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, path, count, vjp_count in TARGETS:
            name = f"{mod_name}.{path}"
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, count, vjp_count)
            if owner_path:  # a method: one binding, on its class
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)
        for name in self.absent:
            print(f"perfbench: traced name {name} is absent", file=sys.stderr)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for name in sorted(self.uncounted):
            print(f"perfbench: work counts of {name} could not be taken", file=sys.stderr)

    def self_times(self):
        """Self seconds per span name, summed over every span recorded."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += end - start - inner
        return totals

    def metric(self, metric_name, self_times=None):
        """Value of a per-layer metric ``<span>.<quantity>``; 0 when never recorded."""
        span, _, quantity = metric_name.rpartition(".")
        if quantity in ("self_s", "fwd_s", "vjp_s"):
            times = self_times if self_times is not None else self.self_times()
            return times.get(f"{span}.vjp" if quantity == "vjp_s" else span, 0.0)
        return self.counts.get(metric_name, 0.0)

    def write_spans(self, path):
        with open(path, "w") as f:
            f.write("index,name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
