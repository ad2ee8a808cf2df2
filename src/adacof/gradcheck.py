"""Central finite-difference harness and the standard verification suites.

Errors are reported relative to the largest finite-difference magnitude in
each gradient block, which keeps the measure meaningful where individual
entries are near zero.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .datagen import Triplet
from .losses import (Discriminator, charbonnier_l1, discriminator_loss,
                     generator_entropy_loss, perceptual_loss)
from .model import ModelConfig, SynthModel, param_shapes, synthesize
from .train import _batch_losses_and_grads
from .warp import (WarpParams, _tap_blocks, backward_warp_image_vjp, backward_warp_vjp,
                   forward_warp, occlusion_blend, occlusion_blend_vjp)

FD_STEP = 1e-3
# one or two in a hundred drawn network instances are kink-free; this caps
# the search at a few seconds
KINK_FREE_ATTEMPTS = 2048


def fd_gradient(f, x, h=FD_STEP):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def block_rel_err(analytic, numeric):
    """Max |a - n| normalized by the block's largest FD magnitude, at least 1e-8."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)


def random_warp_instance(rng, size=4, f=3, d=1, channels=1):
    """Softmax-normalized weights and off-grid-jittered offsets on a
    size x size frame, or an (H, W) one when size is a pair."""
    hw = tuple(size) if np.ndim(size) else (size, size)
    shape = (f * f,) + hw
    logits = rng.normal(size=shape)
    e = np.exp(logits - logits.max(axis=0))
    weights = e / e.sum(axis=0)
    # keep fractional parts away from the integer-grid kinks
    alpha = rng.uniform(-2.0, 2.0, size=shape)
    beta = rng.uniform(-2.0, 2.0, size=shape)
    for arr in (alpha, beta):
        frac = arr - np.floor(arr)
        arr += np.where(frac < 0.1, 0.15, 0.0) - np.where(frac > 0.9, 0.15, 0.0)
    image = rng.random((channels,) + hw)
    return image, WarpParams(weights, alpha, beta, kernel_size=f, dilation=d)


def check_adacof(seed=0):
    """FD check of the warp's image and parameter VJPs plus the blend, on
    three instances; returns the max error."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        image, params = random_warp_instance(rng)
        upstream = rng.normal(size=image.shape)

        def loss(image=image, **maps):
            out = forward_warp(image, replace(params, **maps), validate=False)
            return float((out * upstream).sum())

        analytic = (backward_warp_image_vjp(params, upstream),
                    *backward_warp_vjp(image, params, upstream))
        for name, grad in zip(("image", "weights", "alpha", "beta"), analytic):
            x = image if name == "image" else getattr(params, name)
            numeric = fd_gradient(lambda z: loss(**{name: z}), x.copy())
            worst = max(worst, block_rel_err(grad, numeric))

        # blend inputs: forward frame, backward frame, visibility map
        inputs = [rng.random((1, 4, 4)), rng.random((1, 4, 4)),
                  rng.uniform(0.1, 0.9, size=(4, 4))]
        up = rng.normal(size=(1, 4, 4))
        for k, grad in enumerate(occlusion_blend_vjp(*inputs, up)):
            def blend(z, k=k):
                return float((occlusion_blend(*inputs[:k], z, *inputs[k + 1:]) * up).sum())

            worst = max(worst, block_rel_err(grad, fd_gradient(blend, inputs[k].copy())))
    return worst


def check_network(seed=0):
    """FD check at 8x8 of a one-triplet training step's gradient: model, warp, blend, loss."""
    cfg = ModelConfig(kernel_size=2, dilation=1, depth=1, widths=(6,), seed=seed)
    # search for a well-conditioned instance: every sampling coordinate must
    # sit away from the sampler's integer-grid kinks, or central differences
    # with h=1e-3 see the subgradient jump instead of the derivative
    for attempt in range(KINK_FREE_ATTEMPTS):
        rng = np.random.default_rng((seed, attempt))
        # random (not zero-head) parameters so every path carries signal
        model = SynthModel(cfg, {name: rng.normal(0.0, 0.3, size=shape)
                                 for name, shape in param_shapes(cfg).items()})
        x = rng.random((1, 6, 8, 8))  # first frame, then last
        gt = rng.random((3, 8, 8))
        _, (pf, pb, _), _ = synthesize(cfg, model.forward(x)[0], x)
        dist = min(np.abs(coords - np.round(coords)).min()
                   for p in (pf, pb) for _, *yx in _tap_blocks(p, cfg.kernel_size ** 2)
                   for coords in yx)
        if dist > 2e-3:
            break
    else:
        raise ValueError(f"seed {seed}: no kink-free network instance "
                         f"in {KINK_FREE_ATTEMPTS} draws")

    _, grads, _ = _batch_losses_and_grads(model, [Triplet(x[0, :3], gt, x[0, 3:])], cfg)

    worst = 0.0
    for name in sorted(model.params):
        def f_param(z, name=name):
            head, _ = SynthModel(cfg, {**model.params, name: z}).forward(x)
            blended, _, _ = synthesize(cfg, head, x)
            return charbonnier_l1(blended[0], gt)[0]

        numeric = fd_gradient(f_param, model.params[name].copy(), h=1e-5)
        worst = max(worst, block_rel_err(grads[name], numeric))
    return worst


def check_losses(seed=0):
    """FD checks for the loss terms and the classifier input gradient."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    a = rng.random((1, 6, 6))
    b = rng.random((1, 6, 6))
    _, ga = charbonnier_l1(a, b)
    # step far below epsilon = 1e-3, the scale of phi's curvature: where
    # |a - b| ~ epsilon, a 1e-4 step's truncation error reaches 1e-3
    worst = max(worst, block_rel_err(
        ga, fd_gradient(lambda z: charbonnier_l1(z, b)[0], a.copy(), h=1e-6)))

    out = rng.random((3, 8, 8))
    gt = rng.random((3, 8, 8))
    _, g_out = perceptual_loss(out, gt)
    # small step: the filter-bank ReLU kinks corrupt wider stencils
    worst = max(worst, block_rel_err(
        g_out, fd_gradient(lambda z: perceptual_loss(z, gt)[0], out.copy(), h=1e-5)))

    c = rng.uniform(0.1, 0.9, size=2)
    for loss_fn in (discriminator_loss, generator_entropy_loss):
        _, d1, d2 = loss_fn(*c)
        numeric = fd_gradient(lambda z: loss_fn(*z)[0], c.copy(), h=1e-6)
        worst = max(worst, block_rel_err(np.array([d1, d2]), numeric))

    disc = Discriminator(seed=seed)
    x = rng.random((6, 8, 8))
    _, vjp = disc.forward(x)
    _, gx = vjp(1.0)
    numeric = fd_gradient(lambda z: disc.forward(z)[0], x.copy(), h=1e-5)
    worst = max(worst, block_rel_err(gx, numeric))
    return worst
