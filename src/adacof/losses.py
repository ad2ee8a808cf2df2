"""Training objectives: smooth L1, feature-space distance, and the
dual-frame adversarial pair.

The perceptual term compares features of a fixed 8-orientation gradient
filter bank (no pretrained weights), which keeps the loss a deterministic
feature-space distance.
"""

from __future__ import annotations

import math

import numpy as np

from . import nn

PROB_CLAMP = 1e-6
EPSILON = 0.001  # Charbonnier smoothing scale
DISC_WIDTH = 8  # channels of the classifier's two hidden convolutions


def charbonnier_l1(a, b):
    """Mean smooth-L1 distance phi(a-b), phi(x) = sqrt(x^2 + EPSILON^2).

    Returns (loss, grad_a); grad_b is -grad_a.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    phi = np.sqrt(diff * diff + EPSILON * EPSILON)
    loss = float(phi.mean())
    grad_a = diff / phi / a.size
    return loss, grad_a


_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64) / 8.0
# eight oriented first-derivative 3x3 filters, cos(t) * d/dx + sin(t) * d/dy
GRADIENT_BANK = np.stack([np.cos(t) * _SOBEL_X + np.sin(t) * _SOBEL_X.T
                          for t in np.arange(8) * (2.0 * np.pi / 8)])


def gradient_bank_features(image):
    """GRADIENT_BANK on each channel of a (C, H, W) image, then ReLU and a 2x
    average pool: (C * 8, H / 2, W / 2) features and their vjp."""
    image = np.asarray(image, dtype=np.float64)
    c, nf = image.shape[0], len(GRADIENT_BANK)
    # depthwise application via a block-structured kernel
    kernel = np.zeros((c * nf, c, 3, 3))
    for ch in range(c):
        kernel[ch * nf:(ch + 1) * nf, ch] = GRADIENT_BANK
    y, bw_conv = nn.conv3x3(image[None], kernel, np.zeros(c * nf))
    y, bw_relu = nn.relu(y)
    y, bw_pool = nn.avgpool2(y)

    def vjp(g):
        gx, _, _ = bw_conv(bw_relu(bw_pool(g[None] if g.ndim == 3 else g)))
        return gx[0]

    return y[0], vjp


def perceptual_loss(out, gt):
    """Root-mean-square distance of the gradient-bank features; returns
    (loss, grad_out)."""
    f_out, vjp = gradient_bank_features(np.asarray(out, dtype=np.float64))
    f_gt, _ = gradient_bank_features(np.asarray(gt, dtype=np.float64))
    diff = f_out - f_gt
    msq = float((diff * diff).mean())
    loss = math.sqrt(msq)
    if loss == 0.0:
        return 0.0, np.zeros_like(np.asarray(out, dtype=np.float64))
    grad_feat = diff / (diff.size * loss)
    return loss, vjp(grad_feat)


def clamp_prob(c):
    return float(np.clip(c, PROB_CLAMP, 1.0 - PROB_CLAMP))


def discriminator_loss(c_real_first, c_fake_first):
    """Classifier objective: -log c1 - log(1 - c2), natural log.

    c1 scores the (real, generated) ordering, c2 the (generated, real) one.
    Returns (loss, dloss_dc1, dloss_dc2).
    """
    c1 = clamp_prob(c_real_first)
    c2 = clamp_prob(c_fake_first)
    loss = -math.log(c1) - math.log(1.0 - c2)
    return loss, -1.0 / c1, 1.0 / (1.0 - c2)


def generator_entropy_loss(c1, c2):
    """Adversarial generator objective on the two classifier outputs.

    The literal form is c1*ln(c1) + c2*ln(c2).
    Returns (loss, dloss_dc1, dloss_dc2).
    """
    c1 = clamp_prob(c1)
    c2 = clamp_prob(c2)
    loss = c1 * math.log(c1) + c2 * math.log(c2)
    return loss, math.log(c1) + 1.0, math.log(c2) + 1.0


class Discriminator:
    """Tiny convolutional classifier on a temporal 2-frame concatenation.

    Maps (6, H, W) -> probability in (delta, 1 - delta); H and W must be
    divisible by 4.
    """

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.params = {}
        for name, (cin, cout) in {"c0": (6, DISC_WIDTH), "c1": (DISC_WIDTH, DISC_WIDTH),
                                  "c2": (DISC_WIDTH, 1)}.items():
            std = np.sqrt(2.0 / (cin * 9))
            self.params[f"{name}.w"] = rng.normal(0.0, std, size=(cout, cin, 3, 3))
            self.params[f"{name}.b"] = np.zeros(cout)

    def forward(self, x):
        """Returns (probability, vjp) for a single (6, H, W) input.

        vjp(dprob) returns fresh (param_grads, grad_input) on each call;
        clamped outputs get zero gradient.
        """
        p = self.params
        h, ops = x[None], []
        for name in ("c0", "c1"):
            h, bw_conv = nn.conv3x3(h, p[f"{name}.w"], p[f"{name}.b"])
            h, bw_relu = nn.relu(h)
            h, bw_pool = nn.avgpool2(h)
            ops.append((name, bw_conv, bw_relu, bw_pool))
        h, bw_conv = nn.conv3x3(h, p["c2.w"], p["c2.b"])
        h, bw_mean = nn.global_mean(h)
        prob_raw = 1.0 / (1.0 + math.exp(-float(h[0])))

        def vjp(dprob):
            if not (PROB_CLAMP < prob_raw < 1.0 - PROB_CLAMP):
                dprob = 0.0
            grads = {}
            g = bw_mean(np.array([dprob * prob_raw * (1.0 - prob_raw)]))
            g, grads["c2.w"], grads["c2.b"] = bw_conv(g)
            for name, bw_c, bw_r, bw_p in reversed(ops):
                g, grads[f"{name}.w"], grads[f"{name}.b"] = bw_c(bw_r(bw_p(g)))
            return grads, g[0]

        return clamp_prob(prob_raw), vjp
