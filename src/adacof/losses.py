"""Training objectives: smooth L1, feature-space distance, and the
dual-frame adversarial pair.

The perceptual term compares features of a fixed 8-orientation gradient filter
bank (no pretrained weights), which keeps the loss a deterministic feature-space
distance. The bank's features and the classifier run on nn's executor.
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
    stages = [*nn.conv_unit("bank", "image", c * nf), ("features", "avgpool2", ("bank",), 0)]
    values, tape = nn.forward(stages, {"bank.w": kernel, "bank.b": np.zeros(c * nf)},
                              {"image": image[None]})
    return values["features"][0], lambda g: nn.backward(tape, {"features": g[None]})["image"][0]


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
    """Tiny convolutional classifier on a temporal 2-frame concatenation:
    two pooled conv units, then a one-channel conv whose mean is the logit.

    Maps (6, H, W) -> probability in (delta, 1 - delta); H and W must be
    divisible by 4.
    """

    STAGES = [*nn.conv_unit("c0", "x", DISC_WIDTH), ("p0", "avgpool2", ("c0",), 0),
              *nn.conv_unit("c1", "p0", DISC_WIDTH), ("p1", "avgpool2", ("c1",), 0),
              ("c2", "conv3x3", ("p1",), 1), ("logit", "global_mean", ("c2",), 0)]

    def __init__(self, seed=0):
        self.params = nn.he_init(nn.param_shapes(self.STAGES, {"x": 6}), seed)

    def forward(self, x):
        """Returns (probability, vjp) for a single (6, H, W) input.

        vjp(dprob) returns fresh (param_grads, grad_input) on each call;
        clamped outputs get zero gradient.
        """
        values, tape = nn.forward(self.STAGES, self.params, {"x": x[None]})
        prob_raw = 1.0 / (1.0 + math.exp(-float(values["logit"][0])))

        def vjp(dprob):
            if not (PROB_CLAMP < prob_raw < 1.0 - PROB_CLAMP):
                dprob = 0.0
            grads = nn.backward(tape, {"logit": np.array([dprob * prob_raw * (1.0 - prob_raw)])})
            return {name: grads[name] for name in self.params}, grads["x"][0]

        return clamp_prob(prob_raw), vjp
