"""Image quality metrics: PSNR, SSIM, and RMS interpolation error."""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


def _check_pair(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def psnr(a, b):
    """Peak signal-to-noise ratio in dB on the [0, 1] scale (inf if equal)."""
    a, b = _check_pair(a, b)
    mse = float(((a - b) ** 2).mean())
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def interpolation_error(a, b):
    """Root-mean-square error on the 0..255 scale."""
    a, b = _check_pair(a, b)
    return 255.0 * math.sqrt(float(((a - b) ** 2).mean()))


def _gaussian_window(n=SSIM_WINDOW, sigma=SSIM_SIGMA):
    x = np.arange(n) - (n - 1) / 2.0
    w = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return w / w.sum()


def _filter_valid(img, window):
    """Separable valid-mode correlation of (H, W) with a 1D window."""
    n = len(window)
    out = np.einsum("ijk,k->ij", sliding_window_view(img, n, axis=1), window)
    return np.einsum("jik,k->ji", sliding_window_view(out.T, n, axis=1), window).T


def ssim(a, b):
    """Structural similarity with an 11x11 Gaussian window (sigma 1.5).

    Dynamic range 1, mean over valid windows, averaged across channels.
    """
    a, b = _check_pair(a, b)
    if a.shape[1] < SSIM_WINDOW or a.shape[2] < SSIM_WINDOW:
        raise ValueError(f"images must be at least {SSIM_WINDOW} pixels per side")
    win = _gaussian_window()
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2
    scores = []
    for x, y in zip(a, b):
        mu_x = _filter_valid(x, win)
        mu_y = _filter_valid(y, win)
        var_x = _filter_valid(x * x, win) - mu_x * mu_x
        var_y = _filter_valid(y * y, win) - mu_y * mu_y
        cov = _filter_valid(x * y, win) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
        den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        scores.append((num / den).mean())
    return float(np.mean(scores))


def metrics_row(name, psnr_db, ssim_score, ie):
    """One CSV report row with 6 significant digits."""
    return f"{name},{psnr_db:.6g},{ssim_score:.6g},{ie:.6g}"
