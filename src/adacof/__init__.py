"""Adaptive collaboration-of-flows frame warping and interpolation toolkit."""

from .warp import (WarpMode, WarpParams, backward_warp_image_vjp, backward_warp_vjp,
                   forward_warp, identity_params, load_acof, occlusion_blend,
                   occlusion_blend_vjp, save_acof)
from .flowstats import mean_flow, render_flow, render_occlusion, variance_flow
from .metrics import interpolation_error, psnr, ssim

__all__ = [
    "WarpMode", "WarpParams", "forward_warp", "backward_warp_vjp", "backward_warp_image_vjp",
    "occlusion_blend", "occlusion_blend_vjp", "identity_params", "save_acof", "load_acof",
    "mean_flow", "variance_flow", "render_flow", "render_occlusion",
    "psnr", "ssim", "interpolation_error",
]

__version__ = "0.1.0"
