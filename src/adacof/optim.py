"""Infinity-norm variant of the adaptive moment optimizer (AdaMax)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

U_FLOOR = 1e-8
BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # infinity-norm decay


@dataclass
class AdaMaxState:
    """First-moment and infinity-norm accumulators per parameter."""

    m: dict = field(default_factory=dict)
    u: dict = field(default_factory=dict)
    t: int = 0
    lr: float = 0.001


def adamax_step(state, params, grads):
    """One update in place: m <- b1*m + (1-b1)*g; u <- max(b2*u, |g|);
    theta <- theta - (lr / (1 - b1^t)) * m / max(u, floor).
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name!r}")
    state.t += 1
    scale = state.lr / (1.0 - BETA1 ** state.t)
    for name, g in grads.items():
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(g)
            state.m[name] = m
            state.u[name] = np.zeros_like(g)
        u = state.u[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        np.maximum(BETA2 * u, np.abs(g), out=u)
        params[name] = params[name] - scale * m / np.maximum(u, U_FLOOR)

