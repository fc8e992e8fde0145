"""Adam with decoupled weight decay, the step learning-rate schedule, and
gradient surgery for the two training objectives."""

from __future__ import annotations

import warnings

import numpy as np

from .autodiff import Tensor


class AdamState:
    """Per-parameter Adam moments plus the shared hyperparameters."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, Tensor], weight_decay: float):
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p.values) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.values) for name, p in params.items()}


def adam_step(state: AdamState, params: dict[str, Tensor],
              grads: dict[str, np.ndarray], lr: float) -> None:
    """One update at learning rate ``lr``: decoupled weight decay first, then
    bias-corrected Adam; weight decay scales with ``lr``."""
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.values.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter '{name}' {p.values.shape}"
            )
        if state.weight_decay != 0.0:
            p.values -= lr * state.weight_decay * p.values
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.values -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


HALVING_PERIOD = 50  # epochs per halving: the default 105 epochs see three rates


def lr_schedule(epoch: int, base_lr: float) -> float:
    """Halve the base rate once per ``HALVING_PERIOD`` completed epochs."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    return base_lr * 0.5 ** (epoch // HALVING_PERIOD)


# A task gradient whose norm is at most this fraction of the other's is
# treated as noise and not projected on. Rounding noise in a gradient summed
# over k terms reaches about eps * k of the terms' size (~2e-11 at k = 1e5
# cells x pixels); a real gradient below the ratio is under 1e-8 of the
# summed update, too small for its conflict to be worth a projection.
NOISE_RATIO = 1e-8


def pcgrad(grads: np.ndarray) -> np.ndarray:
    """Project away the conflict between the two objectives' gradients at
    the fused embedding, ``grads`` of shape (2, *shape).

    Each task's gradient, flattened, is checked against the other's
    ORIGINAL gradient; on a negative dot product the conflicting component
    is removed, unless the other gradient's norm is at most ``NOISE_RATIO``
    times this one's: projecting on noise would remove an arbitrary
    direction. Returns a new (2, *shape) array; a gradient that is not
    projected comes back as given. The caller applies the sum of the two
    tasks.
    """
    if len(grads) != 2:
        raise ValueError(f"pcgrad takes exactly two task gradients, got {len(grads)}")
    flat = grads.reshape(2, -1)
    sq_norms = [float(g @ g) for g in flat]
    adjusted = grads.copy()
    for i, j in ((0, 1), (1, 0)):
        dot = float(flat[i] @ flat[j])
        if dot < 0.0 and sq_norms[j] <= 1e-300:
            warnings.warn(
                f"pcgrad: skipping projection onto zero-norm task gradient {j}",
                RuntimeWarning,
            )
        elif dot < 0.0 and sq_norms[j] > NOISE_RATIO ** 2 * sq_norms[i]:
            adjusted.reshape(2, -1)[i] -= (dot / sq_norms[j]) * flat[j]
    return adjusted
