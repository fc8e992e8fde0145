"""Adam with decoupled weight decay, the step learning-rate schedule, and
gradient surgery for the two training objectives."""

from __future__ import annotations

import warnings

import numpy as np

from .autodiff import Tensor


class AdamState:
    """Per-parameter Adam moments plus the shared hyperparameters."""

    def __init__(self, params: dict[str, Tensor], learning_rate: float = 1e-3,
                 weight_decay: float = 1e-4, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.values) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.values) for name, p in params.items()}


def adam_step(state: AdamState, params: dict[str, Tensor],
              grads: dict[str, np.ndarray], lr: float | None = None) -> None:
    """One update: decoupled weight decay first, then bias-corrected Adam.

    ``lr`` overrides the stored base rate (used by the scheduler); weight decay
    always scales with the effective rate.
    """
    eta = state.learning_rate if lr is None else lr
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
            p.values -= eta * state.weight_decay * p.values
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.values -= eta * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def lr_schedule(epoch: int, base_lr: float, halving_period: int = 50) -> float:
    """Halve the base rate once per ``halving_period`` completed epochs."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    return base_lr * 0.5 ** (epoch // halving_period)


# A task gradient whose norm is at most this fraction of the other's is
# treated as noise and not projected on. Rounding noise in a gradient summed
# over k terms reaches about eps * k of the terms' size (~2e-11 at k = 1e5
# cells x pixels); a real gradient below the ratio is under 1e-8 of the
# summed update, too small for its conflict to be worth a projection.
NOISE_RATIO = 1e-8


def pcgrad(grad_list: list[np.ndarray], seed: int) -> list[np.ndarray]:
    """Project away pairwise gradient conflicts between tasks.

    Each task gradient is checked against the other tasks' ORIGINAL gradients
    in a seeded random order; on a negative dot product the conflicting
    component is removed, unless the other gradient's norm is at most
    ``NOISE_RATIO`` times this one's: projecting on noise would remove an
    arbitrary direction. The caller applies the sum of the adjusted list.
    """
    if len(grad_list) < 2:
        raise ValueError("pcgrad needs at least two task gradients")
    length = grad_list[0].shape
    for g in grad_list[1:]:
        if g.shape != length:
            raise ValueError("all task gradients must share one flattened shape")
    originals = [g.astype(np.float64, copy=True) for g in grad_list]
    sq_norms = [float(g @ g) for g in originals]
    rng = np.random.default_rng(seed)
    adjusted = []
    for i, g in enumerate(originals):
        gi = g.copy()
        others = [j for j in range(len(originals)) if j != i]
        rng.shuffle(others)
        for j in others:
            dot = float(gi @ originals[j])
            if dot < 0.0:
                if sq_norms[j] <= 1e-300:
                    warnings.warn(
                        f"pcgrad: skipping projection onto zero-norm task gradient {j}",
                        RuntimeWarning,
                    )
                    continue
                if sq_norms[j] <= NOISE_RATIO ** 2 * sq_norms[i]:
                    continue
                gi -= (dot / sq_norms[j]) * originals[j]
        adjusted.append(gi)
    return adjusted
