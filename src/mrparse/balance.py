"""Adaptive multi-task loss weights balancing gradient magnitudes.

Each task's gradient norm on the last shared layer of weights is steered
toward the mean norm scaled by the task's relative inverse training rate:
tasks whose loss ratio drops fastest get their weight reduced to leave room
for the others.  Taking the norms on that one layer rather than on all the
shared parameters is GradNorm's choice (Chen et al., ICML 2018).  Weights
are renormalized to sum to the task count after every update.
"""

from __future__ import annotations

from dataclasses import dataclass

MIN_WEIGHT = 1e-4


@dataclass
class BalanceState:
    """Mutable balancing state carried across training steps."""

    weights: dict[str, float]
    initial_losses: dict[str, float] | None = None

    @classmethod
    def uniform(cls, tasks) -> "BalanceState":
        return cls(weights={t: 1.0 for t in tasks})


def update_loss_weights(grad_norms: dict[str, float], losses: dict[str, float],
                        initial_losses: dict[str, float],
                        weights: dict[str, float], alpha: float,
                        lr: float) -> tuple[dict[str, float], list[str]]:
    """One balancing step; returns (new weights, warnings).

    grad_norms[t] is the norm of the gradient of w_t * loss_t on the last
    shared layer.  Tasks with zero initial loss are excluded from balancing
    (their weight only participates in the renormalization).  The new weights
    are clamped positive and renormalized so they sum to the task count.
    """
    tasks = sorted(weights)
    warnings = []
    active = []
    for t in tasks:
        if initial_losses.get(t, 0.0) <= 0.0:
            warnings.append(f"task {t!r} has zero initial loss; excluded from balancing")
        else:
            active.append(t)
    new_weights = dict(weights)
    if active:
        ratios = {t: losses[t] / initial_losses[t] for t in active}
        mean_ratio = sum(ratios.values()) / len(active)
        mean_norm = sum(grad_norms[t] for t in active) / len(active)
        if mean_ratio > 0.0:
            for t in active:
                relative = ratios[t] / mean_ratio
                target = mean_norm * relative ** alpha
                # d/dw_t |w_t n_t - target| = sign(...) * n_t, with n_t = G_t / w_t
                sign = 0.0 if grad_norms[t] == target else (
                    1.0 if grad_norms[t] > target else -1.0)
                gradient = sign * grad_norms[t] / max(weights[t], MIN_WEIGHT)
                new_weights[t] = weights[t] - lr * gradient
    for t in tasks:
        new_weights[t] = max(new_weights[t], MIN_WEIGHT)
    scale = len(tasks) / sum(new_weights.values())
    for t in tasks:
        new_weights[t] *= scale
    return new_weights, warnings
