"""Privacy-guided memory sculpting: importance tracking, drift regularization,
and sensitivity-thresholded unlearning.

Per completed task k the importance is Omega_k = ||delta_W||_F * ||x||_2 and
its running mean Omega_bar modulates the next task's drift penalty

    L_reg = lambda_dyn * Omega_bar * ||delta_W_k - delta_W_{k-1}||_F^2,

with lambda_dyn = lambda_max * (1 - s_bar) + lambda_min * s_bar driven by the
task's mean token sensitivity.  The unlearning term collects thresholded,
margin-weighted token losses and is always non-negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NumericError


@dataclass(frozen=True)
class SculptConfig:
    lambda_max: float = 10.0
    lambda_min: float = 1.0
    theta: float = 0.6
    lambda_unlearn: float = 1.0

    def __post_init__(self) -> None:
        if not (self.lambda_min >= 0 and self.lambda_max >= 0 and self.lambda_unlearn >= 0):
            raise ValueError("lambda values must be non-negative")
        if self.lambda_min > self.lambda_max:
            raise ValueError(
                f"lambda_min ({self.lambda_min}) must not exceed lambda_max ({self.lambda_max})"
            )
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")


@dataclass(frozen=True, eq=False, repr=False)
class AdapterSnapshot:
    """Frozen effective low-rank update of a completed task."""

    task_id: int
    delta_w: np.ndarray

    def __post_init__(self) -> None:
        self.delta_w.setflags(write=False)


@dataclass
class ImportanceState:
    """Omega history plus the running mean of adapted-layer input norms."""

    omega_history: list[float] = field(default_factory=list)
    omega_bar: float = 0.0
    activation_norm_accum: float = 0.0
    activation_count: int = 0

    def observe_activation(self, x_norm) -> None:
        """Fold one activation norm, or an array of them, into the running mean."""
        x = np.asarray(x_norm, dtype=float)
        if (x < 0).any():
            raise ValueError("activation norm must be non-negative")
        if x.size == 0:
            return
        self.activation_count += x.size
        self.activation_norm_accum += (
            float(x.sum()) - x.size * self.activation_norm_accum
        ) / self.activation_count

    def reset_activations(self) -> None:
        self.activation_norm_accum = 0.0
        self.activation_count = 0


def task_importance(delta_w: np.ndarray, x_norm: float) -> float:
    """||delta_w||_F * x_norm."""
    delta_w = np.asarray(delta_w, dtype=float)
    if not np.isfinite(delta_w).all():
        raise NumericError("non-finite adapter delta")
    if x_norm < 0:
        raise ValueError(f"x_norm must be non-negative, got {x_norm}")
    return float(math.sqrt((delta_w * delta_w).sum()) * x_norm)


def update_running_importance(state: ImportanceState, omega_k: float) -> ImportanceState:
    """Record a completed task's Omega and refresh the running mean."""
    if omega_k < 0:
        raise ValueError(f"omega must be non-negative, got {omega_k}")
    state.omega_history.append(float(omega_k))
    state.omega_bar = math.fsum(state.omega_history) / len(state.omega_history)
    return state


def mean_task_sensitivity(score: np.ndarray, lengths: Sequence[int]) -> float:
    """Flat mean of a task's fused scores (stopwords at 0).

    ``score`` holds the task's sequences of ``lengths`` end to end; each
    sequence is summed on its own and the sums accumulated in order.
    """
    if len(score) == 0:
        raise ValueError("task has no tokens")
    acc = 0.0
    for part in np.split(score, np.cumsum(lengths)[:-1]):
        acc += float(part.sum())
    return acc / len(score)


def dynamic_lambda(s_bar: float, config: SculptConfig) -> float:
    """lambda_max * (1 - s_bar) + lambda_min * s_bar; affine in s_bar."""
    if not 0.0 <= s_bar <= 1.0:
        raise ValueError(f"mean sensitivity must be in [0, 1], got {s_bar}")
    return config.lambda_max * (1.0 - s_bar) + config.lambda_min * s_bar


def reg_loss(
    current_delta_w: np.ndarray,
    snapshot: AdapterSnapshot | None,
    lambda_dyn: float,
    omega_bar: float,
) -> float:
    """Drift penalty against the previous task's frozen delta; 0 on task 1."""
    if snapshot is None:
        return 0.0
    current = np.asarray(current_delta_w, dtype=float)
    if current.shape != snapshot.delta_w.shape:
        raise ValueError(
            f"shape mismatch: current {current.shape} vs snapshot {snapshot.delta_w.shape}"
        )
    drift = current - snapshot.delta_w
    return float(lambda_dyn * omega_bar * (drift * drift).sum())


def unlearn_loss(scores, losses, theta: float) -> float:
    """(1/M) sum (score - theta) * loss over tokens with score > theta."""
    s = np.asarray(scores, dtype=float)
    ell = np.asarray(losses, dtype=float)
    if s.shape != ell.shape:
        raise ValueError(f"scores {s.shape} and losses {ell.shape} are not aligned")
    if s.size == 0:
        raise ValueError("need at least one token")
    flagged = s > theta
    return float(np.where(flagged, (s - theta) * ell, 0.0).sum() / s.size)

