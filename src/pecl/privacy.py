"""Token-level privacy budgets, the clipped Gaussian mechanism, and accounting.

A fused sensitivity score in [0, 1) maps to a per-token budget

    epsilon_i = eps_lower + (eps_upper - eps_lower) * (1 - score)^2,

so higher sensitivity means a smaller budget and more noise.  The mechanism
clips an embedding to L2 norm C and adds N(0, sigma_i^2 I) with

    sigma_i = k * C * sqrt(2 * ln(1.25 / delta)) / epsilon_i,

where the numerator factor k is 1 under the ``main_text`` variant and 2 under
the ``appendix`` variant (the default: with both inputs clipped to norm C the
mechanism's L2 sensitivity is 2C, and only the 2C calibration is covered by
the Gaussian-mechanism guarantee).  Every noised exposure is recorded in a
ledger; the sequence-level cost is composed as

    eps_total = sum_i eps_i + sqrt(2 L ln(1 / delta')) * max_i eps_i,
    delta_total = delta + delta',

applied exactly as stated even though it does not match the standard
advanced-composition bound term for term.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, NumericError
from .sensitivity import ProfileEntry, SensitivityProfile

VARIANTS = ("main_text", "appendix")


@dataclass(frozen=True)
class PrivacyConfig:
    eps_lower: float = 1.0
    eps_upper: float = 10.0
    delta: float = 1e-6
    clip_norm: float = 1.0
    sensitivity_variant: str = "appendix"
    noise_seed: int = 0

    def __post_init__(self) -> None:
        if self.eps_lower <= 0 or self.eps_upper <= 0:
            raise ValueError("epsilon bounds must be positive")
        if self.eps_lower > self.eps_upper:
            raise ValueError(
                f"eps_lower ({self.eps_lower}) must not exceed eps_upper ({self.eps_upper})"
            )
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.sensitivity_variant not in VARIANTS:
            raise ValueError(
                f"sensitivity_variant must be one of {VARIANTS}, got {self.sensitivity_variant!r}"
            )


def allocate_budget(score, config: PrivacyConfig):
    """Map sensitivity scores in [0, 1] to budgets in [eps_lower, eps_upper]."""
    s = np.asarray(score, dtype=float)
    if (s < 0).any() or (s > 1).any():
        raise ValueError("score must lie in [0, 1]")
    eps = config.eps_lower + (config.eps_upper - config.eps_lower) * (1.0 - s) ** 2
    return float(eps) if eps.ndim == 0 else eps


def clip(e: np.ndarray, c: float) -> np.ndarray:
    """Project vectors onto the L2 ball of radius ``c``.

    Accepts a single vector or a 2-D array of row vectors.  Idempotent, and
    any two outputs are at most 2c apart.
    """
    if c <= 0:
        raise ValueError(f"clip norm must be positive, got {c}")
    e = np.asarray(e, dtype=float)
    if not np.isfinite(e).all():
        raise NumericError("cannot clip a non-finite vector")
    # Row-wise dot products: the same BLAS dot as np.linalg.norm of a single
    # vector, so clipping a batch of rows matches clipping each row alone.
    norms = np.sqrt(np.matmul(e[..., None, :], e[..., :, None])[..., 0])
    scale = np.where(norms > c, c / np.maximum(norms, 1e-300), 1.0)
    return e * scale


def noise_sigma(epsilon, delta: float, c: float, variant: str = "appendix"):
    """Gaussian noise scale for an (epsilon, delta) budget with clip norm c."""
    eps = np.asarray(epsilon, dtype=float)
    if (eps <= 0).any():
        raise ValueError("epsilon must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if c <= 0:
        raise ValueError(f"clip norm must be positive, got {c}")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    factor = 2.0 if variant == "appendix" else 1.0
    sigma = factor * c * math.sqrt(2.0 * math.log(1.25 / delta)) / eps
    return float(sigma) if sigma.ndim == 0 else sigma


def assign_budgets(profile: SensitivityProfile, config: PrivacyConfig) -> SensitivityProfile:
    """Fill epsilon/sigma for every position with score > 0 (in place)."""
    for pos, s in enumerate(profile.score):
        if s > 0.0:
            eps = allocate_budget(float(s), config)
            profile.epsilon[pos] = eps
            profile.sigma[pos] = noise_sigma(
                eps, config.delta, config.clip_norm, config.sensitivity_variant
            )
    return profile


@dataclass(frozen=True)
class LedgerRecord:
    sequence_id: str
    position: int
    epoch: int
    epsilon: float
    sigma: float
    delta: float


@dataclass
class PrivacyLedger:
    """One record per noised token exposure, plus the composition slack."""

    delta_prime: float = 1e-6
    records: list[LedgerRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 < self.delta_prime < 1.0:
            raise ValueError(f"delta_prime must be in (0, 1), got {self.delta_prime}")

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: LedgerRecord) -> None:
        self.records.append(record)

    def epsilons(self) -> np.ndarray:
        return np.array([r.epsilon for r in self.records])

    def to_csv(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sequence_id", "position", "epoch", "epsilon", "sigma"])
            for r in self.records:
                writer.writerow([r.sequence_id, r.position, r.epoch, repr(r.epsilon), repr(r.sigma)])

    @classmethod
    def from_csv(
        cls, path: str | Path, delta: float, delta_prime: float = 1e-6
    ) -> "PrivacyLedger":
        p = Path(path)
        if not p.exists():
            raise DataError(f"ledger file not found: {p}")
        ledger = cls(delta_prime=delta_prime)
        with p.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            expected = {"sequence_id", "position", "epoch", "epsilon", "sigma"}
            if reader.fieldnames is None or set(reader.fieldnames) != expected:
                raise DataError(f"{p}: ledger header must be {sorted(expected)}")
            for lineno, row in enumerate(reader, start=2):
                try:
                    ledger.append(
                        LedgerRecord(
                            sequence_id=row["sequence_id"],
                            position=int(row["position"]),
                            epoch=int(row["epoch"]),
                            epsilon=float(row["epsilon"]),
                            sigma=float(row["sigma"]),
                            delta=delta,
                        )
                    )
                except (TypeError, ValueError) as exc:
                    raise DataError(f"{p}:{lineno}: malformed ledger row: {exc}") from exc
        return ledger


def perturb_embeddings(
    e: np.ndarray,
    score: np.ndarray,
    epsilon: np.ndarray,
    sigma: np.ndarray,
    config: PrivacyConfig,
    rng: np.random.Generator,
    *,
    ledger: PrivacyLedger | None = None,
    sequence_ids: Sequence[str] = (),
    positions: Sequence[int] = (),
    epoch: int = 0,
) -> np.ndarray:
    """Apply the clipped Gaussian mechanism to k embedding rows at once.

    Row i is an exposure iff ``score[i] > 0``: it is clipped to
    ``config.clip_norm``, gets independent N(0, sigma[i]^2) noise per
    coordinate, and appends one ledger record keyed by ``sequence_ids[i]``,
    ``positions[i]`` and ``epoch``, in row order.  Other rows are returned
    unchanged.  All noise comes from one ``rng.normal`` call, which draws the
    same numbers, and leaves ``rng`` in the same state, as one call per
    exposure in row order.
    """
    e = np.asarray(e, dtype=float)
    hit = np.asarray(score) > 0.0
    eps = np.asarray(epsilon, dtype=float)[hit]
    sig = np.asarray(sigma, dtype=float)[hit]
    if not (np.isfinite(eps).all() and np.isfinite(sig).all()):
        raise ValueError("a token with positive score has no epsilon/sigma assigned")
    out = e.copy()
    out[hit] = clip(e[hit], config.clip_norm) + rng.normal(
        0.0, sig[:, None], size=(sig.size, e.shape[1])
    )
    if ledger is not None:
        keys = zip(np.asarray(sequence_ids, dtype=object)[hit].tolist(),
                   np.asarray(positions)[hit].tolist())
        ledger.records.extend(
            LedgerRecord(seq_id, pos, epoch, eps_i, sig_i, config.delta)
            for (seq_id, pos), eps_i, sig_i in zip(keys, eps.tolist(), sig.tolist())
        )
    return out


def perturb_embedding(
    e: np.ndarray,
    entry: ProfileEntry,
    config: PrivacyConfig,
    rng: np.random.Generator,
    *,
    ledger: PrivacyLedger | None = None,
    sequence_id: str = "",
    position: int = 0,
    epoch: int = 0,
) -> np.ndarray:
    """Apply the clipped Gaussian mechanism to one embedding exposure.

    Zero-score tokens pass through bit-identical and leave no ledger record.
    Otherwise this is the one-row case of ``perturb_embeddings``.
    """
    if entry.score == 0.0:
        return e
    return perturb_embeddings(
        np.asarray(e, dtype=float)[None], [entry.score], [entry.epsilon], [entry.sigma],
        config, rng, ledger=ledger, sequence_ids=[str(sequence_id)], positions=[position],
        epoch=epoch,
    )[0]


def compose_sequence(ledger: PrivacyLedger, delta_prime: float) -> tuple[float, float]:
    """Sequence-level budget over all recorded exposures.

    Uses the stated composition form verbatim:
    eps_total = sum eps_i + sqrt(2 L ln(1/delta')) * max eps_i, and
    delta_total = delta + delta'.
    """
    if not ledger.records:
        raise DataError("cannot compose an empty ledger")
    if not 0.0 < delta_prime < 1.0:
        raise ValueError(f"delta_prime must be in (0, 1), got {delta_prime}")
    eps = ledger.epsilons()
    length = len(eps)
    eps_total = float(eps.sum() + math.sqrt(2.0 * length * math.log(1.0 / delta_prime)) * eps.max())
    delta = max(r.delta for r in ledger.records)
    return eps_total, delta + delta_prime
