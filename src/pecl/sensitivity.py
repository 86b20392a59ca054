"""Per-token privacy sensitivity scoring.

Two complementary signals are fused per token position:

* predictive uncertainty ``score1 = -ln P(t_i | t_<i)`` under the current
  (adapted) model, on clean embeddings, and
* contextual discriminativeness ``score2 = (1/N) * sum_n p_n(t) * ln(N / (1 + d(t)))``
  over the observed tasks,

combined as ``score = 1 - exp(-(alpha * score1 + (1 - alpha) * score2))``,
which lies in [0, 1).  Stopword positions are forced to score 0 after fusion,
and the first position, which has no predictive context, uses score1 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .corpus import CorpusStats, Vocabulary, load_stopwords
from .tinylm import LoraAdapter, PackedBatch, PackedSequences, TinyLM, Workspace, forward_batch


@dataclass(frozen=True)
class SensitivityConfig:
    alpha: float = 0.5
    stopwords: frozenset[str] = field(default_factory=load_stopwords)
    stopword_ids: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")

    def bind(self, vocab: Vocabulary) -> "SensitivityConfig":
        """Resolve the stopword surfaces against a vocabulary."""
        return replace(self, stopword_ids=vocab.ids_of(self.stopwords))


class ProfileEntry(NamedTuple):
    score: float
    epsilon: float
    sigma: float


@dataclass(eq=False, repr=False)
class SensitivityProfile:
    """Per-position scores of packed sequences, end to end, frozen for a task's epochs.

    ``epsilon``/``sigma`` stay NaN until a privacy budget is assigned; they
    are defined exactly for positions with score > 0.
    """

    tokens: list[int]
    score1: np.ndarray
    score2: np.ndarray
    score: np.ndarray
    is_stopword: np.ndarray
    epsilon: np.ndarray
    sigma: np.ndarray

    def __len__(self) -> int:
        return len(self.tokens)


def contextual_score(stats: CorpusStats, token_id: int) -> float:
    """Cross-task discriminativeness of a token, clamped at 0.

    The raw value goes negative once a token's support d(t) reaches N, which
    would break the non-negativity the fused score relies on, hence the clamp.
    """
    n_tasks = stats.num_tasks_observed
    total = sum(stats.salience(tid, token_id) for tid in stats.task_ids)
    if total == 0.0:
        return 0.0
    raw = (total / n_tasks) * math.log(n_tasks / (1.0 + stats.support_of(token_id)))
    return max(raw, 0.0)


def fuse_scores(score1, score2, alpha: float):
    """Fused sensitivity 1 - exp(-(alpha*score1 + (1-alpha)*score2)) in [0, 1).

    Accepts scalars or numpy arrays; both scores must be non-negative.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    s1 = np.asarray(score1, dtype=float)
    s2 = np.asarray(score2, dtype=float)
    if (s1 < 0).any() or (s2 < 0).any():
        raise ValueError("scores must be non-negative")
    fused = 1.0 - np.exp(-(alpha * s1 + (1.0 - alpha) * s2))
    if fused.ndim == 0:
        return float(fused)
    return fused


def window_losses(model: TinyLM, adapter: LoraAdapter | None, layout: PackedBatch,
                  batch_size: int, work: Workspace | None = None) -> list[np.ndarray]:
    """Each ``batch_size`` chunk's valid-window losses, in the layout's order."""
    work = work or Workspace()
    losses = []
    for chunk in layout.chunks(batch_size):
        fb = forward_batch(model, adapter, chunk, work)
        losses.append(fb.losses[fb.valid])
    return losses


def score_sequences(
    model: TinyLM,
    adapter: LoraAdapter | None,
    stats: CorpusStats,
    packed: PackedSequences,
    config: SensitivityConfig,
    batch_size: int = 32,
    losses: np.ndarray | None = None,
) -> SensitivityProfile:
    """Score every position of packed sequences with the model state of the moment.

    Returns one profile over all their tokens end to end.  score1 comes
    from ``forward_batch`` over ``batch_size`` sequences at a time: the
    ``window_losses`` of the sequences of 2 or more tokens in order, or
    ``losses``, those losses end to end, when the caller has computed them.
    score2 comes from one table over the distinct token ids.  Stopword
    positions are zeroed after fusion; budgets are left unassigned (see
    privacy.assign_budgets).
    """
    tokens = packed.tokens[:-1]
    score1 = np.zeros(tokens.size)
    predicted = np.ones(tokens.size, dtype=bool)
    predicted[packed.starts[packed.lengths > 0]] = False
    scored = np.flatnonzero(packed.lengths >= 2)
    if scored.size:
        if losses is None:
            losses = np.concatenate(window_losses(model, adapter, packed.batch(model, scored),
                                                  batch_size))
        score1[predicted] = losses

    distinct, where = np.unique(tokens, return_inverse=True)
    table = np.array([contextual_score(stats, tok) for tok in distinct.tolist()])
    score2 = table[where]

    score = np.asarray(fuse_scores(score1, score2, config.alpha))
    is_stop = np.isin(tokens, list(config.stopword_ids))
    score[is_stop] = 0.0

    return SensitivityProfile(
        tokens=tokens.tolist(),
        score1=score1,
        score2=score2,
        score=score,
        is_stopword=is_stop,
        epsilon=np.full(tokens.size, np.nan),
        sigma=np.full(tokens.size, np.nan),
    )
