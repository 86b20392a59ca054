"""Walk through per-token sensitivity scoring on a tiny two-task corpus.

Shows the raw ingredients (within-task salience p_n, cross-task support d),
the two score components, their fusion, and stopword masking.
"""

import numpy as np

from pecl import (
    SensitivityConfig,
    compute_corpus_stats,
    contextual_score,
    fuse_scores,
    init_lm,
    load_corpus,
)
from pecl.sensitivity import score_sequences
from pecl.tinylm import PackedSequences

import json
import tempfile
from pathlib import Path

records = [
    {"task_id": 1, "text": "the transfer for acct99217 was flagged", "label": "fraud"},
    {"task_id": 1, "text": "the deposit was routine", "label": "ok"},
    {"task_id": 1, "text": "a transfer to the branch", "label": "ok"},
    {"task_id": 2, "text": "the seizure of the patient was sudden", "label": "urgent"},
    {"task_id": 2, "text": "a routine checkup for the patient", "label": "ok"},
]

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "corpus.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
    corpora = load_corpus(path)

vocab = corpora[0].vocab
stats = compute_corpus_stats(corpora, tau=0.2)

print("== corpus statistics ==")
print(f"tasks observed: {stats.num_tasks_observed}")
for surface in ("the", "transfer", "patient", "acct99217", "routine"):
    tid = vocab.id_of(surface)
    saliences = [round(stats.salience(t, tid), 3) for t in stats.task_ids]
    print(f"{surface:>12}: salience per task {saliences}, support d={stats.support_of(tid)}, "
          f"score2={contextual_score(stats, tid):.4f}")

print("\n'the' is salient everywhere (d = N), so its discriminativeness clamps to 0;")
print("task-specific words concentrate in one task and score higher.\n")

print("== fused scores for one sequence ==")
model = init_lm((len(vocab), 16, 6, 24), seed=0)
config = SensitivityConfig(alpha=0.5).bind(vocab)
seq = corpora[0].train[0]  # the transfer for acct99217 was flagged + label
profile = score_sequences(model, None, stats, PackedSequences.of(model, [seq]), config)

print(f"{'pos':>3} {'surface':>12} {'score1':>8} {'score2':>8} {'fused':>8} {'stopword':>9}")
for pos in range(len(profile)):
    print(f"{pos + 1:>3} {vocab.surface_of(profile.tokens[pos]):>12} "
          f"{profile.score1[pos]:>8.3f} {profile.score2[pos]:>8.4f} "
          f"{profile.score[pos]:>8.4f} {str(bool(profile.is_stopword[pos])):>9}")

print("\nPosition 1 has no left context, so its uncertainty term is 0 by definition;")
print("stopword positions are forced to a fused score of exactly 0 after fusion.")

print("\n== fusion behaviour ==")
for s1 in (0.0, 1.0, 3.0, 8.0):
    row = [round(float(fuse_scores(s1, s2, 0.5)), 4) for s2 in (0.0, 0.5, 1.0)]
    print(f"score1={s1:>4}: fused over score2 in (0, 0.5, 1.0) -> {row}")
print("\nThe fused value 1 - exp(-(a*s1 + (1-a)*s2)) always stays in [0, 1).")
