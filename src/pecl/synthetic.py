"""Bundled synthetic multi-task stream with planted sensitive tokens.

Three topic-word classification tasks (banking, medical, legal) stand in for
large public benchmarks.  Each example is a handful of shared function words
plus class-indicative content words; a fraction of training sentences carries
a planted "sensitive" token (fake account ids, rare names) so memorization
and unlearning effects have a known ground truth.  Everything is driven by a
single seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import TaskCorpus, Vocabulary, corpora_from_records
from .seeding import spawn_rng

FUNCTION_WORDS = [
    "the", "a", "is", "was", "to", "of", "and", "in", "it", "for",
    "on", "with", "this", "that", "at", "by",
]

# Planted tokens always follow this marker (a stopword, so its embedding is
# never noised): it gives models a clean context through which secrets can be
# memorized, which unlearning should then suppress.
PLANT_TRIGGER = "per"

# (label_a, words_a, label_b, words_b) per topic: task-incremental streams
# with disjoint label tokens, so later tasks really do overwrite earlier ones.
TOPICS = [
    (
        "flagged",
        ["transfer", "overdraft", "wire", "chargeback", "suspicious", "frozen"],
        "routine",
        ["deposit", "savings", "statement", "balance", "branch", "interest"],
    ),
    (
        "urgent",
        ["fracture", "hemorrhage", "seizure", "overdose", "cardiac", "trauma"],
        "stable",
        ["checkup", "vitamins", "allergy", "followup", "therapy", "rest"],
    ),
    (
        "liable",
        ["breach", "negligence", "damages", "injunction", "fraudulent", "violation"],
        "dismissed",
        ["settlement", "mediation", "compliance", "waiver", "notary", "filing"],
    ),
]

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"


@dataclass
class SyntheticStream:
    tasks: list[TaskCorpus]
    vocab: Vocabulary
    sensitive_surfaces: frozenset[str]
    sensitive_ids: frozenset[int]
    label_surfaces: frozenset[str] = frozenset()


def _rare_name(rng) -> str:
    length = int(rng.integers(3, 5))
    return "".join(
        _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
        for _ in range(length)
    )


def _fake_id(rng) -> str:
    digits = "".join(str(rng.integers(10)) for _ in range(5))
    return f"acct{digits}"


def _sensitive_pool(rng, size: int) -> list[str]:
    pool: list[str] = []
    seen = set()
    while len(pool) < size:
        surface = _rare_name(rng) if rng.random() < 0.5 else _fake_id(rng)
        if surface not in seen:
            seen.add(surface)
            pool.append(surface)
    return pool


def _topic_for(task_index: int) -> tuple[str, list[str], str, list[str]]:
    la, wa, lb, wb = TOPICS[task_index % len(TOPICS)]
    if task_index < len(TOPICS):
        return la, wa, lb, wb
    sfx = str(task_index // len(TOPICS) + 1)
    return la + sfx, [w + sfx for w in wa], lb + sfx, [w + sfx for w in wb]


def _sentence(rng, class_words: list[str], plant: str | None) -> list[str]:
    # Drawn by index: the same draws as ``rng.choice(words, 3, replace=...)``
    # over the word lists, without turning the lists into string arrays.
    content = rng.choice(len(class_words), size=3, replace=False).tolist()
    fillers = rng.integers(0, len(FUNCTION_WORDS), size=3).tolist()
    words = []
    for c, f in zip(content, fillers):
        words.extend([FUNCTION_WORDS[f], class_words[c]])
    if plant is not None:
        # Secrets lead the sentence behind their marker, so every occurrence
        # shares the same clean left context.
        words[0:0] = [PLANT_TRIGGER, plant]
    return words


def synthetic_stream(
    num_tasks: int = 3,
    train_per_task: int = 300,
    eval_per_task: int = 100,
    seed: int = 0,
    plant_rate: float = 0.15,
    plants_per_task: int = 20,
) -> SyntheticStream:
    """Generate the seeded multi-task stream (task ids 1..num_tasks).

    Sensitive tokens are planted only in training sentences, one per planted
    sentence, at ``plant_rate``; each task draws them from a pool of
    ``plants_per_task`` distinct secrets (smaller pools repeat more, so they
    are easier to memorize).
    """
    if num_tasks < 1:
        raise ValueError(f"num_tasks must be >= 1, got {num_tasks}")
    if train_per_task < 1 or eval_per_task < 1:
        raise ValueError("train_per_task and eval_per_task must be >= 1")
    if not 0.0 <= plant_rate <= 1.0:
        raise ValueError(f"plant_rate must be in [0, 1], got {plant_rate}")
    if plants_per_task < (1 if plant_rate > 0 else 0):
        raise ValueError(
            f"plants_per_task must be >= 1 (>= 0 at plant_rate 0), got {plants_per_task}")

    rng = spawn_rng(seed, "synthetic-stream")
    records: list[tuple[int, str, str, str]] = []
    labels: list[str] = []
    sensitive: list[str] = []
    for idx in range(num_tasks):
        label_a, words_a, label_b, words_b = _topic_for(idx)
        labels += [label_a, label_b]
        pool = _sensitive_pool(rng, size=plants_per_task)
        sensitive.extend(pool)
        for split, count in (("train", train_per_task), ("eval", eval_per_task)):
            for _ in range(count):
                label, words = (label_a, words_a) if rng.random() < 0.5 else (label_b, words_b)
                plant = None
                if split == "train" and rng.random() < plant_rate:
                    plant = pool[int(rng.integers(len(pool)))]
                records.append((idx + 1, " ".join(_sentence(rng, words, plant)), label, split))
    tasks = corpora_from_records(records, labels)
    vocab = tasks[0].vocab
    surfaces = frozenset(sensitive)
    return SyntheticStream(
        tasks=tasks,
        vocab=vocab,
        sensitive_surfaces=surfaces,
        sensitive_ids=vocab.ids_of(surfaces),
        label_surfaces=frozenset(labels),
    )
