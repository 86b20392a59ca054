import math

import pytest

from pecl.corpus import build_vocab
from pecl.seeding import spawn_rng
from pecl.synthetic import (FUNCTION_WORDS, PLANT_TRIGGER, _sensitive_pool, _topic_for,
                            synthetic_stream)

RECIPE = dict(num_tasks=3, train_per_task=200, eval_per_task=80, plant_rate=0.35,
              plants_per_task=4)


def reference_stream(num_tasks=3, train_per_task=300, eval_per_task=100, seed=0,
                     plant_rate=0.15, plants_per_task=20):
    """The stream as drawn with ``rng.choice`` over the word lists themselves, tokenized
    with ``build_vocab`` and ``Vocabulary.encode``: (tokens by task and split, vocabulary
    surfaces, sensitive ids)."""
    rng = spawn_rng(seed, "synthetic-stream")
    records, labels, sensitive = [], [], []
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
                content = list(rng.choice(words, size=3, replace=False))
                fillers = list(rng.choice(FUNCTION_WORDS, size=3, replace=True))
                sentence = [w for pair in zip(fillers, content) for w in pair]
                if plant is not None:
                    sentence[0:0] = [PLANT_TRIGGER, plant]
                records.append((idx + 1, " ".join(sentence), label, split))
    vocab = build_vocab([text for _, text, _, _ in records], labels)
    tokens = {}
    for task_id, text, label, split in records:
        tokens.setdefault((task_id, split), []).append(vocab.encode(text) + [vocab.id_of(label)])
    surfaces = [vocab.surface_of(i) for i in range(len(vocab))]
    return tokens, surfaces, vocab.ids_of(sensitive)


def drawn(stream):
    tokens = {}
    for task in stream.tasks:
        for split in ("train", "eval"):
            tokens[task.task_id, split] = [seq.tokens for seq in getattr(task, split)]
            assert all(seq.tokens[-1] == seq.label_token for seq in getattr(task, split))
    surfaces = [stream.vocab.surface_of(i) for i in range(len(stream.vocab))]
    return tokens, surfaces, stream.sensitive_ids


@pytest.mark.parametrize("kwargs", [
    *(dict(seed=s) for s in range(3)),
    *(dict(RECIPE, seed=s) for s in range(3)),
    dict(num_tasks=7, train_per_task=40, eval_per_task=10, seed=4, plants_per_task=1),
    dict(num_tasks=2, train_per_task=60, eval_per_task=20, seed=5, plant_rate=0.0),
    dict(num_tasks=2, train_per_task=60, eval_per_task=20, seed=6, plant_rate=1.0,
         plants_per_task=3),
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_the_stream_equals_the_reference_drawn_from_the_word_lists(kwargs):
    tokens, surfaces, sensitive_ids = drawn(synthetic_stream(**kwargs))
    assert (tokens, surfaces, sensitive_ids) == reference_stream(**kwargs)
    assert sensitive_ids or kwargs.get("plant_rate") == 0.0


@pytest.mark.parametrize("plant_rate", [math.nan, -1.0, 1.5, math.inf])
def test_a_plant_rate_outside_0_1_is_refused(plant_rate):
    with pytest.raises(ValueError, match="plant_rate must be in"):
        synthetic_stream(num_tasks=1, train_per_task=4, eval_per_task=2, plant_rate=plant_rate)


@pytest.mark.parametrize("plant_rate, plants_per_task", [(0.15, 0), (0.15, -1), (1.0, 0),
                                                         (0.0, -1)])
def test_an_empty_or_negative_plant_pool_is_refused(plant_rate, plants_per_task):
    with pytest.raises(ValueError, match="plants_per_task must be >= 1"):
        synthetic_stream(num_tasks=1, train_per_task=4, eval_per_task=2,
                         plant_rate=plant_rate, plants_per_task=plants_per_task)


def test_no_plant_pool_is_needed_at_plant_rate_0():
    stream = synthetic_stream(num_tasks=2, train_per_task=4, eval_per_task=2, plant_rate=0.0,
                              plants_per_task=0)
    assert stream.sensitive_ids == frozenset() and len(stream.tasks) == 2
