import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pecl.corpus import (
    PAD_ID,
    UNK_ID,
    TaskCorpus,
    TokenizedSequence,
    Vocabulary,
    compute_corpus_stats,
    load_corpus,
    load_stopwords,
    split_words,
)
from pecl.errors import DataError


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def make_task(task_id, sequences, label):
    seqs = [
        TokenizedSequence(tokens=ids + [label], task_id=task_id, label_token=label)
        for ids in sequences
    ]
    return TaskCorpus(task_id=task_id, train=seqs, eval=[], label_set={label})


def test_load_corpus_counts_records_per_task(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(
        path,
        [
            {"task_id": 1, "text": "alpha beta", "label": "yes"},
            {"task_id": 1, "text": "beta gamma", "label": "no"},
            {"task_id": 2, "text": "delta", "label": "yes"},
        ],
    )
    corpora = load_corpus(path)
    assert [c.task_id for c in corpora] == [1, 2]
    assert len(corpora[0].train) == 2
    assert len(corpora[1].train) == 1


def test_load_corpus_empty_file_errors(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="no records"):
        load_corpus(path)


def test_load_corpus_tokenizes_and_appends_label(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [{"task_id": 1, "text": "The bank froze my account", "label": "fraud"}])
    (task,) = load_corpus(path)
    seq = task.train[0]
    # five lowercase word tokens plus the appended label token
    assert len(seq.tokens) == 6
    surfaces = [task.vocab.surface_of(t) for t in seq.tokens[:-1]]
    assert surfaces == ["the", "bank", "froze", "my", "account"]
    assert seq.tokens[-1] == seq.label_token
    assert task.vocab.surface_of(seq.label_token) == "fraud"


def test_load_corpus_reports_malformed_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"task_id": 1, "text": "ok", "label": "a"}\n{broken\n', encoding="utf-8"
    )
    with pytest.raises(DataError, match=":2:"):
        load_corpus(path)


def test_load_corpus_rejects_bad_task_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [{"task_id": "one", "text": "ok", "label": "a"}])
    with pytest.raises(DataError, match="task_id"):
        load_corpus(path)
    path2 = tmp_path / "corpus2.jsonl"
    write_jsonl(path2, [{"text": "ok", "label": "a"}])
    with pytest.raises(DataError, match="task_id"):
        load_corpus(path2)


def test_load_corpus_missing_file():
    with pytest.raises(DataError, match="not found"):
        load_corpus("/nonexistent/corpus.jsonl")


def test_load_corpus_eval_split(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(
        path,
        [
            {"task_id": 1, "text": "train text", "label": "a"},
            {"task_id": 1, "text": "eval text", "label": "a", "split": "eval"},
        ],
    )
    (task,) = load_corpus(path)
    assert len(task.train) == 1 and len(task.eval) == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=4),
    max_leaves=6,
)
# Records close enough to the format that many drawn files load.
records = st.fixed_dictionaries(
    {"task_id": st.integers(-3, 3) | json_values, "text": st.text(max_size=12) | json_values,
     "label": st.sampled_from(["pos", "neg", "a b", "", "!"]) | json_values},
    optional={"split": st.sampled_from(["train", "eval", "test"]) | json_values},
)
corpus_lines = st.one_of(
    records.map(json.dumps).map(str.encode),
    json_values.map(json.dumps).map(str.encode),
    st.text(max_size=20).map(str.encode),
    st.binary(max_size=12),                                          # mostly invalid UTF-8
    st.integers(0, 100_000).map(lambda n: b"[" * n),                 # nested past the parser
    st.integers(1, 6000).map(lambda n: b'{"task_id": %s}' % (b"9" * n)),  # over int()'s limit
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(corpus_lines, max_size=6))
@example(lines=[b"[" * 200_000])
@example(lines=[b'{"task_id": ' + b"7" * 5000 + b', "text": "a", "label": "b"}'])
def test_load_corpus_gives_a_data_error_or_valid_corpora(lines, tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    path.write_bytes(b"\n".join(lines))
    try:
        corpora = load_corpus(path)
    except DataError as exc:
        assert str(path) in str(exc)
        return
    assert corpora and [t.task_id for t in corpora] == sorted({t.task_id for t in corpora})
    for task in corpora:
        assert task.train or task.eval
        for seq in task.train + task.eval:
            assert seq.tokens[-1] == seq.label_token in task.label_set
            assert all(0 <= tok < len(task.vocab) for tok in seq.tokens)


def test_tokenize_empty_text():
    vocab = Vocabulary(["hello"])
    assert split_words("") == [] and vocab.encode("") == []


def test_tokenize_case_fold_gives_identical_ids():
    vocab = Vocabulary(["hello", ","])
    ids = vocab.encode("Hello, hello")
    assert len(ids) == 3
    assert ids[0] == ids[2]
    assert split_words("Hello, hello")[1] == ","


def test_tokenize_splits_punctuation_and_numbers():
    vocab = Vocabulary(["acct"])
    ids = vocab.encode("Acct #4417")
    assert len(ids) == 3
    assert split_words("Acct #4417") == ["acct", "#", "4417"]
    assert ids[1] == UNK_ID and ids[2] == UNK_ID


def test_tokenize_deterministic_and_idempotent_on_surfaces():
    vocab = Vocabulary(["some", "words", "here", "."])
    text = "Some WORDS here. And unknown-stuff 42!"
    surfaces, ids = split_words(text), vocab.encode(text)
    assert ids == vocab.encode(text) == [vocab.id_of(w) for w in surfaces]
    rejoined = " ".join(surfaces)
    assert split_words(rejoined) == surfaces
    assert vocab.encode(rejoined) == ids


def test_vocab_reserved_ids():
    vocab = Vocabulary(["x"])
    assert vocab.surface_of(PAD_ID) == "<pad>"
    assert vocab.surface_of(UNK_ID) == "<unk>"
    assert vocab.id_of("never-seen") == UNK_ID


def test_stats_two_task_toy_corpus():
    # task1 = "a a b", task2 = "b b c", tau = 0.2
    a, b, c = 2, 3, 4
    t1 = make_task(1, [[a, a]], label=b)   # tokens counted: a a b
    t2 = make_task(2, [[b, b]], label=c)   # tokens counted: b b c
    stats = compute_corpus_stats([t1, t2], tau=0.2)
    assert stats.salience(1, a) == 1.0
    assert stats.salience(1, b) == 0.5
    assert stats.salience(2, b) == 1.0
    assert stats.salience(2, c) == 0.5
    assert stats.support_of(a) == 1
    assert stats.support_of(b) == 2
    assert stats.support_of(c) == 1


def test_stats_absent_token_and_single_task_max():
    t1 = make_task(1, [[5, 5, 6]], label=7)
    stats = compute_corpus_stats([t1], tau=0.5)
    assert stats.salience(1, 99) == 0.0
    assert stats.support_of(99) == 0
    assert stats.salience(1, 5) == 1.0
    assert stats.support_of(5) == 1


def test_stats_validation():
    t1 = make_task(1, [[2]], label=3)
    with pytest.raises(DataError):
        compute_corpus_stats([], tau=0.2)
    with pytest.raises(ValueError, match="tau"):
        compute_corpus_stats([t1], tau=1.5)


def test_stats_every_task_has_a_salience_one_token():
    rng = random.Random(0)
    for _ in range(25):
        tasks = []
        for tid in range(1, rng.randint(2, 5) + 1):
            seqs = [
                [rng.randint(2, 12) for _ in range(rng.randint(1, 9))]
                for _ in range(rng.randint(1, 5))
            ]
            tasks.append(make_task(tid, seqs, label=rng.randint(2, 12)))
        stats = compute_corpus_stats(tasks, tau=0.3)
        for task in tasks:
            saliences = [stats.salience(task.task_id, t) for t in stats.freq[task.task_id]]
            assert max(saliences) == 1.0
            assert all(0.0 <= p <= 1.0 for p in saliences)


def test_stats_support_matches_brute_force_on_random_corpora():
    rng = random.Random(1)
    for _ in range(30):
        tau = rng.uniform(0.1, 0.9)
        tasks = []
        for tid in range(1, rng.randint(1, 5) + 1):
            seqs = [
                [rng.randint(2, 15) for _ in range(rng.randint(1, 10))]
                for _ in range(rng.randint(1, 5))
            ]
            tasks.append(make_task(tid, seqs, label=rng.randint(2, 15)))
        stats = compute_corpus_stats(tasks, tau=tau)
        all_tokens = {t for task in tasks for seq in task.train for t in seq.tokens}
        for tok in all_tokens:
            expected = 0
            for task in tasks:
                counts = Counter(t for seq in task.train for t in seq.tokens)
                if counts and counts.get(tok, 0) / max(counts.values()) >= tau:
                    expected += 1
            assert stats.support_of(tok) == expected


def test_stats_permutation_invariant():
    rng = random.Random(2)
    seqs = [[rng.randint(2, 9) for _ in range(5)] for _ in range(6)]
    t_a = make_task(1, seqs, label=3)
    shuffled = list(seqs)
    rng.shuffle(shuffled)
    t_b = make_task(1, shuffled, label=3)
    s_a = compute_corpus_stats([t_a], tau=0.2)
    s_b = compute_corpus_stats([t_b], tau=0.2)
    assert s_a.freq == s_b.freq
    assert s_a.support == s_b.support


def test_stats_zero_token_task_errors():
    task = TaskCorpus(task_id=1, train=[], eval=[], label_set=set())
    with pytest.raises(DataError, match="zero tokens"):
        compute_corpus_stats([task], tau=0.2)


def test_support_never_decreases_as_tasks_arrive():
    rng = random.Random(3)
    tasks = [
        make_task(tid, [[rng.randint(2, 10) for _ in range(6)] for _ in range(3)],
                  label=rng.randint(2, 10))
        for tid in range(1, 6)
    ]
    all_tokens = {t for task in tasks for seq in task.train for t in seq.tokens}
    previous = {t: 0 for t in all_tokens}
    for k in range(1, len(tasks) + 1):
        stats = compute_corpus_stats(tasks[:k], tau=0.3)
        for t in all_tokens:
            assert stats.support_of(t) >= previous[t]
            previous[t] = stats.support_of(t)


def test_default_stopwords_bundled():
    words = load_stopwords()
    assert {"the", "a", "of", "and"} <= words
    assert len(words) >= 120


def test_split_words_examples():
    assert split_words("") == []
    assert split_words("Don't panic!") == ["don't", "panic", "!"]
