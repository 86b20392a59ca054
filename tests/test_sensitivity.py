import math

import numpy as np
import pytest

from pecl.corpus import TaskCorpus, TokenizedSequence
from pecl.privacy import PrivacyConfig, assign_budgets
from pecl.sensitivity import SensitivityConfig, contextual_score, fuse_scores, score_sequences
from pecl.corpus import compute_corpus_stats
from pecl.tinylm import PackedSequences, TinyLM, forward, init_adapter, init_lm, token_losses


def make_task(task_id, sequences, label):
    seqs = [
        TokenizedSequence(tokens=ids + [label], task_id=task_id, label_token=label)
        for ids in sequences
    ]
    return TaskCorpus(task_id=task_id, train=seqs, eval=[], label_set={label})


def probability_model(probs):
    """Zero-weight model whose output distribution is exactly ``probs``."""
    vocab = len(probs)
    return TinyLM(
        vocab=vocab, d_emb=2, n_ctx=2, d_hidden=3, seed=0,
        embed=np.zeros((vocab, 2)),
        w_hidden=np.zeros((3, 4)),
        b_hidden=np.zeros(3),
        w_out=np.zeros((vocab, 3)),
        b_out=np.log(np.asarray(probs)),
    )


def profile_of(model, seq, stats, config, adapter=None):
    """One sequence's profile: ``score_sequences`` on a batch of one."""
    return score_sequences(model, adapter, stats, PackedSequences.of(model, [seq]), config)


def surprisal(model, seq, i):
    """score1 at 1-indexed position i >= 2 of ``seq``'s profile: -ln P(t_i | t_<i)."""
    stats = compute_corpus_stats([make_task(1, [seq[:-1]], label=seq[-1])], tau=0.2)
    return profile_of(model, seq, stats, SensitivityConfig()).score1[i - 1]


def test_surprisal_analytic_cases():
    p = math.exp(-2.0)
    model = probability_model([p, (1 - p) / 2, (1 - p) / 2])
    assert surprisal(model, [1, 0], i=2) == pytest.approx(2.0, abs=1e-12)

    near_one = probability_model([1 - 1e-12, 5e-13, 5e-13])
    assert surprisal(near_one, [1, 0], i=2) == pytest.approx(0.0, abs=1e-9)


def test_surprisal_matches_forward_oracle():
    model = init_lm((5, 3, 3, 4), seed=2)
    seq = [1, 4, 2, 3]
    for i in range(2, 5):
        expected = -math.log(forward(model, None, seq[max(0, i - 1 - 3):i - 1])[seq[i - 1]])
        assert surprisal(model, seq, i) == pytest.approx(expected, rel=1e-12)


def test_contextual_score_single_concentrated_token():
    # 6 tasks, token salient only in task 1: (1/6) * ln(6/2)
    tasks = [make_task(1, [[7, 7, 7]], label=8)]
    tasks += [make_task(t, [[t + 10] * 3], label=9) for t in range(2, 7)]
    stats = compute_corpus_stats(tasks, tau=0.2)
    assert stats.num_tasks_observed == 6
    expected = math.log(3.0) / 6.0
    assert contextual_score(stats, 7) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.1831020481113516, rel=1e-9)


def test_contextual_score_clamps_negative():
    # token 5 maximal in both of 2 tasks: raw = ln(2/3) < 0
    tasks = [make_task(1, [[5, 5]], label=6), make_task(2, [[5, 5]], label=7)]
    stats = compute_corpus_stats(tasks, tau=0.2)
    # The raw statistic, mean salience times ln(N / (1 + d(t))), computed here.
    n_tasks = stats.num_tasks_observed
    salience = sum(stats.salience(tid, 5) for tid in stats.task_ids) / n_tasks
    raw = salience * math.log(n_tasks / (1.0 + stats.support_of(5)))
    assert raw == pytest.approx(math.log(2.0 / 3.0), rel=1e-12)
    assert raw < 0
    assert contextual_score(stats, 5) == 0.0


def test_contextual_score_absent_token_is_zero():
    stats = compute_corpus_stats([make_task(1, [[2, 3]], label=4)], tau=0.2)
    assert contextual_score(stats, 999) == 0.0


def test_fuse_scores_examples():
    assert fuse_scores(0.0, 0.0, 0.5) == 0.0
    assert fuse_scores(2.0, 0.0, 0.5) == pytest.approx(1 - math.exp(-1.0), rel=1e-12)
    assert fuse_scores(2.0, 0.0, 0.5) == pytest.approx(0.6321205588285577, rel=1e-9)


def test_fuse_scores_range_and_monotonicity():
    rng = np.random.default_rng(0)
    s1 = rng.uniform(0, 20, size=5000)
    s2 = rng.uniform(0, 5, size=5000)
    alpha = 0.3
    fused = fuse_scores(s1, s2, alpha)
    assert ((fused >= 0) & (fused < 1)).all()
    bumped = fuse_scores(s1 + 0.5, s2, alpha)
    assert (bumped >= fused).all()


def test_fuse_scores_alpha_extremes():
    assert fuse_scores(3.0, 7.0, 1.0) == pytest.approx(1 - math.exp(-3.0), rel=1e-12)
    assert fuse_scores(3.0, 7.0, 0.0) == pytest.approx(1 - math.exp(-7.0), rel=1e-12)


def test_fuse_scores_validation():
    with pytest.raises(ValueError):
        fuse_scores(-0.1, 0.0, 0.5)
    with pytest.raises(ValueError):
        fuse_scores(0.1, 0.0, 1.5)


def config_with_stopwords(ids, alpha=0.5):
    return SensitivityConfig(alpha=alpha, stopword_ids=frozenset(ids))


def test_build_profile_all_stopwords_zero():
    model = init_lm((6, 3, 3, 4), seed=1)
    tasks = [make_task(1, [[2, 3, 2]], label=4)]
    stats = compute_corpus_stats(tasks, tau=0.2)
    config = config_with_stopwords({2, 3, 4})
    profile = profile_of(model, tasks[0].train[0], stats, config)
    assert (profile.score == 0.0).all()
    assert profile.is_stopword.all()


def test_build_profile_stopword_vs_content_token():
    model = init_lm((8, 3, 3, 4), seed=5)
    tasks = [
        make_task(1, [[2, 5, 2, 5], [2, 5]], label=6),
        make_task(2, [[2, 7, 7]], label=6),
    ]
    stats = compute_corpus_stats(tasks, tau=0.2)
    config = config_with_stopwords({2})  # token 2 plays "the"
    profile = profile_of(model, tasks[0].train[0], stats, config)
    assert profile.score[0] == 0.0 and profile.score[2] == 0.0
    assert profile.score[1] > 0.0  # task-specific content token
    assert len(profile) == len(tasks[0].train[0].tokens)


def test_build_profile_first_position_uses_zero_surprisal():
    model = init_lm((8, 3, 3, 4), seed=5)
    tasks = [make_task(1, [[5, 3]], label=6)]
    stats = compute_corpus_stats(tasks, tau=0.2)
    config = config_with_stopwords(set(), alpha=0.5)
    profile = profile_of(model, tasks[0].train[0], stats, config)
    assert profile.score1[0] == 0.0
    expected = fuse_scores(0.0, contextual_score(stats, 5), 0.5)
    assert profile.score[0] == pytest.approx(expected, rel=1e-12)


def test_build_profile_masking_is_idempotent_and_order_independent():
    model = init_lm((8, 3, 3, 4), seed=5)
    tasks = [make_task(1, [[2, 5, 3]], label=6)]
    stats = compute_corpus_stats(tasks, tau=0.2)
    seq = tasks[0].train[0]
    p1 = profile_of(model, seq, stats, config_with_stopwords({2, 3}))
    p2 = profile_of(model, seq, stats, config_with_stopwords({3, 2}))
    np.testing.assert_array_equal(p1.score, p2.score)
    p1.score[p1.is_stopword] = 0.0  # re-applying the mask changes nothing
    np.testing.assert_array_equal(p1.score, p2.score)


def test_sensitivity_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        SensitivityConfig(alpha=1.2)


def test_batched_scorer_equals_per_sequence_profiles():
    # On this model, sequences of 2 to 17 tokens score bit-identically alone
    # and in any chunk (the README says where chunking can move a last bit).
    rng = np.random.default_rng(12)
    lengths = (2, 5, 3, 9, 4, 2, 7, 6, 3, *range(2, 18))
    tasks = [
        make_task(1, [rng.integers(2, 9, size=n - 1).tolist() for n in lengths], label=10),
        make_task(2, [rng.integers(5, 12, size=4).tolist() for _ in range(3)], label=12),
    ]
    seqs = tasks[0].train + [TokenizedSequence(tokens=[7], task_id=1, label_token=7)]
    stats = compute_corpus_stats(tasks, tau=0.2)
    config = config_with_stopwords({3, 8})
    privacy = PrivacyConfig()
    model = init_lm((13, 3, 3, 5), seed=8)
    adapter = init_adapter(model, rank=2, seed=1, task_id=1)
    adapter.b[:] = rng.normal(scale=0.5, size=adapter.b.shape)
    packed = PackedSequences.of(model, seqs)
    whole = assign_budgets(score_sequences(model, adapter, stats, packed, config, batch_size=4),
                           privacy)
    assert len(whole) == sum(len(seq.tokens) for seq in seqs)
    for start, seq in zip(packed.starts, seqs, strict=True):
        part = slice(start, start + len(seq.tokens))
        one = assign_budgets(profile_of(model, seq, stats, config, adapter), privacy)
        assert whole.tokens[part] == one.tokens == list(seq.tokens)
        for name in ("score1", "score2", "score", "is_stopword", "epsilon", "sigma"):
            np.testing.assert_array_equal(getattr(whole, name)[part], getattr(one, name),
                                          err_msg=name)
        score1 = whole.score1[part]
        if len(seq.tokens) >= 2:
            np.testing.assert_array_equal(score1[1:], token_losses(model, adapter, seq)[0])
        assert score1[0] == 0.0
        assert whole.score2[part].tolist() == [contextual_score(stats, t) for t in seq.tokens]
    assert (whole.score[whole.is_stopword] == 0).all() and whole.is_stopword.any()
    assert np.isnan(whole.epsilon[whole.score == 0]).all()
