import dataclasses
import errno
import operator
import os
import pickle
import signal
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pecl.corpus import TaskCorpus, TokenizedSequence, Vocabulary, compute_corpus_stats
from pecl.errors import DataError, NumericError
from pecl.synthetic import synthetic_stream
from pecl.seeding import spawn_rng
from pecl.sculpt import ImportanceState, SculptConfig, task_importance, unlearn_loss
from pecl.privacy import (PrivacyConfig, PrivacyLedger, allocate_budget, compose_sequence,
                          noise_sigma, perturb_embeddings, record_table)
from pecl.sensitivity import score_sequences, window_losses
from pecl.tinylm import (
    LossSpec,
    PackedSequences,
    _windows,
    backward,
    forward,
    forward_batch,
    frozen_base,
    init_adapter,
    init_lm,
)
from pecl import trainer
from pecl.trainer import (
    AccuracyMatrix,
    RunConfig,
    RunWorker,
    TaskInputs,
    avg_acc,
    bwt,
    evaluate,
    last_acc,
    metrics_summary,
    run_continual,
)


def matrix_n2():
    return AccuracyMatrix.from_rows([[0.5], [0.4, 0.6]])


def small_config(**overrides):
    defaults = dict(
        mode="pecl",
        epochs=1,
        batch_size=16,
        seed=11,
        num_tasks=2,
        train_per_task=30,
        eval_per_task=10,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def small_stream(config):
    return synthetic_stream(
        num_tasks=config.num_tasks,
        train_per_task=config.train_per_task,
        eval_per_task=config.eval_per_task,
        seed=config.seed,
    )


def test_bwt_examples():
    assert bwt(matrix_n2()) == pytest.approx(-0.1, rel=1e-9)
    flat = AccuracyMatrix.from_rows([[0.7], [0.7, 0.2], [0.7, 0.2, 0.9]])
    assert bwt(flat) == pytest.approx(0.0, abs=1e-15)
    improving = AccuracyMatrix.from_rows([[0.5], [0.8, 0.6]])
    assert bwt(improving) > 0


def test_bwt_requires_two_tasks():
    with pytest.raises(ValueError):
        bwt(AccuracyMatrix.from_rows([[0.5]]))


def test_last_acc_examples():
    assert last_acc(matrix_n2()) == pytest.approx(0.5, rel=1e-12)
    ones = AccuracyMatrix.from_rows([[1.0], [1.0, 1.0]])
    assert last_acc(ones) == 1.0
    single = AccuracyMatrix.from_rows([[0.37]])
    assert last_acc(single) == pytest.approx(0.37)


def test_avg_acc_examples():
    assert avg_acc(matrix_n2()) == pytest.approx(0.5, rel=1e-12)
    v = 0.42
    const = AccuracyMatrix.from_rows([[v], [v, v], [v, v, v]])
    assert avg_acc(const) == pytest.approx(v, rel=1e-12)


def test_metrics_match_brute_force_on_random_matrices():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        rows = [list(rng.uniform(0, 1, size=k + 1)) for k in range(n)]
        m = AccuracyMatrix.from_rows(rows)
        brute_bwt = sum(rows[n - 1][i] - rows[i][i] for i in range(n - 1)) / (n - 1)
        brute_last = sum(rows[n - 1]) / n
        brute_avg = sum(sum(r) / len(r) for r in rows) / n
        assert bwt(m) == pytest.approx(brute_bwt, abs=1e-12)
        assert last_acc(m) == pytest.approx(brute_last, abs=1e-12)
        assert avg_acc(m) == pytest.approx(brute_avg, abs=1e-12)


def test_metrics_summary_single_task_warns_and_reports_zero():
    m = AccuracyMatrix.from_rows([[0.8]])
    with pytest.warns(UserWarning, match="BWT"):
        summary = metrics_summary(m)
    assert summary["bwt"] == 0.0
    assert summary["last"] == pytest.approx(0.8)


def test_accuracy_matrix_validation():
    with pytest.raises(DataError):
        AccuracyMatrix.from_rows([[0.5], [0.4]])
    with pytest.raises(ValueError):
        AccuracyMatrix.from_rows([[1.5]])
    incomplete = np.full((2, 2), np.nan)
    incomplete[0, 0] = 0.5
    with pytest.raises(DataError):
        AccuracyMatrix(incomplete)


def eval_task(sequences, label_tokens, task_id=1):
    seqs = [
        TokenizedSequence(tokens=list(ctx) + [lab], task_id=task_id, label_token=lab)
        for ctx, lab in zip(sequences, label_tokens)
    ]
    return TaskCorpus(task_id=task_id, train=[], eval=seqs, label_set=set(label_tokens))


def test_evaluate_forced_correct_model():
    model = init_lm((6, 4, 3, 5), seed=0)
    model.w_out[:] = 0.0
    model.b_out[:] = -50.0
    model.b_out[3] = 50.0
    task = eval_task([[1, 2], [2, 4], [5, 1]], [3, 3, 3])
    assert evaluate(model, None, task) == 1.0


def test_evaluate_random_labels_hit_rate_near_one_over_c():
    c = 6
    model = init_lm((c, 4, 3, 5), seed=1)
    rng = np.random.default_rng(2)
    n = 2000
    contexts = [list(rng.integers(0, c, size=3)) for _ in range(n)]
    labels = [int(rng.integers(0, c)) for _ in range(n)]
    task = eval_task(contexts, labels)
    acc = evaluate(model, None, task)
    p = 1.0 / c
    tol = 4 * np.sqrt(p * (1 - p) / n)
    assert abs(acc - p) < tol


def test_evaluate_is_deterministic_and_pure():
    model = init_lm((6, 4, 3, 5), seed=3)
    before = model.embed.copy()
    task = eval_task([[1, 2], [4, 5]], [2, 3])
    first = evaluate(model, None, task)
    second = evaluate(model, None, task)
    assert first == second
    assert np.array_equal(model.embed, before)


def test_evaluate_empty_eval_set_errors():
    model = init_lm((6, 4, 3, 5), seed=3)
    task = TaskCorpus(task_id=1, train=[], eval=[], label_set=set())
    with pytest.raises(DataError, match="empty eval"):
        evaluate(model, None, task)


def test_run_single_task_gives_1x1_matrix():
    config = small_config(num_tasks=1, mode="seqft")
    result = run_continual(config, small_stream(config).tasks)
    assert result.matrix.num_tasks == 1
    assert len(result.matrix.rows()[0]) == 1
    with pytest.warns(UserWarning):
        assert metrics_summary(result.matrix)["bwt"] == 0.0


def test_seqft_ledger_empty_and_no_sculpting():
    config = small_config(mode="seqft")
    result = run_continual(config, small_stream(config).tasks)
    assert len(result.ledger) == 0
    for report in result.reports:
        assert report.final_l_reg == 0.0
        assert report.s_bar is None and report.lambda_dyn is None
        assert report.final_l_unlearn is None


def test_pecl_ledger_nonempty_with_bounded_epsilons():
    config = small_config(mode="pecl")
    result = run_continual(config, small_stream(config).tasks)
    assert len(result.ledger) > 0
    eps = result.ledger.columns()["epsilon"]
    assert ((eps >= config.privacy.eps_lower) & (eps <= config.privacy.eps_upper)).all()
    for report in result.reports:
        assert report.s_bar is not None and 0.0 <= report.s_bar < 1.0
        assert config.sculpt.lambda_min <= report.lambda_dyn <= config.sculpt.lambda_max


def test_uniform_dp_ledger_carries_fixed_epsilon():
    config = small_config(mode="uniform_dp", uniform_eps=1.0)
    result = run_continual(config, small_stream(config).tasks)
    assert len(result.ledger) > 0
    eps = result.ledger.columns()["epsilon"]
    assert (eps == 1.0).all()


def test_run_deterministic_replay():
    config = small_config(mode="pecl", num_tasks=3, train_per_task=25, eval_per_task=8)
    tasks_a = small_stream(config).tasks
    tasks_b = small_stream(config).tasks
    r1 = run_continual(config, tasks_a)
    r2 = run_continual(config, tasks_b)
    assert np.array_equal(r1.matrix.values, r2.matrix.values, equal_nan=True)
    assert_same_ledger(r1.ledger, r2.ledger)
    for (_, a), (_, b) in zip(r1.model.param_items(), r2.model.param_items()):
        assert np.array_equal(a, b)
    assert np.array_equal(r1.adapter.a, r2.adapter.a)
    assert np.array_equal(r1.adapter.b, r2.adapter.b)
    assert r1.reports == r2.reports


def test_run_rejects_bad_task_order():
    config = small_config(task_order=[1, 5])
    stream = small_stream(config)
    with pytest.raises(DataError, match="missing tasks"):
        run_continual(config, stream.tasks)
    config2 = small_config(task_order=[1])
    with pytest.raises(DataError, match="permutation"):
        run_continual(config2, stream.tasks)


def refuse_before_building(monkeypatch):
    """Makes building a run's model fail the test: a refused run builds nothing."""
    def built(*args, **kwargs):
        raise AssertionError("the run built its model")

    monkeypatch.setattr("pecl.trainer.init_lm", built)


def test_run_refuses_tasks_with_another_vocabulary(monkeypatch):
    a = synthetic_stream(num_tasks=2, train_per_task=20, eval_per_task=5, seed=2)
    b = synthetic_stream(num_tasks=2, train_per_task=20, eval_per_task=5, seed=1)
    assert len(b.vocab) <= len(a.vocab)  # so every token id of task 2 is in range
    assert [a.vocab.surface_of(i) for i in range(len(b.vocab))] != [
        b.vocab.surface_of(i) for i in range(len(b.vocab))]
    config = small_config(mode="seqft")
    refuse_before_building(monkeypatch)
    with pytest.raises(DataError, match="task 2's vocabulary is not task 1's"):
        run_continual(config, [a.tasks[0], b.tasks[1]])
    with pytest.raises(DataError, match="task 2's vocabulary is not task 1's"):
        run_continual(config, [a.tasks[0], dataclasses.replace(a.tasks[1], vocab=None)])


def test_run_accepts_an_equal_vocabulary_that_is_another_object():
    config = small_config(mode="seqft", train_per_task=20, eval_per_task=5)
    tasks = small_stream(config).tasks
    vocab = tasks[0].vocab
    copy = Vocabulary([vocab.surface_of(i) for i in range(2, len(vocab))])
    result = run_continual(config, [tasks[0], dataclasses.replace(tasks[1], vocab=copy)])
    assert result.matrix.rows() == run_continual(config, tasks).matrix.rows()


def test_run_refuses_a_repeated_task_id(monkeypatch):
    config = small_config(mode="seqft", num_tasks=1)
    (t1,) = small_stream(config).tasks
    refuse_before_building(monkeypatch)
    for repeat in (TaskCorpus(1, t1.train[:10], t1.eval, t1.label_set, t1.vocab), t1):
        with pytest.raises(DataError, match="task 1 appears more than once in the corpora"):
            run_continual(config, [t1, repeat])


def test_run_respects_task_order():
    config = small_config(mode="seqft", task_order=[2, 1])
    result = run_continual(config, small_stream(config).tasks)
    assert [r.task_id for r in result.reports] == [2, 1]


def test_stats_scope_variants_both_run():
    for scope in ("seen", "all"):
        config = small_config(stats_scope=scope, train_per_task=20, eval_per_task=5)
        result = run_continual(config, small_stream(config).tasks)
        assert result.matrix.num_tasks == 2


def test_run_config_validation():
    with pytest.raises(ValueError, match="mode"):
        RunConfig(mode="finetune")
    with pytest.raises(ValueError, match="epochs"):
        RunConfig(epochs=0)
    with pytest.raises(ValueError, match="task_order"):
        RunConfig(task_order=[1, 1])


def test_synthetic_stream_shape_and_determinism():
    a = synthetic_stream(num_tasks=3, train_per_task=40, eval_per_task=15, seed=5)
    b = synthetic_stream(num_tasks=3, train_per_task=40, eval_per_task=15, seed=5)
    assert [t.task_id for t in a.tasks] == [1, 2, 3]
    for ta, tb in zip(a.tasks, b.tasks):
        assert len(ta.train) == 40 and len(ta.eval) == 15
        assert [s.tokens for s in ta.train] == [s.tokens for s in tb.train]
    assert a.sensitive_surfaces == b.sensitive_surfaces
    c = synthetic_stream(num_tasks=3, train_per_task=40, eval_per_task=15, seed=6)
    assert [s.tokens for s in c.tasks[0].train] != [s.tokens for s in a.tasks[0].train]


def test_synthetic_stream_plants_sensitive_tokens_in_train_only():
    stream = synthetic_stream(num_tasks=3, train_per_task=200, eval_per_task=50, seed=0)
    assert stream.sensitive_ids
    train_hits = sum(
        1
        for task in stream.tasks
        for seq in task.train
        if any(t in stream.sensitive_ids for t in seq.tokens)
    )
    eval_hits = sum(
        1
        for task in stream.tasks
        for seq in task.eval
        if any(t in stream.sensitive_ids for t in seq.tokens)
    )
    assert eval_hits == 0
    total_train = sum(len(task.train) for task in stream.tasks)
    assert 0.05 < train_hits / total_train < 0.3


def test_synthetic_stream_labels_are_last_tokens():
    stream = synthetic_stream(num_tasks=2, train_per_task=10, eval_per_task=5, seed=1)
    for task in stream.tasks:
        for seq in task.train + task.eval:
            assert seq.tokens[-1] == seq.label_token
            assert seq.label_token in task.label_set


def test_run_rejects_empty_eval_split_before_training(monkeypatch):
    config = small_config(mode="seqft")
    tasks = small_stream(config).tasks
    tasks[1].eval = []

    def no_training(*args, **kwargs):
        raise AssertionError("backward called before the inputs were validated")

    monkeypatch.setattr("pecl.trainer.backward", no_training)
    with pytest.raises(DataError, match=f"task {tasks[1].task_id} has an empty eval set"):
        run_continual(config, tasks)
    # Control: with every eval split present, training does reach the patched call.
    with pytest.raises(AssertionError, match="backward called"):
        run_continual(config, small_stream(config).tasks)


def test_run_rejects_an_empty_task_list():
    with pytest.raises(DataError, match="no tasks"):
        run_continual(small_config(), [])


def test_run_rejects_an_out_of_vocab_id_in_a_later_eval_split_before_training(monkeypatch):
    config = small_config(mode="seqft", num_tasks=3)
    tasks = small_stream(config).tasks
    tasks[2].eval[-1].tokens[0] = len(tasks[2].vocab)

    def no_training(*args, **kwargs):
        raise AssertionError("backward called before the inputs were validated")

    monkeypatch.setattr("pecl.trainer.backward", no_training)
    with pytest.raises(DataError, match=f"task {tasks[2].task_id} eval split has a token id "
                                        rf"outside the vocabulary \[0, {len(tasks[2].vocab)}\)"):
        run_continual(config, tasks)


def budgeted_inputs(mode, model, seqs, privacy, rng):
    """TaskInputs over ``seqs`` with pecl-like random scores or uniform_dp budgets."""
    packed = PackedSequences.of(model, seqs)
    tokens = np.concatenate(seqs)
    margin = None
    if mode == "pecl":
        score = rng.uniform(0.0, 0.99, size=tokens.size)
        score[rng.random(tokens.size) < 0.3] = 0.0
        epsilon = np.full(tokens.size, np.nan)
        epsilon[score > 0] = allocate_budget(score[score > 0], privacy)
        sigma = noise_sigma(epsilon, privacy.delta, privacy.clip_norm)
        margin = packed.margins(score, 0.6)
    else:
        score = (tokens % 4 != 0).astype(float)  # ids divisible by 4 play stopwords
        epsilon = np.full(tokens.size, 2.0)
        sigma = np.full(tokens.size, noise_sigma(2.0, privacy.delta, privacy.clip_norm))
    return TaskInputs(packed, score > 0, epsilon, sigma, margin), score, epsilon, sigma


def task_names(n):
    """The ledger name of each of task 1's ``n`` sequences."""
    return np.array([f"1:{i}" for i in range(n)], dtype=object)


def record_epoch(ledger, inputs, layout, epoch):
    """Give ``ledger`` task 1's epoch laid out as ``layout``, as ``run_continual`` does."""
    records, record_of = inputs.records(1)
    ledger.add(records, record_of[inputs.exposures(layout)], epoch)


def assert_same_ledger(got, expected):
    """Two ledgers hold the same exposures under the same delta: every column
    bit for bit, floats by their bit patterns."""
    assert got.delta == expected.delta
    got_columns, expected_columns = got.columns(), expected.columns()
    assert got_columns.keys() == expected_columns.keys()
    for name, column in got_columns.items():
        want = expected_columns[name]
        if column.dtype == float:
            column, want = column.view(np.int64), want.view(np.int64)
        np.testing.assert_array_equal(column, want, err_msg=name)


def clean_base(model, seqs, batch_size, out=None):
    """The task's clean base table, as ``run_continual`` fills it: natural order, into
    ``out`` or a new table."""
    return frozen_base(model, seqs.batch(model, np.arange(len(seqs.lengths))), batch_size,
                       np.zeros((seqs.tokens.size, model.d_hidden)) if out is None else out)


def one_task_worker(mode, model, seqs, perms, privacy, batch_size):
    """The ``RunWorker`` of a run of one task, ``seqs``, trained for ``len(perms)`` epochs
    shuffled as ``perms``, with its clean table filled where the mode has one."""
    config = RunConfig(mode=mode, epochs=len(perms), batch_size=batch_size, privacy=privacy)
    worker = RunWorker(model, config, [seqs], [perms.__getitem__], [])
    if worker.clean:
        clean_base(model, seqs, batch_size, worker.clean_table(0))
    return worker


def per_batch_mechanism(model, seqs, rows, budgets, names, privacy, rng, ledger, epoch):
    """Noise the fed positions of sequences ``rows`` as one batch: one mechanism call
    over the exposures (score > 0) among every position but each sequence's last, in
    (sequence, position) order, and one ledger record per exposure, in the same order.
    Returns every fed position's input, the clean embedding where it is no exposure."""
    per_seq = [np.split(a, np.cumsum([len(q) for q in seqs])[:-1]) for a in budgets]
    n_fed = [len(seqs[i]) - 1 for i in rows]
    score, epsilon, sigma = (np.concatenate([a[i][:-1] for i in rows]) for a in per_seq)
    hit = score > 0
    fed = model.embed[np.concatenate([seqs[i][:-1] for i in rows])]
    fed[hit] = perturb_embeddings(fed[hit], sigma[hit], privacy.clip_norm, rng)
    ledger.extend(np.repeat(names[rows], n_fed)[hit],
                  np.concatenate([np.arange(n) for n in n_fed])[hit], epoch,
                  epsilon[hit], sigma[hit])
    return fed, n_fed


@pytest.mark.parametrize("mode", ["pecl", "uniform_dp"])
def test_packed_training_step_equals_the_list_api(monkeypatch, mode):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # epochs prepared inline
    privacy = PrivacyConfig(clip_norm=0.5)
    model = init_lm((23, 4, 3, 6), seed=5)
    adapter = init_adapter(model, rank=2, seed=2, task_id=1)
    rng = np.random.default_rng(9)
    adapter.b[:] = rng.normal(scale=0.3, size=adapter.b.shape)
    seqs = [rng.integers(1, 23, size=n).tolist() for n in (2, 3, 7, 4, 9, 2, 5)]
    tokens = np.concatenate(seqs)
    inputs, *budgets = budgeted_inputs(mode, model, seqs, privacy, rng)
    # Task arrays grow with the token count (plus one trailing PAD), not with
    # sequences x longest sequence.
    assert inputs.seqs.tokens.size == tokens.size + 1 and inputs.exposed.size == tokens.size
    spec = LossSpec(theta=0.6, lambda_unlearn=1.5 if mode == "pecl" else 0.0, reg_weight=0.4,
                    reg_reference=rng.normal(scale=0.1, size=model.w_hidden.shape))
    rows = np.array([4, 0, 2, 6, 5])

    # One epoch whose permutation is ``rows``, laid out as one step, then the
    # step's gather.  The step reads x @ W0.T from the epoch's noised base,
    # filled from this very layout, even though the task's clean base table
    # is there; the list side below computes the product itself.
    step_ledger, step_rng = PrivacyLedger(privacy.delta), np.random.default_rng(21)
    with one_task_worker(mode, model, inputs.seqs, [rows], privacy, len(rows)) as worker:
        (layout,) = worker.epochs(0, inputs, step_rng)
        (batch,) = layout.chunks(len(rows))
        assert batch.base is worker.slots[0][1]
    record_epoch(step_ledger, inputs, layout, 3)
    packed = backward(model, adapter, batch, spec)

    # The same step from the list of the step's sequences, packed on their
    # own: one mechanism call over every fed position, its rows written over
    # each sequence's fed positions, and margins from per-sequence scores.
    list_ledger, list_rng = PrivacyLedger(privacy.delta), np.random.default_rng(21)
    listed_seqs = [seqs[i] for i in rows]
    rows_noised, n_fed = per_batch_mechanism(model, seqs, rows, budgets, task_names(len(seqs)),
                                             privacy, list_rng, list_ledger, epoch=3)
    listed_packed = PackedSequences.of(model, listed_seqs)
    fed = np.concatenate([start + np.arange(n) for start, n in zip(listed_packed.starts, n_fed)])
    table = model.embed[listed_packed.tokens]
    table[fed] = rows_noised
    margin = None
    if mode == "pecl":
        per_seq_scores = np.split(budgets[0], np.cumsum([len(q) for q in seqs])[:-1])
        margin = np.zeros(listed_packed.tokens.size)
        for start, i in zip(listed_packed.starts, rows):
            s = per_seq_scores[i][1:]
            margin[start + 1 : start + len(seqs[i])] = np.where(s > spec.theta, s - spec.theta, 0)
    listed_batch = listed_packed.batch(model, np.arange(len(rows)), table, margin)
    assert listed_batch.base is None
    listed = backward(model, adapter, listed_batch, spec)

    assert list(batch) == listed_seqs
    _, pos = inputs.seqs.cells(model.n_ctx, rows)
    consumed = (pos >= 0) & (pos < inputs.seqs.lengths[rows][:, None] - 1)
    np.testing.assert_array_equal(batch.table[batch.feed][consumed], rows_noised)
    assert_same_ledger(step_ledger, list_ledger)
    assert len(step_ledger) > 0
    assert step_rng.bit_generator.state == list_rng.bit_generator.state
    for name in ("a", "b"):
        np.testing.assert_array_equal(getattr(packed, name), getattr(listed, name))
    for name in ("l_task", "l_reg", "l_unlearn", "objective"):
        assert getattr(packed, name) == getattr(listed, name)
    assert (packed.l_unlearn > 0) == (mode == "pecl")
    got = forward_batch(model, adapter, batch)
    expected = forward_batch(model, adapter, listed_batch)
    np.testing.assert_array_equal(got.valid, expected.valid)
    np.testing.assert_array_equal(got.losses[got.valid], expected.losses[expected.valid])


def test_evaluate_matches_per_sequence_forward_argmax():
    config = small_config(num_tasks=1, train_per_task=4, eval_per_task=40)
    task = small_stream(config).tasks[0]
    model = init_lm((len(task.vocab), 4, 3, 5), seed=7)
    adapter = init_adapter(model, rank=2, seed=1, task_id=task.task_id)
    adapter.b[:] = np.random.default_rng(8).normal(scale=0.5, size=adapter.b.shape)
    hits = [
        int(np.argmax(forward(model, adapter, seq.tokens[:-1][-model.n_ctx:]))) == seq.label_token
        for seq in task.eval
    ]
    assert 0 < sum(hits) < len(hits)
    assert evaluate(model, adapter, task) == sum(hits) / len(hits)
    packed = PackedSequences.of(model, task.eval)
    assert evaluate(model, adapter, task, packed) == sum(hits) / len(hits)


@pytest.mark.parametrize("mode", ["pecl", "seqft"])
def test_a_run_packs_each_eval_split_once(monkeypatch, mode):
    # One CPU: the run evaluates every task in its own process, task i K - i + 1 times.
    config = small_config(mode=mode, num_tasks=3, task_order=[2, 3, 1])
    tasks = small_stream(config).tasks
    packed, evaluated = [], []
    of = PackedSequences.of

    def packing(cls, model, sequences):
        if any(sequences is task.eval for task in tasks):
            packed.append(sequences)
        return of(model, sequences)

    def evaluating(model, adapter, task, *args):
        evaluated.append(task.task_id)
        return evaluate(model, adapter, task, *args)

    monkeypatch.setattr(PackedSequences, "of", classmethod(packing))
    monkeypatch.setattr("pecl.trainer.evaluate", evaluating)
    result, _, forks = run_with_cpus(monkeypatch, 1, config, tasks)
    assert forks == 0 and sorted(evaluated) == [1, 2, 2, 2, 3, 3]
    in_order = [task.eval for tid in config.task_order for task in tasks if task.task_id == tid]
    assert len(packed) == 3 and all(p is split for p, split in zip(packed, in_order))
    worker, _, forks = run_with_cpus(monkeypatch, 2, config, tasks)
    assert forks == (mode != "seqft")
    np.testing.assert_array_equal(worker.matrix.values, result.matrix.values)


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_run_packs_each_split_once_before_the_fork(monkeypatch, cpus):
    # The worker inherits every packed split: a pack there fails the run.
    config = small_config(mode="pecl", num_tasks=3, task_order=[2, 3, 1])
    tasks = small_stream(config).tasks
    run, packed, of = os.getpid(), [], PackedSequences.of

    def packing(cls, model, sequences):
        if os.getpid() != run:
            raise AssertionError("the worker packed a split")
        packed.append(sequences)
        return of(model, sequences)

    monkeypatch.setattr(PackedSequences, "of", classmethod(packing))
    _, _, forks = run_with_cpus(monkeypatch, cpus, config, tasks)
    assert forks == (cpus == 2)
    splits = [split for task in tasks for split in (task.train, task.eval)]
    assert sorted(map(id, packed)) == sorted(map(id, splits))


def test_the_all_statistics_pool_does_not_depend_on_the_task_order(monkeypatch):
    config = small_config(mode="pecl", num_tasks=3, stats_scope="all", task_order=[3, 1, 2])
    tasks = small_stream(config).tasks
    result = run_continual(config, tasks)
    pools = []

    def in_input_order(pool, tau):
        pools.append([task.task_id for task in pool])
        return compute_corpus_stats(tasks, tau)

    monkeypatch.setattr("pecl.trainer.compute_corpus_stats", in_input_order)
    expected = run_continual(config, tasks)
    assert pools == [[3, 1, 2]] * 3  # the run's tasks, in its order
    assert result.profiles.keys() == expected.profiles.keys() == {1, 2, 3}
    for task_id, profile in expected.profiles.items():
        for part in dataclasses.fields(profile):
            np.testing.assert_array_equal(bits(getattr(result.profiles[task_id], part.name)),
                                          bits(getattr(profile, part.name)), err_msg=part.name)
    assert result.matrix.rows() == expected.matrix.rows()


@pytest.mark.parametrize("mode", ["pecl", "uniform_dp"])
def test_epoch_noising_equals_per_batch_noising(monkeypatch, mode):
    # Inline preparation, so the generator has drawn each epoch when it starts.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    privacy = PrivacyConfig(clip_norm=0.5)
    model = init_lm((23, 4, 3, 6), seed=4)
    rng = np.random.default_rng(13)
    seqs = [rng.integers(1, 23, size=n).tolist() for n in (2, 3, 7, 4, 9, 2, 5, 8, 6, 3, 2)]
    inputs, *budgets = budgeted_inputs(mode, model, seqs, privacy, rng)
    clean = model.embed[inputs.seqs.tokens]
    batch_size = 4  # does not divide the 11 sequences
    epoch_ledger, epoch_rng = PrivacyLedger(privacy.delta), np.random.default_rng(21)
    batch_ledger, batch_rng = PrivacyLedger(privacy.delta), np.random.default_rng(21)
    perms = [np.random.default_rng(epoch).permutation(len(seqs)) for epoch in range(3)]
    with one_task_worker(mode, model, inputs.seqs, perms, privacy, batch_size) as worker:
        for epoch, (perm, layout) in enumerate(zip(perms, worker.epochs(0, inputs, epoch_rng),
                                                   strict=True)):
            record_epoch(epoch_ledger, inputs, layout, epoch)
            table = layout.table
            assert table is worker.slots[epoch % 2][0]  # a slot: refreshed in place

            expected = clean.copy()
            for start in range(0, len(perm), batch_size):
                rows = perm[start : start + batch_size]
                noised, n_fed = per_batch_mechanism(model, seqs, rows, budgets,
                                                    task_names(len(seqs)), privacy, batch_rng,
                                                    batch_ledger, epoch)
                expected[np.concatenate([inputs.seqs.starts[i] + np.arange(n)
                                         for i, n in zip(rows, n_fed)])] = noised
            np.testing.assert_array_equal(table, expected)
            assert_same_ledger(epoch_ledger, batch_ledger)
            assert epoch_rng.bit_generator.state == batch_rng.bit_generator.state
            noised_rows = np.append(inputs.exposed, False)  # rows of the table, PAD included
            noised_rows[inputs.seqs.starts + inputs.seqs.lengths - 1] = False  # never fed
            assert noised_rows.any() and not noised_rows.all()
            np.testing.assert_array_equal(table[~noised_rows], clean[~noised_rows])
            assert (table[noised_rows] != clean[noised_rows]).all(axis=1).all()
    assert len(epoch_ledger) == 3 * noised_rows.sum()


@pytest.mark.parametrize("mode", ["pecl", "seqft", "uniform_dp"])
def test_epoch_layout_and_base_equal_the_per_step_batch(monkeypatch, mode):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # epochs prepared inline
    privacy = PrivacyConfig(clip_norm=0.5)
    model = init_lm((23, 4, 3, 6), seed=6)
    rng = np.random.default_rng(17)
    seqs = [rng.integers(1, 23, size=n).tolist() for n in (2, 3, 7, 4, 9, 2, 5, 8, 6, 3, 2)]
    if mode == "seqft":
        inputs = TaskInputs(PackedSequences.of(model, seqs))
    else:
        inputs = budgeted_inputs(mode, model, seqs, privacy, rng)[0]
    batch_size = 4  # does not divide the 11 sequences
    noise_rng = np.random.default_rng(3)
    # The clean table is filled in natural order; the epochs below regroup its
    # rows.  A noised epoch's base is filled from its own layout.
    perms = [np.random.default_rng(epoch).permutation(len(seqs)) for epoch in range(2)]
    with one_task_worker(mode, model, inputs.seqs, perms, privacy, batch_size) as worker:
        clean = worker.clean_table(0)
        layouts = [(layout, worker.slots[epoch % 2] if worker.slots else (None, clean))
                   for epoch, layout in enumerate(worker.epochs(0, inputs, noise_rng))]
    for perm, (layout, (slot_table, slot_base)) in zip(perms, layouts, strict=True):
        assert layout.base is slot_base
        table = model.embed[inputs.seqs.tokens] if slot_table is None else slot_table
        trained = 0
        for start, step in zip(range(0, len(perm), batch_size), layout.chunks(batch_size),
                               strict=True):
            # Reference: the step's rows laid out on their own by one cells pass.
            rows = perm[start : start + batch_size]
            src, pos = inputs.seqs.cells(model.n_ctx, rows)
            targets = src[:, model.n_ctx :]
            np.testing.assert_array_equal(step.src, src)
            np.testing.assert_array_equal(step.ids, inputs.seqs.tokens[src])
            np.testing.assert_array_equal(step.table[step.feed], table[src])
            assert (step.table is model.embed) == (mode == "seqft")
            np.testing.assert_array_equal(step.valid, pos[:, model.n_ctx :] >= 1)
            if mode == "pecl":
                np.testing.assert_array_equal(step.margin, inputs.margin[targets])
            else:
                assert step.margin is None
            # Every step's gathered base is x @ W0.T, the step's own 3-D
            # product, on every valid window: the clean table's regrouped rows
            # in seqft, the epoch's noised base otherwise, never the clean one.
            n_windows = targets.shape[1]
            windows = np.arange(n_windows)[:, None] + np.arange(model.n_ctx)
            x = table[src][:, windows].reshape(len(rows), n_windows, model.d_in)
            valid = step.valid
            assert valid.any()
            assert (step.base is clean) == (mode == "seqft")
            np.testing.assert_array_equal(step.base[targets][valid],
                                          (x @ model.w_hidden.T)[valid])
            assert list(step) == [seqs[i] for i in rows]
            assert sum(len(seq) - 1 for seq in step) == valid.sum()
            trained += valid.sum()
        assert trained == sum(len(seq) - 1 for seq in seqs)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("mode", ["pecl", "seqft", "uniform_dp"])
def test_each_epoch_is_laid_out_once_in_the_runs_process(monkeypatch, mode, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = count_forks(monkeypatch)
    privacy = PrivacyConfig(clip_norm=0.5)
    model = init_lm((23, 4, 3, 6), seed=6)
    rng = np.random.default_rng(17)
    seqs = [rng.integers(1, 23, size=n).tolist() for n in (2, 3, 7, 4, 9, 2, 5, 8, 6, 3, 2)]
    if mode == "seqft":
        inputs = TaskInputs(PackedSequences.of(model, seqs))
    else:
        inputs = budgeted_inputs(mode, model, seqs, privacy, rng)[0]
    # Layouts made in this process (a forked worker appends to its own copy),
    # and the layouts whose exposures were read, to noise them.
    laid_out, noised = [], []
    batch, exposures = PackedSequences.batch, TaskInputs.exposures

    def lay_out(self, *args):
        laid_out.append(batch(self, *args))
        return laid_out[-1]

    monkeypatch.setattr(PackedSequences, "batch", lay_out)
    monkeypatch.setattr(TaskInputs, "exposures",
                        lambda self, layout: noised.append(layout) or exposures(self, layout))
    perms = [np.random.default_rng(epoch).permutation(len(seqs)) for epoch in range(3)]
    # The epochs of a run's one task, with the run's worker (forked in the noised modes on
    # 2 CPUs).
    config = RunConfig(mode=mode, epochs=len(perms), batch_size=4, privacy=privacy)
    with RunWorker(model, config, [inputs.seqs], [perms.__getitem__], []) as worker:
        for epoch, layout in enumerate(worker.epochs(0, inputs, np.random.default_rng(3))):
            assert len(laid_out) == epoch + 1 and layout is laid_out[-1]
    assert len(laid_out) == len(perms)
    assert_no_child_left()
    assert len(forks) == (mode != "seqft" and cpus == 2)
    # The mechanism noised the very layout each epoch prepared here trains on:
    # none in seqft, epoch 0 alone when a worker prepared the rest.
    here = laid_out if cpus == 1 else laid_out[:1]
    expected = [] if mode == "seqft" else here
    assert len(noised) == len(expected) and all(map(operator.is_, noised, expected))


def test_a_seed_outside_32_bits_is_refused_and_one_inside_keeps_its_bits():
    for seed in (2**32, -1):
        with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*32\), got {seed}$"):
            spawn_rng(seed, "shuffle")
    for seed in (0, 2**32 - 1):
        expected = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            [seed, zlib.crc32(b"shuffle"), zlib.crc32(b"1")])))
        np.testing.assert_array_equal(spawn_rng(seed, "shuffle", 1).integers(2**62, size=4),
                                      expected.integers(2**62, size=4))


@pytest.mark.parametrize("mode", ["pecl", "seqft", "uniform_dp"])
def test_run_fills_one_clean_base_per_task_and_noised_steps_compute_their_own(monkeypatch,
                                                                             mode):
    config = small_config(mode=mode, epochs=2, batch_size=7)
    # On one CPU: with a worker, pecl's later clean tables are filled in the worker.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    clean_fills, steps = [], []

    def fill(model, layout, batch_size, out, work=None):
        if layout.table is model.embed:
            clean_fills.append(out)
        return frozen_base(model, layout, batch_size, out, work)

    def step(model, adapter, batch, spec, work):
        # Checked as the step runs: an epoch's slot is rewritten two epochs on.
        noised = batch.table is not model.embed
        assert noised == (mode != "seqft")
        assert (batch.base is clean_fills[-1]) if not noised else batch.base is not None
        if noised:
            # Its own epoch's base: x @ W0.T of its own noised inputs.
            assert not any(batch.base is base for base in clean_fills)
            x = _windows(model, batch)
            np.testing.assert_array_equal(batch.base[batch.src[:, model.n_ctx :]][batch.valid],
                                          (x @ model.w_hidden.T)[batch.valid])
        steps.append(noised)
        return backward(model, adapter, batch, spec, work)

    monkeypatch.setattr("pecl.trainer.frozen_base", fill)
    monkeypatch.setattr("pecl.trainer.backward", step)
    run_continual(config, small_stream(config).tasks)
    # uniform_dp reads no clean base: its steps are noised and its wrap-up runs no forward.
    assert len(clean_fills) == (0 if mode == "uniform_dp" else config.num_tasks)
    assert len(steps) == config.num_tasks * config.epochs * 5  # ceil(30 / 7) = 5


def test_pecl_reports_sum_the_packed_profile_sequence_by_sequence(monkeypatch):
    config = small_config(mode="pecl", epochs=2, batch_size=7)
    tasks = small_stream(config).tasks
    adapters = []  # each task's adapter as the task ends, from the result it returns
    train_task = trainer.train_task

    def keep_adapter(*args):
        result = train_task(*args)
        adapters.append(result.adapter.copy())
        return result

    monkeypatch.setattr("pecl.trainer.train_task", keep_adapter)
    result = run_continual(config, tasks)
    model = result.model
    for task, report, adapter in zip(tasks, result.reports, adapters, strict=True):
        profile = result.profiles[task.task_id]
        seqs = PackedSequences.of(model, task.train)
        assert profile.tokens == seqs.tokens[:-1].tolist()
        scores = np.split(profile.score, np.cumsum(seqs.lengths)[:-1])
        s_bar = 0.0
        for score in scores:
            s_bar += float(score.sum())
        assert report.s_bar == s_bar / len(profile.score)

        # A fresh wrap-up forward: the task's clean base, its chunks, its adapter.
        base = clean_base(model, seqs, config.batch_size)
        losses = []
        for chunk in seqs.batch(model, np.arange(len(task.train)),
                                base=base).chunks(config.batch_size):
            fb = forward_batch(model, adapter, chunk)
            losses += [ell[v] for ell, v in zip(fb.losses, fb.valid)]
        assert report.final_l_unlearn == np.mean([
            unlearn_loss(score[1:], ell, config.sculpt.theta)
            for score, ell in zip(scores, losses, strict=True)])


def bits(array):
    """An array's bits: a float array as its int64 view, any other as it is."""
    array = np.asarray(array)
    return array.view(np.int64) if array.dtype == float else array


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("mode", ["pecl", "uniform_dp", "seqft"])
def test_the_result_after_k_tasks_is_the_result_of_a_k_task_run(monkeypatch, mode, cpus):
    config = small_config(mode=mode, num_tasks=3, epochs=2, batch_size=7, uniform_eps=3.0)
    tasks = small_stream(config).tasks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = count_forks(monkeypatch)
    train_task, folded = trainer.train_task, []

    def keep_result(*args):
        # The ledger and noise generator go on into the next task: keep them as they are now.
        result = train_task(*args)
        folded.append((result, result.ledger.columns(), result.noise_rng.bit_generator.state))
        return result

    monkeypatch.setattr("pecl.trainer.train_task", keep_result)
    run_continual(config, tasks)
    monkeypatch.setattr("pecl.trainer.train_task", train_task)
    alone = run_continual(config, tasks[:2])
    assert len(folded) == 3
    assert len(forks) == (2 if cpus == 2 and mode != "seqft" else 0)

    got, ledger, noise_state = folded[1]
    assert got.matrix.rows() == alone.matrix.rows() and got.matrix.num_tasks == 2
    assert got.reports == alone.reports
    assert noise_state == alone.noise_rng.bit_generator.state
    assert ledger.keys() == alone.ledger.columns().keys()
    assert (ledger["epoch"].size > 0) == (mode != "seqft")
    for name, column in alone.ledger.columns().items():
        np.testing.assert_array_equal(bits(ledger[name]), bits(column), err_msg=name)
    for factor in ("a", "b"):
        np.testing.assert_array_equal(bits(getattr(got.adapter, factor)),
                                      bits(getattr(alone.adapter, factor)))
    assert got.profiles.keys() == alone.profiles.keys()
    assert len(got.profiles) == (2 if mode == "pecl" else 0)
    for task_id, profile in alone.profiles.items():
        for part in dataclasses.fields(profile):
            np.testing.assert_array_equal(bits(getattr(got.profiles[task_id], part.name)),
                                          bits(getattr(profile, part.name)), err_msg=part.name)


@pytest.mark.parametrize("batch_size", [5, 7])  # divides the 30 sequences, and does not
def test_scoring_and_wrap_up_read_the_bits_they_compute(batch_size):
    config = small_config()
    task = small_stream(config).tasks[0]
    model = init_lm((len(task.vocab), 4, 3, 6), seed=2)
    adapter = init_adapter(model, rank=2, seed=3, task_id=task.task_id)
    adapter.b[:] = np.random.default_rng(4).normal(scale=0.5, size=adapter.b.shape)
    stats = compute_corpus_stats([task], config.tau)
    sens = config.sensitivity.bind(task.vocab)
    seqs = PackedSequences.of(model, task.train)
    rows = np.arange(len(task.train))
    computed = score_sequences(model, adapter, stats, seqs, sens, batch_size)
    passes = [forward_batch(model, adapter, chunk)
              for chunk in seqs.batch(model, rows).chunks(batch_size)]
    base = clean_base(model, seqs, batch_size)
    read = score_sequences(model, adapter, stats, seqs, sens, batch_size, np.concatenate(
        window_losses(model, adapter, seqs.batch(model, rows, base=base), batch_size)))
    for name in ("score1", "score"):
        np.testing.assert_array_equal(getattr(read, name), getattr(computed, name))
    for chunk, fb in zip(seqs.batch(model, rows, base=base).chunks(batch_size), passes,
                         strict=True):
        assert chunk.base is base
        got = forward_batch(model, adapter, chunk)
        np.testing.assert_array_equal(got.x, fb.x)
        for name in ("h", "p", "losses"):
            np.testing.assert_array_equal(getattr(got, name)[got.valid],
                                          getattr(fb, name)[fb.valid])


def test_a_batch_over_a_noised_table_carries_no_clean_base():
    model = init_lm((23, 4, 3, 6), seed=1)
    seqs = PackedSequences.of(model, [[3, 4, 5], [6, 7], [8, 9, 10, 11]])
    clean = clean_base(model, seqs, 2)
    rows = np.array([2, 0])
    assert seqs.batch(model, rows, base=clean).base is clean
    table = model.embed[seqs.tokens] + 0.1
    assert seqs.batch(model, rows, table).base is None
    # Given the noised base of its own layout, a batch carries that one.
    base = frozen_base(model, seqs.batch(model, rows, table), 1,
                       np.zeros((seqs.tokens.size, model.d_hidden)))
    noised = seqs.batch(model, rows, table, None, base)
    assert noised.base is base and all(part.base is base for part in noised.chunks(1))
    for part in noised.chunks(1):
        targets, valid = part.src[:, model.n_ctx :], part.valid
        np.testing.assert_array_equal(part.base[targets][valid],
                                      (_windows(model, part) @ model.w_hidden.T)[valid])
        assert (part.base[targets][valid] != clean[targets][valid]).all()


@pytest.mark.parametrize("mode", ["pecl", "seqft", "uniform_dp"])
@pytest.mark.parametrize("lengths", [(2, 3, 7, 4, 9, 2, 5, 8, 6, 3, 2), (2, 2, 2, 2, 2)])
def test_each_steps_window_index_is_its_own_feed_at_every_window(monkeypatch, mode, lengths):
    # Batches of 4 leave a short last chunk; length-2 sequences give 2 windows.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # epochs prepared inline
    privacy = PrivacyConfig(clip_norm=0.5)
    model = init_lm((23, 4, 3, 6), seed=6)
    rng = np.random.default_rng(19)
    seqs = [rng.integers(1, 23, size=n).tolist() for n in lengths]
    if mode == "seqft":
        inputs = TaskInputs(PackedSequences.of(model, seqs))
    else:
        inputs = budgeted_inputs(mode, model, seqs, privacy, rng)[0]
    perm = np.random.default_rng(1).permutation(len(seqs))
    with one_task_worker(mode, model, inputs.seqs, [perm], privacy, 4) as worker:
        (layout,) = worker.epochs(0, inputs, np.random.default_rng(3))
    widths = set()
    for step in layout.chunks(4):
        n_windows = step.valid.shape[1]
        windows = np.arange(n_windows)[:, None] + np.arange(model.n_ctx)
        assert step.wfeed.shape == (len(step), n_windows, model.n_ctx)
        np.testing.assert_array_equal(step.wfeed, step.feed[:, windows])
        np.testing.assert_array_equal(
            _windows(model, step),
            step.table[step.feed[:, windows]].reshape(len(step), n_windows, model.d_in))
        widths.add(n_windows)
    # The mixed layout has 8 windows; two of its chunks are sliced narrower.
    assert widths == ({2} if max(lengths) == 2 else {4, 6, 8})


@pytest.mark.parametrize("inputs", ["seqft", "uniform_dp", "full finetune"])
def test_a_batch_without_margins_has_no_unlearning_term(inputs):
    # seqft and uniform_dp steps carry no margins; neither does full finetune.
    model = init_lm((23, 4, 3, 6), seed=8)
    rng = np.random.default_rng(23)
    adapter = None if inputs == "full finetune" else init_adapter(model, 2, seed=5, task_id=1)
    if adapter is not None:
        adapter.b[:] = rng.normal(scale=0.3, size=adapter.b.shape)
    seqs = PackedSequences.of(model, [rng.integers(1, 23, size=n).tolist()
                                      for n in (2, 5, 3, 7)])
    table = model.embed[seqs.tokens] + 0.1 if inputs == "uniform_dp" else None
    base = clean_base(model, seqs, 4) if table is None else None  # the clean inputs' base
    rows = np.array([3, 1, 0, 2])
    spec = LossSpec(lambda_unlearn=1.5, reg_weight=0.4,
                    reg_reference=rng.normal(scale=0.1, size=model.w_hidden.shape))
    plain = backward(model, adapter, seqs.batch(model, rows, table, None, base), spec)
    zeros = backward(model, adapter,
                     seqs.batch(model, rows, table, np.zeros(seqs.tokens.size), base), spec)
    assert plain.l_unlearn == 0.0 and zeros.l_unlearn == 0.0
    assert plain.l_task == zeros.l_task and plain.objective == zeros.objective
    assert plain.l_reg == zeros.l_reg and (plain.l_reg > 0) == (adapter is not None)
    assert [name for name, _ in plain.arrays()] == [name for name, _ in zeros.arrays()]
    for (_, got), (_, expected) in zip(plain.arrays(), zeros.arrays()):
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("mode", ["pecl", "seqft", "uniform_dp"])
def test_only_pecl_runs_a_wrap_up_forward(monkeypatch, mode):
    config = small_config(mode=mode, epochs=2, batch_size=7)
    # On one CPU: with a worker, the run's process runs only its share of each pass.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = []
    monkeypatch.setattr("pecl.trainer.compute_corpus_stats",
                        lambda *args: calls.append("stats") or compute_corpus_stats(*args))
    monkeypatch.setattr("pecl.trainer.backward",
                        lambda *args: calls.append("step") or backward(*args))
    monkeypatch.setattr("pecl.trainer.forward_batch",
                        lambda *args: calls.append("forward") or forward_batch(*args))
    run_continual(config, small_stream(config).tasks)
    # Each task: pecl's corpus statistics for scoring, 2 epochs of ceil(30 / 7) = 5
    # steps, then pecl's 5-chunk wrap-up pass.  Only pecl's scoring reads the statistics.
    task = (["stats"] if mode == "pecl" else []) + ["step"] * 10 + (
        ["forward"] * 5 if mode == "pecl" else [])
    assert calls == task * config.num_tasks


@pytest.mark.parametrize("mode", ["pecl", "seqft", "uniform_dp"])
def test_each_tasks_omega_folds_the_clean_window_norms_chunk_by_chunk(monkeypatch, mode):
    config = small_config(mode=mode, epochs=2, batch_size=7)
    tasks = small_stream(config).tasks
    seen = []
    monkeypatch.setattr("pecl.trainer.task_importance",
                        lambda delta, x_norm: seen.append((delta.copy(), x_norm))
                        or task_importance(delta, x_norm))
    result = run_continual(config, tasks)
    model = result.model
    for task, report, (delta, x_norm) in zip(tasks, result.reports, seen, strict=True):
        state = ImportanceState()
        seqs = PackedSequences.of(model, task.train)
        for chunk in seqs.batch(model, np.arange(len(task.train))).chunks(config.batch_size):
            state.observe_activation(np.linalg.norm(_windows(model, chunk), axis=-1)[chunk.valid])
        assert x_norm == state.activation_norm_accum
        assert report.omega == task_importance(delta, state.activation_norm_accum)
        assert report.omega > 0


def mechanism_sigmas(monkeypatch, path):
    """The sigma of every row of each ``perturb_embeddings`` call the trainer makes, in
    call order: a function that reads them back.  Each call appends its sigmas to the
    file ``path``, so calls made in the epoch worker count too."""

    def spy(e, sigma, clip_norm, rng):
        assert len(e) == len(sigma)
        with open(path, "ab") as fh:
            fh.write(np.asarray(sigma, dtype=np.float64).tobytes())
        return perturb_embeddings(e, sigma, clip_norm, rng)

    monkeypatch.setattr("pecl.trainer.perturb_embeddings", spy)
    return lambda: np.fromfile(path, dtype=np.float64)


def assert_ledger_follows_feed_order(config, tasks, ledger, budgets, sigmas):
    """Each epoch's exposures are its shuffled sequences in turn, positions
    0..len-2 in order, where the frozen score is positive; each record carries,
    bit for bit, the frozen epsilon and sigma of its position, and the ledger
    the configured delta.  ``budgets(task, i)`` gives sequence i's frozen score,
    epsilon and sigma, one entry per position.  The mechanism noises exactly
    the recorded exposures: ``sigmas``, its calls' rows, are the ledger's
    sigma column, bit for bit and in order."""
    expected = [
        (f"{task.task_id}:{i}", pos, epoch, budget[1][pos], budget[2][pos])
        for k, task in enumerate(tasks, start=1)
        for epoch in range(config.epochs)
        for i in spawn_rng(config.seed, "shuffle", k, epoch).permutation(len(task.train))
        for budget in [budgets(task, i)]
        for pos in np.flatnonzero(budget[0][:-1] > 0).tolist()
    ]
    cols = ledger.columns()
    assert list(zip(*(cols[name].tolist() for name in ("sequence_id", "position", "epoch")))) \
        == [e[:3] for e in expected]
    for field, column in (("epsilon", 3), ("sigma", 4)):
        np.testing.assert_array_equal(
            cols[field].view(np.int64),
            np.array([e[column] for e in expected]).view(np.int64), err_msg=field)
    assert ledger.delta == config.privacy.delta
    assert sigmas.size == len(ledger)
    np.testing.assert_array_equal(sigmas.view(np.int64),
                                  ledger.columns()["sigma"].view(np.int64))


def test_run_ledger_follows_each_epochs_feed_order(monkeypatch, tmp_path):
    config = small_config(mode="pecl", num_tasks=1, epochs=2, batch_size=7)
    task = small_stream(config).tasks[0]
    sigmas = mechanism_sigmas(monkeypatch, tmp_path / "sigmas")
    result = run_continual(config, [task])
    profile = result.profiles[task.task_id]
    ends = np.cumsum([len(seq) for seq in task.train])

    def budgets(task, i):
        part = slice(ends[i] - len(task.train[i]), ends[i])
        return profile.score[part], profile.epsilon[part], profile.sigma[part]

    assert_ledger_follows_feed_order(config, [task], result.ledger, budgets, sigmas())


def test_uniform_dp_run_ledger_follows_each_epochs_feed_order(monkeypatch, tmp_path):
    config = small_config(mode="uniform_dp", num_tasks=2, epochs=2, batch_size=7,
                          uniform_eps=3.0, privacy=PrivacyConfig(delta=1e-5, clip_norm=0.5))
    tasks = small_stream(config).tasks
    sigmas = mechanism_sigmas(monkeypatch, tmp_path / "sigmas")
    result = run_continual(config, tasks)
    stopword_ids = config.sensitivity.bind(tasks[0].vocab).stopword_ids
    sigma = noise_sigma(3.0, 1e-5, 0.5)

    def budgets(task, i):
        tokens = task.train[i].tokens
        return (~np.isin(tokens, list(stopword_ids)), np.full(len(tokens), 3.0),
                np.full(len(tokens), sigma))

    assert_ledger_follows_feed_order(config, tasks, result.ledger, budgets, sigmas())
    assert 0 < len(result.ledger) < config.epochs * sum(
        len(seq.tokens) - 1 for task in tasks for seq in task.train)


def test_a_pecl_runs_ledger_read_back_under_its_delta_composes_the_same(tmp_path):
    config = small_config(mode="pecl", privacy=PrivacyConfig(delta=3e-6), delta_prime=1e-7)
    ledger = run_continual(config, small_stream(config).tasks).ledger
    assert ledger.delta == config.privacy.delta and len(ledger) > 0
    ledger.to_csv(tmp_path / "ledger.csv")
    loaded = PrivacyLedger.from_csv(tmp_path / "ledger.csv", config.privacy.delta)
    composed = compose_sequence(ledger, config.delta_prime)
    assert compose_sequence(loaded, config.delta_prime) == composed
    assert composed[1] == config.privacy.delta + config.delta_prime


@pytest.mark.parametrize("mode", ["pecl", "seqft", "uniform_dp"])
def test_run_leaves_every_base_parameter_as_initialised(mode):
    # Epoch noising reads the embedding table before an epoch's steps; that
    # is exact only because no step changes it.
    config = small_config(mode=mode)
    tasks = small_stream(config).tasks
    result = run_continual(config, tasks)
    initial = init_lm((len(tasks[0].vocab), config.d_emb, config.n_ctx, config.d_hidden),
                      seed=config.seed)
    for (name, got), (_, expected) in zip(result.model.param_items(), initial.param_items(),
                                          strict=True):
        np.testing.assert_array_equal(got, expected, err_msg=name)
    assert (result.adapter.b != 0).any()  # the adapter did train


def long_sequence_tasks():
    """Two tasks of 24 training and 8 eval sequences over a made-up vocabulary
    with no stopwords, about half of them 20 to 30 tokens long and the rest 3
    to 9.  At the default layer sizes a step of 3 sequences then has (T, d_in)
    slices of 2 to 29 rows, across the row count where a gemm row's last bits
    start to depend on the slice it is computed in."""
    rng = np.random.default_rng(7)
    vocab = Vocabulary([f"w{i}" for i in range(40)] + ["yes", "no", "up", "down"])
    tasks = []
    for task_id, labels in ((1, ("yes", "no")), (2, ("up", "down"))):
        label_ids = [vocab.id_of(label) for label in labels]

        def sequence():
            label = int(rng.choice(label_ids))
            n_words = rng.integers(19, 30) if rng.random() < 0.5 else rng.integers(2, 9)
            words = rng.integers(2, 42, size=int(n_words)).tolist()
            return TokenizedSequence(words + [label], task_id, label)

        tasks.append(TaskCorpus(task_id, [sequence() for _ in range(24)],
                                [sequence() for _ in range(8)], set(label_ids), vocab))
    return tasks


def count_forks(monkeypatch):
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real_fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_with_cpus(monkeypatch, cpus, config, tasks, check_step=None):
    """``run_continual`` as if the process may run on ``cpus`` CPUs, with the noise
    generator's final state and the number of epoch workers forked."""
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        forks = count_forks(m)
        made = []

        def spawn(seed, *tags):
            rng = spawn_rng(seed, *tags)
            if tags[0] == "embedding-noise":
                made.append(rng)
            return rng

        m.setattr("pecl.trainer.spawn_rng", spawn)
        if check_step is not None:
            m.setattr("pecl.trainer.backward",
                      lambda *args: check_step(*args) or backward(*args))
        result = run_continual(config, tasks)
    assert_no_child_left()
    (noise_rng,) = made
    return result, noise_rng.bit_generator.state, len(forks)


def assert_same_run(got, expected):
    """The two runs agree bit for bit: matrix, ledger, model, adapter, reports, scores."""
    np.testing.assert_array_equal(got.matrix.values, expected.matrix.values)
    assert len(got.ledger) == len(expected.ledger) > 0
    assert_same_ledger(got.ledger, expected.ledger)
    for (name, got_param), (_, expected_param) in zip(got.model.param_items(),
                                                      expected.model.param_items(), strict=True):
        np.testing.assert_array_equal(got_param, expected_param, err_msg=name)
    np.testing.assert_array_equal(got.adapter.a, expected.adapter.a)
    np.testing.assert_array_equal(got.adapter.b, expected.adapter.b)
    assert got.reports == expected.reports
    assert got.profiles.keys() == expected.profiles.keys()
    for task_id, profile in got.profiles.items():
        np.testing.assert_array_equal(profile.score, expected.profiles[task_id].score)


def unequal_tasks(config):
    """Three tasks of 60, 25 and 40 training sequences, in that order.  The run-long
    buffers are sized for the first, and the later tasks reuse them over fewer tokens:
    their rows that no valid window predicts held an earlier task's rows before."""
    tasks = synthetic_stream(num_tasks=3, train_per_task=60, eval_per_task=config.eval_per_task,
                             seed=config.seed).tasks
    return [dataclasses.replace(task, train=task.train[:n]) for task, n in zip(tasks, (60, 25, 40))]


@pytest.mark.parametrize("corpus", ["synthetic", "long sequences", "unequal sizes"])
@pytest.mark.parametrize("mode", ["pecl", "uniform_dp"])
def test_the_epoch_worker_and_inline_preparation_give_the_same_run(monkeypatch, mode, corpus):
    config = small_config(mode=mode, epochs=3, batch_size=3, uniform_eps=3.0)
    tasks = {"synthetic": lambda: small_stream(config).tasks,
             "long sequences": long_sequence_tasks,
             "unequal sizes": lambda: unequal_tasks(config)}[corpus]()
    if corpus == "unequal sizes":  # in tokens too
        sizes = [sum(len(seq.tokens) for seq in task.train) for task in tasks]
        assert sizes[1] < sizes[2] < sizes[0]

    def check_step(model, adapter, batch, spec, work):
        # Every noised step reads exactly the x @ W0.T it would compute.
        x = _windows(model, batch)
        np.testing.assert_array_equal(batch.base[batch.src[:, model.n_ctx :]][batch.valid],
                                      (x @ model.w_hidden.T)[batch.valid])

    worker, worker_rng, forks = run_with_cpus(monkeypatch, 2, config, tasks)
    with monkeypatch.context() as m:
        if corpus == "unequal sizes":
            # The inline run's buffers start full of a finite value, not zeros: no bit
            # depends on the base rows that no valid window predicts, which the run-long
            # buffers keep from an earlier task.
            shared = trainer._shared

            def dirty(*shape, dtype=np.float64):
                buffer = shared(*shape, dtype=dtype)
                buffer[...] = 1e3
                return buffer

            m.setattr(trainer, "_shared", dirty)
        inline, inline_rng, no_forks = run_with_cpus(m, 1, config, tasks, check_step)
    assert (forks, no_forks) == (1, 0)  # one worker per run; none on one CPU
    assert_same_run(worker, inline)
    assert worker_rng == inline_rng


@pytest.mark.parametrize("mode", ["pecl", "uniform_dp"])
def test_messages_larger_than_a_pipe_buffer_leave_the_run_and_its_worker_in_step(monkeypatch,
                                                                                 tmp_path, mode):
    # One task large enough that what scoring decided (sent with the epochs), the
    # scoring losses and the wrap-up's norms and losses each pickle to more than a
    # pipe's 64 KiB buffer, which blocks the writer until the other side reads.
    config = small_config(mode=mode, num_tasks=1, train_per_task=3000, eval_per_task=4,
                          epochs=2, batch_size=64, d_emb=4, d_hidden=6, uniform_eps=3.0)
    tasks = small_stream(config).tasks
    sizes, put = tmp_path / "sizes", trainer._put

    def measured(stream, message):  # both processes append to the file
        with open(sizes, "a") as fh:
            kind = message[0] if isinstance(message, tuple) else type(message).__name__
            fh.write(f"{kind} {len(pickle.dumps(message))}\n")
        put(stream, message)

    def hung(signum, frame):
        raise AssertionError("the run and its worker waited on each other")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with monkeypatch.context() as m:
            m.setattr(trainer, "_put", measured)
            worker, worker_rng, forks = run_with_cpus(m, 2, config, tasks)
        inline, inline_rng, _ = run_with_cpus(monkeypatch, 1, config, tasks)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    large = sorted(kind for kind, size in map(str.split, sizes.read_text().splitlines())
                   if int(size) > 2**16)
    # The epochs command, then pecl's scoring reply, and the wrap-up reply.
    assert large == ["epochs", "list", "list"][: 3 if mode == "pecl" else 2]
    assert forks == 1
    assert_same_run(worker, inline)
    assert worker_rng == inline_rng
    assert_no_child_left()


def log_event(path, *event):
    """Appends one line to ``path``: a file both the run and its worker write to."""
    with open(path, "a") as fh:
        fh.write(" ".join(map(str, event)) + "\n")


@pytest.mark.parametrize("epochs", [1, 2, 3, 4])
def test_the_worker_prepares_a_tasks_epochs_in_order_and_then_the_next_clean_table(
        monkeypatch, tmp_path, epochs):
    # Task k + 1's clean table is filled after task k's last epoch, which the run waits
    # on; commanded at the task's start instead, it delays those epochs.
    config = small_config(mode="pecl", num_tasks=3, epochs=epochs, batch_size=7)
    events, run_pid = tmp_path / "events", os.getpid()
    epoch_share, clean = RunWorker._epochs, RunWorker._clean

    def preparing(self, k, epoch, *task):  # the worker's share of the epoch
        log_event(events, "epoch", k, epoch)
        return epoch_share(self, k, epoch, *task)

    def filling(self, k, first, last):
        if os.getpid() != run_pid:
            log_event(events, "clean", k, first)
        return clean(self, k, first, last)

    monkeypatch.setattr(RunWorker, "_epochs", preparing)
    monkeypatch.setattr(RunWorker, "_clean", filling)
    _, _, forks = run_with_cpus(monkeypatch, 2, config, small_stream(config).tasks)
    # Task 1's clean fill is split: 30 sequences in 5 chunks of 7, the run's 3 first.
    expected = ["clean 0 21"]
    for k in range(config.num_tasks):
        expected += [f"epoch {k} {epoch}" for epoch in range(epochs)]
        expected += [f"clean {k + 1} 0"] if k + 1 < config.num_tasks else []
    assert forks == 1
    assert events.read_text().splitlines() == expected


@pytest.mark.parametrize("mode", ["pecl", "uniform_dp"])
def test_the_worker_refills_a_slot_only_after_the_last_step_that_reads_it(monkeypatch,
                                                                         tmp_path, mode):
    # Epoch e's slot is epoch e - 2's.  The run's epoch-0 steps are slowed, so a worker
    # sent epoch 2 early would refill slot 0 while epoch 0 still trains.
    config = small_config(mode=mode, num_tasks=2, epochs=4, batch_size=7, uniform_eps=3.0)
    events, run_pid = tmp_path / "events", os.getpid()
    prepare, steps = RunWorker._prepare, []

    def preparing(self, k, epoch, *args):
        if os.getpid() != run_pid:
            log_event(events, "prepare", k, epoch)
        return prepare(self, k, epoch, *args)

    def step(*args):
        k, epoch = divmod(len(steps) // 5, config.epochs)  # ceil(30 / 7) = 5 steps an epoch
        if epoch == 0:
            time.sleep(0.05)
        grads = backward(*args)
        steps.append(None)
        log_event(events, "step", k, epoch)  # the step has read its slot
        return grads

    monkeypatch.setattr(RunWorker, "_prepare", preparing)
    monkeypatch.setattr("pecl.trainer.backward", step)
    _, _, forks = run_with_cpus(monkeypatch, 2, config, small_stream(config).tasks)
    log = [(kind, (int(k), int(epoch))) for kind, k, epoch in
           map(str.split, events.read_text().splitlines())]
    prepared = [(i, at) for i, (kind, at) in enumerate(log) if kind == "prepare"]
    assert forks == 1 and [at for _, at in prepared] == [(k, epoch) for k in range(2)
                                                        for epoch in range(1, 4)]
    for i, (k, epoch) in prepared:
        # Every step of an earlier epoch on the same slot, this task's or the last one's.
        readers = [j for j, (kind, (k2, e2)) in enumerate(log) if kind == "step"
                   and e2 % 2 == epoch % 2 and (k2, e2) < (k, epoch)]
        assert all(j < i for j in readers), f"task {k} epoch {epoch} refilled its slot early"


@pytest.mark.parametrize("mode", ["pecl", "uniform_dp"])
def test_a_failed_fork_prepares_each_epoch_inline_and_closes_its_pipes(monkeypatch, mode):
    config = small_config(mode=mode, epochs=3, batch_size=7, uniform_eps=3.0)
    tasks = small_stream(config).tasks
    inline, inline_rng, _ = run_with_cpus(monkeypatch, 1, config, tasks)
    real_pipe = os.pipe

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    # The fork fails (EAGAIN), or before it the second of its two pipes (EMFILE).
    for failure in ("fork", "second pipe"):
        piped, calls = [], []

        def pipe():
            calls.append(None)
            if failure == "second pipe" and len(calls) % 2 == 0:
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            fds = real_pipe()
            piped.extend(fds)
            return fds

        with monkeypatch.context() as m:
            m.setattr("pecl.trainer.os.pipe", pipe)
            m.setattr("pecl.trainer.os.fork", no_fork)
            failed, failed_rng, forks = run_with_cpus(m, 2, config, tasks)
        if failure == "fork":
            assert forks == 1 and len(piped) == 4  # a fork tried once per run, after 2 pipes
        else:
            assert forks == 0 and len(calls) == len(piped) == 2
        assert_same_run(failed, inline)
        assert failed_rng == inline_rng
        for fd in piped:
            with pytest.raises(OSError) as closed:
                os.fstat(fd)
            assert closed.value.errno == errno.EBADF


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_exposures_are_the_layouts_exposed_input_cells_in_feed_order(data):
    lengths = data.draw(st.lists(st.integers(2, 14), min_size=1, max_size=12))
    perm = np.array(data.draw(st.permutations(range(len(lengths)))), dtype=np.intp)
    exposed = np.array(data.draw(st.lists(st.booleans(), min_size=sum(lengths),
                                          max_size=sum(lengths))), dtype=bool)
    model = init_lm((9, 2, data.draw(st.integers(1, 5)), 3), seed=0)
    seqs = PackedSequences.of(model, [[1] * n for n in lengths])
    # Reference: each sequence of the permutation in turn, positions
    # 0 .. len - 2, where exposed, by index arithmetic over the lengths.
    n_fed = seqs.lengths[perm] - 1
    seq = np.repeat(perm, n_fed)
    pos = np.arange(seq.size) - np.repeat(np.cumsum(n_fed) - n_fed, n_fed)
    src = seqs.starts[seq] + pos
    got = TaskInputs(seqs, exposed).exposures(seqs.batch(model, perm))
    np.testing.assert_array_equal(got, src[exposed[src]])


def test_task_inputs_are_frozen():
    model = init_lm((23, 4, 3, 6), seed=1)
    privacy = PrivacyConfig(clip_norm=0.5)
    inputs = budgeted_inputs("pecl", model, [[3, 4, 5], [6, 7]], privacy,
                             np.random.default_rng(2))[0]
    for field in dataclasses.fields(TaskInputs):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(inputs, field.name, None)


def test_the_runs_worker_is_forked_once_before_its_first_record_table(monkeypatch):
    config = small_config(mode="pecl", epochs=2, batch_size=7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    events = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: events.append("fork") or real_fork())
    monkeypatch.setattr("pecl.trainer.record_table",
                        lambda *args: events.append("records") or record_table(*args))
    run_continual(config, small_stream(config).tasks)
    assert events == ["fork"] + ["records"] * config.num_tasks
    assert_no_child_left()


def test_a_failing_step_leaves_no_epoch_worker(monkeypatch):
    config = small_config(mode="pecl", epochs=3, batch_size=7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = count_forks(monkeypatch)
    calls = []

    def step(*args):
        calls.append(1)
        if len(calls) == 7:  # the second step of epoch 1, prepared by the worker
            raise NumericError("non-finite token loss encountered")
        return backward(*args)

    monkeypatch.setattr("pecl.trainer.backward", step)
    with pytest.raises(NumericError, match="^task 1 epoch 1: non-finite token loss"):
        run_continual(config, small_stream(config).tasks)
    assert len(forks) == 1
    assert_no_child_left()


class FirstStep(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "worker"])
def test_a_run_of_2_62_epochs_reaches_its_first_step_at_once(monkeypatch, cpus):
    # Each epoch's shuffle is drawn as the feed reaches the epoch: nothing before
    # the first step grows with ``epochs``.
    config = small_config(mode="pecl", epochs=2**62, num_tasks=1, train_per_task=2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = count_forks(monkeypatch)
    shuffled = []

    def spawn(seed, *tags):
        if tags[0] == "shuffle":
            shuffled.append(tags[2])
            # Only the worker prepares epoch 1 before epoch 0 has ended.
            assert tags[2] < 2, "an epoch's shuffle was drawn before the feed reached it"
        return spawn_rng(seed, *tags)

    def step(*args):
        raise FirstStep

    monkeypatch.setattr("pecl.trainer.spawn_rng", spawn)
    monkeypatch.setattr("pecl.trainer.backward", step)
    with pytest.raises(FirstStep):
        run_continual(config, small_stream(config).tasks)
    assert shuffled == [0]  # in this process; the worker drew epoch 1's in its own
    assert len(forks) == cpus - 1
    assert_no_child_left()


@pytest.mark.parametrize("error", [DataError, NumericError])
@pytest.mark.parametrize("failing_epoch", [1, 2])
def test_an_error_in_the_epoch_worker_is_raised_again_in_the_run(monkeypatch, error,
                                                                failing_epoch):
    config = small_config(mode="uniform_dp", epochs=4, batch_size=7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = count_forks(monkeypatch)
    run_pid = os.getpid()
    calls = []

    def mechanism(e, sigma, clip_norm, rng):
        calls.append(1)  # the worker's copy, forked as the run starts, counts from epoch 1's
        if os.getpid() != run_pid and len(calls) == failing_epoch:
            raise error(f"refused in epoch {failing_epoch}")
        return perturb_embeddings(e, sigma, clip_norm, rng)

    monkeypatch.setattr("pecl.trainer.perturb_embeddings", mechanism)
    with pytest.raises(error) as raised:
        run_continual(config, small_stream(config).tasks)
    assert type(raised.value) is error and str(raised.value) == f"refused in epoch {failing_epoch}"
    assert len(forks) == 1 and calls == [1]
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("mode", ["pecl", "seqft", "uniform_dp"])
def test_a_run_forks_one_worker_when_noised_on_two_cpus_and_none_otherwise(monkeypatch, mode,
                                                                         cpus):
    config = small_config(mode=mode, num_tasks=3, epochs=2, batch_size=7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = count_forks(monkeypatch)
    run_continual(config, small_stream(config).tasks)
    assert len(forks) == (mode != "seqft" and cpus == 2)
    assert_no_child_left()


def test_an_out_of_memory_error_in_the_worker_is_a_memory_error_in_the_run(monkeypatch):
    # numpy's _ArrayMemoryError needs a shape and a dtype besides the message.
    from numpy._core._exceptions import _ArrayMemoryError

    config = small_config(mode="pecl", epochs=3, batch_size=7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    run_pid = os.getpid()
    refused = _ArrayMemoryError((2**24, 2**24), np.dtype(np.uint8))

    def mechanism(e, sigma, clip_norm, rng):
        if os.getpid() != run_pid:
            raise refused
        return perturb_embeddings(e, sigma, clip_norm, rng)

    monkeypatch.setattr("pecl.trainer.perturb_embeddings", mechanism)
    with pytest.raises(MemoryError) as raised:
        run_continual(config, small_stream(config).tasks)
    assert type(raised.value) is MemoryError and str(raised.value) == str(refused)
    assert_no_child_left()


def worker_pids(monkeypatch):
    """The pid of every worker the run forks, as the run sees it."""
    pids = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: pids.append(real_fork()) or pids[-1])
    return pids


@pytest.mark.parametrize("share", ["clean", "score"])
def test_an_error_in_the_workers_share_of_task_2_is_raised_again_in_the_run(monkeypatch, share):
    config = small_config(mode="pecl", num_tasks=3, epochs=2, batch_size=7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids, run_pid = worker_pids(monkeypatch), os.getpid()
    calls = []  # the worker's copy counts its own calls: task 1's share, then task 2's

    def refuse_the_second(function, is_share=lambda *args: True):
        def call(*args):
            if os.getpid() != run_pid and is_share(*args):
                calls.append(1)
                if len(calls) == 2:
                    raise DataError(f"refused in task 2's {share}")
            return function(*args)
        return call

    if share == "clean":  # task 2's whole clean table, filled as task 1 trains
        monkeypatch.setattr("pecl.trainer.frozen_base", refuse_the_second(
            frozen_base, lambda model, layout, *rest: layout.table is model.embed))
    else:  # the later half of task 2's scoring forward
        monkeypatch.setattr("pecl.trainer.window_losses", refuse_the_second(window_losses))
    with pytest.raises(DataError, match=f"^refused in task 2's {share}$"):
        run_continual(config, small_stream(config).tasks)
    assert len(pids) == 1
    assert_no_child_left()


def test_a_worker_killed_between_tasks_is_a_named_error_not_a_hang(monkeypatch):
    config = small_config(mode="pecl", num_tasks=3, epochs=2, batch_size=7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids = worker_pids(monkeypatch)

    def kill_after_task_1(delta, x_norm):  # at task 1's wrap-up, after the worker's share
        os.kill(pids[0], signal.SIGKILL)
        return task_importance(delta, x_norm)

    def hung(signum, frame):
        raise AssertionError("the run waited on a dead worker")

    monkeypatch.setattr("pecl.trainer.task_importance", kill_after_task_1)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(ChildProcessError, match="epoch worker ended without its result "
                                                    r"\(killed by signal 9\)"):
            run_continual(config, small_stream(config).tasks)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()


def test_a_killed_epoch_worker_is_a_named_error_not_a_hang(monkeypatch):
    config = small_config(mode="pecl", epochs=3, batch_size=7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    run_pid = os.getpid()
    prepare = RunWorker._prepare

    def dying(self, k, epoch, *args):
        if os.getpid() != run_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return prepare(self, k, epoch, *args)

    def hung(signum, frame):
        raise AssertionError("the run waited on a dead worker")

    monkeypatch.setattr(RunWorker, "_prepare", dying)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        started = time.monotonic()
        with pytest.raises(ChildProcessError, match="epoch worker ended without its result "
                                                    r"\(killed by signal 9\)"):
            run_continual(config, small_stream(config).tasks)
        assert time.monotonic() - started < 30
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()


@pytest.mark.parametrize("unlearn_mode, sign", [("suppress", -1.0), ("additive", 1.0)])
def test_unlearn_mode_sets_the_sign_of_the_unlearning_term(monkeypatch, unlearn_mode, sign):
    config = small_config(mode="pecl", num_tasks=1, epochs=1, batch_size=7, d_emb=4, n_ctx=3,
                          d_hidden=6, rank=2, unlearn_mode=unlearn_mode,
                          sculpt=SculptConfig(theta=0.3, lambda_unlearn=1.5))
    steps = []

    def step(model, adapter, batch, spec, work):
        steps.append((model, adapter.copy(), batch, spec))
        return backward(model, adapter, batch, spec, work)

    monkeypatch.setattr("pecl.trainer.backward", step)
    run_continual(config, small_stream(config).tasks)
    model, adapter, batch, spec = steps[-1]
    assert (spec.unlearn_sign, spec.lambda_unlearn) == (sign, 1.5)
    assert batch.margin[batch.valid].any()
    grads = backward(model, adapter, batch, spec)
    assert grads.l_unlearn > 0 and grads.l_reg == 0
    assert grads.objective == grads.l_task + sign * 1.5 * grads.l_unlearn

    # The term's gradient enters with the mode's sign: additive adds what suppress takes.
    def adapter_grads(unlearn_sign, lambda_unlearn):
        g = backward(model, adapter, batch, LossSpec(theta=spec.theta, unlearn_sign=unlearn_sign,
                                                     lambda_unlearn=lambda_unlearn))
        return np.concatenate([g.a.ravel(), g.b.ravel()])

    task_only = adapter_grads(sign, 0.0)
    np.testing.assert_allclose(adapter_grads(sign, 1.5) - task_only,
                               sign * 1.5 * (adapter_grads(1.0, 1.0) - task_only),
                               rtol=1e-9, atol=1e-15)

    def objective():
        # L_task + sign * lambda * L_unlearn from the losses, per sequence.
        fb = forward_batch(model, adapter, batch)
        l_task = l_unlearn = 0.0
        for losses, margin, valid in zip(fb.losses, batch.margin, fb.valid):
            l_task += losses[valid].mean() / len(batch)
            l_unlearn += (margin[valid] * losses[valid]).mean() / len(batch)
        return l_task + sign * 1.5 * l_unlearn

    for name, param, grad in (("a", adapter.a, grads.a), ("b", adapter.b, grads.b)):
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + 1e-5
            up = objective()
            param[idx] = orig - 1e-5
            down = objective()
            param[idx] = orig
            fd = (up - down) / 2e-5
            assert abs(grad[idx] - fd) <= max(1e-4 * max(abs(grad[idx]), abs(fd)), 1e-8), (
                f"{name}{idx}: analytic {grad[idx]} vs fd {fd}")


def test_steps_and_scoring_chunks_after_the_first_allocate_no_batch_sized_arrays(monkeypatch):
    # RunConfig's default sizes (batch 32): a step or scoring chunk that allocated its
    # own x, h, p and dZ would raise the traced peak by about 1 MiB.
    config = RunConfig(num_tasks=2, seed=3)  # the drift penalty is on from task 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    peaks = {"backward": [], "score": []}

    def measured(name, function):
        def call(*args):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = function(*args)
            peaks[name].append((args[-1], tracemalloc.get_traced_memory()[1] - start))
            return result
        return call

    monkeypatch.setattr("pecl.trainer.backward", measured("backward", backward))
    monkeypatch.setattr("pecl.sensitivity.forward_batch", measured("score", forward_batch))
    tasks = small_stream(config).tasks
    tracemalloc.start()
    try:
        run_continual(config, tasks)
    finally:
        tracemalloc.stop()
    assert len(peaks["backward"]) == 2 * 3 * 10 and len(peaks["score"]) == 2 * 10
    for name, calls in peaks.items():
        warmed = []  # the workspaces, kept alive so that no two share an id
        for work, peak in calls:
            if any(work is seen for seen in warmed):
                assert peak < 128 * 1024, (name, peak)
            else:
                warmed.append(work)
        assert len(warmed) == 1, name  # one workspace per run
