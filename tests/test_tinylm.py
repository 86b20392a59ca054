import math

import numpy as np
import pytest

from pecl.corpus import PAD_ID
from pecl.errors import NumericError
from pecl.sculpt import AdapterSnapshot, reg_loss, unlearn_loss
from pecl.tinylm import (
    AdamW,
    LoraAdapter,
    LossSpec,
    PackedBatch,
    PackedSequences,
    TinyLM,
    Workspace,
    backward,
    cosine_lr,
    forward,
    forward_batch,
    frozen_base,
    init_adapter,
    init_lm,
    label_probs,
    load_checkpoint,
    lora_delta,
    save_checkpoint,
    sgd_step,
    token_losses,
)


def oracle_forward(model, adapter, context, noisy=None):
    """Scalar-loop recomputation of the forward pass, independent of tinylm."""
    x = []
    for _ in range(model.n_ctx - len(context)):
        x.extend(model.embed[PAD_ID].tolist())
    for pos, tok in enumerate(context):
        row = noisy[pos] if noisy is not None else model.embed[tok]
        x.extend(np.asarray(row, dtype=float).tolist())
    delta = (adapter.b @ adapter.a) if adapter is not None else np.zeros_like(model.w_hidden)
    h = [
        math.tanh(
            sum(
                (model.w_hidden[i][j] + delta[i][j]) * x[j]
                for j in range(model.d_in)
            )
            + model.b_hidden[i]
        )
        for i in range(model.d_hidden)
    ]
    logits = [
        sum(model.w_out[k][i] * h[i] for i in range(model.d_hidden)) + model.b_out[k]
        for k in range(model.vocab)
    ]
    m = max(logits)
    exps = [math.exp(v - m) for v in logits]
    total = sum(exps)
    return [e / total for e in exps]


def noised_batch(model, batch, noisy):
    """``batch`` laid out as ``RunWorker.epochs`` lays out a noised epoch: over a
    per-token input table, the embedding rows with ``noisy[i]`` written over
    the first rows of sequence i (None leaves a sequence clean)."""
    seqs = PackedSequences.of(model, batch)
    table = model.embed[seqs.tokens]
    for start, rows in zip(seqs.starts, noisy, strict=True):
        if rows is not None:
            table[start : start + len(rows)] = rows
    return seqs.batch(model, np.arange(len(batch)), table)


def assemble_objective(model, adapter, batch, spec):
    """Forward-only objective used as the finite-difference oracle: one
    ``token_losses`` pass per listed sequence, or the losses of a packed batch."""
    if isinstance(batch, PackedBatch):
        fb = forward_batch(model, adapter, batch)
        per_sequence = [losses[valid] for losses, valid in zip(fb.losses, fb.valid)]
    else:
        per_sequence = [token_losses(model, adapter, seq)[0] for seq in batch]
    l_task = 0.0
    l_unlearn = 0.0
    for idx, losses in enumerate(per_sequence):
        l_task += losses.mean() / len(batch)
        if spec.scores is not None:
            l_unlearn += unlearn_loss(spec.scores[idx][1:], losses, spec.theta) / len(batch)
    l_reg = 0.0
    if spec.reg_weight != 0.0 and spec.reg_reference is not None:
        snapshot = AdapterSnapshot(task_id=0, delta_w=spec.reg_reference.copy())
        l_reg = reg_loss(lora_delta(adapter), snapshot, spec.reg_weight, 1.0)
    return l_task + l_reg + spec.unlearn_sign * spec.lambda_unlearn * l_unlearn


def fd_check(model, adapter, batch, spec, params_and_grads, step=1e-5, rtol=1e-4):
    for name, param, grad in params_and_grads:
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + step
            up = assemble_objective(model, adapter, batch, spec)
            param[idx] = orig - step
            down = assemble_objective(model, adapter, batch, spec)
            param[idx] = orig
            fd = (up - down) / (2 * step)
            analytic = grad[idx]
            denom = max(abs(analytic), abs(fd))
            assert abs(analytic - fd) <= max(rtol * denom, 1e-8), (
                f"{name}{idx}: analytic {analytic} vs fd {fd}"
            )


def small_model(seed=3):
    return init_lm((6, 4, 3, 5), seed=seed)


def small_batch():
    return [[1, 4, 2, 5], [3, 2, 1], [5, 1, 4, 3, 2]]


def test_init_deterministic_and_shapes():
    m1 = init_lm((8, 4, 3, 5), seed=1)
    m2 = init_lm((8, 4, 3, 5), seed=1)
    for (_, a), (_, b) in zip(m1.param_items(), m2.param_items()):
        assert np.array_equal(a, b)
    assert m1.embed.size == 32
    assert m1.w_hidden.shape == (5, 12)
    m3 = init_lm((8, 4, 3, 5), seed=2)
    assert not np.array_equal(m1.embed, m3.embed)


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        init_lm((0, 4, 3, 5), seed=1)
    with pytest.raises(ValueError):
        init_lm((8, 4, -1, 5), seed=1)


def test_forward_sums_to_one():
    model = small_model()
    rng = np.random.default_rng(0)
    for _ in range(50):
        ctx = rng.integers(0, model.vocab, size=rng.integers(1, model.n_ctx + 1)).tolist()
        probs = forward(model, None, ctx)
        assert (probs >= 0).all()
        assert abs(probs.sum() - 1.0) <= 1e-12


def test_forward_validates_inputs():
    model = small_model()
    with pytest.raises(ValueError, match="out of vocab"):
        forward(model, None, [99])
    with pytest.raises(ValueError, match="exceeds n_ctx"):
        forward(model, None, [1, 2, 3, 4])
    with pytest.raises(ValueError, match="at least one token"):
        forward(model, None, [])


def test_adapter_zero_matches_no_adapter():
    model = small_model()
    adapter = init_adapter(model, rank=2, seed=0, task_id=1)  # B starts at 0
    ctx = [1, 2, 3]
    assert np.array_equal(forward(model, adapter, ctx), forward(model, None, ctx))
    zero_a = LoraAdapter(a=np.zeros_like(adapter.a), b=np.ones((model.d_hidden, 2)),
                         rank=2, task_id=1)
    assert np.allclose(forward(model, zero_a, ctx), forward(model, None, ctx), atol=0)


def test_forward_matches_brute_force_oracle():
    model = init_lm((4, 3, 2, 4), seed=9)
    adapter = init_adapter(model, rank=2, seed=4, task_id=1)
    adapter.b[:] = np.linspace(-0.3, 0.4, adapter.b.size).reshape(adapter.b.shape)
    rng = np.random.default_rng(5)
    for ctx in ([2], [1, 3], [0, 2]):
        expected = oracle_forward(model, adapter, ctx)
        got = forward(model, adapter, ctx)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)
    # Noised inputs reach the model through a per-token table; the contexts
    # end in PAD, so the label window reads every noised row.
    contexts = ([1, 3], [2])
    noisy = [rng.normal(size=(len(ctx), 3)) for ctx in contexts]
    got = label_probs(model, adapter,
                      noised_batch(model, [ctx + [PAD_ID] for ctx in contexts], noisy))
    for ctx, rows, probs in zip(contexts, noisy, got, strict=True):
        expected = oracle_forward(model, adapter, ctx, noisy=rows)
        np.testing.assert_allclose(probs, expected, rtol=1e-12, atol=1e-14)


def test_lora_delta_examples():
    b = np.array([[1.0], [2.0]])
    a = np.array([[3.0, 4.0]])
    adapter = LoraAdapter(a=a, b=b, rank=1, task_id=0)
    np.testing.assert_array_equal(lora_delta(adapter), [[3.0, 4.0], [6.0, 8.0]])

    zero_b = LoraAdapter(a=np.ones((2, 3)), b=np.zeros((4, 2)), rank=2, task_id=0)
    assert not lora_delta(zero_b).any()

    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=(2, 5))
        b = rng.normal(size=(4, 2))
        delta = lora_delta(LoraAdapter(a=a, b=b, rank=2, task_id=0))
        assert np.linalg.norm(delta) <= np.linalg.norm(a) * np.linalg.norm(b) + 1e-12


def test_lora_adapter_shape_validation():
    with pytest.raises(ValueError):
        LoraAdapter(a=np.ones((2, 3)), b=np.ones((4, 3)), rank=2, task_id=0)
    with pytest.raises(ValueError, match="rank"):
        LoraAdapter(a=np.ones((5, 3)), b=np.ones((4, 5)), rank=5, task_id=0)


def test_token_losses_uniform_model_gives_log_vocab():
    vocab = 6
    model = TinyLM(
        vocab=vocab, d_emb=3, n_ctx=2, d_hidden=4, seed=0,
        embed=np.random.default_rng(0).normal(size=(vocab, 3)),
        w_hidden=np.zeros((4, 6)),
        b_hidden=np.zeros(4),
        w_out=np.zeros((vocab, 4)),
        b_out=np.zeros(vocab),
    )
    losses, l_task = token_losses(model, None, [1, 2, 3, 4])
    np.testing.assert_allclose(losses, math.log(vocab), rtol=0, atol=1e-12)
    assert abs(l_task - math.log(vocab)) <= 1e-12


def test_token_losses_near_perfect_prediction():
    model = small_model()
    model.w_out[:] = 0.0
    model.b_out[:] = -60.0
    model.b_out[2] = 60.0
    losses, l_task = token_losses(model, None, [2, 2, 2])
    assert (losses < 1e-12).all()
    assert l_task < 1e-12


def test_token_losses_match_oracle():
    model = init_lm((4, 3, 2, 4), seed=11)
    seq = [1, 3, 2]
    losses, l_task = token_losses(model, None, seq)
    expected = [
        -math.log(oracle_forward(model, None, [1])[3]),
        -math.log(oracle_forward(model, None, [1, 3])[2]),
    ]
    np.testing.assert_allclose(losses, expected, rtol=1e-12)
    assert abs(l_task - np.mean(expected)) <= 1e-14


def test_token_losses_short_sequence_errors():
    with pytest.raises(ValueError, match="at least 2"):
        token_losses(small_model(), None, [1])


def test_backward_task_gradients_full_finetune():
    model = small_model()
    spec = LossSpec()
    grads = backward(model, None, small_batch(), spec)
    fd_check(
        model, None, small_batch(), spec,
        [(name, param, getattr(grads, name)) for name, param in model.param_items()],
    )


def test_backward_task_gradients_adapter_with_noise():
    model = small_model(seed=6)
    adapter = init_adapter(model, rank=2, seed=1, task_id=1)
    adapter.b[:] = np.random.default_rng(2).normal(scale=0.2, size=adapter.b.shape)
    rng = np.random.default_rng(3)
    noisy = [rng.normal(scale=0.5, size=(len(seq) - 1, model.d_emb)) for seq in small_batch()]
    batch = noised_batch(model, small_batch(), noisy)
    spec = LossSpec()
    grads = backward(model, adapter, batch, spec)
    fd_check(model, adapter, batch, spec,
             [("a", adapter.a, grads.a), ("b", adapter.b, grads.b)])


def test_backward_full_objective_gradients():
    model = small_model(seed=8)
    adapter = init_adapter(model, rank=2, seed=5, task_id=2)
    adapter.b[:] = np.random.default_rng(6).normal(scale=0.3, size=adapter.b.shape)
    batch = small_batch()
    rng = np.random.default_rng(7)
    scores = [rng.uniform(0.0, 0.99, size=len(seq)) for seq in batch]
    reference = rng.normal(scale=0.1, size=(model.d_hidden, model.d_in))
    for sign in (-1.0, 1.0):
        spec = LossSpec(
            scores=scores,
            theta=0.6,
            lambda_unlearn=1.0,
            unlearn_sign=sign,
            reg_weight=3.0,
            reg_reference=reference,
        )
        grads = backward(model, adapter, batch, spec)
        assert grads.l_reg > 0.0
        assert grads.l_unlearn > 0.0
        expected = grads.l_task + grads.l_reg + sign * 1.0 * grads.l_unlearn
        assert abs(grads.objective - expected) <= 1e-15
        fd_check(model, adapter, batch, spec,
                 [("a", adapter.a, grads.a), ("b", adapter.b, grads.b)])


def test_backward_zero_loss_gives_zero_gradients():
    model = small_model()
    model.w_out[:] = 0.0
    model.b_out[:] = -60.0
    model.b_out[1] = 60.0
    grads = backward(model, None, [[1, 1, 1]], LossSpec())
    for _, g in grads.arrays():
        assert np.abs(g).max() < 1e-12


def test_backward_unlearn_gradient_linear_in_lambda():
    model = small_model(seed=12)
    adapter = init_adapter(model, rank=2, seed=3, task_id=1)
    adapter.b[:] = 0.1
    batch = small_batch()
    scores = [np.full(len(seq), 0.9) for seq in batch]

    def grads_at(lam):
        spec = LossSpec(scores=scores, theta=0.6, lambda_unlearn=lam)
        g = backward(model, adapter, batch, spec)
        return np.concatenate([g.a.ravel(), g.b.ravel()])

    g0, g1, g2 = grads_at(0.0), grads_at(1.0), grads_at(2.0)
    np.testing.assert_allclose(g2 - g0, 2.0 * (g1 - g0), rtol=1e-12, atol=1e-15)


def test_backward_zero_b_adapter_matches_no_adapter_gradients():
    model = small_model(seed=4)
    adapter = init_adapter(model, rank=2, seed=9, task_id=1)  # b == 0
    batch = small_batch()
    with_adapter = backward(model, adapter, batch, LossSpec())
    without = backward(model, None, batch, LossSpec())
    fb_with, fb_without = forward_batch(model, adapter, batch), forward_batch(model, None, batch)
    np.testing.assert_array_equal(fb_with.losses[fb_with.valid],
                                  fb_without.losses[fb_without.valid])
    # dL/dA = B^T dW_eff = 0 when B = 0, and dL/dB = dW_eff A^T.
    assert not with_adapter.a.any()
    np.testing.assert_allclose(with_adapter.b, without.w_hidden @ adapter.a.T, rtol=1e-12)


@pytest.mark.parametrize("reg_weight", [0.0, 0.7], ids=["drift_off", "drift_on"])
def test_low_rank_step_matches_dense_adapter_formula(monkeypatch, reg_weight):
    model = init_lm((11, 3, 4, 7), seed=21)
    adapter = init_adapter(model, rank=2, seed=5, task_id=1)
    rng = np.random.default_rng(22)
    adapter.b[:] = rng.normal(scale=0.4, size=adapter.b.shape)
    batch = [rng.integers(0, model.vocab, size=n).tolist() for n in (2, 9, 5, 3, 7, 2, 8)]
    scores = [rng.uniform(0.0, 0.99, size=len(seq)) for seq in batch]
    reference = rng.normal(scale=0.1, size=model.w_hidden.shape)
    spec = LossSpec(scores=scores, theta=0.6, lambda_unlearn=1.5, reg_weight=reg_weight,
                    reg_reference=reference)
    # The same layer with W0 + B @ A materialised, run through the dense path.
    dense = model.copy()
    dense.w_hidden = model.w_hidden + adapter.b @ adapter.a
    dense_grads = backward(dense, None, batch, spec)
    drift = adapter.b @ adapter.a - reference
    d_w = dense_grads.w_hidden + 2.0 * reg_weight * drift
    if reg_weight == 0.0:
        def no_dense_delta(_):
            raise AssertionError("the adapter step materialised B @ A")

        monkeypatch.setattr("pecl.tinylm.lora_delta", no_dense_delta)

    fb = forward_batch(model, adapter, batch)
    h = np.tanh(fb.x @ dense.w_hidden.T + model.b_hidden)
    logits = h @ model.w_out.T + model.b_out
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(fb.h, h, rtol=1e-12)
    np.testing.assert_allclose(fb.p, p, rtol=1e-12)
    grads = backward(model, adapter, batch, spec)
    np.testing.assert_allclose(grads.a, adapter.b.T @ d_w, rtol=1e-12)
    np.testing.assert_allclose(grads.b, d_w @ adapter.a.T, rtol=1e-12)
    assert grads.l_reg == pytest.approx(reg_weight * (drift * drift).sum(), rel=1e-12)
    assert grads.l_unlearn > 0.0


def test_backward_rejects_empty_batch():
    with pytest.raises(ValueError):
        backward(small_model(), None, [], LossSpec())


def test_sgd_step_examples():
    model = small_model()
    before = model.embed.copy()
    grads = backward(model, None, small_batch(), LossSpec())
    sgd_step(model, None, grads, lr=0.0)
    assert np.array_equal(model.embed, before)

    model.embed[0, 0] = 1.0
    zero = LossSpec()
    bundle = backward(model, None, small_batch(), zero)
    for _, g in bundle.arrays():
        g[:] = 0.0
    bundle.embed[0, 0] = 2.0
    sgd_step(model, None, bundle, lr=0.1)
    assert abs(model.embed[0, 0] - 0.8) < 1e-15


def test_sgd_step_deterministic_across_identical_models():
    m1, m2 = small_model(seed=5), small_model(seed=5)
    g1 = backward(m1, None, small_batch(), LossSpec())
    g2 = backward(m2, None, small_batch(), LossSpec())
    sgd_step(m1, None, g1, lr=0.1)
    sgd_step(m2, None, g2, lr=0.1)
    for (_, a), (_, b) in zip(m1.param_items(), m2.param_items()):
        assert np.array_equal(a, b)


def test_sgd_step_rejects_non_finite():
    model = small_model()
    grads = backward(model, None, small_batch(), LossSpec())
    grads.embed[0, 0] = np.nan
    with pytest.raises(NumericError):
        sgd_step(model, None, grads, lr=0.1)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = small_model(seed=13)
    adapter = init_adapter(model, rank=2, seed=2, task_id=4)
    adapter.b[:] = np.random.default_rng(1).normal(size=adapter.b.shape)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, adapter)
    loaded, loaded_adapter = load_checkpoint(path)
    for (_, a), (_, b) in zip(model.param_items(), loaded.param_items()):
        assert np.array_equal(a, b)
        assert a.dtype == b.dtype
    assert np.array_equal(adapter.a, loaded_adapter.a)
    assert np.array_equal(adapter.b, loaded_adapter.b)
    assert loaded_adapter.task_id == 4
    assert (loaded.vocab, loaded.d_emb, loaded.n_ctx, loaded.d_hidden, loaded.seed) == (
        model.vocab, model.d_emb, model.n_ctx, model.d_hidden, model.seed,
    )


def test_checkpoint_without_adapter(tmp_path):
    model = small_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, None)
    _, adapter = load_checkpoint(path)
    assert adapter is None


def test_adamw_matches_hand_computation():
    model = small_model()
    grads = backward(model, None, small_batch(), LossSpec())
    for _, g in grads.arrays():
        g[:] = 0.0
    grads.embed[0, 0] = 0.5
    p0 = model.embed[0, 0]
    opt = AdamW(beta1=0.9, beta2=0.999, eps=1e-8)
    opt.step(model, None, grads, lr=0.01)
    m_hat = 0.1 * 0.5 / 0.1
    v_hat = 0.001 * 0.25 / 0.001
    expected = p0 - 0.01 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert abs(model.embed[0, 0] - expected) < 1e-14


def test_cosine_lr_endpoints():
    assert cosine_lr(0.1, 0, 10) == pytest.approx(0.1)
    assert cosine_lr(0.1, 9, 10) == pytest.approx(0.0, abs=1e-12)
    assert cosine_lr(0.1, 0, 1) == 0.1


def test_padded_batch_equals_mean_of_single_sequence_passes():
    model = small_model(seed=14)
    n_ctx = model.n_ctx
    rng = np.random.default_rng(15)
    batch = [
        [2, 5],
        rng.integers(0, model.vocab, size=n_ctx).tolist(),
        rng.integers(0, model.vocab, size=n_ctx + 3).tolist(),
        rng.integers(0, model.vocab, size=n_ctx + 3).tolist(),
    ]
    noisy = [
        rng.normal(scale=0.5, size=(2, model.d_emb)),              # n rows
        None,
        rng.normal(scale=0.5, size=(n_ctx + 2, model.d_emb)),      # n - 1 rows
        None,
    ]
    scores = [
        rng.uniform(0.0, 0.99, size=2),
        np.concatenate([[0.0], rng.uniform(0.0, 0.99, size=n_ctx - 1)]),
        np.zeros(n_ctx + 3),
        rng.uniform(0.0, 0.99, size=n_ctx + 3),
    ]
    seqs = PackedSequences.of(model, batch)
    table = noised_batch(model, batch, noisy).table
    margin = seqs.margins(np.concatenate(scores), 0.6)
    adapter = init_adapter(model, rank=2, seed=3, task_id=1)
    adapter.b[:] = rng.normal(scale=0.3, size=adapter.b.shape)
    for adp in (None, adapter):
        # Full finetune trains the embedding table, so it takes the clean
        # list; the adapter step is fed the noised table.
        def step(idx):
            """The step over sequences ``idx``: its gradients and per-sequence token losses."""
            if adp is None:
                rows = [batch[i] for i in idx]
                spec = LossSpec(scores=[scores[i] for i in idx], theta=0.6, lambda_unlearn=1.5)
            else:
                rows = seqs.batch(model, np.array(idx), table, margin)
                spec = LossSpec(lambda_unlearn=1.5)
            fb = forward_batch(model, adp, rows)
            losses = [ell[v] for ell, v in zip(fb.losses, fb.valid)]
            return backward(model, adp, rows, spec), losses

        together, together_losses = step(range(len(batch)))
        alone = [step([i]) for i in range(len(batch))]
        for name, grad in together.arrays():
            expected = sum(getattr(g, name) for g, _ in alone) / len(batch)
            np.testing.assert_allclose(grad, expected, rtol=1e-12, err_msg=name)
        for name in ("l_task", "l_unlearn", "objective"):
            expected = sum(getattr(g, name) for g, _ in alone) / len(batch)
            assert getattr(together, name) == pytest.approx(expected, rel=1e-12)
        for i, seq in enumerate(batch):
            np.testing.assert_allclose(together_losses[i], alone[i][1][0], rtol=1e-12)
            if adp is None:
                losses, _ = token_losses(model, adp, seq)
                np.testing.assert_allclose(together_losses[i], losses, rtol=1e-12)


def test_backward_rejects_non_finite_objective():
    model = small_model(seed=16)
    adapter = init_adapter(model, rank=2, seed=4, task_id=1)
    reference = np.full((model.d_hidden, model.d_in), np.nan)
    with pytest.raises(NumericError, match="non-finite total loss"):
        backward(model, adapter, small_batch(), LossSpec(reg_weight=1.0, reg_reference=reference))
    noisy = [np.full((len(seq), model.d_emb), np.nan) for seq in small_batch()]
    with pytest.raises(NumericError, match="non-finite token loss"):
        backward(model, adapter, noised_batch(model, small_batch(), noisy), LossSpec())


def test_full_finetune_rejects_a_batch_over_a_noised_table():
    model = small_model(seed=17)
    noisy = [np.zeros((len(seq) - 1, model.d_emb)) for seq in small_batch()]
    batch = noised_batch(model, small_batch(), noisy)
    backward(model, init_adapter(model, rank=2, seed=1, task_id=1), batch, LossSpec())
    with pytest.raises(ValueError, match="clean inputs only"):
        backward(model, None, batch, LossSpec())


@pytest.mark.parametrize("scores", [
    [np.full(len(seq) - 1, 0.9) for seq in small_batch()],            # predicted positions only
    [np.full(4, 0.9), None, np.full(5, 0.9)],                          # a sequence left out
    [np.full(len(seq), 0.9) for seq in small_batch()[:2]],             # too few sequences
], ids=["n-1", "none-entry", "too-few"])
def test_backward_rejects_scores_that_are_not_one_per_position(scores):
    model = small_model()
    with pytest.raises(ValueError):
        backward(model, None, small_batch(), LossSpec(scores=scores, lambda_unlearn=1.0))


def test_margins_match_the_closed_form():
    model = small_model()
    seqs = PackedSequences.of(model, [[1, 2, 3], [4, 5], [1, 1, 1, 1]])
    score = np.array([0.9, 0.7, 0.2, 0.8, 0.6, 0.0, 0.61, 1.0, 0.3])  # one per token
    np.testing.assert_allclose(seqs.margins(score, 0.6),
                               [0, 0.1, 0, 0, 0, 0, 0.01, 0.4, 0, 0], rtol=1e-12, atol=1e-15)
    # At theta 0 every score is its margin, except on first positions and the PAD.
    np.testing.assert_array_equal(seqs.margins(score, 0.0),
                                  [0, 0.7, 0.2, 0, 0.6, 0, 0.61, 1.0, 0.3, 0])
    # Below every score, a 0 score would give a margin; the PAD, which no window
    # predicts, still gets none.
    assert seqs.margins(score, -0.5)[[0, 3, 5, 9]].tolist() == [0, 0, 0, 0]


def reuse_layout(model, mode, rng):
    """An epoch as the step loop lays it out, in chunks of 4 of different widths:
    sequences of 20-30 tokens, then of 3-9, then a short last chunk of 2.  pecl's
    is over a noised table with margins and its own base; seqft's is over the
    embedding table with the clean base."""
    lengths = [*rng.integers(20, 31, size=4), *rng.integers(3, 10, size=4), 6, 4]
    seqs = PackedSequences.of(model, [rng.integers(0, model.vocab, size=n) for n in lengths])
    rows = np.arange(len(lengths))
    base = np.zeros((seqs.tokens.size, model.d_hidden))
    if mode != "pecl":
        return seqs.batch(model, rows, base=frozen_base(model, seqs.batch(model, rows), 4, base))
    table = model.embed[seqs.tokens] + rng.normal(scale=0.1, size=(seqs.tokens.size, model.d_emb))
    margin = seqs.margins(rng.uniform(0.0, 0.99, size=seqs.tokens.size - 1), 0.6)
    frozen_base(model, seqs.batch(model, rows, table, margin), 4, base)
    return seqs.batch(model, rows, table, margin, base)


def assert_same_gradients(got, expected):
    assert [name for name, _ in got.arrays()] == [name for name, _ in expected.arrays()]
    for (name, g), (_, e) in zip(got.arrays(), expected.arrays()):
        np.testing.assert_array_equal(g, e, err_msg=name)
    for part in ("l_task", "l_reg", "l_unlearn", "objective"):
        assert getattr(got, part) == getattr(expected, part), part


@pytest.mark.parametrize("mode", ["pecl", "seqft", "finetune"])
def test_a_reused_workspace_gives_each_chunk_the_bits_of_a_fresh_one(mode):
    rng = np.random.default_rng(31)
    model = init_lm((13, 4, 3, 6), seed=30)
    adapter = None
    if mode != "finetune":
        adapter = init_adapter(model, rank=2, seed=1, task_id=1)
        adapter.b[:] = rng.normal(scale=0.4, size=adapter.b.shape)
    spec = LossSpec()
    if mode == "pecl":  # margins, unlearning and the drift penalty all on
        spec = LossSpec(lambda_unlearn=1.5, reg_weight=0.7,
                        reg_reference=rng.normal(scale=0.1, size=model.w_hidden.shape))
    layout = reuse_layout(model, mode, rng)
    chunks = list(layout.chunks(4))
    # Wide, then narrow, then short: a later chunk reads only a prefix of each buffer.
    assert [chunk.valid.shape for chunk in chunks] == [
        (4, layout.valid.shape[1]), (4, chunks[1].valid.shape[1]), (2, chunks[2].valid.shape[1])]
    assert chunks[1].valid.shape[1] < 10 < 19 <= layout.valid.shape[1]
    # Sized for the widest chunk: 4 rows of the layout's windows.
    work, scoring = Workspace(4 * layout.valid.shape[1]), Workspace(4 * layout.valid.shape[1])
    for chunk in chunks:
        assert_same_gradients(backward(model, adapter, chunk, spec, work),
                              backward(model, adapter, chunk, spec))
        reused, fresh = forward_batch(model, adapter, chunk, scoring), forward_batch(
            model, adapter, chunk)
        np.testing.assert_array_equal(reused.losses[reused.valid], fresh.losses[fresh.valid])
    assert set(work.buffers) == ({"x", "h", "p", "dZ"} | ({"u"} if adapter else set()))


def test_a_batch_forward_from_the_list_api_keeps_its_values_after_more_calls():
    model = init_lm((13, 4, 3, 6), seed=30)
    adapter = init_adapter(model, rank=2, seed=1, task_id=1)
    adapter.b[:] = 0.3
    first = forward_batch(model, adapter, small_batch())
    kept = {name: getattr(first, name).copy() for name in ("x", "u", "h", "p", "losses")}
    forward_batch(model, adapter, [[2, 1, 3, 4, 5, 1, 7, 8, 9, 12]] * 5)
    backward(model, adapter, small_batch(), LossSpec(reg_weight=1.0,
                                                     reg_reference=np.ones_like(model.w_hidden)))
    backward(model, None, small_batch())
    for name, values in kept.items():
        np.testing.assert_array_equal(getattr(first, name), values, err_msg=name)
