"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and asserting the stated tolerance and budget."""

import json
import math
import time

import numpy as np
import pytest

from pecl.cli import main as cli_main
from pecl.corpus import (
    TaskCorpus,
    TokenizedSequence,
    compute_corpus_stats,
    load_corpus,
    load_stopwords,
)
from pecl.privacy import (
    PrivacyConfig,
    PrivacyLedger,
    allocate_budget,
    clip,
    compose_sequence,
    noise_sigma,
    perturb_embedding,
)
from pecl.sculpt import (
    AdapterSnapshot,
    ImportanceState,
    SculptConfig,
    dynamic_lambda,
    reg_loss,
    task_importance,
    unlearn_loss,
    update_running_importance,
)
from pecl.sensitivity import ProfileEntry, SensitivityConfig, contextual_score, fuse_scores
from pecl.synthetic import synthetic_stream
from pecl.tinylm import (
    LossSpec,
    backward,
    init_adapter,
    init_lm,
    lora_delta,
    token_losses,
)
from pecl.trainer import (
    AccuracyMatrix,
    RunConfig,
    avg_acc,
    bwt,
    last_acc,
    run_continual,
)


def report(criterion, started, budget, detail=""):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"[PASS] criterion {criterion} ({elapsed:.2f}s < {budget}s) {detail}")


def close(got, expected, rtol=1e-9):
    assert got == pytest.approx(expected, rel=rtol, abs=1e-15), f"{got} != {expected}"


def make_task(task_id, sequences, label):
    seqs = [
        TokenizedSequence(tokens=ids + [label], task_id=task_id, label_token=label)
        for ids in sequences
    ]
    return TaskCorpus(task_id=task_id, train=seqs, eval=[], label_set={label})


def test_criterion_1_formula_fidelity():
    started = time.time()
    cfg = PrivacyConfig()

    close(allocate_budget(0.0, cfg), 10.0)
    close(allocate_budget(1.0, cfg), 1.0)
    close(allocate_budget(0.5, cfg), 3.25)

    close(noise_sigma(1.0, 1e-6, 1.0, "main_text"), math.sqrt(2 * math.log(1.25e6)))
    close(noise_sigma(1.0, 1e-6, 1.0, "main_text"), 5.298802526850474)
    close(noise_sigma(1.0, 1e-6, 1.0, "appendix"), 2 * 5.298802526850474)

    close(fuse_scores(0.0, 0.0, 0.5), 0.0)
    close(fuse_scores(2.0, 0.0, 0.5), 1 - math.exp(-1.0))
    close(fuse_scores(2.0, 0.0, 0.5), 0.6321205588285577)

    # 6 tasks, token maximal in exactly one: (1/6) ln 3; clamped case: 0
    tasks = [make_task(1, [[7, 7, 7]], label=8)]
    tasks += [make_task(t, [[t + 10] * 3], label=9) for t in range(2, 7)]
    stats6 = compute_corpus_stats(tasks, tau=0.2)
    close(contextual_score(stats6, 7), math.log(3.0) / 6.0)
    close(contextual_score(stats6, 7), 0.18310204811135164)
    both = [make_task(1, [[5, 5]], label=6), make_task(2, [[5, 5]], label=7)]
    assert contextual_score(compute_corpus_stats(both, tau=0.2), 5) == 0.0

    sculpt = SculptConfig()
    close(dynamic_lambda(0.0, sculpt), 10.0)
    close(dynamic_lambda(1.0, sculpt), 1.0)
    close(dynamic_lambda(0.5, sculpt), 5.5)

    assert unlearn_loss([0.1, 0.5, 0.6], [1.0, 1.0, 1.0], 0.6) == 0.0
    close(unlearn_loss([0.8, 0.1, 0.2, 0.3], [2.0, 1.0, 1.0, 1.0], 0.6), 0.1)

    snap = AdapterSnapshot(task_id=1, delta_w=np.ones((2, 2)))
    close(reg_loss(np.ones((2, 2)) * 2.0, snap, 2.0, 3.0), 24.0)
    assert reg_loss(np.ones((2, 2)), snap, 2.0, 3.0) == 0.0

    close(task_importance(np.eye(2), 3.0), math.sqrt(2.0) * 3.0)
    assert task_importance(np.zeros((3, 3)), 5.0) == 0.0

    m = AccuracyMatrix.from_rows([[0.5], [0.4, 0.6]])
    close(bwt(m), -0.1)
    close(last_acc(m), 0.5)
    close(avg_acc(m), 0.5)

    report(1, started, budget=1.0, detail="formula fidelity at 1e-9")


def test_criterion_2_range_and_monotonicity():
    started = time.time()
    n = 100_000
    rng = np.random.default_rng(7)
    cfg = PrivacyConfig()
    sculpt = SculptConfig()

    fused = fuse_scores(rng.uniform(0, 30, n), rng.uniform(0, 10, n), 0.5)
    assert ((fused >= 0) & (fused < 1)).all()

    scores = rng.uniform(0, 1, n)
    eps = allocate_budget(scores, cfg)
    assert ((eps >= cfg.eps_lower) & (eps <= cfg.eps_upper)).all()

    ordered = np.unique(rng.uniform(0, 1, n))  # strictly increasing scores
    sig = noise_sigma(allocate_budget(ordered, cfg), cfg.delta, cfg.clip_norm, "appendix")
    assert (np.diff(sig) > 0).all(), "sigma must strictly increase with score"

    lam = sculpt.lambda_max * (1 - scores) + sculpt.lambda_min * scores
    lam_op = np.array([dynamic_lambda(float(s), sculpt) for s in scores[:2000]])
    assert ((lam >= sculpt.lambda_min) & (lam <= sculpt.lambda_max)).all()
    assert ((lam_op >= sculpt.lambda_min) & (lam_op <= sculpt.lambda_max)).all()

    report(2, started, budget=5.0, detail=f"{n} random inputs")


def test_criterion_3_mechanism_statistics():
    started = time.time()
    cfg = PrivacyConfig(clip_norm=1.0, delta=1e-6, sensitivity_variant="appendix")
    sigma = noise_sigma(1.0, cfg.delta, cfg.clip_norm, "appendix")
    entry = ProfileEntry(score=0.95, epsilon=1.0, sigma=sigma)
    e = np.array([3.0, 4.0, -1.0, 0.5])
    center = clip(e, cfg.clip_norm)

    n = 100_000
    rng = np.random.default_rng(123)
    samples = np.empty((n, e.size))
    for i in range(n):
        samples[i] = perturb_embedding(e, entry, cfg, rng)

    mean_err = np.abs(samples.mean(axis=0) - center)
    assert (mean_err < 3 * sigma / math.sqrt(n)).all(), f"mean error {mean_err}"
    stds = samples.std(axis=0, ddof=1)
    assert (np.abs(stds - sigma) < 0.02 * sigma).all(), f"stds {stds} vs sigma {sigma}"

    pairs = 1_000_000
    c = 0.8
    a = clip(rng.normal(scale=2.5, size=(pairs, 5)), c)
    b = clip(rng.normal(scale=2.5, size=(pairs, 5)), c)
    worst = np.linalg.norm(a - b, axis=1).max()
    assert worst <= 2 * c + 1e-12, f"sensitivity bound violated: {worst} > {2 * c}"

    report(3, started, budget=30.0,
           detail=f"1e5 samples, sigma={sigma:.3f}, worst pair gap {worst:.4f} <= {2 * c}")


def fd_objective(model, adapter, batch, spec):
    l_task = 0.0
    l_unlearn = 0.0
    for idx, seq in enumerate(batch):
        losses, mean_loss = token_losses(model, adapter, seq)
        l_task += mean_loss / len(batch)
        if spec.scores is not None:
            scores = np.asarray(spec.scores[idx])[1:]
            l_unlearn += unlearn_loss(scores, losses, spec.theta) / len(batch)
    l_reg = 0.0
    if spec.reg_weight and spec.reg_reference is not None:
        snap = AdapterSnapshot(task_id=0, delta_w=spec.reg_reference.copy())
        l_reg = reg_loss(lora_delta(adapter), snap, spec.reg_weight, 1.0)
    return l_task + l_reg + spec.unlearn_sign * spec.lambda_unlearn * l_unlearn


def fd_versus_analytic(model, adapter, batch, spec, pairs, step=1e-5, rtol=1e-4):
    checked = 0
    for name, param, grad in pairs:
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + step
            up = fd_objective(model, adapter, batch, spec)
            param[idx] = orig - step
            down = fd_objective(model, adapter, batch, spec)
            param[idx] = orig
            fd = (up - down) / (2 * step)
            analytic = grad[idx]
            denom = max(abs(analytic), abs(fd))
            assert abs(analytic - fd) <= max(rtol * denom, 1e-8), (
                f"{name}{idx}: analytic {analytic} vs fd {fd}"
            )
            checked += 1
    return checked


def test_criterion_4_gradient_correctness():
    started = time.time()
    model = init_lm((6, 4, 3, 5), seed=21)
    adapter = init_adapter(model, rank=2, seed=2, task_id=1)
    adapter.b[:] = np.random.default_rng(3).normal(scale=0.25, size=adapter.b.shape)
    batch = [[1, 4, 2, 5], [3, 2, 1], [5, 1, 4, 3, 2]]
    rng = np.random.default_rng(4)
    scores = [rng.uniform(0, 0.99, size=len(seq)) for seq in batch]
    reference = rng.normal(scale=0.1, size=(model.d_hidden, model.d_in))
    checked = 0

    # L_task over every base parameter (full-finetune mode)
    spec = LossSpec()
    grads = backward(model, None, batch, spec)
    checked += fd_versus_analytic(
        model, None, batch, spec,
        [(name, param, getattr(grads, name)) for name, param in model.param_items()],
    )

    # L_task, L_task + L_reg, and the full objective over the adapter factors
    specs = [
        LossSpec(),
        LossSpec(reg_weight=2.5, reg_reference=reference),
        LossSpec(scores=scores, theta=0.6, lambda_unlearn=1.0, unlearn_sign=-1.0,
                 reg_weight=2.5, reg_reference=reference),
    ]
    for spec in specs:
        grads = backward(model, adapter, batch, spec)
        checked += fd_versus_analytic(
            model, adapter, batch, spec,
            [("a", adapter.a, grads.a), ("b", adapter.b, grads.b)],
        )

    report(4, started, budget=60.0, detail=f"{checked} parameter entries at 1e-4")


def test_criterion_5_oracle_equivalence():
    started = time.time()
    import random as pyrandom

    rng = pyrandom.Random(9)
    # corpus stats: salience and support against a brute-force scan
    for _ in range(1000):
        tau = rng.uniform(0.1, 0.9)
        tasks = []
        for tid in range(1, rng.randint(1, 5) + 1):
            tokens = [rng.randint(2, 14) for _ in range(rng.randint(1, 10))]
            tasks.append(make_task(tid, [tokens], label=rng.randint(2, 14)))
        stats = compute_corpus_stats(tasks, tau=tau)
        for task in tasks:
            counts = {}
            for seq in task.train:
                for t in seq.tokens:
                    counts[t] = counts.get(t, 0) + 1
            fmax = max(counts.values())
            for t, c in counts.items():
                assert abs(stats.salience(task.task_id, t) - c / fmax) <= 1e-12
        all_tokens = {t for task in tasks for seq in task.train for t in seq.tokens}
        for t in all_tokens:
            brute = 0
            for task in tasks:
                counts = {}
                for seq in task.train:
                    for tok in seq.tokens:
                        counts[tok] = counts.get(tok, 0) + 1
                if counts and counts.get(t, 0) / max(counts.values()) >= tau:
                    brute += 1
            assert stats.support_of(t) == brute

    # running importance mean
    for _ in range(1000):
        state = ImportanceState()
        history = []
        for _ in range(rng.randint(1, 40)):
            omega = rng.uniform(0, 10)
            history.append(omega)
            state = update_running_importance(state, omega)
        brute = sum(history) / len(history)
        assert abs(state.omega_bar - brute) <= 1e-12 * max(1.0, abs(brute))

    # continual-learning metrics
    nprng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(nprng.integers(2, 9))
        rows = [list(nprng.uniform(0, 1, size=k + 1)) for k in range(n)]
        m = AccuracyMatrix.from_rows(rows)
        brute_bwt = sum(rows[n - 1][i] - rows[i][i] for i in range(n - 1)) / (n - 1)
        brute_last = sum(rows[n - 1]) / n
        brute_avg = sum(sum(r) / len(r) for r in rows) / n
        assert abs(bwt(m) - brute_bwt) <= 1e-12
        assert abs(last_acc(m) - brute_last) <= 1e-12
        assert abs(avg_acc(m) - brute_avg) <= 1e-12

    report(5, started, budget=30.0, detail="3000 randomized instances at 1e-12")


def test_criterion_6_run_determinism(tmp_path, capsys):
    started = time.time()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 17}), encoding="utf-8")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["run", "--config", str(config), "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", str(config), "--out", str(out2)]) == 0
    capsys.readouterr()
    metrics1 = (out1 / "metrics.json").read_bytes()
    assert metrics1 == (out2 / "metrics.json").read_bytes()
    matrix1 = (out1 / "matrix.csv").read_bytes()
    assert matrix1 == (out2 / "matrix.csv").read_bytes()
    report(6, started, budget=300.0, detail="byte-identical metrics.json and matrix.csv")


# Desk-scale recipe for the directional experiment: SGD keeps the unlearning
# weights scale-sensitive, labels ride the stopword list as public metadata,
# and the epsilon range / lambda range are recalibrated to this model size.
def experiment_config(mode, seed, stream, lambda_unlearn):
    stopwords = frozenset(load_stopwords() | stream.label_surfaces)
    return RunConfig(
        mode=mode,
        seed=seed,
        lr=1.0,
        epochs=24,
        batch_size=8,
        optimizer="sgd",
        sensitivity=SensitivityConfig(alpha=0.5, stopwords=stopwords),
        privacy=PrivacyConfig(sensitivity_variant="main_text", clip_norm=0.3,
                              eps_lower=8.0, eps_upper=80.0),
        sculpt=SculptConfig(lambda_max=1e-4, lambda_min=1e-5, theta=0.6,
                            lambda_unlearn=lambda_unlearn),
        num_tasks=3,
        train_per_task=200,
        eval_per_task=80,
    )


def flagged_planted_loss(measured, pecl_run, stream, theta=0.6):
    """Mean clean token loss on planted positions the pecl run flagged."""
    total, count = 0.0, 0
    for task in stream.tasks:
        score = pecl_run.profiles[task.task_id].score
        start = 0
        for seq in task.train:
            hits = [
                j
                for j in range(1, len(seq.tokens))
                if seq.tokens[j] in stream.sensitive_ids and score[start + j] > theta
            ]
            start += len(seq.tokens)
            if not hits:
                continue
            losses, _ = token_losses(measured.model, measured.adapter, seq)
            for j in hits:
                total += losses[j - 1]
                count += 1
    assert count > 0
    return total / count


def test_criterion_7_directional_experiment():
    started = time.time()
    seeds = (0, 1, 2)
    bwt_seqft, bwt_pecl, loss_pecl, loss_ablation = [], [], [], []
    for seed in seeds:
        stream = synthetic_stream(num_tasks=3, train_per_task=200, eval_per_task=80,
                                  seed=seed, plant_rate=0.35, plants_per_task=4)
        r_seqft = run_continual(experiment_config("seqft", seed, stream, 0.0), stream.tasks)
        r_pecl = run_continual(experiment_config("pecl", seed, stream, 3.5), stream.tasks)
        r_ablation = run_continual(experiment_config("pecl", seed, stream, 0.0), stream.tasks)
        bwt_seqft.append(bwt(r_seqft.matrix))
        bwt_pecl.append(bwt(r_pecl.matrix))
        loss_pecl.append(flagged_planted_loss(r_pecl, r_pecl, stream))
        loss_ablation.append(flagged_planted_loss(r_ablation, r_pecl, stream))

    mean_seqft = float(np.mean(bwt_seqft))
    mean_pecl = float(np.mean(bwt_pecl))
    assert mean_pecl >= mean_seqft, (
        f"7a failed: pecl BWT {mean_pecl:.3f} < seqft BWT {mean_seqft:.3f}"
    )
    mean_lp = float(np.mean(loss_pecl))
    mean_la = float(np.mean(loss_ablation))
    assert mean_lp > mean_la, (
        f"7b failed: sensitive-token loss {mean_lp:.3f} (pecl) "
        f"not above {mean_la:.3f} (no-unlearning ablation)"
    )
    report(
        7, started, budget=900.0,
        detail=(
            f"BWT pecl {mean_pecl:+.3f} >= seqft {mean_seqft:+.3f}; "
            f"planted-token loss {mean_lp:.3f} > {mean_la:.3f} over seeds {seeds}"
        ),
    )


def test_criterion_8_zero_score_bypass(tmp_path):
    started = time.time()
    # every surface, labels included, comes from the bundled stopword list
    words = ["the", "of", "and", "to", "in", "it", "for", "was"]
    records = []
    rng = np.random.default_rng(5)
    for task_id in (1, 2):
        for i in range(24):
            text = " ".join(rng.choice(words, size=5))
            label = "the" if i % 2 == 0 else "of"
            split = "eval" if i >= 16 else "train"
            records.append(
                {"task_id": task_id, "text": text, "label": label, "split": split}
            )
    path = tmp_path / "stopwords_only.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    corpora = load_corpus(path)

    config = RunConfig(mode="pecl", epochs=2, batch_size=8, seed=3,
                       d_emb=8, n_ctx=6, d_hidden=12, rank=2)
    result = run_continual(config, corpora)
    assert len(result.ledger) == 0, "all-stopword corpus must produce no noise records"
    for rep in result.reports:
        assert rep.final_l_unlearn == 0.0
        assert rep.s_bar == 0.0
    report(8, started, budget=60.0, detail="empty ledger and zero unlearning loss")
