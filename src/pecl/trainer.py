"""Sequential multi-task training under pecl / seqft / uniform_dp modes,
task-by-task evaluation, and the continual-learning metrics.

Modes share the same model, adapter lifecycle (one evolving adapter, warm
started per task), data order, and optimizer; they differ only in noise and
loss assembly:

* ``pecl``      : frozen per-task sensitivity profiles, per-token budgets and
                  Gaussian noise on input embeddings, drift regularization
                  against the previous task's adapter delta, and thresholded
                  unlearning.
* ``seqft``     : task loss only, no noise, empty ledger.
* ``uniform_dp``: fixed-epsilon noise on every non-stopword input token,
                  task loss only.

R[k][i] is the accuracy on the i-th task of the order after training tasks
1..k; BWT, Last and Avg are computed from that lower-triangular matrix.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import pickle
import signal
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import TaskCorpus, compute_corpus_stats
from .errors import DataError, NumericError, shown
from .privacy import (
    PrivacyConfig,
    PrivacyLedger,
    RecordTable,
    assign_budgets,
    noise_sigma,
    perturb_embeddings,
    record_table,
)
from .seeding import spawn_rng
from .sculpt import (
    AdapterSnapshot,
    ImportanceState,
    SculptConfig,
    dynamic_lambda,
    mean_task_sensitivity,
    reg_loss,
    task_importance,
    unlearn_loss,
    update_running_importance,
)
from .sensitivity import SensitivityConfig, SensitivityProfile, score_sequences
from .tinylm import (
    AdamW,
    LoraAdapter,
    LossSpec,
    PackedBatch,
    PackedSequences,
    TinyLM,
    Workspace,
    _windows,
    backward,
    cosine_lr,
    forward_batch,
    frozen_base,
    init_adapter,
    init_lm,
    label_probs,
    lora_delta,
    sgd_step,
)

MODES = ("pecl", "seqft", "uniform_dp")
STATS_SCOPES = ("seen", "all")
UNLEARN_MODES = ("suppress", "additive")
OPTIMIZERS = ("sgd", "adamw")


@dataclass
class RunConfig:
    """Everything a run needs; fully determines the trajectory given the seed."""

    mode: str = "pecl"
    task_order: list[int] | None = None
    epochs: int = 3
    batch_size: int = 32
    lr: float = 5e-4
    seed: int = 0
    optimizer: str = "sgd"
    weight_decay: float = 0.0  # adamw mode only
    d_emb: int = 32
    n_ctx: int = 8
    d_hidden: int = 64
    rank: int = 4
    tau: float = 0.2
    stats_scope: str = "seen"
    uniform_eps: float = 1.0
    unlearn_mode: str = "suppress"
    delta_prime: float = 1e-6
    sensitivity: SensitivityConfig = field(default_factory=SensitivityConfig)
    privacy: PrivacyConfig = field(default_factory=PrivacyConfig)
    sculpt: SculptConfig = field(default_factory=SculptConfig)
    corpus: str = "synthetic"
    num_tasks: int = 3
    train_per_task: int = 300
    eval_per_task: int = 100
    stopword_file: str | None = None  # provenance for replay; the words live in .sensitivity

    def __post_init__(self) -> None:
        for name, choices in (("mode", MODES), ("stats_scope", STATS_SCOPES),
                              ("unlearn_mode", UNLEARN_MODES), ("optimizer", OPTIMIZERS)):
            if getattr(self, name) not in choices:
                raise ValueError(
                    f"{name} must be one of {choices}, got {shown(getattr(self, name))}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {shown(self.epochs)}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {shown(self.batch_size)}")
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if not self.uniform_eps > 0:
            raise ValueError(f"uniform_eps must be positive, got {self.uniform_eps}")
        if not 0.0 < self.delta_prime < 1.0:
            raise ValueError(f"delta_prime must be in (0, 1), got {self.delta_prime}")
        for name in ("d_emb", "n_ctx", "d_hidden", "rank", "num_tasks",
                     "train_per_task", "eval_per_task"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {shown(getattr(self, name))}")
        # The hidden layer's input width and weight count, which numpy sizes in int64.
        for names in (("n_ctx", "d_emb"), ("d_hidden", "n_ctx", "d_emb")):
            values = [getattr(self, name) for name in names]
            if math.prod(values) >= 2**63:
                raise ValueError(f"{' * '.join(names)} must fit in 64 bits, got "
                                 f"{' * '.join(map(shown, values))}")
        if self.task_order is not None:
            if len(set(self.task_order)) != len(self.task_order):
                raise ValueError("task_order must not repeat task ids")


@dataclass
class AccuracyMatrix:
    """Lower-triangular accuracies: values[k-1, i-1] = R_{k,i} for i <= k."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"accuracy matrix must be square, got shape {v.shape}")
        tri = np.tril_indices(v.shape[0])
        if not np.isfinite(v[tri]).all():
            raise DataError("incomplete accuracy matrix: lower triangle has gaps")
        if (v[tri] < 0).any() or (v[tri] > 1).any():
            raise ValueError("accuracies must lie in [0, 1]")
        self.values = v

    @property
    def num_tasks(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "AccuracyMatrix":
        n = len(rows)
        values = np.full((n, n), np.nan)
        for k, row in enumerate(rows, start=1):
            if len(row) != k:
                raise DataError(f"row {k} must have {k} entries, got {len(row)}")
            values[k - 1, :k] = row
        return cls(values)

    def rows(self) -> list[list[float]]:
        return [[float(v) for v in self.values[k, : k + 1]] for k in range(self.num_tasks)]


def bwt(matrix: AccuracyMatrix) -> float:
    """Mean of R_{N,i} - R_{i,i} over i < N; needs at least two tasks."""
    n = matrix.num_tasks
    if n < 2:
        raise ValueError("BWT requires at least 2 tasks")
    v = matrix.values
    return float(np.mean([v[n - 1, i] - v[i, i] for i in range(n - 1)]))


def last_acc(matrix: AccuracyMatrix) -> float:
    """Mean of the final row."""
    n = matrix.num_tasks
    return float(np.mean(matrix.values[n - 1, :n]))


def avg_acc(matrix: AccuracyMatrix) -> float:
    """Mean over steps k of the running mean accuracy over tasks 1..k."""
    n = matrix.num_tasks
    v = matrix.values
    return float(np.mean([np.mean(v[k, : k + 1]) for k in range(n)]))


@dataclass
class TaskReport:
    """Per-task sculpting diagnostics (None where a mode leaves them undefined)."""

    task_id: int
    omega: float
    omega_bar: float
    s_bar: float | None
    lambda_dyn: float | None
    final_l_reg: float
    final_l_unlearn: float | None


@dataclass
class RunResult:
    matrix: AccuracyMatrix
    ledger: PrivacyLedger
    reports: list[TaskReport]
    model: TinyLM
    adapter: LoraAdapter
    # pecl mode: each task's frozen task-arrival profile, keyed by task id,
    # over its train list's sequences end to end.  Other modes leave this empty.
    profiles: dict[int, SensitivityProfile] = field(default_factory=dict)


def evaluate(model: TinyLM, adapter: LoraAdapter | None, task: TaskCorpus) -> float:
    """Fraction of eval sequences whose label-position argmax is the label.

    Forward passes use clean embeddings; evaluation consumes no randomness
    and never mutates the model.
    """
    if not task.eval:
        raise DataError(f"task {task.task_id} has an empty eval set")
    labels = np.array([seq.label_token for seq in task.eval])
    correct = label_probs(model, adapter, task.eval).argmax(axis=-1) == labels
    return int(correct.sum()) / len(task.eval)


@dataclass(frozen=True)
class TaskInputs:
    """A task's training set, packed, scored and budgeted once when the task starts.

    The flat arrays grow with the task's token count: whether each token is
    an exposure, noised whenever it is fed (``exposed`` is None in seqft,
    where nothing is noised), and its frozen epsilon and sigma, read only
    where it is, one entry per token; and, aligned with ``seqs.tokens``,
    trailing PAD included, every predicted position's unlearning margin
    (pecl only; 0 on each sequence's first position).  Built once per task,
    after its budgets are known; ``EpochFeed`` lays each epoch out over it.

    Preparing a whole epoch before its first step, and computing the clean
    ``x @ W0.T`` once per task, rest on one invariant: ``run_continual``
    trains only the adapter, so the embedding table and W0, like every other
    base parameter, leave a run bit-identical to ``init_lm``'s.  An epoch's
    inputs and base therefore depend only on frozen scores, frozen
    parameters, the shuffle and the noise generator, never on the steps.
    """

    seqs: PackedSequences
    exposed: np.ndarray | None = None    # (N,) bool
    epsilon: np.ndarray | None = None    # (N,)
    sigma: np.ndarray | None = None      # (N,)
    margin: np.ndarray | None = None     # (N + 1,)

    def exposures(self, layout: PackedBatch) -> np.ndarray:
        """Where, in ``seqs.tokens``, each exposure of an epoch laid out as ``layout`` is.

        The exposures, in feed order, are the layout's exposed input cells row
        by row: every column but the last (each sequence's last token is only
        a target), padding cells dropped.  That is each sequence of the epoch
        in turn, positions ``0 .. len - 2``, whatever the batch size.
        """
        src = layout.src[:, :-1]
        src = src[src < self.exposed.size]
        return src[self.exposed[src]]

    def records(self, task_id: int) -> tuple[RecordTable, np.ndarray]:
        """The ledger record of every exposed token, and each token's row in them.

        Sequence i is named ``f"{task_id}:{i}"``.
        """
        n_seqs = self.seqs.lengths.size
        names = np.array([f"{task_id}:{i}" for i in range(n_seqs)], dtype=object)
        tok = np.flatnonzero(self.exposed)
        seq = np.repeat(np.arange(n_seqs), self.seqs.lengths)[tok]
        return (record_table(names[seq], tok - self.seqs.starts[seq], self.epsilon[tok],
                             self.sigma[tok]),
                np.cumsum(self.exposed) - 1)


def _shared_zeros(rows: int, cols: int) -> np.ndarray:
    """A float64 array of zeros in anonymous shared memory: a forked child's writes show."""
    return np.frombuffer(mmap.mmap(-1, 8 * rows * cols), dtype=np.float64).reshape(rows, cols)


def _put(stream, message) -> None:
    pickle.dump(message, stream)
    stream.flush()


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class EpochFeed:
    """A task's epochs, each laid out over its inputs; in the noised modes, prepared ahead.

    Iterating yields each epoch's layout in turn, its rows in the order
    ``shuffle(epoch)`` draws when the feed reaches the epoch.  The feed alone
    owns the epoch buffers: in the noised modes epoch e is prepared by
    ``_prepare`` in slot ``e % 2``, a table and a base in anonymous shared
    memory, whose base is filled in ``work``, the caller's workspace (one
    process never fills a base while it steps).  Epoch
    0 is prepared in the caller's process as the feed is made.  When the
    task has 2 or more epochs and the process may run on 2 or more CPUs, a
    forked worker then prepares epochs 1, 2, ... on its copy of the noise
    generator while the previous epoch trains, each once the epoch that
    last used its slot has ended, and hands the generator's state back at
    the end.  A process, not a thread: the noise and the fill are small
    numpy calls, which hold the GIL.  Otherwise, or when the worker cannot
    be forked, each epoch is prepared inline when it starts.  Either way the
    epochs and the generator's final state are the same bits.

    Use it as a context manager: leaving it reaps the worker, and an error
    in the worker is raised again in the caller, with its class and message.
    """

    def __init__(self, inputs: TaskInputs, model: TinyLM, epochs: int,
                 shuffle: Callable[[int], np.ndarray], privacy: PrivacyConfig,
                 rng: np.random.Generator, batch_size: int, work: Workspace | None = None):
        self.inputs, self.model, self.epochs, self.shuffle = inputs, model, epochs, shuffle
        self.privacy, self.rng, self.batch_size = privacy, rng, batch_size
        self.work = work or Workspace()
        self.slots: list[tuple[np.ndarray, np.ndarray]] = []
        self.pid = self.conn = self.free = None
        if inputs.exposed is not None:
            n = inputs.seqs.tokens.size
            for _ in range(2):
                table = _shared_zeros(n, model.d_emb)
                np.take(model.embed, inputs.seqs.tokens, axis=0, mode="clip", out=table)
                self.slots.append((table, _shared_zeros(n, model.d_hidden)))
        self.first = self._prepare(0)
        if self.slots and epochs >= 2 and hasattr(os, "fork") and _cpus() >= 2:
            self._fork()

    def _prepare(self, epoch: int) -> PackedBatch:
        """The epoch as one batch over its slot (the embeddings in seqft); a step is a chunk.

        When this process prepares a noised epoch (no worker was forked, or this
        is the worker), one mechanism call noises the layout's exposures into the
        slot's table, whose other rows stay clean, then fills the slot's base.
        """
        table, base = self.slots[epoch % 2] if self.slots else (None, None)
        inputs = self.inputs
        layout = inputs.seqs.batch(self.model, self.shuffle(epoch), table, inputs.margin, base)
        if table is not None and self.pid is None:
            src = inputs.exposures(layout)
            table[src] = perturb_embeddings(self.model.embed[inputs.seqs.tokens[src]],
                                            inputs.sigma[src], self.privacy.clip_norm, self.rng)
            frozen_base(self.model, layout, self.batch_size, base, self.work)
        return layout

    def _fork(self) -> None:
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:  # EMFILE, EAGAIN or ENOMEM: no worker, so each epoch is prepared inline
            for fd in fds:
                os.close(fd)
            return
        ready_r, ready_w, free_r, free_w = fds
        if pid == 0:  # the worker: never returns into the caller's code
            status, out = 0, None
            try:
                os.close(ready_r)
                os.close(free_w)
                out, freed = open(ready_w, "wb"), open(free_r, "rb", buffering=0)
                for epoch in range(1, self.epochs):
                    if epoch >= 2 and not freed.read(1):  # epoch - 2 has freed its slot
                        raise EOFError("the run stopped")
                    self._prepare(epoch)
                    _put(out, epoch)
                _put(out, self.rng.bit_generator.state)
            except BaseException as exc:
                status = 1
                with contextlib.suppress(BaseException):
                    _put(out, (type(exc), str(exc)))
            finally:
                os._exit(status)
        os.close(ready_w)
        os.close(free_r)
        self.pid, self.conn, self.free = pid, open(ready_r, "rb"), open(free_w, "wb", buffering=0)

    def _receive(self):
        try:
            message = pickle.load(self.conn)
        except (EOFError, OSError, pickle.UnpicklingError):
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
            raise ChildProcessError(
                "the epoch worker ended without its result ("
                + (f"killed by signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
                   else f"exit status {os.waitstatus_to_exitcode(status)}") + ")") from None
        if isinstance(message, tuple):
            kind, text = message
            raise kind(text)
        return message

    def __iter__(self):
        layout, self.first = self.first, None
        for epoch in range(self.epochs):
            if epoch:
                if self.pid is not None:  # the worker's: wait until it is ready
                    self._receive()
                layout = self._prepare(epoch)
            yield layout
            if self.pid is not None and epoch + 2 < self.epochs:
                try:
                    self.free.write(b"\0")  # its slot is free for epoch + 2
                except OSError:  # the worker has ended; its last message says why
                    while True:
                        self._receive()

    def __enter__(self) -> "EpochFeed":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if self.pid is not None and exc_type is None:
                self.rng.bit_generator.state = self._receive()
        finally:
            if self.pid is not None:
                if exc_type is not None:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
                self.pid = None
            for conn in (self.conn, self.free):
                if conn is not None:
                    conn.close()
            self.slots, self.work = [], None


def run_continual(config: RunConfig, corpora: list[TaskCorpus]) -> RunResult:
    """Train tasks sequentially per the configured mode and evaluate after each.

    Deterministic: identical (config, corpora, seed) reproduce the accuracy
    matrix, ledger, reports and final parameters bit for bit.
    """
    if not corpora:
        raise DataError("no tasks to train on")
    vocab = corpora[0].vocab
    if vocab is None:
        raise DataError("corpora carry no vocabulary")
    by_id = {task.task_id: task for task in corpora}
    order = config.task_order if config.task_order is not None else sorted(by_id)
    missing = [tid for tid in order if tid not in by_id]
    if missing:
        raise DataError(f"task_order references missing tasks: {shown(missing)}")
    if set(order) != set(by_id):
        raise DataError(
            "task_order must be a permutation of the provided task ids "
            f"(order {shown(sorted(order))} vs corpus {shown(sorted(by_id))})"
        )
    for task in corpora:
        if not task.train:
            raise DataError(f"task {task.task_id} has no training sequences")
        if not task.eval:
            raise DataError(f"task {task.task_id} has an empty eval set")
        for split in ("train", "eval"):
            for seq in getattr(task, split):
                if len(seq.tokens) < 2:
                    raise DataError(f"task {task.task_id} has a sequence with no text before its "
                                    "label; next-token training needs at least 2 tokens")
                if min(seq.tokens) < 0 or max(seq.tokens) >= len(vocab):
                    raise DataError(f"task {task.task_id} {split} split has a token id outside "
                                    f"the vocabulary [0, {len(vocab)})")
    sens_cfg = config.sensitivity.bind(vocab)

    model = init_lm((len(vocab), config.d_emb, config.n_ctx, config.d_hidden),
                    seed=config.seed)
    adapter = init_adapter(model, config.rank, seed=config.seed, task_id=order[0])
    ledger = PrivacyLedger(config.privacy.delta)
    noise_rng = spawn_rng(config.seed, "embedding-noise", config.privacy.noise_seed)
    state = ImportanceState()
    snapshot: AdapterSnapshot | None = None
    unlearn_sign = -1.0 if config.unlearn_mode == "suppress" else 1.0
    uniform_sigma = noise_sigma(
        config.uniform_eps, config.privacy.delta, config.privacy.clip_norm,
        config.privacy.sensitivity_variant,
    )

    n_tasks = len(order)
    matrix_values = np.full((n_tasks, n_tasks), np.nan)
    reports: list[TaskReport] = []
    kept_profiles: dict[int, SensitivityProfile] = {}

    for k, task_id in enumerate(order, start=1):
        task = by_id[task_id]
        adapter = adapter.copy(task_id=task_id) if k > 1 else adapter
        state.reset_activations()

        seqs = PackedSequences.of(model, task.train)
        rows = np.arange(len(task.train))
        clean = seqs.batch(model, rows)
        # Every chunk loop of the task (the base fills, scoring, the steps and the
        # wrap-up) lays out the whole training set, so one workspace fits them all.
        work = Workspace(clean, config.batch_size)
        # seqft steps and pecl's scoring and wrap-up forward read the clean base;
        # uniform_dp steps read noised inputs, and its wrap-up runs no forward.
        if config.mode != "uniform_dp":
            seqs.base = frozen_base(model, clean, config.batch_size,
                                    np.zeros((seqs.tokens.size, model.d_hidden)), work)
        del clean
        s_bar = lam_dyn = None
        reg_weight = 0.0
        lambda_unlearn = 0.0
        if config.mode == "pecl":
            pool = corpora if config.stats_scope == "all" else [by_id[t] for t in order[:k]]
            stats = compute_corpus_stats(pool, config.tau)
            profile = assign_budgets(
                score_sequences(model, adapter, stats, seqs, sens_cfg, config.batch_size, work),
                config.privacy,
            )
            inputs = TaskInputs(seqs, profile.score > 0.0, profile.epsilon, profile.sigma,
                                seqs.margins(profile.score, config.sculpt.theta))
            kept_profiles[task_id] = profile
            s_bar = mean_task_sensitivity(profile.score, seqs.lengths)
            lam_dyn = dynamic_lambda(s_bar, config.sculpt)
            if k >= 2:
                reg_weight = lam_dyn * state.omega_bar
            lambda_unlearn = config.sculpt.lambda_unlearn
        elif config.mode == "uniform_dp":
            tokens = seqs.tokens[:-1]
            inputs = TaskInputs(seqs, ~np.isin(tokens, list(sens_cfg.stopword_ids)),
                                np.full(tokens.size, config.uniform_eps),
                                np.full(tokens.size, uniform_sigma))
        else:
            inputs = TaskInputs(seqs)

        optimizer = AdamW(weight_decay=config.weight_decay) if config.optimizer == "adamw" else None
        steps_per_epoch = math.ceil(len(task.train) / config.batch_size)
        total_steps = steps_per_epoch * config.epochs
        step = 0
        spec = LossSpec(
            lambda_unlearn=lambda_unlearn,
            unlearn_sign=unlearn_sign,
            reg_weight=reg_weight,
            reg_reference=snapshot.delta_w if reg_weight != 0.0 else None,
        )

        def shuffle(epoch: int, k: int = k, n: int = len(task.train)) -> np.ndarray:
            return spawn_rng(config.seed, "shuffle", k, epoch).permutation(n)

        with EpochFeed(inputs, model, config.epochs, shuffle, config.privacy, noise_rng,
                       config.batch_size, work) as feed:
            # Built once the worker is forked, while it prepares epoch 1.
            if inputs.exposed is not None:
                records, record_of = inputs.records(task_id)
            for epoch, layout in enumerate(feed):
                if inputs.exposed is not None:
                    ledger.add(records, record_of[inputs.exposures(layout)], epoch)
                for batch in layout.chunks(config.batch_size):
                    try:
                        grads = backward(model, adapter, batch, spec, work)
                    except NumericError as exc:
                        raise NumericError(
                            f"task {task_id} epoch {epoch}: {exc}"
                        ) from exc
                    if optimizer is None:
                        sgd_step(model, adapter, grads, config.lr)
                    else:
                        optimizer.step(model, adapter, grads,
                                       cosine_lr(config.lr, step, total_steps))
                    step += 1
        del layout  # the last epoch's slot: free it before the wrap-up allocates

        # Task wrap-up: importance from the final delta and clean activations, per
        # batch_size chunk of the training set (the chunks the base table was filled
        # in).  Only pecl reads the losses, so only pecl runs a forward pass, and
        # keeps each chunk's losses in sequence and position order.
        train_losses: list[np.ndarray] = []
        for batch in seqs.batch(model, rows).chunks(config.batch_size):
            fb = forward_batch(model, adapter, batch, work) if config.mode == "pecl" else None
            x = _windows(model, batch, work) if fb is None else fb.x
            # np.linalg.norm(x, axis=-1), its squares taken in place: x is spent.
            norms = np.sqrt(np.add.reduce(np.multiply(x, x, out=x), axis=-1))
            state.observe_activation(norms[batch.valid])
            if fb is not None:
                train_losses.append(fb.losses[fb.valid])
        # The base table, which batch holds, and the working arrays must be freed
        # before the next task's fill.
        del batch, fb, x, work
        delta_final = lora_delta(adapter)
        omega_k = task_importance(delta_final, state.activation_norm_accum)
        final_l_reg = reg_loss(delta_final, snapshot, lam_dyn,
                               state.omega_bar) if k >= 2 and config.mode == "pecl" else 0.0
        final_l_unlearn = None
        if config.mode == "pecl":
            lengths = seqs.lengths
            scores = np.split(profile.score, np.cumsum(lengths)[:-1])
            losses = np.split(np.concatenate(train_losses), np.cumsum(lengths - 1)[:-1])
            final_l_unlearn = float(np.mean([unlearn_loss(s[1:], ell, config.sculpt.theta)
                                             for s, ell in zip(scores, losses)]))
        state = update_running_importance(state, omega_k)
        snapshot = AdapterSnapshot(task_id=task_id, delta_w=delta_final.copy())
        reports.append(TaskReport(task_id=task_id, omega=omega_k, omega_bar=state.omega_bar,
                                  s_bar=s_bar, lambda_dyn=lam_dyn, final_l_reg=final_l_reg,
                                  final_l_unlearn=final_l_unlearn))

        for i in range(k):
            matrix_values[k - 1, i] = evaluate(model, adapter, by_id[order[i]])

    return RunResult(
        matrix=AccuracyMatrix(matrix_values),
        ledger=ledger,
        reports=reports,
        model=model,
        adapter=adapter,
        profiles=kept_profiles,
    )


def metrics_summary(matrix: AccuracyMatrix) -> dict:
    """bwt/last/avg for reporting; single-task runs report BWT as 0.0."""
    if matrix.num_tasks < 2:
        warnings.warn("BWT is undefined for a single task; reporting 0.0", stacklevel=2)
        bwt_value = 0.0
    else:
        bwt_value = bwt(matrix)
    return {"bwt": bwt_value, "last": last_acc(matrix), "avg": avg_acc(matrix)}
