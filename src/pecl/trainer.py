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
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

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
from .sensitivity import SensitivityConfig, SensitivityProfile, score_sequences, window_losses
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


@dataclass(eq=False, repr=False)
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
    """What a run's first k tasks leave, and all that task k + 1 inherits (see ``train_task``):
    k rows of accuracies, every exposure so far, a report per task, the base model
    (``init_lm``'s, never trained), the adapter as task k ends it and the noise generator
    after task k's last draw."""

    matrix: AccuracyMatrix
    ledger: PrivacyLedger
    reports: list[TaskReport]
    model: TinyLM
    adapter: LoraAdapter
    # pecl mode: each task's frozen task-arrival profile, keyed by task id,
    # over its train list's sequences end to end.  Other modes leave this empty.
    profiles: dict[int, SensitivityProfile] = field(default_factory=dict)
    noise_rng: np.random.Generator | None = None


def evaluate(model: TinyLM, adapter: LoraAdapter | None, task: TaskCorpus,
             packed: PackedSequences | None = None) -> float:
    """Fraction of eval sequences whose label-position argmax is the label.

    Forward passes use clean embeddings; evaluation consumes no randomness
    and never mutates the model.  ``packed``, when given, is
    ``PackedSequences.of(model, task.eval)``, packed once for every
    evaluation of the task.
    """
    if not task.eval:
        raise DataError(f"task {task.task_id} has an empty eval set")
    labels = np.array([seq.label_token for seq in task.eval])
    batch = task.eval if packed is None else packed.batch(model, np.arange(packed.lengths.size))
    correct = label_probs(model, adapter, batch).argmax(axis=-1) == labels
    return int(correct.sum()) / len(task.eval)


@dataclass(frozen=True, eq=False, repr=False)
class TaskInputs:
    """A task's training set, packed, scored and budgeted once when the task starts.

    The flat arrays grow with the task's token count: whether each token is
    an exposure, noised whenever it is fed (``exposed`` is None in seqft,
    where nothing is noised), and its frozen epsilon and sigma, read only
    where it is, one entry per token; and, aligned with ``seqs.tokens``,
    trailing PAD included, every predicted position's unlearning margin
    (pecl only; 0 on each sequence's first position).  Built once per task,
    after its budgets are known; ``RunWorker.epochs`` lays each epoch out over it.

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


def _shared(*shape: int, dtype=np.float64) -> np.ndarray:
    """Zeros in anonymous shared memory: what a forked process writes there, the other reads."""
    size = math.prod(shape)
    buffer = mmap.mmap(-1, size * np.dtype(dtype).itemsize)
    return np.frombuffer(buffer, dtype=dtype, count=size).reshape(shape)


def _put(stream, message) -> None:
    pickle.dump(message, stream)
    stream.flush()


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Failure(NamedTuple):
    """An error raised in the worker, as the worker sends it to the run."""

    kind: type
    text: str

    def error(self) -> BaseException:
        """``kind(text)``, or else the first class in ``kind``'s MRO that takes the message
        alone: numpy's ``_ArrayMemoryError`` also needs a shape and a dtype, MemoryError not."""
        for cls in self.kind.__mro__:
            if issubclass(cls, BaseException):  # BaseException itself takes any message
                with contextlib.suppress(Exception):
                    return cls(self.text)


class RunWorker:
    """The buffers a run's tasks reuse, and the worker process that shares them (see the README).

    Made once per run and mapped once, sized for the run's largest task (N
    packed tokens, PAD included): ``slots`` (noised modes), the two epoch
    slots ``epochs`` lays epochs over, each an (N, d_emb) input table and an
    (N, d_hidden) base; and ``clean`` (pecl, seqft), the clean ``x @ W0.T``
    table of the task that trains, two with a worker (task k's is
    ``clean[k % 2]``).  A task uses the first rows of each, one per packed
    token.

    A noised run that may use 2 or more CPUs forks the worker as this is made, once every
    task's eval split is packed (``evals``).  The worker, which inherits every task's packed
    splits, shuffle and corpus (``tasks``, in order), does what the run commands, which this
    class alone decides: epochs 1, 2, ... of each task, task k+1's clean table
    while task k trains where the mode reads clean tables, and the later rows
    of task 1's clean fill, the scoring forward, the epoch-0 base fill, the
    wrap-up and each round of evaluations.  Every chunk keeps its rows, shape and order, so the
    bits are the same without a worker (seqft, one CPU, a failed fork or
    pipe), where the run does it all.

    Commands and replies travel pickled through two pipes, one each way; the
    worker blocks only to read a command and sends at most one reply to each.
    A message larger than a pipe's buffer (64 KiB) blocks its writer until
    the other side reads it, so each is sent while the other process reads or
    works toward reading: the run sends a command only once it has read every
    reply to the commands before it, save a task's later epochs and the next
    task's clean fill, a few bytes each, as are their replies, which a pipe holds.

    Leaving it reaps the worker, killed first when the run fails.  An error in
    the worker is raised again in the run with its class and message; a worker
    that dies is a ``ChildProcessError``.  ``pid`` is the worker's in the run,
    0 in the worker itself, and None without a worker.
    """

    def __init__(self, model: TinyLM, config: RunConfig, packed: list[PackedSequences],
                 shuffles: list[Callable[[int], np.ndarray]], tasks: list[TaskCorpus]):
        self.model, self.config, self.packed = model, config, packed
        self.shuffles, self.tasks = shuffles, tasks
        self.evals = [PackedSequences.of(model, task.eval) for task in tasks]
        n = max(seqs.tokens.size for seqs in packed)
        fork = config.mode != "seqft" and hasattr(os, "fork") and _cpus() >= 2
        self.slots = [(_shared(n, model.d_emb), _shared(n, model.d_hidden))
                      for _ in range(2 if config.mode != "seqft" else 0)]
        self.clean = [_shared(n, model.d_hidden)
                      for _ in range((1 + fork) if config.mode != "uniform_dp" else 0)]
        # Every chunk loop lays out one task's training set, so one workspace, sized
        # for the largest task, fits them all.  The worker's is its own copy, empty.
        self.work = Workspace(max(seqs.windows(model.n_ctx, config.batch_size)
                                  for seqs in packed))
        self.pid = self.commands = self.replies = None
        if fork:
            self._fork()

    def clean_table(self, k: int) -> np.ndarray | None:
        """Task k's clean base table (k from 0); None in uniform_dp, which reads none."""
        return self.clean[k % len(self.clean)] if self.clean else None

    def start(self, k: int) -> None:
        """Fills task k's clean table (k from 0), where the mode reads one, unless the
        worker filled it as task k - 1 trained (see ``_send_epoch``)."""
        if self.clean and (k == 0 or not self.pid):
            self.split("clean", k, self.packed[k].lengths.size)

    def _cut(self, rows: int, size: int) -> int:
        """How many of a pass's first ``rows`` the run itself runs, in chunks of ``size``:
        all of them without a worker, else the first half of the chunks, rounded up."""
        return min(rows, (-(-rows // size) + 1) // 2 * size) if self.pid else rows

    def split(self, op: str, k: int, rows: int, *args) -> list | None:
        """Pass ``op`` over task k's first ``rows`` rows (k from 0), split at ``_cut``.

        The run runs its rows and the worker, sent ``op`` with ``args``, the
        rest.  Returns each chunk's result in order, or None (the clean fill).
        A chunk has ``batch_size`` sequences; the evaluations' have one task.
        """
        cut = self._cut(rows, 1 if op == "evaluate" else self.config.batch_size)
        if cut < rows:
            self.send(op, k, cut, rows, *args)
        results = getattr(self, "_" + op)(k, 0, cut, *args)
        if cut < rows and results is not None:
            results += self.receive()
        return results

    def epochs(self, k: int, inputs: TaskInputs, rng: np.random.Generator):
        """Task k's epochs (k from 0), laid out over ``inputs``: an iterator of layouts.

        Epoch e's rows are in the order ``shuffle(e)`` draws when the iterator
        reaches it.  The call resets both slots' tables to the clean inputs and
        prepares epoch 0 (see ``_prepare``).  With a worker, which prepares the
        rest, the iterator waits for each epoch the worker readies and takes the
        noise generator's state after the epoch's draw, and commands epoch e + 2
        once epoch e has trained; an error in the worker is raised there.
        """
        for table, _ in self.slots:
            np.take(self.model.embed, inputs.seqs.tokens, axis=0, mode="clip",
                    out=table[: inputs.seqs.tokens.size])
        return self._layouts(k, self._prepare(k, 0, inputs, rng), inputs, rng)

    def _layouts(self, k: int, layout: PackedBatch, inputs: TaskInputs,
                 rng: np.random.Generator):
        for epoch in range(self.config.epochs):
            if epoch:
                layout = self._prepare(k, epoch, inputs, rng)
            if self.pid:  # the worker has prepared its part of the epoch
                rng.bit_generator.state = self.receive()
            yield layout
            if self.pid:
                self._send_epoch(k, epoch + 2)  # into the slot this epoch has freed

    def _prepare(self, k: int, epoch: int, inputs: TaskInputs,
                 rng: np.random.Generator) -> PackedBatch:
        """The epoch as one batch over its slot (the embeddings and clean base in seqft).

        When this process prepares a noised epoch (epoch 0 in the run, every
        later one in the worker or, without one, in the run), one mechanism
        call noises the layout's exposures into the slot's table, whose other
        rows stay clean, then the slot's base is filled: all of it, or in the
        run, with a worker, epoch 0's first rows, the worker sent the rest.
        """
        table, base = self.slots[epoch % 2] if self.slots else (None, self.clean_table(k))
        layout = inputs.seqs.batch(self.model, self.shuffles[k](epoch), table, inputs.margin,
                                   base)
        if table is not None and (epoch == 0 or not self.pid):
            src = inputs.exposures(layout)
            table[src] = perturb_embeddings(self.model.embed[inputs.seqs.tokens[src]],
                                            inputs.sigma[src], self.config.privacy.clip_norm, rng)
            cut = self._cut(len(layout), self.config.batch_size)
            if self.pid:
                self._send_epoch(k, 0, cut, inputs.exposed, inputs.sigma, rng.bit_generator.state)
                self._send_epoch(k, 1)
            frozen_base(self.model, layout[:cut], self.config.batch_size, base, self.work)
        return layout

    def _send_epoch(self, k: int, epoch: int, *task) -> None:
        """Commands task k's epoch ``epoch``, if it has one, and after its last, task k + 1's
        clean fill, where the mode reads clean tables: in the order the worker does them."""
        if epoch < self.config.epochs:
            self.send("epochs", k, epoch, *task)
        if epoch == self.config.epochs - 1 and self.clean and k + 1 < len(self.packed):
            self.send("clean", k + 1, 0, self.packed[k + 1].lengths.size)

    def send(self, *message) -> None:
        try:
            _put(self.commands, message)
        except OSError:  # the worker has ended: raise what it said last, or how it ended
            while True:
                self.receive()

    def receive(self):
        """The worker's next reply; an error the worker raised is raised here."""
        try:
            message = pickle.load(self.replies)
        except (EOFError, OSError, pickle.UnpicklingError):
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
            raise ChildProcessError(
                "the epoch worker ended without its result ("
                + (f"killed by signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
                   else f"exit status {os.waitstatus_to_exitcode(status)}") + ")") from None
        if isinstance(message, _Failure):
            raise message.error()
        return message

    def __enter__(self) -> "RunWorker":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.commands is not None:  # at the end of its commands the worker exits
            with contextlib.suppress(OSError):
                self.commands.close()
        if self.pid:
            if exc_type is not None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self.replies is not None:
            self.replies.close()

    def _fork(self) -> None:
        fds: list[int] = []
        try:
            for _ in range(2):
                fds += os.pipe()
            pid = os.fork()
        except OSError:  # EMFILE, EAGAIN or ENOMEM: no worker, so the run does it all
            for fd in fds:
                os.close(fd)
            return
        commands_r, commands_w, replies_r, replies_w = fds
        if pid == 0:  # the worker: never returns into the run's code
            status, out = 0, None
            try:
                for fd in (commands_w, replies_r):
                    os.close(fd)
                self.pid, out = 0, open(replies_w, "wb")
                self._serve(open(commands_r, "rb"), out)
            except BaseException as exc:
                status = 1
                with contextlib.suppress(BaseException):
                    _put(out, _Failure(type(exc), str(exc)))
            finally:
                os._exit(status)
        for fd in (commands_r, replies_w):
            os.close(fd)
        self.pid, self.commands, self.replies = pid, open(commands_w, "wb"), open(replies_r, "rb")

    # The worker's side: each command the run sends is one call below, which the run
    # makes itself on its own rows of a split pass.

    def _serve(self, commands, replies) -> None:
        while True:
            try:
                op, *args = pickle.load(commands)
            except EOFError:  # the run has ended
                return
            result = getattr(self, "_" + op)(*args)
            if result is not None:
                _put(replies, result)

    def _rows(self, k: int, first: int, last: int) -> PackedBatch:
        """Task k's training sequences ``first`` to ``last`` in order, over its clean table."""
        return self.packed[k].batch(self.model, np.arange(first, last), base=self.clean_table(k))

    def _clean(self, k: int, first: int, last: int) -> None:
        frozen_base(self.model, self._rows(k, first, last), self.config.batch_size,
                    self.clean_table(k), self.work)

    def _score(self, k: int, first: int, last: int, adapter: LoraAdapter) -> list[np.ndarray]:
        return window_losses(self.model, adapter, self._rows(k, first, last),
                             self.config.batch_size, self.work)

    def _epochs(self, k: int, epoch: int, *task) -> dict:
        """Task k's epoch, whole, or of epoch 0, whose command brings the task (``cut``, the
        exposures, sigma and the noise state), the base from sequence ``cut`` of its shuffle
        on.  Returns the noise generator's state after the epoch's draw."""
        if epoch:
            self._prepare(k, epoch, self.inputs, self.rng)
        else:
            cut, exposed, sigma, state = task
            self.inputs = TaskInputs(self.packed[k], exposed, None, sigma)
            self.rng = np.random.default_rng()
            self.rng.bit_generator.state = state
            table, base = self.slots[0]
            rest = self.inputs.seqs.batch(self.model, self.shuffles[k](0)[cut:], table, None, base)
            frozen_base(self.model, rest, self.config.batch_size, base, self.work)
        return self.rng.bit_generator.state

    def _wrapup(self, k: int, first: int, last: int,
                adapter: LoraAdapter | None) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Each chunk's clean window norms at its valid windows and, given an adapter
        (pecl), the chunk's valid-window losses."""
        model, work, results = self.model, self.work, []
        for batch in self._rows(k, first, last).chunks(self.config.batch_size):
            fb = forward_batch(model, adapter, batch, work) if adapter is not None else None
            x = _windows(model, batch, work) if fb is None else fb.x
            # np.linalg.norm(x, axis=-1), its squares taken in place: x is spent.
            norms = np.sqrt(np.add.reduce(np.multiply(x, x, out=x), axis=-1))
            results.append((norms[batch.valid], None if fb is None else fb.losses[fb.valid]))
        return results

    def _evaluate(self, k: int, first: int, last: int, adapter: LoraAdapter) -> list[float]:
        """Tasks ``first``..``last - 1``'s accuracies (from 0)."""
        return [evaluate(self.model, adapter, self.tasks[i], self.evals[i])
                for i in range(first, last)]


def run_continual(config: RunConfig, corpora: list[TaskCorpus]) -> RunResult:
    """Train tasks sequentially per the configured mode and evaluate after each.

    Checks the corpora, then folds ``train_task`` over the task order, from
    the result of no tasks.  Deterministic: identical (config, corpora, seed)
    reproduce the accuracy matrix, ledger, reports and final parameters bit
    for bit, with or without the run's worker (see ``RunWorker``).
    """
    if not corpora:
        raise DataError("no tasks to train on")
    vocab = corpora[0].vocab
    if vocab is None:
        raise DataError("corpora carry no vocabulary")
    surfaces = list(map(vocab.surface_of, range(len(vocab))))
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
        if [other.task_id for other in corpora].count(task.task_id) > 1:
            raise DataError(f"task {task.task_id} appears more than once in the corpora")
        if task.vocab is None or list(map(task.vocab.surface_of, range(len(task.vocab)))) != surfaces:
            raise DataError(f"task {task.task_id}'s vocabulary is not task {corpora[0].task_id}'s")
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

    model = init_lm((len(vocab), config.d_emb, config.n_ctx, config.d_hidden),
                    seed=config.seed)
    noise_rng = spawn_rng(config.seed, "embedding-noise", config.privacy.noise_seed)
    result = RunResult(AccuracyMatrix.from_rows([]), PrivacyLedger(config.privacy.delta), [], model,
                       init_adapter(model, config.rank, seed=config.seed, task_id=order[0]),
                       noise_rng=noise_rng)  # the result of no tasks

    def shuffle(k: int, n: int) -> Callable[[int], np.ndarray]:
        return lambda epoch: spawn_rng(config.seed, "shuffle", k, epoch).permutation(n)

    tasks = [by_id[task_id] for task_id in order]
    packed = [PackedSequences.of(model, task.train) for task in tasks]
    with RunWorker(model, config, packed,
                   [shuffle(k, seqs.lengths.size) for k, seqs in enumerate(packed, start=1)],
                   tasks) as worker:
        for _ in tasks:
            result = train_task(worker, result)
    return result


def train_task(worker: RunWorker, result: RunResult) -> RunResult:
    """``result``, the run's first k tasks, extended by its next one, ``worker.tasks[k]``.

    The result after k tasks is the result of a run of those k tasks alone.
    What the task inherits is read from ``result``: the adapter, which it
    copies and trains; the drift reference, that adapter's delta; the ledger
    and the noise generator, which it extends in place; and the running
    importance, from the reports.  The rest is read from ``worker``: the
    run's config, and its tasks in order, their vocabulary and packed splits.
    """
    k = result.matrix.num_tasks  # tasks trained; the task's index in the order
    config, task, seqs = worker.config, worker.tasks[k], worker.packed[k]
    model, bs, task_id = result.model, config.batch_size, task.task_id
    adapter = result.adapter.copy(task_id=task_id)
    sens_cfg = config.sensitivity.bind(task.vocab)
    state = ImportanceState([report.omega for report in result.reports],
                            result.reports[-1].omega_bar if result.reports else 0.0)
    n_seqs = len(task.train)

    # seqft steps and pecl's scoring and wrap-up forward read the clean base;
    # uniform_dp steps read noised inputs, and its wrap-up runs no forward.
    worker.start(k)
    s_bar = lam_dyn = snapshot = None
    reg_weight = lambda_unlearn = 0.0
    profiles = result.profiles
    if config.mode == "pecl":
        pool = worker.tasks if config.stats_scope == "all" else worker.tasks[: k + 1]
        stats = compute_corpus_stats(pool, config.tau)
        losses = worker.split("score", k, n_seqs, adapter)
        profile = assign_budgets(score_sequences(model, adapter, stats, seqs, sens_cfg, bs,
                                                 np.concatenate(losses)), config.privacy)
        inputs = TaskInputs(seqs, profile.score > 0.0, profile.epsilon, profile.sigma,
                            seqs.margins(profile.score, config.sculpt.theta))
        profiles = {**profiles, task_id: profile}
        s_bar = mean_task_sensitivity(profile.score, seqs.lengths)
        lam_dyn = dynamic_lambda(s_bar, config.sculpt)
        if k:
            snapshot = AdapterSnapshot(result.adapter.task_id, lora_delta(result.adapter))
            reg_weight = lam_dyn * state.omega_bar
        lambda_unlearn = config.sculpt.lambda_unlearn
    elif config.mode == "uniform_dp":
        tokens = seqs.tokens[:-1]
        sigma = noise_sigma(config.uniform_eps, config.privacy.delta, config.privacy.clip_norm,
                            config.privacy.sensitivity_variant)
        inputs = TaskInputs(seqs, ~np.isin(tokens, list(sens_cfg.stopword_ids)),
                            np.full(tokens.size, config.uniform_eps), np.full(tokens.size, sigma))
    else:
        inputs = TaskInputs(seqs)

    optimizer = AdamW(weight_decay=config.weight_decay) if config.optimizer == "adamw" else None
    steps = math.ceil(n_seqs / bs)  # per epoch
    spec = LossSpec(lambda_unlearn=lambda_unlearn, reg_weight=reg_weight,
                    unlearn_sign=-1.0 if config.unlearn_mode == "suppress" else 1.0,
                    reg_reference=snapshot.delta_w if reg_weight != 0.0 else None)

    layouts = worker.epochs(k, inputs, result.noise_rng)
    # Built while the worker prepares epoch 1.
    if inputs.exposed is not None:
        records, record_of = inputs.records(task_id)
    for epoch, layout in enumerate(layouts):
        if inputs.exposed is not None:
            result.ledger.add(records, record_of[inputs.exposures(layout)], epoch)
        for step, batch in enumerate(layout.chunks(bs), start=epoch * steps):
            try:
                grads = backward(model, adapter, batch, spec, worker.work)
            except NumericError as exc:
                raise NumericError(f"task {task_id} epoch {epoch}: {exc}") from exc
            if optimizer is None:
                sgd_step(model, adapter, grads, config.lr)
            else:
                optimizer.step(model, adapter, grads,
                               cosine_lr(config.lr, step, steps * config.epochs))

    # Task wrap-up: importance from the final delta and clean activations, per
    # batch_size chunk of the training set (the chunks the base table was
    # filled in), folded chunk by chunk in order, the worker's after the run's.
    # Only pecl reads the losses, so only pecl runs a forward pass, and keeps
    # each chunk's losses in sequence and position order.
    chunks = worker.split("wrapup", k, n_seqs, adapter if config.mode == "pecl" else None)
    for norms, _ in chunks:
        state.observe_activation(norms)
    delta_final = lora_delta(adapter)
    omega_k = task_importance(delta_final, state.activation_norm_accum)
    final_l_reg = reg_loss(delta_final, snapshot, lam_dyn, state.omega_bar)
    final_l_unlearn = None
    if config.mode == "pecl":
        scores = np.split(profile.score, np.cumsum(seqs.lengths)[:-1])
        losses = np.split(np.concatenate([losses for _, losses in chunks]),
                          np.cumsum(seqs.lengths - 1)[:-1])
        final_l_unlearn = float(np.mean([unlearn_loss(s[1:], ell, config.sculpt.theta)
                                         for s, ell in zip(scores, losses)]))
    state = update_running_importance(state, omega_k)
    report = TaskReport(task_id=task_id, omega=omega_k, omega_bar=state.omega_bar, s_bar=s_bar,
                        lambda_dyn=lam_dyn, final_l_reg=final_l_reg,
                        final_l_unlearn=final_l_unlearn)

    # Tasks 1..k+1, on the adapter as it ends this task.
    row = worker.split("evaluate", k, k + 1, adapter)
    return replace(result, matrix=AccuracyMatrix.from_rows(result.matrix.rows() + [row]),
                   reports=result.reports + [report], adapter=adapter, profiles=profiles)


def metrics_summary(matrix: AccuracyMatrix) -> dict:
    """bwt/last/avg for reporting; single-task runs report BWT as 0.0."""
    if matrix.num_tasks < 2:
        warnings.warn("BWT is undefined for a single task; reporting 0.0", stacklevel=2)
        bwt_value = 0.0
    else:
        bwt_value = bwt(matrix)
    return {"bwt": bwt_value, "last": last_acc(matrix), "avg": avg_acc(matrix)}
