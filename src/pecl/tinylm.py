"""A fixed-context MLP language model with low-rank per-task adapters.

Architecture: embedding lookup for the last ``n_ctx`` tokens (left-padded
with PAD), concatenation, one tanh hidden layer, softmax over the vocabulary.
The hidden layer is the single adapted layer.  With an adapter attached it
computes ``x @ W0.T + (x @ A.T) @ B.T`` and W0 is frozen; ``W0 + B @ A`` is
never materialised, and the adapter's gradients are rank-r products, so a
d_hidden x d_in weight gradient exists only in full-finetune mode.

All parameters are float64 and every forward/backward is exact arithmetic,
so analytic gradients can be checked against central finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import PAD_ID
from .errors import NumericError
from .seeding import spawn_rng


@dataclass(eq=False, repr=False)
class TinyLM:
    vocab: int
    d_emb: int
    n_ctx: int
    d_hidden: int
    seed: int
    embed: np.ndarray      # (vocab, d_emb)
    w_hidden: np.ndarray   # (d_hidden, n_ctx * d_emb)
    b_hidden: np.ndarray   # (d_hidden,)
    w_out: np.ndarray      # (vocab, d_hidden)
    b_out: np.ndarray      # (vocab,)

    @property
    def d_in(self) -> int:
        return self.n_ctx * self.d_emb

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in PARAM_NAMES]

    def copy(self) -> "TinyLM":
        return replace(self, **{name: arr.copy() for name, arr in self.param_items()})


# TinyLM's parameter arrays, in checkpoint order, and its scalar fields (the
# checkpoint's meta).  Annotations are strings under the __future__ import.
PARAM_NAMES = tuple(f.name for f in fields(TinyLM) if f.type == "np.ndarray")
_SCALAR_NAMES = tuple(f.name for f in fields(TinyLM) if f.name not in PARAM_NAMES)


@dataclass(eq=False, repr=False)
class LoraAdapter:
    """Low-rank update for one layer: the effective delta is ``b @ a``."""

    a: np.ndarray          # (rank, d_in)
    b: np.ndarray          # (d_out, rank)
    rank: int
    task_id: int

    def __post_init__(self) -> None:
        if self.a.shape[0] != self.rank or self.b.shape[1] != self.rank:
            raise ValueError("adapter factor shapes do not match the declared rank")
        if self.rank > min(self.a.shape[1], self.b.shape[0]):
            raise ValueError("rank exceeds min(d_in, d_out)")

    def copy(self, task_id: int | None = None) -> "LoraAdapter":
        return replace(self, a=self.a.copy(), b=self.b.copy(),
                       task_id=self.task_id if task_id is None else task_id)


def lora_delta(adapter: LoraAdapter, out: np.ndarray | None = None) -> np.ndarray:
    """Materialize the low-rank update ``b @ a`` (shape d_out x d_in), into ``out`` if given."""
    return np.matmul(adapter.b, adapter.a, out=out)


def init_lm(dims: tuple[int, int, int, int], seed: int) -> TinyLM:
    """Create a model with U(-1/sqrt(fan_in), 1/sqrt(fan_in)) parameters.

    ``dims`` is (vocab, d_emb, n_ctx, d_hidden); all must be >= 1.  The same
    (dims, seed) pair always yields bitwise-identical parameters.
    """
    vocab, d_emb, n_ctx, d_hidden = dims
    for name, v in zip(("vocab", "d_emb", "n_ctx", "d_hidden"), dims):
        if v < 1:
            raise ValueError(f"{name} must be >= 1, got {v}")
    rng = spawn_rng(seed, "tinylm-init")
    d_in = n_ctx * d_emb

    def u(scale: float, shape) -> np.ndarray:
        return rng.uniform(-scale, scale, size=shape)

    return TinyLM(
        vocab=vocab,
        d_emb=d_emb,
        n_ctx=n_ctx,
        d_hidden=d_hidden,
        seed=seed,
        embed=u(1.0 / np.sqrt(d_emb), (vocab, d_emb)),
        w_hidden=u(1.0 / np.sqrt(d_in), (d_hidden, d_in)),
        b_hidden=u(1.0 / np.sqrt(d_in), (d_hidden,)),
        w_out=u(1.0 / np.sqrt(d_hidden), (vocab, d_hidden)),
        b_out=u(1.0 / np.sqrt(d_hidden), (vocab,)),
    )


def init_adapter(model: TinyLM, rank: int, seed: int, task_id: int) -> LoraAdapter:
    """Fresh adapter: random A, zero B, so the initial delta is exactly 0."""
    if rank < 1 or rank > min(model.d_in, model.d_hidden):
        raise ValueError(f"rank must be in [1, {min(model.d_in, model.d_hidden)}], got {rank}")
    rng = spawn_rng(seed, "adapter-init", task_id)
    a = rng.uniform(-1.0 / np.sqrt(model.d_in), 1.0 / np.sqrt(model.d_in), size=(rank, model.d_in))
    b = np.zeros((model.d_hidden, rank))
    return LoraAdapter(a=a, b=b, rank=rank, task_id=task_id)


@dataclass(eq=False, repr=False)
class PackedSequences:
    """Sequences stored end to end, with their ids validated once.

    ``tokens`` holds every sequence's ids back to back and then one PAD, so
    its size follows the total token count, never sequences x longest
    sequence.  ``cells`` lays any selection of the sequences out as a padded
    batch by index arithmetic alone.
    """

    sequences: Sequence    # the source sequences, in order
    tokens: np.ndarray     # (N + 1,)
    starts: np.ndarray     # (S,) offset of each sequence in ``tokens``
    lengths: np.ndarray    # (S,)

    @classmethod
    def of(cls, model: TinyLM, sequences: Sequence) -> "PackedSequences":
        seqs = [seq.tokens if hasattr(seq, "tokens") else seq for seq in sequences]
        lengths = np.array([len(ids) for ids in seqs], dtype=np.intp)
        tokens = np.concatenate([np.asarray(ids, dtype=np.intp) for ids in seqs] + [[PAD_ID]])
        bad = tokens[(tokens < 0) | (tokens >= model.vocab)]
        if bad.size:
            raise ValueError(f"token id {bad[0]} out of vocab range [0, {model.vocab})")
        starts = np.cumsum(lengths) - lengths
        return cls(sequences, tokens, starts, lengths)

    def cells(self, n_ctx: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each cell of the padded batch of sequences ``rows`` reads from.

        Row b is PAD up to column ``width - n_b`` and then the n_b ids of
        sequence ``rows[b]``, where ``width = n_ctx - 1 + max(n_b, 3)``: every
        sequence ends in the last column, and there are at least two windows,
        because numpy runs a one-row product through gemv, which rounds
        differently from the gemm that every longer batch gets.  Returns
        ``src``, the index into ``tokens`` (and into any array aligned with
        it) of every cell, with padding cells pointing at the trailing PAD,
        and ``pos``, each cell's position within its sequence (negative on
        padding).
        """
        lengths = self.lengths[rows]
        width = _width(n_ctx, lengths)
        pos = np.arange(width) - (width - lengths)[:, None]
        src = np.where(pos >= 0, self.starts[rows][:, None] + pos, self.tokens.size - 1)
        return src, pos

    def windows(self, n_ctx: int, size: int) -> int:
        """How many windows a chunk of ``size`` of these sequences has at most, in any order:
        what a ``Workspace`` for their chunk loops is sized for."""
        return min(size, self.lengths.size) * (_width(n_ctx, self.lengths) - n_ctx)

    def margins(self, score: np.ndarray, theta: float) -> np.ndarray:
        """Every packed token's unlearning margin ``max(score - theta, 0)``.

        ``score`` holds one entry per token, without the trailing PAD.  The
        margin is 0 on each sequence's first position and on the PAD, which no
        valid window predicts.
        """
        margin = np.where(score > theta, score - theta, 0.0)
        margin[self.starts] = 0.0
        return np.append(margin, 0.0)

    def batch(self, model: TinyLM, rows: np.ndarray, table: np.ndarray | None = None,
              margin: np.ndarray | None = None, base: np.ndarray | None = None) -> "PackedBatch":
        """The sequences ``rows`` as one batch, laid out once; slice it for sub-batches.

        ``table``, ``margin`` and ``base`` hold one row per entry of
        ``tokens``, and may hold more rows after those.  Without a table every
        cell reads its token's row of the embedding table.  The batch carries
        ``base``, which must be ``frozen_base`` of its own inputs, or None: the
        clean table over the embedding table, and over a table of (noised)
        inputs that table's own, never the clean one.
        """
        src, pos = self.cells(model.n_ctx, rows)
        ids = self.tokens[src]
        table, feed = (model.embed, ids) if table is None else (table, src)
        windows = np.arange(src.shape[1] - model.n_ctx)[:, None] + np.arange(model.n_ctx)
        return PackedBatch(self.sequences, rows, src, ids, self.lengths[rows], table, feed,
                           feed[:, windows], pos[:, model.n_ctx :] >= 1,
                           None if margin is None else margin[src[:, model.n_ctx :]], base)


def _width(n_ctx: int, lengths: np.ndarray) -> int:
    return n_ctx - 1 + max(int(lengths.max(initial=0)), 3)


@dataclass(eq=False, repr=False)
class PackedBatch:
    """A batch as one left-PAD-padded id matrix over a table of input vectors.

    Row b is sequence ``rows[b]``, laid out by ``PackedSequences.cells``: cell
    (b, c) is token ``ids[b, c]``, fed as row ``feed[b, c]`` of ``table``
    (``src`` into a per-token input table, or ``ids`` into the embedding table).
    Window t, ``ids[b, t : t + n_ctx]``, predicts ``ids[b, t + n_ctx]`` and
    reads rows ``wfeed[b, t] = feed[b, t : t + n_ctx]``, an index laid out
    once with the batch; ``valid`` marks the windows whose target is a
    position >= 1, ``margin`` (None without scores) holds each target's
    unlearning margin, and ``base``, read by ``src``, is ``frozen_base``
    of the batch's own inputs: the clean table over the embedding table, an
    epoch's noised table over its noised inputs (see ``PackedSequences.batch``).
    ``pb[i:j]`` is rows i..j-1 exactly as ``cells`` lays them out on their
    own; iterating yields the batch's sequences, looked up on demand.
    """

    sequences: Sequence    # every source sequence; the batch holds ``rows`` of them
    rows: np.ndarray       # (B,)
    src: np.ndarray        # (B, width)
    ids: np.ndarray        # (B, width)
    lengths: np.ndarray    # (B,)
    table: np.ndarray      # (N + 1 or more, or vocab, d_emb)
    feed: np.ndarray       # (B, width)
    wfeed: np.ndarray      # (B, width - n_ctx, n_ctx) table row of every window slot
    valid: np.ndarray      # (B, width - n_ctx)
    margin: np.ndarray | None = None   # (B, width - n_ctx)
    base: np.ndarray | None = None     # (N + 1 or more, d_hidden)

    def __iter__(self):
        return (self.sequences[i] for i in self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, part: slice) -> "PackedBatch":
        lengths = self.lengths[part]
        width = self.src.shape[1]
        # Dropping a column drops the window that starts there: one offset serves both.
        cells = (part, slice(width - _width(width - self.valid.shape[1], lengths), None))
        return PackedBatch(self.sequences, self.rows[part], self.src[cells], self.ids[cells],
                           lengths, self.table, self.feed[cells], self.wfeed[cells],
                           self.valid[cells], None if self.margin is None else self.margin[cells],
                           self.base)

    def chunks(self, size: int):
        """Consecutive slices of ``size`` rows, the last one possibly shorter."""
        return (self[i : i + size] for i in range(0, len(self), size))


class Workspace:
    """Working arrays that the chunks of a loop reuse (see the README).

    ``take(name, shape)`` returns a contiguous ``shape`` view of buffer
    ``name``, made on first use or for a larger request, and sized for
    ``windows`` windows, the loop's largest chunk, when ``shape`` is
    (B, T, ...) (see ``PackedSequences.windows``).  Without a window count
    each buffer fits its request, so a workspace made per call hands out
    arrays that the caller owns.
    """

    def __init__(self, windows: int = 0):
        self.windows = windows
        self.buffers: dict[str, np.ndarray] = {}
        # Each view made, by (name, shape): a batch-8 step takes eight, and making
        # one costs about as much as allocating the small array it replaces.
        self.views: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        view = self.views.get((name, shape))
        if view is None:
            n = math.prod(shape)
            buf = self.buffers.get(name)
            if buf is None or buf.size < n:
                buf = self.buffers[name] = np.empty(max(n, self.windows * math.prod(shape[2:])))
                self.views = {key: v for key, v in self.views.items() if key[0] != name}
            view = self.views[name, shape] = buf[:n].reshape(shape)
        return view


def pack(
    model: TinyLM,
    batch: Sequence,
    scores: Sequence[np.ndarray] | None = None,
    theta: float | None = None,
) -> PackedBatch:
    """A list of sequences (token lists or objects with ``.tokens``) as a packed batch.

    Every cell reads its token's embedding.  ``scores``, given with
    ``theta``, holds one array per sequence with one score per position,
    from which ``PackedSequences.margins`` sets the unlearning margins.  A
    ``PackedBatch`` is returned as it is: it carries its own inputs and
    margins.
    """
    if isinstance(batch, PackedBatch):
        if scores is not None:
            raise ValueError("a packed batch carries its own margins")
        return batch
    if not len(batch):
        raise ValueError("batch must be non-empty")
    seqs = PackedSequences.of(model, batch)
    if seqs.lengths.min() < 2:
        raise ValueError("every sequence needs at least 2 tokens to produce a loss")
    margin = None
    if scores is not None:
        for i, (s, n) in enumerate(zip(scores, seqs.lengths, strict=True)):
            if np.shape(s) != (n,):
                raise ValueError(f"scores of sequence {i} must have shape ({n},), "
                                 f"got {np.shape(s)}")
        margin = seqs.margins(np.concatenate(scores), theta)
    return seqs.batch(model, np.arange(len(seqs.lengths)), None, margin)


def _mlp(
    model: TinyLM, adapter: LoraAdapter | None, x: np.ndarray, base: np.ndarray | None = None,
    work: Workspace | None = None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Adapter projections u, hidden activations h and next-token distributions p of x (B, T, d_in).

    With an adapter the hidden layer is ``x @ W0.T + u @ B.T`` with
    ``u = x @ A.T`` (B, T, rank), which is returned for the backward pass;
    W0 + B @ A is never formed, and ``base``, when given, is ``x @ W0.T``
    computed beforehand (a fresh array, used in place).  Without an adapter
    ``u`` is None and the layer is ``x @ W_hidden.T``.  numpy multiplies a
    3-D ``x`` one (T, d_in) slice at a time, which keeps every BLAS call
    under OpenBLAS's multithreading cut-off; a flat (B*T, d_in) product
    crosses it and runs several times slower at these sizes.  Products are
    written into ``work``'s buffers (fresh ones without it), and bias, tanh
    and softmax work in place, so no other batch-sized temporaries exist.
    """
    work = work or Workspace()
    rows = x.shape[:-1]
    h = base
    if h is None:
        h = np.matmul(x, model.w_hidden.T, out=work.take("h", (*rows, model.d_hidden)))
    u = None
    if adapter is not None:
        u = np.matmul(x, adapter.a.T, out=work.take("u", (*rows, adapter.rank)))
        h += np.matmul(u, adapter.b.T, out=work.take("p", h.shape))  # p is not yet formed
    h += model.b_hidden
    np.tanh(h, out=h)
    p = np.matmul(h, model.w_out.T, out=work.take("p", (*rows, model.vocab)))
    p += model.b_out
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return u, h, p


def _sum_slice_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over sequences of ``a[s].T @ b[s]``, one BLAS call per sequence slice."""
    out = a[0].T @ b[0]
    for a_s, b_s in zip(a[1:], b[1:]):
        out += a_s.T @ b_s
    return out


def label_probs(model: TinyLM, adapter: LoraAdapter | None, batch: Sequence) -> np.ndarray:
    """(B, vocab) distributions for each sequence's last token.

    Only the window before the last token of each sequence is gathered and
    run; ``batch`` is as in ``forward_batch``.
    """
    pb = pack(model, batch)
    x = pb.table[pb.feed[:, -model.n_ctx - 1 : -1]].reshape(len(pb), 1, model.d_in)
    return _mlp(model, adapter, x)[2][:, 0]


def forward(model: TinyLM, adapter: LoraAdapter | None, context: Sequence[int]) -> np.ndarray:
    """Predictive distribution over the vocabulary given a context.

    The context holds 1 to ``n_ctx`` tokens and is left-padded with PAD.
    """
    ids = list(context)
    if not ids:
        raise ValueError("context must hold at least one token")
    if len(ids) > model.n_ctx:
        raise ValueError(f"context length {len(ids)} exceeds n_ctx={model.n_ctx}")
    return label_probs(model, adapter, [ids + [PAD_ID]])[0]


@dataclass(eq=False, repr=False)
class BatchForward:
    """One forward pass over every predicted position of a padded batch.

    Arrays are (B, T, ...) with T = width - n_ctx; window t of sequence b
    is a prediction iff ``valid[b, t]`` (its last ``lengths[b] - 1`` windows).
    ``p[target]`` is every window's probability of its target token.
    """

    lengths: np.ndarray    # (B,)
    x: np.ndarray          # (B, T, d_in) concatenated window inputs
    u: np.ndarray | None   # (B, T, rank) adapter projections x @ A.T; None without one
    h: np.ndarray          # (B, T, d_hidden)
    p: np.ndarray          # (B, T, vocab)
    losses: np.ndarray     # (B, T) -log p(target); meaningful where valid
    valid: np.ndarray      # (B, T)
    target: tuple[np.ndarray, np.ndarray, np.ndarray]   # (batch, window, token) index into p


def forward_batch(model: TinyLM, adapter: LoraAdapter | None, batch: Sequence,
                  work: Workspace | None = None) -> BatchForward:
    """Forward every predicted position of a batch through one window gather.

    ``batch`` is a ``PackedBatch``, whose ``table`` may hold noised inputs,
    or a list of sequences that ``pack`` lays out over the embedding table.
    A batch's ``base`` stands in for ``x @ W0.T``, whichever inputs the batch
    reads, but only when W0 is frozen.  Given ``work``, the result's x, u, h
    and p are views of its buffers, which the loop's next chunk overwrites.
    """
    work = work or Workspace()
    pb = pack(model, batch)
    x = _windows(model, pb, work)
    n_batch, n_windows = pb.valid.shape
    base = None
    if adapter is not None and pb.base is not None:
        base = pb.base.take(pb.src[:, model.n_ctx :], axis=0, mode="clip",
                            out=work.take("h", (n_batch, n_windows, model.d_hidden)))
    u, h, p = _mlp(model, adapter, x, base, work)
    target = (np.arange(n_batch)[:, None], np.arange(n_windows), pb.ids[:, model.n_ctx :])
    losses = -np.log(p[target])
    return BatchForward(pb.lengths, x, u, h, p, losses, pb.valid, target)


def _windows(model: TinyLM, pb: PackedBatch, work: Workspace | None = None) -> np.ndarray:
    """The (B, T, d_in) window inputs, gathered through the batch's window index."""
    out = (work or Workspace()).take("x", (*pb.wfeed.shape, model.d_emb))
    # The indices are in range; under the default mode="raise" np.take gathers
    # into a temporary and then copies it into ``out``.
    return pb.table.take(pb.wfeed, axis=0, mode="clip", out=out).reshape(
        *pb.valid.shape, model.d_in)


def frozen_base(model: TinyLM, layout: PackedBatch, batch_size: int,
                out: np.ndarray, work: Workspace | None = None) -> np.ndarray:
    """``x @ W0.T`` of the window that predicts each token of ``layout``, written into ``out``.

    ``out`` has one row per packed token (``tokens``' entries) and is
    returned.  ``layout`` is filled ``batch_size`` sequences at a time, in
    its order, with ``_mlp``'s 3-D product over its own table, so a pass over
    the same chunks reads the bits it would compute.  Over the epoch layout
    of a noised table those chunks are the steps themselves.  Regrouped rows
    keep them while every gemm stays on one side of the BLAS's size cut-off
    (see the README).  Rows that no valid window predicts (each sequence's
    first token, the trailing PAD) are left as they are in ``out``: only
    padding windows read them, and no bit of a loss or gradient depends on
    what a padding window computes.  The chunks share ``work``, or one
    workspace made for them.
    """
    work = work or Workspace()
    for pb in layout.chunks(batch_size):
        x = _windows(model, pb, work)
        h = np.matmul(x, model.w_hidden.T, out=work.take("h", (*x.shape[:-1], model.d_hidden)))
        out[pb.src[:, model.n_ctx :][pb.valid]] = h[pb.valid]
    return out


def token_losses(model: TinyLM, adapter: LoraAdapter | None, seq) -> tuple[np.ndarray, float]:
    """Per-token cross-entropy losses and their mean.

    Position i >= 2 contributes -log P(t_i | t_<i); the appended label token
    is included.
    """
    fb = forward_batch(model, adapter, [seq])
    losses = fb.losses[0, fb.valid[0]]
    return losses, float(losses.mean())


@dataclass(eq=False, repr=False)
class LossSpec:
    """How backward() assembles the training objective for a batch.

    The objective is

        J = L_task + reg_weight * ||delta - reg_reference||_F^2
                   + unlearn_sign * lambda_unlearn * L_unlearn

    where L_task is the mean over sequences of their mean token loss and
    L_unlearn is the thresholded, sensitivity-weighted token loss.  With the
    default ``unlearn_sign=-1`` the flagged tokens' gradient contribution is
    suppressed; +1 adds the term as a plain penalty instead.  ``scores``
    holds one array per listed batch sequence, one score per position (see
    ``pack``); leave it None for a ``PackedBatch``, which carries its own
    margins.
    """

    scores: Sequence[np.ndarray] | None = None
    theta: float = 0.6
    lambda_unlearn: float = 0.0
    unlearn_sign: float = -1.0
    reg_weight: float = 0.0          # lambda_dyn * omega_bar, premultiplied
    reg_reference: np.ndarray | None = None


@dataclass(eq=False, repr=False)
class GradientBundle:
    """Gradients congruent with the trainable parameters, plus loss parts.

    Adapter mode fills ``a``/``b`` and leaves base entries None; full-finetune
    mode (no adapter) fills the base entries instead.
    """

    embed: np.ndarray | None = None
    w_hidden: np.ndarray | None = None
    b_hidden: np.ndarray | None = None
    w_out: np.ndarray | None = None
    b_out: np.ndarray | None = None
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    l_task: float = 0.0
    l_reg: float = 0.0
    l_unlearn: float = 0.0
    objective: float = 0.0

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        pairs = ((name, getattr(self, name)) for name in (*PARAM_NAMES, "a", "b"))
        return [(name, arr) for name, arr in pairs if arr is not None]


def backward(
    model: TinyLM,
    adapter: LoraAdapter | None,
    batch: Sequence,
    loss_spec: LossSpec | None = None,
    work: Workspace | None = None,
) -> GradientBundle:
    """Exact gradients of the assembled objective over a batch.

    With an adapter attached only its factors receive gradients (W0 and the
    rest of the base stay frozen); without one, all base parameters do, the
    embedding table included, so the batch must read it: a ``PackedBatch``
    over a table of noised inputs trains an adapter only.  The forward pass
    and the batch-sized products work in ``work`` (see ``Workspace``); the
    returned gradients are fresh arrays.
    """
    spec = loss_spec or LossSpec()
    work = work or Workspace()
    pb = pack(model, batch, spec.scores, spec.theta)
    if adapter is None and pb.table is not model.embed:
        raise ValueError("full finetune trains the embedding table, so it takes clean inputs only")
    fb = forward_batch(model, adapter, pb, work)
    if not np.isfinite(fb.losses[fb.valid]).all():
        raise NumericError("non-finite token loss encountered")
    n_batch, n_windows = fb.valid.shape
    # Each sequence's positions share 1 / (B * n_pred); padding windows weigh 0.
    scale = (n_batch * (fb.lengths - 1))[:, None]
    losses = np.where(fb.valid, fb.losses, 0.0)
    l_task = float((losses.sum(axis=1) / (fb.lengths - 1)).sum() / n_batch)

    # Per-position objective weights: task term plus the unlearning term for
    # tokens whose frozen sensitivity score exceeds theta.  A batch without
    # margins has no unlearning term at all.
    weights = np.where(fb.valid, 1.0 / scale, 0.0)
    l_unlearn = 0.0
    if pb.margin is not None:
        l_unlearn = float(((pb.margin * losses).sum(axis=1) / scale[:, 0]).sum())
        if spec.lambda_unlearn != 0.0:
            weights = weights + spec.unlearn_sign * spec.lambda_unlearn * pb.margin / scale

    dU = fb.p
    dU[fb.target] -= 1.0
    dU *= weights[:, :, None]
    dZ = np.matmul(dU, model.w_out, out=work.take("dZ", fb.h.shape))
    base: dict[str, np.ndarray] = {}
    if adapter is None:
        base = dict(w_out=_sum_slice_products(dU, fb.h), b_out=dU.sum(axis=1).sum(axis=0))
    # tanh' = 1 - h * h, formed over h, which nothing reads again.
    tanh_grad = np.multiply(fb.h, fb.h, out=fb.h)
    dZ *= np.subtract(1.0, tanh_grad, out=tanh_grad)
    l_reg = 0.0
    d_a = d_b = None
    if adapter is None:
        # Scatter each window slot's input gradient to the embedding row it
        # was read from, in (sequence, position, slot) order.
        d_slots = (dZ @ model.w_hidden).reshape(n_batch, n_windows, model.n_ctx, model.d_emb)
        d_embed = np.zeros_like(model.embed)
        np.add.at(d_embed, pb.wfeed[fb.valid], d_slots[fb.valid])
        base.update(embed=d_embed, w_hidden=_sum_slice_products(dZ, fb.x),
                    b_hidden=dZ.sum(axis=1).sum(axis=0))
    else:
        # dJ/dA = B.T @ D and dJ/dB = D @ A.T with D = sum dZ.T @ x, taken as
        # rank-r products so D is never formed.  Each flat reduction stays
        # under OpenBLAS's threading cut-off at these sizes (rank x d_in x
        # B*T is 2.6e5 at batch 32), and one call beats one per sequence.
        g = dZ.reshape(-1, model.d_hidden)
        d_a = (g @ adapter.b).T @ fb.x.reshape(-1, model.d_in)
        d_b = g.T @ fb.u.reshape(-1, adapter.rank)
        if spec.reg_weight != 0.0 and spec.reg_reference is not None:
            # x and dZ are spent: the drift and its squares take their buffers.
            drift = lora_delta(adapter, work.take("x", model.w_hidden.shape))
            drift -= spec.reg_reference
            # The sum sculpt.reg_loss takes, not np.vdot: a BLAS dot this long
            # runs threaded, and its helper thread would then spin on the core
            # that prepares the next epoch (see trainer.RunWorker).
            squares = np.multiply(drift, drift, out=work.take("dZ", drift.shape))
            l_reg = float(spec.reg_weight * squares.sum())
            drift *= 2.0 * spec.reg_weight  # now the penalty's gradient in B @ A
            d_a += adapter.b.T @ drift
            d_b += drift @ adapter.a.T

    objective = l_task + l_reg + spec.unlearn_sign * spec.lambda_unlearn * l_unlearn
    if not np.isfinite(objective):
        raise NumericError("non-finite total loss")

    return GradientBundle(
        **base,
        a=d_a,
        b=d_b,
        l_task=float(l_task),
        l_reg=float(l_reg),
        l_unlearn=float(l_unlearn),
        objective=float(objective),
    )


def _trainable_pairs(
    model: TinyLM, adapter: LoraAdapter | None, grads: GradientBundle
) -> list[tuple[np.ndarray, np.ndarray]]:
    pairs = []
    if adapter is not None:
        if grads.a is not None:
            pairs.append((adapter.a, grads.a))
        if grads.b is not None:
            pairs.append((adapter.b, grads.b))
    else:
        for name, param in model.param_items():
            g = getattr(grads, name)
            if g is not None:
                pairs.append((param, g))
    for _, g in pairs:
        if not np.isfinite(g).all():
            raise NumericError("non-finite gradient")
    return pairs


def sgd_step(
    model: TinyLM, adapter: LoraAdapter | None, grads: GradientBundle, lr: float
) -> None:
    """In-place update p <- p - lr * g for every trainable parameter."""
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    for p, g in _trainable_pairs(model, adapter, grads):
        p -= lr * g


class AdamW:
    """Decoupled-weight-decay Adam; the optional optimizer mode.

    Pair with ``cosine_lr`` to reproduce a cosine-annealed schedule.
    """

    def __init__(
        self,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    def step(
        self,
        model: TinyLM,
        adapter: LoraAdapter | None,
        grads: GradientBundle,
        lr: float,
    ) -> None:
        pairs = _trainable_pairs(model, adapter, grads)
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for slot, (p, g) in enumerate(pairs):
            m = self._m.setdefault(slot, np.zeros_like(p))
            v = self._v.setdefault(slot, np.zeros_like(p))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            if self.weight_decay:
                p -= lr * self.weight_decay * p
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Cosine decay from base_lr to 0 over total_steps."""
    if total_steps <= 1:
        return base_lr
    frac = min(max(step / (total_steps - 1), 0.0), 1.0)
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * frac))


def save_checkpoint(path: str | Path, model: TinyLM, adapter: LoraAdapter | None = None) -> None:
    """Write a bit-exact checkpoint (.npz with a JSON metadata entry)."""
    meta = {name: getattr(model, name) for name in _SCALAR_NAMES}
    meta["task_id"] = adapter.task_id if adapter is not None else None
    meta["rank"] = adapter.rank if adapter is not None else None
    arrays = dict(model.param_items())
    if adapter is not None:
        arrays["adapter_a"] = adapter.a
        arrays["adapter_b"] = adapter.b
    # Write through a file object so the exact path is kept (np.savez would
    # append .npz to a bare path).
    with Path(path).open("wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_checkpoint(path: str | Path) -> tuple[TinyLM, LoraAdapter | None]:
    """Read a checkpoint written by ``save_checkpoint``."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        model = TinyLM(**{name: meta[name] for name in _SCALAR_NAMES},
                       **{name: data[name].copy() for name in PARAM_NAMES})
        adapter = None
        if meta["rank"] is not None:
            adapter = LoraAdapter(
                a=data["adapter_a"].copy(),
                b=data["adapter_b"].copy(),
                rank=meta["rank"],
                task_id=meta["task_id"],
            )
    return model, adapter
