"""Outside-in layer trace for one benchmark sample.

The tracer swaps the module attributes that ``run_continual`` resolves at call
time for timing wrappers, records one span per call (name, start, end,
parent) in memory, and puts the originals back afterwards.  Nothing under
``src/`` is edited, so the trace keeps working across refactors: a target that
a later change deletes or renames is reported as an absent layer instead of
breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import math
from contextlib import contextmanager
from time import perf_counter


def _batch_positions(args, kwargs) -> int:
    batch = kwargs["batch"] if "batch" in kwargs else args[2]
    return sum(len(seq.tokens) - 1 for seq in batch)


# (module, attribute path, layer name, optional per-call work counter)
TARGETS = (
    ("pecl.trainer", "backward", "tinylm.backward", _batch_positions),
    ("pecl.trainer", "sgd_step", "tinylm.step", None),
    ("pecl.trainer", "AdamW.step", "tinylm.step", None),
    ("pecl.trainer", "forward", "tinylm.forward", None),
    ("pecl.trainer", "evaluate", "trainer.evaluate", None),
    ("pecl.trainer", "build_profile", "sensitivity.build_profile", None),
    ("pecl.trainer", "assign_budgets", "privacy.assign_budgets", None),
    ("pecl.trainer", "perturb_embedding", "privacy.perturb_embedding", None),
    ("pecl.trainer", "token_losses", "tinylm.token_losses", None),
    ("pecl.sensitivity", "token_losses", "tinylm.token_losses", None),
    ("pecl.trainer", "compute_corpus_stats", "corpus.compute_corpus_stats", None),
    ("pecl.trainer", "task_importance", "sculpt.task_importance", None),
    ("pecl.trainer", "unlearn_loss", "sculpt.unlearn_loss", None),
    ("pecl.privacy", "PrivacyLedger.to_csv", "privacy.ledger_to_csv", None),
    ("workloads", "synthetic_stream", "synthetic.stream", None),
)

# Spans the benchmark opens itself around its calls into the library.
RUN, RUN_CONTINUAL, WRITE_BUNDLE = "run", "trainer.run_continual", "artifacts.write_run_bundle"

LAYERS = (
    "tinylm.backward", "tinylm.step", "tinylm.forward", "tinylm.token_losses",
    "sensitivity.build_profile", "privacy.assign_budgets", "privacy.perturb_embedding",
    "privacy.ledger_to_csv", "trainer.evaluate", "corpus.compute_corpus_stats",
    "sculpt.task_importance", "sculpt.unlearn_loss", "synthetic.stream", WRITE_BUNDLE,
)
# Layers whose calls are timed one by one and reported as percentiles too.
PERCENTILE_LAYERS = ("tinylm.backward", "privacy.perturb_embedding")
# Training calls that end a task's epochs; the wrap-up pass starts after the last.
TRAIN_LAYERS = ("tinylm.step", "tinylm.backward")


class Tracer:
    """Collect spans for wrapped attributes and benchmark-side blocks."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int | None] = {}
        self.absent: list[str] = []  # targets that could not be resolved
        self.present: set[str] = set()  # layers with at least one wrapped target
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, path, layer, count in self.targets:
            owner, attr = self._resolve(module_name, path)
            if owner is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            original = vars(owner)[attr]
            self.present.add(layer)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, count))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @staticmethod
    def _resolve(module_name: str, path: str):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None, None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        if attr not in vars(owner) or not callable(vars(owner)[attr]):
            return None, None
        return owner, attr

    def _wrap(self, fn, layer: str, count):
        spans, stack, clock = self.spans, self._stack, perf_counter
        if count is not None:
            self.counts.setdefault(layer, 0)

        def traced(*args, **kwargs):
            if count is not None and self.counts[layer] is not None:
                try:
                    self.counts[layer] += count(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.counts[layer] = None  # the signature changed: count is absent
            span = [layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _wrapup_self(spans, root: int) -> float | None:
    """Self time of the per-task wrap-up passes under ``root``.

    A wrap-up runs from a task's last training call to its first evaluate.
    Its self time is that interval minus the child spans inside it.
    None when no training call was traced.
    """
    children = [s for s in spans if s[3] == root]
    total, last_train = 0.0, None
    seen_train = False
    for pos, (name, start, end, _) in enumerate(children):
        if name in TRAIN_LAYERS:
            last_train, seen_train = pos, True
        elif name == "trainer.evaluate" and last_train is not None:
            inside = sum(e - s for _, s, e, _ in children[last_train + 1 : pos])
            total += start - children[last_train][2] - inside
            last_train = None
    return total if seen_train else None


def layer_metrics(tracer: Tracer) -> dict[str, float | int | None]:
    """Per-layer counts and self times of one traced sample; None = absent layer."""
    spans = tracer.spans
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for (name, start, end, _), t in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        if name in PERCENTILE_LAYERS:
            durations.setdefault(name, []).append(end - start)

    wrapped = {layer for _, _, layer, _ in tracer.targets}
    out: dict[str, float | int | None] = {}
    for layer in LAYERS:
        present = layer in calls or layer not in wrapped or layer in tracer.present
        out[f"{layer}.calls"] = calls.get(layer, 0) if present else None
        out[f"{layer}.s"] = self_s.get(layer, 0.0) if present else None
    for layer in PERCENTILE_LAYERS:
        d = sorted(durations.get(layer, []))
        out[f"{layer}.p50_us"] = percentile(d, 0.50) * 1e6 if d else None
        out[f"{layer}.p99_us"] = percentile(d, 0.99) * 1e6 if d else None
    out["tinylm.backward.positions"] = tracer.counts.get("tinylm.backward")

    roots = [i for i, s in enumerate(spans) if s[0] == RUN_CONTINUAL]
    wrapup = [_wrapup_self(spans, r) for r in roots]
    wrapup_s = None if not wrapup or None in wrapup else sum(wrapup)
    out["trainer.wrapup.s"] = wrapup_s
    out["trainer.self.s"] = sum(own[r] for r in roots) - (wrapup_s or 0.0)
    out["sculpt.s"] = _sum_present(out, "sculpt.task_importance.s", "sculpt.unlearn_loss.s")
    out["privacy.s"] = _sum_present(out, "privacy.assign_budgets.s",
                                    "privacy.perturb_embedding.s", "privacy.ledger_to_csv.s")
    out["run.s"] = sum(end - start for name, start, end, _ in spans if name == RUN)
    return out


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _sum_present(metrics: dict, *names: str) -> float | None:
    values = [metrics[n] for n in names if metrics[n] is not None]
    return sum(values) if values else None
