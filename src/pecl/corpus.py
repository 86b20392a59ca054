"""Multi-task text ingestion, tokenization, and cross-task frequency statistics.

The corpus file format is UTF-8 JSON lines: one flat object per line with keys
``task_id`` (integer), ``text`` (string), ``label`` (string) and an optional
``split`` ("train", the default, or "eval").  The tokenizer is a lowercase
word/punctuation splitter over a corpus-built vocabulary capped at 2048 types;
out-of-vocabulary words map to a reserved UNK id.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import DataError, load_json, reading, shown

PAD_ID = 0
UNK_ID = 1
PAD_SURFACE = "<pad>"
UNK_SURFACE = "<unk>"
DEFAULT_VOCAB_CAP = 2048

# Runs of alphanumerics are words; any other non-space character is its own token.
_WORD_RE = re.compile(r"[a-z0-9']+|[^a-z0-9'\s]")


def split_words(text: str) -> list[str]:
    """Lowercase ``text`` and split it into word and punctuation surfaces."""
    return _WORD_RE.findall(text.lower())


@dataclass
class TokenizedSequence:
    """An input text plus its appended class-label token.

    ``tokens`` holds vocabulary ids; the label token is always the last
    element and is repeated in ``label_token`` for direct access.
    """

    tokens: list[int]
    task_id: int
    label_token: int

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("sequence must contain at least one token")
        if self.tokens[-1] != self.label_token:
            raise ValueError("label token must be the last element of the sequence")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class TaskCorpus:
    """Train/eval sequences for one task, sharing a vocabulary."""

    task_id: int
    train: list[TokenizedSequence]
    eval: list[TokenizedSequence]
    label_set: set[int]
    vocab: "Vocabulary | None" = None

    def __post_init__(self) -> None:
        for seq in self.train + self.eval:
            if seq.task_id != self.task_id:
                raise ValueError(
                    f"sequence task_id {seq.task_id} does not match corpus task {self.task_id}"
                )


class Vocabulary:
    """Fixed token inventory with reserved PAD (0) and UNK (1) ids."""

    def __init__(self, types: list[str]):
        self._surfaces = [PAD_SURFACE, UNK_SURFACE] + list(types)
        self._ids = {s: i for i, s in enumerate(self._surfaces)}
        if len(self._ids) != len(self._surfaces):
            raise ValueError("duplicate surfaces in vocabulary")

    def __len__(self) -> int:
        return len(self._surfaces)

    def id_of(self, surface: str) -> int:
        return self._ids.get(surface, UNK_ID)

    def surface_of(self, token_id: int) -> str:
        return self._surfaces[token_id]

    def encode(self, text: str) -> list[int]:
        """Ids of ``split_words(text)``: lowercased, punctuation-separated, OOV -> UNK."""
        return [self._ids.get(w, UNK_ID) for w in split_words(text)]

    def ids_of(self, surfaces) -> frozenset[int]:
        """Ids of the given surfaces that are actually in the vocabulary."""
        return frozenset(self._ids[s] for s in surfaces if s in self._ids)


def build_vocab(
    texts: list[str],
    labels: list[str],
    cap: int = DEFAULT_VOCAB_CAP,
) -> Vocabulary:
    """Build a corpus vocabulary of at most ``cap`` content types plus PAD/UNK.

    Label surfaces are force-included so every class stays addressable; the
    remaining budget goes to the most frequent surfaces (count desc, then
    lexicographic for determinism).  Labels are taken as single pre-normalized
    surfaces (see ``label_surface``), not re-split.
    """
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(split_words(text))
    label_types: list[str] = []
    seen = set()
    for lab in labels:
        if lab not in seen:
            seen.add(lab)
            label_types.append(lab)
    budget = max(cap - len(label_types), 0)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    content = [w for w, _ in ranked if w not in seen][:budget]
    return Vocabulary(label_types + content)


def label_surface(label: str) -> str:
    """Collapse a label string to a single vocabulary surface."""
    words = split_words(label)
    if not words:
        raise DataError(f"label {shown(label)} contains no tokenizable characters")
    return "_".join(words) if len(words) > 1 else words[0]


def load_corpus(path: str | Path) -> list[TaskCorpus]:
    """Load a line-delimited corpus file into one TaskCorpus per task id.

    Raises DataError on a missing file, a malformed record (with its line
    number), a missing or non-integer ``task_id``, or an empty file.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"corpus file not found: {path}")

    records: list[tuple[int, str, str, str]] = []
    with reading(path), path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            obj = load_json(line, f"{path}:{lineno}: malformed record")
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: record must be an object")
            if "task_id" not in obj:
                raise DataError(f"{path}:{lineno}: missing task_id field")
            task_id = obj["task_id"]
            if isinstance(task_id, bool) or not isinstance(task_id, int):
                raise DataError(
                    f"{path}:{lineno}: task_id must be an integer, got {shown(task_id)}")
            text = obj.get("text")
            label = obj.get("label")
            if not isinstance(text, str) or not isinstance(label, str):
                raise DataError(f"{path}:{lineno}: text and label must be strings")
            try:
                label = label_surface(label)
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            split = obj.get("split", "train")
            if split not in ("train", "eval"):
                raise DataError(
                    f"{path}:{lineno}: split must be 'train' or 'eval', got {shown(split)}")
            records.append((task_id, text, label, split))
    if not records:
        raise DataError(f"{path}: no records")
    return corpora_from_records(records, [lab for _, _, lab, _ in records])


def corpora_from_records(records: list[tuple[int, str, str, str]],
                         labels: list[str]) -> list[TaskCorpus]:
    """One TaskCorpus per task id, ascending, from ``(task_id, text, label, split)``
    records sharing one vocabulary.

    ``labels`` are label surfaces whose order of first appearance fixes the
    label ids (see ``build_vocab``); ``split`` is "train" or "eval".
    """
    vocab = build_vocab([text for _, text, _, _ in records], labels)
    by_task: dict[int, TaskCorpus] = {}
    for task_id, text, label, split in records:
        lab_id = vocab.id_of(label)
        task = by_task.setdefault(task_id, TaskCorpus(task_id, [], [], set(), vocab))
        getattr(task, split).append(
            TokenizedSequence(tokens=vocab.encode(text) + [lab_id], task_id=task_id,
                              label_token=lab_id))
        task.label_set.add(lab_id)
    return [by_task[task_id] for task_id in sorted(by_task)]


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Read a one-word-per-line stopword list; default is the bundled set."""
    if path is None:
        data = resources.files("pecl.data").joinpath("stopwords.txt").read_text("utf-8")
    else:
        p = Path(path)
        if not p.exists():
            raise DataError(f"stopword file not found: {p}")
        with reading(p):
            data = p.read_text("utf-8")
    return frozenset(w.strip().lower() for w in data.splitlines() if w.strip())


@dataclass
class CorpusStats:
    """Per-task token frequencies and the cross-task support count.

    For task n, ``salience(n, t) = f_n(t) / f_n_max`` lies in [0, 1]; the
    support ``d(t)`` counts tasks where that salience reaches ``tau``.
    """

    tau: float
    num_tasks_observed: int
    freq: dict[int, Counter] = field(default_factory=dict)
    freq_max: dict[int, int] = field(default_factory=dict)
    support: dict[int, int] = field(default_factory=dict)

    def salience(self, task_id: int, token_id: int) -> float:
        counts = self.freq.get(task_id)
        if not counts:
            return 0.0
        return counts.get(token_id, 0) / self.freq_max[task_id]

    def support_of(self, token_id: int) -> int:
        return self.support.get(token_id, 0)

    @property
    def task_ids(self) -> list[int]:
        return sorted(self.freq)


def compute_corpus_stats(corpora: list[TaskCorpus], tau: float) -> CorpusStats:
    """Count token frequencies per task (training split, labels included).

    ``tau`` must lie in (0, 1); every task must contribute at least one token.
    """
    if not corpora:
        raise DataError("cannot compute stats over an empty corpus list")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")

    freq: dict[int, Counter] = {}
    freq_max: dict[int, int] = {}
    for task in corpora:
        counts: Counter[int] = Counter()
        for seq in task.train:
            counts.update(seq.tokens)
        if not counts:
            raise DataError(f"task {task.task_id} has zero tokens")
        freq[task.task_id] = counts
        freq_max[task.task_id] = max(counts.values())

    support: dict[int, int] = {}
    for task_id, counts in freq.items():
        fmax = freq_max[task_id]
        for token_id, c in counts.items():
            if c / fmax >= tau:
                support[token_id] = support.get(token_id, 0) + 1

    return CorpusStats(
        tau=tau,
        num_tasks_observed=len(corpora),
        freq=freq,
        freq_max=freq_max,
        support=support,
    )
