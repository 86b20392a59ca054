"""Token-level privacy budgets, the clipped Gaussian mechanism, and accounting.

A fused sensitivity score in [0, 1) maps to a per-token budget

    epsilon_i = eps_lower + (eps_upper - eps_lower) * (1 - score)^2,

so higher sensitivity means a smaller budget and more noise.  The mechanism
clips an embedding to L2 norm C and adds N(0, sigma_i^2 I) with

    sigma_i = k * C * sqrt(2 * ln(1.25 / delta)) / epsilon_i,

where the numerator factor k is 1 under the ``main_text`` variant and 2 under
the ``appendix`` variant (the default: with both inputs clipped to norm C the
mechanism's L2 sensitivity is 2C, and only the 2C calibration is covered by
the Gaussian-mechanism guarantee).  Every noised exposure is recorded in a
ledger; the sequence-level cost is composed as

    eps_total = sum_i eps_i + sqrt(2 L ln(1 / delta')) * max_i eps_i,
    delta_total = delta + delta',

applied exactly as stated even though it does not match the standard
advanced-composition bound term for term.
"""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, NumericError, reading, shown
from .sensitivity import ProfileEntry, SensitivityProfile

VARIANTS = ("main_text", "appendix")


@dataclass(frozen=True)
class PrivacyConfig:
    eps_lower: float = 1.0
    eps_upper: float = 10.0
    delta: float = 1e-6
    clip_norm: float = 1.0
    sensitivity_variant: str = "appendix"
    noise_seed: int = 0

    def __post_init__(self) -> None:
        if not (self.eps_lower > 0 and self.eps_upper > 0):
            raise ValueError("epsilon bounds must be positive")
        if self.eps_lower > self.eps_upper:
            raise ValueError(
                f"eps_lower ({self.eps_lower}) must not exceed eps_upper ({self.eps_upper})"
            )
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.sensitivity_variant not in VARIANTS:
            raise ValueError(f"sensitivity_variant must be one of {VARIANTS}, "
                             f"got {shown(self.sensitivity_variant)}")


def allocate_budget(score, config: PrivacyConfig):
    """Map sensitivity scores in [0, 1] to budgets in [eps_lower, eps_upper]."""
    s = np.asarray(score, dtype=float)
    if (s < 0).any() or (s > 1).any():
        raise ValueError("score must lie in [0, 1]")
    # float_power rounds a 0-d and an n-d input alike; ``** 2`` does not.
    eps = config.eps_lower + (config.eps_upper - config.eps_lower) * np.float_power(1.0 - s, 2.0)
    return float(eps) if eps.ndim == 0 else eps


def clip(e: np.ndarray, c: float) -> np.ndarray:
    """Project vectors onto the L2 ball of radius ``c``.

    Accepts a single vector or a 2-D array of row vectors.  Idempotent, and
    any two outputs are at most 2c apart.
    """
    if c <= 0:
        raise ValueError(f"clip norm must be positive, got {c}")
    e = np.asarray(e, dtype=float)
    if not np.isfinite(e).all():
        raise NumericError("cannot clip a non-finite vector")
    # Row-wise dot products: the same BLAS dot as np.linalg.norm of a single
    # vector, so clipping a batch of rows matches clipping each row alone.
    norms = np.sqrt(np.matmul(e[..., None, :], e[..., :, None])[..., 0])
    return e * (c / np.maximum(norms, c))


def noise_sigma(epsilon, delta: float, c: float, variant: str = "appendix"):
    """Gaussian noise scale for an (epsilon, delta) budget with clip norm c."""
    eps = np.asarray(epsilon, dtype=float)
    if (eps <= 0).any():
        raise ValueError("epsilon must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if c <= 0:
        raise ValueError(f"clip norm must be positive, got {c}")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    factor = 2.0 if variant == "appendix" else 1.0
    sigma = factor * c * math.sqrt(2.0 * math.log(1.25 / delta)) / eps
    return float(sigma) if sigma.ndim == 0 else sigma


def assign_budgets(profile: SensitivityProfile, config: PrivacyConfig) -> SensitivityProfile:
    """Fill epsilon/sigma for every position with score > 0 (in place)."""
    hit = profile.score > 0.0
    eps = allocate_budget(profile.score[hit], config)
    profile.epsilon[hit] = eps
    profile.sigma[hit] = noise_sigma(eps, config.delta, config.clip_norm,
                                     config.sensitivity_variant)
    return profile


# ledger.csv's columns, in file order, with each one's dtype in memory.
_LEDGER_DTYPES = {"sequence_id": object, "position": np.int64, "epoch": np.int64,
                  "epsilon": float, "sigma": float}
LEDGER_COLUMNS = tuple(_LEDGER_DTYPES)
_INT64_MAX = int(np.iinfo(np.int64).max)

RecordTable = namedtuple("RecordTable", [name for name in LEDGER_COLUMNS if name != "epoch"])
RecordTable.__doc__ = """Ledger records as aligned columns: every ledger column but the
epoch, what all exposures of one noised token share."""


class _Refused(ValueError):
    """A value ``from_csv`` refuses in a ledger column; ``row`` is the first row holding one."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def _column(name: str, value) -> np.ndarray:
    """``value`` as ledger column ``name``; a value ``from_csv`` refuses is a ``_Refused``."""
    integral = name in ("position", "epoch")
    col = np.asarray(value, dtype=None if integral else _LEDGER_DTYPES[name])
    if name == "sequence_id":
        return col
    if integral:  # whole numbers that int64 holds
        floats = col.dtype.kind == "f"
        fits = (col < 2.0**63) & (col == np.trunc(col)) if floats else col <= _INT64_MAX
        rule, ok = "non-negative integers", fits & (col >= 0)
    else:
        rule, ok = "finite, positive values", (col > 0) & (col < math.inf)
    if not np.all(ok):
        row = int(np.argmin(ok))
        raise _Refused(f"ledger column {name} must hold {rule}; row {row} holds "
                       f"{shown(np.ravel(col).tolist()[row])}", row)
    return col.astype(_LEDGER_DTYPES[name], copy=False)


def _aligned(names: Sequence[str], values: Sequence) -> list[np.ndarray]:
    """``values`` as the ledger columns ``names``, one 1-D array each, of one length.

    The length is that of the array-like values; a scalar fills its column.
    A column of another length, no array-like value at all, or a value
    ``from_csv`` would refuse is a ValueError naming the column.
    """
    cols = [_column(name, value) for name, value in zip(names, values)]
    sized = [(name, col) for name, col in zip(names, cols) if col.ndim]
    if not sized:
        raise ValueError(f"ledger columns {', '.join(names)} are all scalars: "
                         "at least one must be array-like, to give the row count")
    first, n = sized[0][0], len(sized[0][1])
    for name, col in sized:
        if col.shape != (n,):
            raise ValueError(f"ledger column {name} has shape {col.shape}, "
                             f"but column {first} has {n} rows")
    return [col if col.ndim else np.full(n, col) for col in cols]


def record_table(sequence_ids, positions, epsilons, sigmas) -> RecordTable:
    """Records given column by column; a scalar fills its column."""
    return RecordTable(*_aligned(RecordTable._fields, (sequence_ids, positions, epsilons, sigmas)))


def _csv_field(value: str) -> str:
    """``value`` quoted as ``csv.writer`` writes it inside a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _record_text(table: RecordTable) -> tuple[np.ndarray, np.ndarray]:
    """Each record's ledger.csv row text before its epoch and after it."""
    ids = table.sequence_id.tolist()
    quoted = {seq: _csv_field(seq) for seq in set(ids)}
    before = [f"{quoted[seq]},{pos}," for seq, pos in zip(ids, table.position.tolist())]
    after = [f",{eps!r},{sig!r}\r\n"
             for eps, sig in zip(table.epsilon.tolist(), table.sigma.tolist())]
    return np.array(before, dtype=object), np.array(after, dtype=object)


class PrivacyLedger:
    """Every noised token exposure under one ``delta``, kept as references into record tables.

    ``delta`` is the mechanism's failure probability, one for every exposure;
    a value outside (0, 1) is a ValueError.  A chunk is a ``RecordTable``, the
    index of each exposure's record in it, and the epoch of every exposure
    (one, or one each).  The trainer builds one table per task and appends
    each epoch's exposures as one chunk over it, since a token's budget is
    frozen for the task; ``extend`` appends exposures that are each their
    own record.
    """

    def __init__(self, delta: float):
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta!r}")
        self.delta = delta
        self._chunks: list[tuple[RecordTable, np.ndarray, np.ndarray]] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, table: RecordTable, index, epoch) -> None:
        """Append one exposure of record ``table[i]`` for every ``i`` of ``index``, in
        order, at ``epoch`` (one for all, or one per exposure)."""
        index = np.asarray(index, dtype=np.intp)
        epoch = np.asarray(epoch, dtype=np.int64)
        if index.ndim != 1 or epoch.shape not in ((), index.shape):
            raise ValueError(f"a ledger chunk needs a 1-D index and one epoch or one per "
                             f"exposure, got shapes {index.shape} and {epoch.shape}")
        if index.size and not 0 <= index.min() <= index.max() < len(table.epsilon):
            raise ValueError(f"ledger index outside the record table's {len(table.epsilon)} rows")
        self._chunks.append((table, index, epoch))
        self._size += index.size

    def extend(self, sequence_ids, positions, epochs, epsilons, sigmas) -> None:
        """Append exposures given column by column; a scalar fills its column."""
        ids, pos, epoch, eps, sig = _aligned(
            LEDGER_COLUMNS, (sequence_ids, positions, epochs, epsilons, sigmas))
        self.add(RecordTable(ids, pos, eps, sig), np.arange(epoch.size), epoch)

    def columns(self) -> dict[str, np.ndarray]:
        """Each column as one array, in exposure order, gathered from the record tables."""
        parts = {name: [np.zeros(0, dtype=dtype)] for name, dtype in _LEDGER_DTYPES.items()}
        for table, index, epoch in self._chunks:
            for name, col in zip(RecordTable._fields, table):
                parts[name].append(col[index])
            parts["epoch"].append(np.broadcast_to(epoch, index.shape))
        return {name: np.concatenate(part) for name, part in parts.items()}

    def to_csv(self, path: str | Path) -> None:
        """Write the same bytes as ``csv.writer`` rows with each float as its ``repr``.

        A row is its record's text around its epoch: the quoted sequence id
        and the position before it, epsilon and sigma after it.  A record
        table's text is made once per run of consecutive chunks over it.
        """
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(LEDGER_COLUMNS) + "\r\n")
            for _, run in groupby(self._chunks, key=lambda chunk: id(chunk[0])):
                run = list(run)
                before, after = _record_text(run[0][0])
                for _, index, epoch in run:
                    epoch_text = epoch.astype(str).astype(object)
                    fh.write("".join((before[index] + epoch_text + after[index]).tolist()))

    @classmethod
    def from_csv(cls, path: str | Path, delta: float) -> "PrivacyLedger":
        """Read a ledger written by ``to_csv`` as a ledger under ``delta``.

        A ``delta`` outside (0, 1) is a DataError.  So is a row that does not
        parse, or a value ``extend`` refuses, naming the file and the line
        the bad record ends on.
        """
        try:
            ledger = cls(delta)
        except ValueError as exc:
            raise DataError(str(exc)) from None
        p = Path(path)
        if not p.exists():
            raise DataError(f"ledger file not found: {p}")
        rows: list[tuple] = []  # each record's file line, then its cells
        with reading(p), p.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            try:
                if reader.fieldnames is None or set(reader.fieldnames) != set(LEDGER_COLUMNS):
                    raise DataError(f"{p}: ledger header must be {sorted(LEDGER_COLUMNS)}")
                for row in reader:
                    try:
                        rows.append((reader.line_num, row["sequence_id"], int(row["position"]),
                                     int(row["epoch"]), float(row["epsilon"]),
                                     float(row["sigma"])))
                    except (TypeError, ValueError) as exc:
                        raise DataError(
                            f"{p}:{reader.line_num}: malformed ledger row: {exc}") from exc
            except csv.Error as exc:
                raise DataError(f"{p}:{reader.line_num}: malformed ledger row: {exc}") from exc
        if rows:
            lines, *columns = zip(*rows)
            try:
                ledger.extend(*columns)
            except _Refused as exc:
                raise DataError(f"{p}:{lines[exc.row]}: {exc}") from None
        return ledger


def perturb_embeddings(
    e: np.ndarray, sigma: np.ndarray, clip_norm: float, rng: np.random.Generator
) -> np.ndarray:
    """Apply the clipped Gaussian mechanism to k exposures at once.

    Every row of ``e`` is an exposure: row i is clipped to ``clip_norm`` and
    gets independent N(0, sigma[i]^2) noise per coordinate.  All noise comes
    from one standard-normal draw scaled by sigma, which gives the same
    numbers, and leaves ``rng`` in the same state, as one
    ``rng.normal(0, sigma_i, size=d)`` call per row in order.  The caller
    decides which tokens are exposures and records them.
    """
    e = np.asarray(e, dtype=float)
    out = clip(e, clip_norm)
    noise = rng.standard_normal(e.shape)
    noise *= sigma[:, None]
    out += noise  # in place: the epoch's whole exposure matrix, so one copy fewer matters
    return out


def perturb_embedding(
    e: np.ndarray, entry: ProfileEntry, config: PrivacyConfig, rng: np.random.Generator
) -> np.ndarray:
    """Apply the clipped Gaussian mechanism to one embedding exposure.

    A token whose score is not > 0 is no exposure: ``e`` itself is returned.
    Otherwise this is the one-row case of ``perturb_embeddings``.
    """
    if not entry.score > 0.0:
        return e
    if not (math.isfinite(entry.epsilon) and math.isfinite(entry.sigma)):
        raise ValueError("a token with positive score has no epsilon/sigma assigned")
    return perturb_embeddings(np.asarray(e, dtype=float)[None], np.array([entry.sigma]),
                              config.clip_norm, rng)[0]


def compose_sequence(ledger: PrivacyLedger, delta_prime: float) -> tuple[float, float]:
    """Sequence-level budget over all recorded exposures.

    Uses the stated composition form verbatim:
    eps_total = sum eps_i + sqrt(2 L ln(1/delta')) * max eps_i, and
    delta_total = delta + delta', with the ledger's delta.
    """
    if not len(ledger):
        raise DataError("cannot compose an empty ledger")
    if not 0.0 < delta_prime < 1.0:
        raise ValueError(f"delta_prime must be in (0, 1), got {delta_prime}")
    eps = ledger.columns()["epsilon"]
    length = len(eps)
    with np.errstate(over="ignore"):
        eps_total = float(eps.sum()
                          + math.sqrt(2.0 * length * math.log(1.0 / delta_prime)) * eps.max())
    if not math.isfinite(eps_total):
        raise NumericError(f"epsilon_total overflows a float ({length} records, "
                           f"largest epsilon {float(eps.max())!r})")
    return eps_total, ledger.delta + delta_prime
