"""Results-bundle files: writers, readers, and schema self-checks.

A run directory holds matrix.csv (one row per completed task), metrics.json,
ledger.csv, sculpt_report.csv, model.ckpt and run_config.json.  Floats are
written with repr() so identical runs produce byte-identical files and a
read-back reproduces the exact doubles.
"""

from __future__ import annotations

import csv
import json
import zipfile
from dataclasses import asdict, astuple, fields
from pathlib import Path

from .config import config_to_dict, parse_config
from .errors import DataError, load_json, reading
from .privacy import LEDGER_COLUMNS
from .tinylm import load_checkpoint, save_checkpoint
from .trainer import AccuracyMatrix, RunConfig, RunResult, TaskReport, metrics_summary

# audit.csv: one row per training token; epsilon/sigma are empty at score 0.
AUDIT_COLUMNS = ("position", "surface", "score1", "score2", "score", "epsilon", "sigma", "stopword")
_SCULPT_COLUMNS = [f.name for f in fields(TaskReport)]


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    return "" if value is None or value != value else repr(value)  # NaN != NaN


def write_csv(path: str | Path, columns, rows) -> None:
    """A report CSV through ``csv.writer``: a string cell as it is, a number as
    its ``repr``, and an empty cell for None or NaN."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(map(_cell, row) for row in rows)


def write_matrix_csv(path: str | Path, matrix: AccuracyMatrix) -> None:
    lines = [",".join(repr(v) for v in row) for row in matrix.rows()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_matrix_csv(path: str | Path) -> AccuracyMatrix:
    p = Path(path)
    if not p.exists():
        raise DataError(f"matrix file not found: {p}")
    with reading(p):
        text = p.read_text("utf-8")
    rows: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError as exc:
            raise DataError(f"{p}:{lineno}: malformed matrix row: {exc}") from exc
    if not rows:
        raise DataError(f"{p}: empty matrix")
    try:
        return AccuracyMatrix.from_rows(rows)
    except (DataError, ValueError) as exc:
        raise DataError(f"{p}: {exc}") from exc


def write_metrics_json(path: str | Path, matrix: AccuracyMatrix, reports: list[TaskReport]) -> dict:
    """Write metrics.json; returns the bwt/last/avg summary it holds."""
    summary = metrics_summary(matrix)
    payload = {**summary, "per_task": [asdict(r) for r in reports]}
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return summary


def write_run_bundle(
    out_dir: str | Path, result: RunResult, config: RunConfig, written: list[Path] | None = None
) -> dict:
    """Write the whole results bundle; returns the metrics summary it wrote.

    Each path is appended to ``written`` before its file is opened, so a
    caller holding that list can remove a bundle that fails part-way.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [] if written is None else written

    def _mark(name: str) -> Path:
        p = out / name
        written.append(p)
        return p

    write_matrix_csv(_mark("matrix.csv"), result.matrix)
    summary = write_metrics_json(_mark("metrics.json"), result.matrix, result.reports)
    result.ledger.to_csv(_mark("ledger.csv"))
    write_csv(_mark("sculpt_report.csv"), _SCULPT_COLUMNS, map(astuple, result.reports))
    save_checkpoint(_mark("model.ckpt"), result.model, result.adapter)
    _mark("run_config.json").write_text(
        json.dumps(config_to_dict(config), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return summary


def check_bundle(out_dir: str | Path) -> list[str]:
    """Validate every bundle file against its documented schema.

    Returns the list of checked file names; raises DataError on a violation.
    """
    out = Path(out_dir)
    checked = []

    matrix = read_matrix_csv(out / "matrix.csv")
    checked.append("matrix.csv")

    metrics_path = out / "metrics.json"
    with reading(metrics_path):
        payload = load_json(metrics_path.read_text("utf-8"), str(metrics_path))
    if not isinstance(payload, dict):
        raise DataError(f"{metrics_path}: not a JSON object")
    for key in ("bwt", "last", "avg", "per_task"):
        if key not in payload:
            raise DataError(f"{metrics_path}: missing key {key!r}")
    if not isinstance(payload["per_task"], list) or len(payload["per_task"]) != matrix.num_tasks:
        raise DataError(f"{metrics_path}: per_task is not a list of {matrix.num_tasks} tasks")
    checked.append("metrics.json")

    for name, columns in (("ledger.csv", list(LEDGER_COLUMNS)),
                          ("sculpt_report.csv", _SCULPT_COLUMNS)):
        p = out / name
        with reading(p), p.open("r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
        if header != columns:
            raise DataError(f"{p}: header {header} != {columns}")
        checked.append(name)

    ckpt = out / "model.ckpt"
    with reading(ckpt):
        try:
            load_checkpoint(ckpt)
        except (EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise DataError(f"{ckpt}: unreadable checkpoint: {exc!r}") from exc
    checked.append("model.ckpt")

    parse_config(out / "run_config.json")
    checked.append("run_config.json")
    return checked
