"""Results-bundle files: writers, readers, and schema self-checks.

A run directory holds matrix.csv (one row per completed task), metrics.json,
ledger.csv, sculpt_report.csv, model.ckpt and run_config.json.  Floats are
written with repr() so identical runs produce byte-identical files and a
read-back reproduces the exact doubles.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .config import config_to_dict, parse_config
from .errors import DataError, reading
from .tinylm import load_checkpoint, save_checkpoint
from .trainer import AccuracyMatrix, RunConfig, RunResult, TaskReport, metrics_summary

AUDIT_COLUMNS = [
    "position", "surface", "score1", "score2", "score", "epsilon", "sigma", "stopword",
]
SCULPT_COLUMNS = [
    "task_id", "omega", "omega_bar", "s_bar", "lambda_dyn", "final_l_reg", "final_l_unlearn",
]
LEDGER_COLUMNS = ["sequence_id", "position", "epoch", "epsilon", "sigma"]


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


def _report_dict(report: TaskReport) -> dict:
    return {
        "task_id": report.task_id,
        "omega": report.omega,
        "omega_bar": report.omega_bar,
        "s_bar": report.s_bar,
        "lambda_dyn": report.lambda_dyn,
        "final_l_reg": report.final_l_reg,
        "final_l_unlearn": report.final_l_unlearn,
    }


def write_metrics_json(path: str | Path, matrix: AccuracyMatrix, reports: list[TaskReport]) -> dict:
    """Write metrics.json; returns the bwt/last/avg summary it holds."""
    summary = metrics_summary(matrix)
    payload = {**summary, "per_task": [_report_dict(r) for r in reports]}
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return summary


def write_sculpt_report_csv(path: str | Path, reports: list[TaskReport]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCULPT_COLUMNS)
        for r in reports:
            writer.writerow(
                [
                    r.task_id,
                    repr(r.omega),
                    repr(r.omega_bar),
                    "" if r.s_bar is None else repr(r.s_bar),
                    "" if r.lambda_dyn is None else repr(r.lambda_dyn),
                    repr(r.final_l_reg),
                    "" if r.final_l_unlearn is None else repr(r.final_l_unlearn),
                ]
            )


def write_audit_csv(path: str | Path, rows: list[dict]) -> None:
    """Per-token sensitivity report; epsilon/sigma cells are empty at score 0."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AUDIT_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row["position"],
                    row["surface"],
                    repr(row["score1"]),
                    repr(row["score2"]),
                    repr(row["score"]),
                    "" if math.isnan(row["epsilon"]) else repr(row["epsilon"]),
                    "" if math.isnan(row["sigma"]) else repr(row["sigma"]),
                    int(row["stopword"]),
                ]
            )


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
    write_sculpt_report_csv(_mark("sculpt_report.csv"), result.reports)
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
    try:
        payload = json.loads(metrics_path.read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"{metrics_path}: unreadable metrics: {exc}") from exc
    for key in ("bwt", "last", "avg", "per_task"):
        if key not in payload:
            raise DataError(f"{metrics_path}: missing key {key!r}")
    if len(payload["per_task"]) != matrix.num_tasks:
        raise DataError(f"{metrics_path}: per_task length != matrix size")
    checked.append("metrics.json")

    for name, columns in (("ledger.csv", LEDGER_COLUMNS), ("sculpt_report.csv", SCULPT_COLUMNS)):
        p = out / name
        with p.open("r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
        if header != columns:
            raise DataError(f"{p}: header {header} != {columns}")
        checked.append(name)

    load_checkpoint(out / "model.ckpt")
    checked.append("model.ckpt")

    parse_config(out / "run_config.json")
    checked.append("run_config.json")
    return checked
