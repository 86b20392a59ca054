"""Command-line front end.

Subcommands: run, audit, compose, metrics, sweep.  Exit codes: 0 success,
1 usage error, 2 data error, other OS error or out of memory, 3 numeric
failure.  Partial outputs of a failed command are removed.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from .artifacts import AUDIT_COLUMNS, check_bundle, read_matrix_csv, write_csv, write_run_bundle
from .config import config_from_dict, config_to_dict, parse_config
from .corpus import compute_corpus_stats, load_corpus
from .errors import DataError, NumericError, PeclError
from .privacy import PrivacyConfig, PrivacyLedger, assign_budgets, compose_sequence
from .sensitivity import score_sequences
from .synthetic import synthetic_stream
from .trainer import MODES, RunConfig, metrics_summary, run_continual
from .tinylm import PackedSequences, init_adapter, init_lm


class UsageError(PeclError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pecl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train sequentially and write the results bundle")
    run_p.add_argument("--config", type=Path, default=None)
    run_p.add_argument("--out", type=Path, required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--mode", choices=MODES, default=None)
    run_p.add_argument("--self-check", action="store_true",
                       help="validate every emitted file against its schema")

    audit_p = sub.add_parser("audit", help="write the per-token sensitivity report")
    audit_p.add_argument("--config", type=Path, default=None)
    audit_p.add_argument("--out", type=Path, required=True)
    audit_p.add_argument("--seed", type=int, default=None)

    comp_p = sub.add_parser("compose", help="compose a ledger into a total budget")
    comp_p.add_argument("--ledger", type=Path, required=True)
    comp_p.add_argument("--delta", type=float, default=PrivacyConfig.delta)
    comp_p.add_argument("--delta-prime", type=float, default=RunConfig.delta_prime)

    met_p = sub.add_parser("metrics", help="recompute bwt/last/avg from a matrix.csv")
    met_p.add_argument("--matrix", type=Path, required=True)

    sweep_p = sub.add_parser("sweep", help="seeded grid over one hyperparameter")
    sweep_p.add_argument("--config", type=Path, default=None)
    sweep_p.add_argument("--out", type=Path, required=True)
    sweep_p.add_argument("--sweep-param", required=True,
                         choices=("alpha", "theta", "lambda_unlearn"))
    sweep_p.add_argument("--sweep-values", required=True,
                         help="comma-separated numeric values")
    sweep_p.add_argument("--seed", type=int, default=None)
    return parser


def _load_run_config(args) -> RunConfig:
    config = parse_config(args.config)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "mode", None) is not None:
        overrides["mode"] = args.mode
    if overrides:
        merged = config_to_dict(config)
        merged.update(overrides)
        config = config_from_dict(merged)
    return config


def _resolve_corpora(config: RunConfig):
    if config.corpus == "synthetic":
        stream = synthetic_stream(
            num_tasks=config.num_tasks,
            train_per_task=config.train_per_task,
            eval_per_task=config.eval_per_task,
            seed=config.seed,
        )
        return stream.tasks
    return load_corpus(config.corpus)


class _Outputs:
    """Context for a command's writes.

    On failure it removes the tracked files, and it turns an OSError into a
    DataError that names the output path.
    """

    def __init__(self, out: Path):
        self.out = Path(out)
        self.paths: list[Path] = []

    def __enter__(self) -> "_Outputs":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is None:
            return
        for p in self.paths:
            try:
                Path(p).unlink(missing_ok=True)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise DataError(
                f"cannot write output {exc.filename or self.out}: {exc.strerror or exc}"
            ) from exc


def _cmd_run(args) -> int:
    config = _load_run_config(args)
    result = run_continual(config, _resolve_corpora(config))
    with _Outputs(args.out) as outputs:
        summary = write_run_bundle(args.out, result, config, written=outputs.paths)
        if args.self_check:
            for name in check_bundle(args.out):
                print(f"schema ok: {name}")
        print(f"bwt={summary['bwt']!r} last={summary['last']!r} avg={summary['avg']!r}")
        print(f"ledger records: {len(result.ledger)}")
        return 0


def _cmd_audit(args) -> int:
    config = _load_run_config(args)
    corpora = _resolve_corpora(config)
    vocab = corpora[0].vocab
    sens_cfg = config.sensitivity.bind(vocab)
    stats = compute_corpus_stats(corpora, config.tau)
    model = init_lm((len(vocab), config.d_emb, config.n_ctx, config.d_hidden), config.seed)
    adapter = init_adapter(model, config.rank, config.seed, task_id=corpora[0].task_id)

    packed = PackedSequences.of(model, [seq for task in corpora for seq in task.train])
    profile = assign_budgets(
        score_sequences(model, adapter, stats, packed, sens_cfg, config.batch_size),
        config.privacy,
    )
    positions = np.arange(len(profile)) - np.repeat(packed.starts, packed.lengths) + 1
    rows = zip(
        positions.tolist(), map(vocab.surface_of, profile.tokens), profile.score1.tolist(),
        profile.score2.tolist(), profile.score.tolist(), profile.epsilon.tolist(),
        profile.sigma.tolist(), profile.is_stopword.astype(int).tolist(),
    )
    with _Outputs(args.out) as outputs:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "audit.csv"
        outputs.paths.append(path)
        write_csv(path, AUDIT_COLUMNS, rows)
        print(f"wrote {path} ({len(profile)} token rows)")
        return 0


def _cmd_compose(args) -> int:
    ledger = PrivacyLedger.from_csv(args.ledger, delta=args.delta)
    eps_total, delta_total = compose_sequence(ledger, args.delta_prime)
    print(f"epsilon_total={eps_total!r} delta_total={delta_total!r} L={len(ledger)}")
    return 0


def _cmd_metrics(args) -> int:
    matrix = read_matrix_csv(args.matrix)
    summary = metrics_summary(matrix)
    print(f"bwt={summary['bwt']!r} last={summary['last']!r} avg={summary['avg']!r}")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_run_config(args)
    try:
        values = [float(v) for v in args.sweep_values.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"--sweep-values must be numeric: {exc}") from exc
    if not values:
        raise UsageError("--sweep-values is empty")

    base = config_to_dict(config)
    lines = ["param,value,bwt,last,avg"]
    for value in values:
        point = dict(base)
        point[args.sweep_param] = value
        point_config = config_from_dict(point)
        result = run_continual(point_config, _resolve_corpora(point_config))
        summary = metrics_summary(result.matrix)
        lines.append(
            f"{args.sweep_param},{value!r},{summary['bwt']!r},"
            f"{summary['last']!r},{summary['avg']!r}"
        )
        print(lines[-1])
    with _Outputs(args.out) as outputs:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "sweep.csv"
        outputs.paths.append(path)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return 0


_COMMANDS = {
    "run": _cmd_run,
    "audit": _cmd_audit,
    "compose": _cmd_compose,
    "metrics": _cmd_metrics,
    "sweep": _cmd_sweep,
}


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with warnings.catch_warnings():
            if not sys.warnoptions:  # unless -W or PYTHONWARNINGS says otherwise,
                warnings.simplefilter("default")  # each warning once per command
            warnings.showwarning = _print_warning
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # not a write: _Outputs makes those a DataError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
