"""Flat JSON run configuration: parsing, validation, and serialization.

Missing keys take the published defaults (alpha=0.5, eps in [1, 10],
delta=1e-6, theta=0.6, lambda_max=10, lambda_min=1, lambda_unlearn=1,
lr=5e-4, 3 epochs, batch 32).  Unknown keys and invariant violations are
rejected with the offending key named in the message.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .corpus import load_stopwords
from .errors import DataError, reading
from .privacy import PrivacyConfig
from .sculpt import SculptConfig
from .sensitivity import SensitivityConfig
from .trainer import RunConfig

_INT_KEYS = {
    "epochs", "batch_size", "seed", "d_emb", "n_ctx", "d_hidden", "rank",
    "noise_seed", "num_tasks", "train_per_task", "eval_per_task",
}
_FLOAT_KEYS = {
    "lr", "alpha", "tau", "eps_lower", "eps_upper", "delta", "clip_norm",
    "uniform_eps", "delta_prime", "theta", "lambda_max", "lambda_min",
    "lambda_unlearn", "weight_decay",
}
_STR_KEYS = {
    "mode", "optimizer", "stats_scope", "unlearn_mode", "sigma_variant",
    "corpus", "stopword_file",
}
_BOOL_KEYS = {"clamp_negative_score2"}
_LIST_KEYS = {"task_order"}
KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _BOOL_KEYS | _LIST_KEYS


def _coerce(key: str, value):
    if key in _INT_KEYS:
        if isinstance(value, bool) or not isinstance(value, int):
            raise DataError(f"config key {key!r} must be an integer, got {value!r}")
        return value
    if key in _FLOAT_KEYS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DataError(f"config key {key!r} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN and Infinity are valid JSON here
            raise DataError(f"config key {key!r} must be a finite number, got {value!r}")
        return float(value)
    if key in _STR_KEYS:
        if key == "stopword_file" and value is None:
            return None
        if not isinstance(value, str):
            raise DataError(f"config key {key!r} must be a string, got {value!r}")
        return value
    if key in _BOOL_KEYS:
        if not isinstance(value, bool):
            raise DataError(f"config key {key!r} must be a boolean, got {value!r}")
        return value
    if key in _LIST_KEYS:
        if value is None:  # null = natural task order
            return None
        if not isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in value
        ):
            raise DataError(f"config key {key!r} must be a list of integers, got {value!r}")
        return list(value)
    raise DataError(f"unknown config key {key!r}")


def config_from_dict(obj: dict) -> RunConfig:
    """Build a validated RunConfig from a flat key-value object."""
    if not isinstance(obj, dict):
        raise DataError("config must be a JSON object")
    values = {}
    for key, raw in obj.items():
        if key not in KNOWN_KEYS:
            raise DataError(f"unknown config key {key!r}")
        values[key] = _coerce(key, raw)

    stopwords = None
    if values.get("stopword_file"):
        stopwords = load_stopwords(values["stopword_file"])

    try:
        sensitivity = SensitivityConfig(
            alpha=values.get("alpha", 0.5),
            clamp_negative_score2=values.get("clamp_negative_score2", True),
            **({"stopwords": stopwords} if stopwords is not None else {}),
        )
        privacy = PrivacyConfig(
            eps_lower=values.get("eps_lower", 1.0),
            eps_upper=values.get("eps_upper", 10.0),
            delta=values.get("delta", 1e-6),
            clip_norm=values.get("clip_norm", 1.0),
            sensitivity_variant=values.get("sigma_variant", "appendix"),
            noise_seed=values.get("noise_seed", 0),
        )
        sculpt = SculptConfig(
            lambda_max=values.get("lambda_max", 10.0),
            lambda_min=values.get("lambda_min", 1.0),
            theta=values.get("theta", 0.6),
            lambda_unlearn=values.get("lambda_unlearn", 1.0),
        )
        return RunConfig(
            mode=values.get("mode", "pecl"),
            task_order=values.get("task_order"),
            epochs=values.get("epochs", 3),
            batch_size=values.get("batch_size", 32),
            lr=values.get("lr", 5e-4),
            seed=values.get("seed", 0),
            optimizer=values.get("optimizer", "sgd"),
            weight_decay=values.get("weight_decay", 0.0),
            d_emb=values.get("d_emb", 32),
            n_ctx=values.get("n_ctx", 8),
            d_hidden=values.get("d_hidden", 64),
            rank=values.get("rank", 4),
            tau=values.get("tau", 0.2),
            stats_scope=values.get("stats_scope", "seen"),
            uniform_eps=values.get("uniform_eps", 1.0),
            unlearn_mode=values.get("unlearn_mode", "suppress"),
            delta_prime=values.get("delta_prime", 1e-6),
            sensitivity=sensitivity,
            privacy=privacy,
            sculpt=sculpt,
            corpus=values.get("corpus", "synthetic"),
            num_tasks=values.get("num_tasks", 3),
            train_per_task=values.get("train_per_task", 300),
            eval_per_task=values.get("eval_per_task", 100),
            stopword_file=values.get("stopword_file"),
        )
    except ValueError as exc:
        raise DataError(f"invalid config: {exc}") from exc


def parse_config(path: str | Path | None) -> RunConfig:
    """Read a JSON config file; None means all defaults."""
    if path is None:
        return config_from_dict({})
    p = Path(path)
    if not p.exists():
        raise DataError(f"config file not found: {p}")
    try:
        with reading(p):
            obj = json.loads(p.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{p}: malformed JSON: {exc.msg}") from exc
    return config_from_dict(obj)


def config_to_dict(config: RunConfig) -> dict:
    """Flatten a RunConfig back to the file format (replayable)."""
    return {
        "mode": config.mode,
        "task_order": config.task_order,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "lr": config.lr,
        "seed": config.seed,
        "optimizer": config.optimizer,
        "weight_decay": config.weight_decay,
        "d_emb": config.d_emb,
        "n_ctx": config.n_ctx,
        "d_hidden": config.d_hidden,
        "rank": config.rank,
        "alpha": config.sensitivity.alpha,
        "clamp_negative_score2": config.sensitivity.clamp_negative_score2,
        "tau": config.tau,
        "stats_scope": config.stats_scope,
        "eps_lower": config.privacy.eps_lower,
        "eps_upper": config.privacy.eps_upper,
        "delta": config.privacy.delta,
        "clip_norm": config.privacy.clip_norm,
        "sigma_variant": config.privacy.sensitivity_variant,
        "noise_seed": config.privacy.noise_seed,
        "uniform_eps": config.uniform_eps,
        "unlearn_mode": config.unlearn_mode,
        "delta_prime": config.delta_prime,
        "theta": config.sculpt.theta,
        "lambda_max": config.sculpt.lambda_max,
        "lambda_min": config.sculpt.lambda_min,
        "lambda_unlearn": config.sculpt.lambda_unlearn,
        "corpus": config.corpus,
        "num_tasks": config.num_tasks,
        "train_per_task": config.train_per_task,
        "eval_per_task": config.eval_per_task,
        "stopword_file": config.stopword_file,
    }
