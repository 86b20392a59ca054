"""The benchmark's workloads: a seeded synthetic stream plus a RunConfig.

Each workload turns one workload seed into the inputs ``run_continual``
receives, the way ``pecl run`` does after it has parsed its config.  The seed
drives both ``synthetic_stream`` and ``RunConfig.seed``.
"""

from __future__ import annotations

from pecl import RunConfig, SculptConfig, SensitivityConfig, synthetic_stream
from pecl.corpus import load_stopwords
from pecl.privacy import PrivacyConfig


def _recipe_stream(seed: int):
    return synthetic_stream(num_tasks=3, train_per_task=200, eval_per_task=80,
                            seed=seed, plant_rate=0.35, plants_per_task=4)


def _recipe_config(mode: str, seed: int, stream, lambda_unlearn: float) -> RunConfig:
    # The acceptance recipe: tests/test_acceptance.py::experiment_config.
    stopwords = frozenset(load_stopwords() | stream.label_surfaces)
    return RunConfig(
        mode=mode,
        seed=seed,
        lr=1.0,
        epochs=24,
        batch_size=8,
        optimizer="sgd",
        sensitivity=SensitivityConfig(alpha=0.5, stopwords=stopwords),
        privacy=PrivacyConfig(sensitivity_variant="main_text", clip_norm=0.3,
                              eps_lower=8.0, eps_upper=80.0),
        sculpt=SculptConfig(lambda_max=1e-4, lambda_min=1e-5, theta=0.6,
                            lambda_unlearn=lambda_unlearn),
        num_tasks=3,
        train_per_task=200,
        eval_per_task=80,
    )


def _recipe_pecl(seed: int):
    stream = _recipe_stream(seed)
    return _recipe_config("pecl", seed, stream, 3.5), stream.tasks


def _recipe_seqft(seed: int):
    stream = _recipe_stream(seed)
    return _recipe_config("seqft", seed, stream, 0.0), stream.tasks


def _default_pecl(seed: int):
    config = RunConfig(mode="pecl", seed=seed)
    stream = synthetic_stream(num_tasks=config.num_tasks, train_per_task=config.train_per_task,
                              eval_per_task=config.eval_per_task, seed=seed)
    return config, stream.tasks


# Workload name -> function from a seed to (RunConfig, tasks); BENCHMARK.json and
# README.md say why each workload is there.
WORKLOADS = {
    "recipe-pecl": _recipe_pecl,
    "recipe-seqft": _recipe_seqft,
    "default-pecl": _default_pecl,
}


def trained_positions(config: RunConfig, tasks) -> int:
    """Predicted-token positions trained on: epochs x sum(len - 1) over train sets."""
    return config.epochs * sum(len(seq.tokens) - 1 for task in tasks for seq in task.train)
