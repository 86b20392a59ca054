import contextlib
import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pecl
from pecl.errors import NumericError
from pecl.sculpt import (
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

CFG = SculptConfig()


def test_task_importance_examples():
    assert task_importance(np.zeros((3, 4)), 2.0) == 0.0
    assert task_importance(np.eye(2), 3.0) == pytest.approx(math.sqrt(2) * 3, rel=1e-12)
    assert task_importance(np.eye(2), 3.0) == pytest.approx(4.242640687119285, rel=1e-9)


def test_task_importance_scales_with_matrix():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 6))
    base = task_importance(m, 1.7)
    for c in (-3.0, 0.5, 2.0):
        assert task_importance(c * m, 1.7) == pytest.approx(abs(c) * base, rel=1e-12)


IMPORTANCE_OF_SEEDED_DELTAS = """
import numpy as np
from pecl.sculpt import task_importance
for seed in range(50):
    rng = np.random.default_rng(seed)
    print(task_importance(rng.normal(size=(64, 256)), rng.uniform(0.5, 2.0)).hex())
"""


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs a CPU mask of at least 2 CPUs")
def test_task_importance_does_not_depend_on_the_cpu_mask():
    # A BLAS may split a reduction by its thread count, which it sets from the
    # CPU mask when it loads; the child narrows its mask to one CPU first.
    narrow = (f"import os, sys; os.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}}); "
              f"sys.path.insert(0, {str(Path(pecl.__file__).parents[1])!r})\n")
    child = subprocess.run([sys.executable, "-c", narrow + IMPORTANCE_OF_SEEDED_DELTAS],
                           capture_output=True, text=True, check=True)
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(IMPORTANCE_OF_SEEDED_DELTAS, {})
    assert child.stdout.split() == here.getvalue().split()


def test_task_importance_validation():
    with pytest.raises(NumericError):
        task_importance(np.array([[np.inf]]), 1.0)
    with pytest.raises(ValueError):
        task_importance(np.eye(2), -1.0)


def test_update_running_importance_first_and_mean():
    state = update_running_importance(ImportanceState(), 5.0)
    assert state.omega_bar == 5.0
    state = ImportanceState()
    for omega in (1.0, 3.0):
        state = update_running_importance(state, omega)
    assert state.omega_bar == pytest.approx(2.0, rel=1e-15)


def test_update_running_importance_matches_batch_mean():
    rng = random.Random(1)
    for _ in range(50):
        state = ImportanceState()
        history = []
        for _ in range(rng.randint(1, 100)):
            omega = rng.uniform(0, 10)
            history.append(omega)
            state = update_running_importance(state, omega)
            brute = sum(history) / len(history)
            assert abs(state.omega_bar - brute) <= 1e-12 * max(1.0, abs(brute))


def test_update_running_importance_rejects_negative():
    with pytest.raises(ValueError):
        update_running_importance(ImportanceState(), -0.1)


def test_importance_state_activation_running_mean():
    state = ImportanceState()
    values = [1.0, 2.0, 6.0]
    for v in values:
        state.observe_activation(v)
    assert state.activation_norm_accum == pytest.approx(3.0, rel=1e-12)


def test_importance_state_folds_arrays_like_single_values():
    values = np.random.default_rng(4).uniform(0.5, 3.0, size=40)
    one_by_one, chunked = ImportanceState(), ImportanceState()
    for v in values:
        one_by_one.observe_activation(float(v))
    for chunk in np.split(values, [7, 8, 25]):
        chunked.observe_activation(chunk)
    chunked.observe_activation(np.array([]))
    assert chunked.activation_count == one_by_one.activation_count == 40
    assert chunked.activation_norm_accum == pytest.approx(values.mean(), rel=1e-12)
    assert one_by_one.activation_norm_accum == pytest.approx(values.mean(), rel=1e-12)
    with pytest.raises(ValueError):
        chunked.observe_activation(np.array([1.0, -0.1]))


def test_mean_task_sensitivity_examples():
    assert mean_task_sensitivity(np.array([0.0, 0.0]), [2]) == 0.0
    assert mean_task_sensitivity(np.array([0.2, 0.6]), [2]) == pytest.approx(0.4)


def test_mean_task_sensitivity_matches_flat_mean():
    rng = np.random.default_rng(2)
    for _ in range(30):
        scores = [rng.uniform(0, 1, size=rng.integers(1, 12)) for _ in range(rng.integers(1, 8))]
        flat = np.concatenate(scores)
        brute = float(sum(flat) / len(flat))
        lengths = [len(s) for s in scores]
        assert mean_task_sensitivity(flat, lengths) == pytest.approx(brute, abs=1e-12)


def test_mean_task_sensitivity_empty_errors():
    with pytest.raises(ValueError):
        mean_task_sensitivity(np.array([]), [])


def test_dynamic_lambda_endpoints_and_midpoint():
    assert dynamic_lambda(0.0, CFG) == 10.0
    assert dynamic_lambda(1.0, CFG) == 1.0
    assert dynamic_lambda(0.5, CFG) == pytest.approx(5.5, rel=1e-12)


def test_dynamic_lambda_affine_decreasing_within_bounds():
    rng = np.random.default_rng(3)
    s = np.sort(rng.uniform(0, 1, size=1000))
    values = np.array([dynamic_lambda(float(x), CFG) for x in s])
    assert ((values >= CFG.lambda_min) & (values <= CFG.lambda_max)).all()
    assert (np.diff(values) <= 0).all()
    # affine: second differences vanish on an even grid
    grid = np.linspace(0, 1, 11)
    vals = np.array([dynamic_lambda(float(x), CFG) for x in grid])
    assert np.allclose(np.diff(vals, 2), 0.0, atol=1e-12)


def test_dynamic_lambda_validation():
    with pytest.raises(ValueError):
        dynamic_lambda(1.2, CFG)


def test_reg_loss_examples():
    snap = AdapterSnapshot(task_id=1, delta_w=np.ones((2, 2)))
    assert reg_loss(np.ones((2, 2)), snap, 2.0, 3.0) == 0.0
    assert reg_loss(np.ones((2, 2)) * 2.0, snap, 2.0, 3.0) == pytest.approx(24.0, rel=1e-12)
    assert reg_loss(np.ones((2, 2)), None, 2.0, 3.0) == 0.0


def test_reg_loss_linear_in_weights():
    rng = np.random.default_rng(4)
    snap = AdapterSnapshot(task_id=1, delta_w=rng.normal(size=(3, 5)))
    cur = rng.normal(size=(3, 5))
    base = reg_loss(cur, snap, 1.0, 1.0)
    assert reg_loss(cur, snap, 2.5, 1.0) == pytest.approx(2.5 * base, rel=1e-12)
    assert reg_loss(cur, snap, 1.0, 4.0) == pytest.approx(4.0 * base, rel=1e-12)


def test_reg_loss_zero_iff_no_drift():
    rng = np.random.default_rng(5)
    snap = AdapterSnapshot(task_id=1, delta_w=rng.normal(size=(3, 3)))
    assert reg_loss(snap.delta_w.copy(), snap, 2.0, 1.5) == 0.0
    assert reg_loss(snap.delta_w + 1e-3, snap, 2.0, 1.5) > 0.0


def test_reg_loss_shape_mismatch():
    snap = AdapterSnapshot(task_id=1, delta_w=np.ones((2, 2)))
    with pytest.raises(ValueError, match="shape"):
        reg_loss(np.ones((3, 2)), snap, 1.0, 1.0)


def test_snapshot_is_frozen():
    snap = AdapterSnapshot(task_id=1, delta_w=np.ones((2, 2)))
    with pytest.raises(ValueError):
        snap.delta_w[0, 0] = 5.0


def test_unlearn_loss_examples():
    assert unlearn_loss([0.1, 0.5, 0.6], [1.0, 2.0, 3.0], theta=0.6) == 0.0
    got = unlearn_loss([0.8, 0.1, 0.2, 0.3], [2.0, 1.0, 1.0, 1.0], theta=0.6)
    assert got == pytest.approx(0.1, rel=1e-12)


def test_unlearn_loss_nonnegative_and_zero_iff_no_exceedance():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = rng.integers(1, 20)
        scores = rng.uniform(0, 1, size=n)
        losses = rng.uniform(0.01, 5, size=n)
        theta = float(rng.uniform(0, 1))
        value = unlearn_loss(scores, losses, theta)
        assert value >= 0.0
        assert (value > 0) == bool((scores > theta).any())


def test_unlearn_loss_monotone_in_theta():
    rng = np.random.default_rng(7)
    scores = rng.uniform(0, 1, size=30)
    losses = rng.uniform(0, 3, size=30)
    thetas = np.linspace(0, 1, 21)
    values = [unlearn_loss(scores, losses, t) for t in thetas]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_unlearn_loss_validation():
    with pytest.raises(ValueError, match="aligned"):
        unlearn_loss([0.5], [1.0, 2.0], 0.5)
    with pytest.raises(ValueError):
        unlearn_loss([], [], 0.5)


def test_sculpt_config_validation():
    with pytest.raises(ValueError):
        SculptConfig(lambda_min=5.0, lambda_max=1.0)
    with pytest.raises(ValueError):
        SculptConfig(theta=1.5)
    with pytest.raises(ValueError):
        SculptConfig(lambda_unlearn=-1.0)
