"""Tests of the benchmark's own machinery: trace and probe transparency,
self-time arithmetic, absent layers, speed scaling and the per-sample
correctness gate.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import pecl.trainer  # noqa: E402
from layertrace import TARGETS, Tracer, layer_metrics, self_times  # noqa: E402
from pecl import RunConfig, run_continual, synthetic_stream  # noqa: E402
from pecl.artifacts import write_run_bundle  # noqa: E402
from run import gate, per_layer  # noqa: E402
from sample import SampleCheckError, _check_outputs, run_sample  # noqa: E402
from speedprobe import REFERENCE_S, SpeedProbe, scaled  # noqa: E402


TINY_CONFIG = RunConfig(mode="pecl", seed=3, epochs=2, batch_size=4, num_tasks=2,
                        train_per_task=12, eval_per_task=4)


def _tiny_run():
    stream = synthetic_stream(num_tasks=2, train_per_task=12, eval_per_task=4, seed=3)
    return run_continual(TINY_CONFIG, stream.tasks)


def test_traced_and_untraced_samples_give_identical_bundles(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    originals = {name: getattr(pecl.trainer, name) for name in ("backward", "sgd_step")}
    with SpeedProbe() as probe:  # untraced samples run under the speed probe
        plain = run_sample("default-pecl", 0, tmp_path / "plain", trace=False, spans=None,
                           probe=probe)
    assert plain["run_probe"]["n"] > 0
    traced = run_sample("default-pecl", 0, tmp_path / "traced", trace=True,
                        spans=tmp_path / "spans.csv")

    for key in ("matrix_sha256", "ledger_sha256", "exposures", "bundle_bytes"):
        assert traced[key] == plain[key]
    assert {name: getattr(pecl.trainer, name) for name in originals} == originals
    assert traced["absent"] == []
    assert (tmp_path / "spans.csv").read_text().startswith("index,name,start,end,parent\n")

    # Every per-layer metric BENCHMARK.json names is produced by a traced invocation.
    layers = per_layer([dict(plain, traced=False), dict(traced, traced=True)])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= set(layers)
    assert all(layers[m["name"]] is not None for m in spec["per_layer"])


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["mid", 1.0, 5.0, 0],
        ["leaf", 2.0, 3.5, 1],
        ["sibling", 6.0, 7.0, 0],
    ]
    assert self_times(spans) == [10.0 - 4.0 - 1.0, 4.0 - 1.5, 1.5, 1.0]


def test_layer_metrics_partition_the_run_into_self_times():
    tracer = Tracer()
    with tracer, tracer.span("run"), tracer.span("trainer.run_continual"):
        result = _tiny_run()
    m = layer_metrics(tracer)

    assert m["tinylm.backward.calls"] == m["tinylm.step.calls"] == 2 * 2 * 3
    assert m["trainer.evaluate.calls"] == 1 + 2
    assert m["tinylm.backward.positions"] == sum(
        2 * (len(seq.tokens) - 1) for task in synthetic_stream(
            num_tasks=2, train_per_task=12, eval_per_task=4, seed=3).tasks
        for seq in task.train
    )
    assert m["privacy.perturb_embedding.calls"] >= len(result.ledger) > 0
    assert m["trainer.wrapup.s"] > 0
    parts = [v for k, v in m.items()
             if k.endswith(".s") and k not in ("sculpt.s", "privacy.s", "run.s")]
    # The parts cover the run except the span bookkeeping between "run" and its child.
    assert 0.0 <= m["run.s"] - sum(parts) < 1e-3


def test_wrapup_spans_from_last_step_to_first_evaluate():
    tracer = Tracer(targets=())
    tracer.spans[:] = [
        ["trainer.run_continual", 0.0, 20.0, -1],
        ["tinylm.backward", 1.0, 2.0, 0],
        ["tinylm.step", 2.0, 3.0, 0],
        ["tinylm.token_losses", 4.0, 6.0, 0],
        ["trainer.evaluate", 8.0, 9.0, 0],
        ["trainer.evaluate", 9.0, 10.0, 0],
    ]
    m = layer_metrics(tracer)
    assert m["trainer.wrapup.s"] == (8.0 - 3.0) - 2.0
    assert m["trainer.self.s"] == 20.0 - 1.0 - 1.0 - 2.0 - 1.0 - 1.0 - 3.0


def test_missing_attribute_is_an_absent_layer():
    targets = [t for t in TARGETS if t[2] != "tinylm.step"]
    targets += [("pecl.trainer", "fused_step", "tinylm.step", None),
                ("pecl.no_such_module", "step", "tinylm.step", None)]
    tracer = Tracer(targets=targets)
    with tracer, tracer.span("run"), tracer.span("trainer.run_continual"):
        _tiny_run()
    m = layer_metrics(tracer)

    assert tracer.absent == ["pecl.trainer.fused_step", "pecl.no_such_module.step"]
    assert m["tinylm.step.calls"] is None and m["tinylm.step.s"] is None
    assert m["tinylm.backward.calls"] == 12
    assert m["trainer.wrapup.s"] > 0  # measured from the last backward instead
    assert not hasattr(pecl.trainer, "fused_step")


def test_samples_with_a_different_digest_fail():
    def sample(matrix):
        return {"ok": True, "matrix_sha256": matrix, "ledger_sha256": "l"}

    samples = [sample("a"), sample("b"), sample("a"), {"ok": False, "error": "raised"}]
    gate(samples)
    assert [s["ok"] for s in samples] == [True, False, True, False]


def test_metrics_json_that_disagrees_with_the_matrix_fails(tmp_path):
    result = _tiny_run()
    write_run_bundle(tmp_path, result, TINY_CONFIG)
    _check_outputs(tmp_path, result)

    metrics = json.loads((tmp_path / "metrics.json").read_text())
    metrics["last"] += 0.5
    (tmp_path / "metrics.json").write_text(json.dumps(metrics))
    with pytest.raises(SampleCheckError):
        _check_outputs(tmp_path, result)


def test_speed_probe_samples_its_window_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval=0.005) as probe:
        end = perf_counter() + 0.2
        while perf_counter() < end:
            sum(range(1000))
        window = probe.take()
        assert probe.take()["n"] <= 1  # take() starts a new window
    assert window["n"] >= 5
    assert 0 < window["probe_s"] <= window["total_s"] / window["n"]  # slowest tenth left out
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scaled_time_leaves_out_the_probe_and_rescales_to_reference_speed():
    # Probes took twice the reference time: the machine ran at half speed.
    window = {"n": 4, "total_s": 0.2, "probe_s": 2 * REFERENCE_S}
    assert scaled(1.2, window) == pytest.approx((1.2 - 0.2) / 2)
    with pytest.raises(ValueError):
        scaled(1.0, {"n": 0, "total_s": 0.0, "probe_s": None})
