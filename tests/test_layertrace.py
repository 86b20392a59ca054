import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("layertrace", PERFBENCH / "layertrace.py")
layertrace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layertrace)


def test_the_trace_resolves_every_target_but_the_five_known_stale_ones(monkeypatch):
    # The tracer reports a target it cannot resolve as an absent layer and goes on, so a
    # library change that moves a traced call would drop that layer from every later
    # benchmark file without a failure.  These five name calls the library no longer makes.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # for the ``workloads`` target
    unresolved = [f"{module}.{path}" for module, path, *_ in layertrace.TARGETS
                  if layertrace.Tracer._resolve(module, path) == (None, None)]
    assert unresolved == ["pecl.trainer.forward", "pecl.trainer.build_profile",
                          "pecl.trainer.perturb_embedding", "pecl.trainer.token_losses",
                          "pecl.sensitivity.token_losses"]
