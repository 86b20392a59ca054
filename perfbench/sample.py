"""One benchmark sample, run in a fresh process by ``run.py``.

It builds the workload's inputs from the seed, runs ``run_continual`` and
``write_run_bundle`` (together timed as ``run_wall_s``), checks the bundle outside
that timing, and prints one JSON line with the timings, peak memory,
accuracies, bundle digests and, when traced, the per-layer metrics.  Untraced
samples run under the CPU-speed probe (speedprobe.py) from just after numpy is
imported until the run ends, and report the probe's figures for the set-up and
the run windows.

    PYTHONPATH=src python3 perfbench/sample.py --workload recipe-pecl --seed 0 \
        --out .perfbench_out/bundle [--trace] [--spans spans.csv]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from speedprobe import SpeedProbe


class SampleCheckError(RuntimeError):
    """The run finished but its outputs are wrong."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_outputs(out: Path, result) -> float:
    """Validate the bundle and its metrics; return the time the checks took."""
    from pecl import metrics_summary
    from pecl.artifacts import check_bundle, read_matrix_csv

    started = time.perf_counter()
    check_bundle(out)
    recomputed = metrics_summary(read_matrix_csv(out / "matrix.csv"))
    in_memory = metrics_summary(result.matrix)
    written = json.loads((out / "metrics.json").read_text("utf-8"))
    if in_memory != recomputed or any(written[k] != v for k, v in recomputed.items()):
        raise SampleCheckError(
            f"metrics disagree: run {in_memory}, metrics.json {written}, "
            f"matrix.csv {recomputed}"
        )
    return time.perf_counter() - started


def _check_source(root: Path) -> None:
    import pecl

    src = (root / "src").resolve()
    if not Path(pecl.__file__).resolve().is_relative_to(src):
        raise SampleCheckError(f"pecl was imported from {pecl.__file__}, not from {src}")


def run_sample(workload: str, seed: int, out: Path, trace: bool, spans: Path | None,
               probe=None) -> dict:
    from layertrace import RUN, RUN_CONTINUAL, WRITE_BUNDLE, Tracer, layer_metrics
    from pecl import avg_acc, bwt, last_acc, run_continual
    from pecl.artifacts import write_run_bundle
    from workloads import WORKLOADS, trained_positions

    _check_source(Path.cwd())
    tracer = Tracer() if trace else None
    block = tracer.span if tracer else (lambda name: nullcontext())

    with tracer or nullcontext():
        config, tasks = WORKLOADS[workload](seed)
        ready, setup_cpu_s = time.monotonic(), time.thread_time()
        setup_probe = probe.take() if probe else None
        started = time.perf_counter()
        with block(RUN):
            with block(RUN_CONTINUAL):
                result = run_continual(config, tasks)
            with block(WRITE_BUNDLE):
                write_run_bundle(out, result, config)
        run_wall_s = time.perf_counter() - started
        run_probe = probe.take() if probe else None

    check_s = _check_outputs(out, result)
    report = {
        "ok": True,
        "ready": ready,
        "setup_cpu_s": setup_cpu_s,
        "run_wall_s": run_wall_s,
        "setup_probe": setup_probe,
        "run_probe": run_probe,
        "check_s": check_s,
        "positions": trained_positions(config, tasks),
        "last_acc": last_acc(result.matrix),
        "avg_acc": avg_acc(result.matrix),
        "bwt": bwt(result.matrix),
        "matrix_sha256": _sha256(out / "matrix.csv"),
        "ledger_sha256": _sha256(out / "ledger.csv"),
        "exposures": len(result.ledger),
        "bundle_bytes": sum(p.stat().st_size for p in out.iterdir()),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = layer_metrics(tracer)
        perturb_calls = layers["privacy.perturb_embedding.calls"]
        layers["privacy.exposures"] = report["exposures"]
        layers["privacy.noised_ratio"] = (
            report["exposures"] / perturb_calls if perturb_calls else None
        )
        layers["artifacts.bundle_bytes"] = report["bundle_bytes"]
        report["layers"] = layers
        report["absent"] = tracer.absent
        if spans is not None:
            tracer.write_csv(spans)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--prime", action="store_true",
                        help="only import everything a sample imports, then exit")
    args = parser.parse_args(argv)
    try:
        if args.prime:
            import layertrace  # noqa: F401
            import workloads  # noqa: F401

            _check_source(Path.cwd())
            report = {"ok": True}
        elif args.trace:
            report = run_sample(args.workload, args.seed, args.out, True, args.spans)
        else:
            with SpeedProbe() as probe:
                report = run_sample(args.workload, args.seed, args.out, False, None, probe)
    except Exception as exc:  # the sample's boundary: report it, the parent counts it failed
        traceback.print_exc()
        print(json.dumps({"ok": False, "error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
