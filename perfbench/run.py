"""pecl benchmark: closed-loop samples of one workload, one process each.

Run from the repository root:

    python3 perfbench/run.py --workload recipe-pecl --seed 0 --seconds 40 --trace 0

One client runs samples back to back, each in a fresh process started by this
script, until ``--seconds`` have passed (at least three samples).  Every
sample's outputs are checked (see sample.py); samples of one seed must give
byte-identical matrix.csv and ledger.csv.  With ``--trace 1`` untraced and
traced samples alternate, and the traced ones report the per-layer metrics.

``run_s`` and ``setup_s`` are wall times rescaled to a reference CPU speed by
the speed probe each untraced sample runs (speedprobe.py); the unscaled wall
times are printed beside them.

Human-readable results, the environment block and the bundle digests are
printed first; the last line is one JSON object with the metrics that
BENCHMARK.json lists (end_to_end without tracing, per_layer with it).  The
full result, every sample included, is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

from layertrace import percentile
from speedprobe import scaled

HERE = Path(__file__).resolve().parent
MIN_SAMPLES = 3  # untraced; a traced invocation needs MIN_SAMPLES - 1 of each kind
TIME_LIMIT_S = 170.0  # the whole invocation, priming included
# Printed beside the end-to-end metrics; exact per seed, so not in BENCHMARK.json.
ACCURACY_UNITS = {"last_acc": "fraction", "avg_acc": "fraction"}


def environment(root: Path) -> dict:
    """Interpreter, numpy, BLAS, core count and the code under test."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
        blas_config = blas.get("openblas configuration", "")
    except (KeyError, TypeError):
        blas_name, blas_config = "unknown", ""
    threads = {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
               if v in os.environ}
    src = hashlib.sha256()
    for path in sorted((root / "src" / "pecl").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_config": blas_config,
        "blas_threads": threads or "default",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(root),
        "src_sha256": src.hexdigest(),
    }


def _git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _run_child(args: list[str], root: Path, timeout: float) -> tuple[dict, float, str]:
    """Run sample.py; return its JSON report, the start time and stderr's tail."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "sample.py"), *args], cwd=root,
                              env=_child_env(root), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"sample exceeded {timeout:.0f} s"}, started, ""
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = {"ok": False, "error": f"no report (exit code {proc.returncode})"}
    if proc.returncode != 0:
        report["ok"] = False
    return report, started, "\n".join(proc.stderr.strip().splitlines()[-3:])


def collect(workload: str, seed: int, seconds: float, trace: bool, root: Path,
            out: Path, invoked: float) -> list[dict]:
    """Run samples back to back until ``seconds`` have passed."""
    bundle = out / "bundle"
    spans = out / f"spans-{workload}-seed{seed}.csv"
    samples: list[dict] = []
    deadline = time.monotonic() + seconds
    walls: list[float] = []
    minimum = 2 * (MIN_SAMPLES - 1) if trace else MIN_SAMPLES
    while True:
        # Traced invocations run pairs in alternating order: untraced-traced, traced-untraced.
        traced = trace and len(samples) % 4 in (1, 2)
        expected = median(walls) if walls else 0.0
        now = time.monotonic()
        at_boundary = not trace or len(samples) % 2 == 0
        needed = expected * (2 if trace else 1)
        if at_boundary and len(samples) >= minimum and now + needed > deadline:
            break
        if now - invoked + expected > TIME_LIMIT_S:
            break
        shutil.rmtree(bundle, ignore_errors=True)
        args = ["--workload", workload, "--seed", str(seed), "--out", str(bundle)]
        if traced:
            args += ["--trace", "--spans", str(spans)]
        report, started, stderr = _run_child(args, root, TIME_LIMIT_S - (now - invoked))
        walls.append(time.monotonic() - started)
        report["traced"] = traced
        if report["ok"]:
            report["setup_wall_s"] = report.pop("ready") - started
            if not traced:
                report["setup_s"] = scaled(report["setup_cpu_s"], report["setup_probe"])
                report["run_s"] = scaled(report["run_wall_s"], report["run_probe"])
        else:
            report["stderr"] = stderr
        samples.append(report)
    shutil.rmtree(bundle, ignore_errors=True)
    return samples


def gate(samples: list[dict]) -> None:
    """Fail samples whose bundle digests differ from the majority of their seed's samples."""
    digests = Counter((s["matrix_sha256"], s["ledger_sha256"]) for s in samples if s["ok"])
    if not digests:
        return
    reference, _ = digests.most_common(1)[0]
    for s in samples:
        if s["ok"] and (s["matrix_sha256"], s["ledger_sha256"]) != reference:
            s["ok"] = False
            s["error"] = "matrix.csv/ledger.csv digest differs from the other samples"


def supported_percentile(n: int) -> int | None:
    """Highest whole percentile above the median with at least ten samples beyond it."""
    p = int(100 * (1 - 10 / n)) if n else 0
    return p if p > 50 else None


def end_to_end(samples: list[dict]) -> dict:
    ok = [s for s in samples if s["ok"] and not s["traced"]]
    return {
        "run_s": median(s["run_s"] for s in ok),
        "train_tok_per_s": median(s["positions"] / s["run_s"] for s in ok),
        "setup_s": median(s["setup_s"] for s in ok),
        "peak_rss_mib": median(s["peak_rss_mib"] for s in ok),
        "last_acc": median(s["last_acc"] for s in ok),
        "avg_acc": median(s["avg_acc"] for s in ok),
    }


def per_layer(samples: list[dict]) -> dict:
    """Median of each layer metric over the traced samples; None when absent."""
    rows = [s["layers"] for s in samples if s["ok"] and s["traced"]]
    out = {}
    for name in rows[0]:
        values = [row[name] for row in rows if row[name] is not None]
        out[name] = median(values) if len(values) == len(rows) else None
    # Overhead from adjacent untraced/traced pairs, so a slow spell of the machine
    # mostly hits both sides of a pair; None when no pair passed.  The untraced
    # side's wall time leaves out its speed probe, which traced samples do not run.
    ratios = [
        traced["run_wall_s"] / (plain["run_wall_s"] - _probe_s(plain))
        for pair in zip(samples[::2], samples[1::2]) if all(s["ok"] for s in pair)
        for plain, traced in [sorted(pair, key=lambda s: s["traced"])]
    ]
    out["trace.overhead_pct"] = 100.0 * (median(ratios) - 1.0) if ratios else None
    return out


def _probe_s(sample: dict) -> float:
    return sample["run_probe"]["total_s"] if sample["run_probe"] else 0.0


def print_report(workload: str, seed: int, samples: list[dict], e2e: dict,
                 layers: dict | None, env: dict, units: dict) -> None:
    ok = [s for s in samples if s["ok"]]
    untraced = [s for s in ok if not s["traced"]]
    n = len(untraced)
    failed = len(samples) - len(ok)
    print(f"workload {workload}  seed {seed}  samples {len(samples)} ({failed} failed); "
          f"closed loop, 1 client, one fresh process per sample")
    high = supported_percentile(n)
    for name, value in e2e.items():
        unit = units[name]
        if name in ACCURACY_UNITS:
            print(f"  {name:16s} {value:.6f} {unit} (deterministic per seed, n={n})")
            continue
        extra = ""
        if name == "run_s":
            values = [s["run_s"] for s in untraced]
            extra = (f"; p{high} {percentile(sorted(values), high / 100):.4f} s" if high else
                     "; no percentile above p50 has 10 samples beyond it")
        print(f"  {name:16s} p50 {value:.4f} {unit} (n={n}{extra})")
        if name in ("run_s", "setup_s"):
            wall = f"{name[:-2]}_wall_s"
            probes = sum(s[f"{name[:-2]}_probe"]["n"] for s in untraced)
            print(f"  {wall:16s} p50 {median(s[wall] for s in untraced):.4f} s "
                  f"(n={n}; unscaled; {probes} speed probes)")
    for s in samples:
        if not s["ok"]:
            print(f"  FAILED sample: {s['error']} {s.get('stderr', '')}".rstrip())
    digests = Counter((s["matrix_sha256"][:16], s["ledger_sha256"][:16]) for s in ok)
    for (matrix, ledger), count in digests.items():
        print(f"  digests matrix.csv {matrix}  ledger.csv {ledger}  ({count} samples)")
    if layers is not None:
        n_traced = sum(1 for s in ok if s["traced"])
        print(f"  per-layer (median of {n_traced} traced samples; .s = self time):")
        for name, value in layers.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"    {name:36s} {shown}")
        absent = sorted({a for s in ok if s["traced"] for a in s["absent"]})
        if absent:
            print(f"  absent trace targets: {', '.join(absent)}")
    print("environment: " + json.dumps(env, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    invoked = time.monotonic()
    root = Path.cwd()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (root / "src" / "pecl" / "__init__.py").is_file():
        print("perfbench: src/pecl not found; run from the repository root", file=sys.stderr)
        return 2
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)

    primed, _, stderr = _run_child(["--prime"], root, 60.0)
    if not primed["ok"]:
        print(f"perfbench: cannot import the benchmark: {primed['error']}\n{stderr}",
              file=sys.stderr)
        return 2
    env = environment(root)
    samples = collect(args.workload, args.seed, args.seconds, bool(args.trace), root, out,
                      invoked)
    gate(samples)
    if not any(s["ok"] and not s["traced"] for s in samples) or (
        args.trace and not any(s["ok"] and s["traced"] for s in samples)
    ):
        for s in samples:
            print(f"perfbench: sample failed: {s['error']}\n{s.get('stderr', '')}",
                  file=sys.stderr)
        return 1

    e2e = end_to_end(samples)
    layers = per_layer(samples) if args.trace else None
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | ACCURACY_UNITS
    print_report(args.workload, args.seed, samples, e2e, layers, env, units)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    # An absent layer (its trace target is gone) reads 0; the report above names it.
    metrics = {m["name"]: {"value": 0.0 if values[m["name"]] is None else values[m["name"]],
                           "unit": m["unit"]} for m in listed}
    failed = sum(1 for s in samples if not s["ok"])
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": env, "end_to_end": e2e, "per_layer": layers, "samples": samples}
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
