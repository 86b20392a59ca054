"""Alternating parent/change perfbench pairs, written up as ``BENCH_<n>.json``.

Run from the repository root:

    python3 tools/bench_pairs.py --n 6 --parent HEAD~1 --note "what the change does" \
        --workload recipe-seqft=61-70 --workload recipe-pecl=61-65 --seconds 20

Each side runs from a fresh copy of its files, exported with ``git archive``:
the parent revision, and the change revision (``--change``, by default
``HEAD``), so both sides are built one way and uncommitted edits are not
measured.  Every seed of a workload is one pair of
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
invocations, and the side that runs first alternates from pair to pair.  A run
value is the median that invocation prints for an end-to-end metric of the
copy's BENCHMARK.json, or for ``run_wall_s``, the unscaled wall time printed
beside ``run_s``.  The file records every run, the medians, the distance
between the quartiles of the parent's runs, the pairs the change wins and the
environment block perfbench prints, and per metric a no-regression verdict
against the metric's ``bound`` and a gain verdict (see ``summarise``).  It also
keeps, per pair, the ``matrix.csv``/``ledger.csv`` digests each side's
invocation prints, and lists the seeds whose digests differ between parent and
change: the parity record.

Each side of a pair also counts the CPU a run spends, which perfbench does not
report: ``CPU_RUNS`` fresh ``python3 -c`` processes (``CPU_SNIPPET``, so a
copy needs no code of its own for it) each build the workload from the copy's
``perfbench/workloads.py`` and run ``run_continual`` plus ``write_run_bundle``
once, and report the user + system time of the process and its reaped
children over that span.  After the pair's perfbench invocations the two
sides' processes alternate, so that a drift in CPU speed meets both sides
alike, and each side's value is the median of its own.  The file records
it as ``cpu_s`` beside the other metrics, marked as not a BENCHMARK.json metric,
with a no-regression verdict against ``CPU_BOUND``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path
from statistics import median, quantiles

ROOT = Path.cwd()
ENV_KEYS = ("python", "numpy", "blas", "blas_config", "blas_threads", "nproc")
# Under no effect, winning 9 or more of 10 pairs has a chance of 11/1024 (one-sided
# sign test); 5 of 5 has 1/32.  Fewer pairs never give a gain verdict.
MIN_GAIN_PAIRS = 10
CPU_RUNS = 5
CPU_BOUND = 0.05  # cpu_s may rise by at most 5% of the parent's median
CPU_SNIPPET = """
import resource, sys, tempfile
sys.path[:0] = ["src", "perfbench"]
from workloads import WORKLOADS
from pecl import run_continual
from pecl.artifacts import write_run_bundle

def cpu_s():
    return sum(getattr(resource.getrusage(who), field)
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
               for field in ("ru_utime", "ru_stime"))

config, tasks = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
with tempfile.TemporaryDirectory() as tmp:
    start = cpu_s()
    write_run_bundle(tmp + "/out", run_continual(config, tasks), config)
    print(cpu_s() - start)
"""


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_revision(rev: str, dest: Path) -> str:
    """Write revision ``rev``'s files to ``dest``; return its full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def invoke(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench invocation in ``copy``: its metrics, failed samples, bundle digests
    (one ``{"matrix.csv": …, "ledger.csv": …}`` per distinct pair) and environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {copy} ({workload}, seed {seed}):\n"
                         f"{proc.stdout}\n{proc.stderr}")
    return parse_output(lines)


def cpu_seconds(copy: Path, workload: str, seed: int) -> float:
    """The CPU time of one run of the workload in a fresh process in ``copy``."""
    proc = subprocess.run([sys.executable, "-c", CPU_SNIPPET, workload, str(seed)],
                          cwd=copy, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"the CPU count failed in {copy} ({workload}, seed {seed}):\n"
                         f"{proc.stderr}")
    return float(proc.stdout)


def cpu_summary(parent: list[float], change: list[float]) -> dict:
    """``cpu_s``'s runs on both sides, summarised as ``summarise`` does under ``CPU_BOUND``."""
    return {"note": (f"not a BENCHMARK.json metric: per pair, the median over {CPU_RUNS} fresh "
                     "processes, alternating with the other side's, of the user + system "
                     "seconds of one run_continual plus write_run_bundle, the process's own "
                     "and its reaped children's"),
            **summarise(parent, change, "lower", CPU_BOUND)}


def parse_output(lines: list[str]) -> dict:
    """The metrics, failed samples, digests and environment a perfbench invocation printed."""
    result = json.loads(lines[-1])
    env = next(json.loads(line.split(":", 1)[1]) for line in lines
               if line.startswith("environment:"))
    fields = [line.split() for line in lines]
    # "  digests matrix.csv <sha256 prefix>  ledger.csv <sha256 prefix>  (<n> samples)"
    digests = [dict(zip(f[1:5:2], f[2:5:2])) for f in fields if f[:1] == ["digests"]]
    # "  run_wall_s       p50 <seconds> s (n=<n>; unscaled; <k> speed probes)"
    wall = next(float(f[2]) for f in fields if f[:2] == ["run_wall_s", "p50"])
    return {"values": {k: m["value"] for k, m in result["metrics"].items()} | {"run_wall_s": wall},
            "failed": result["failed"], "digests": digests, "environment": env}


def summarise(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's runs on both sides, with its no-regression and gain verdicts.

    ``regressed``: the change's median is worse than the parent's by more than
    ``bound``, a fraction of the parent's median.  ``unresolved``: the parent's
    own runs spread wider than that (their quartiles lie more than ``bound``
    times the median apart), and not every change run beats every parent run,
    so the runs cannot tell a change within the bound from none.  ``gain``:
    there are at least ``MIN_GAIN_PAIRS`` pairs, the change wins at least nine
    in ten of them (a tie is no win), and its median beats the parent's by
    more than the parent's IQR.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * value: lower is better
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    q1, _, q3 = quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else (0, 0, 0)
    p_med, c_med = median(parent), median(change)
    return {
        "parent_median": round(p_med, 4),
        "change_median": round(c_med, 4),
        "change_vs_parent": round(c_med / p_med - 1.0, 4),
        "parent_iqr": round(q3 - q1, 4),
        "change_wins": wins,
        "regressed": sign * (c_med - p_med) > bound * abs(p_med),
        "gain": (len(parent) >= MIN_GAIN_PAIRS and 10 * wins >= 9 * len(parent)
                 and sign * (p_med - c_med) > q3 - q1),
        "unresolved": (q3 - q1 > bound * abs(p_med)
                       and max(sign * c for c in change) >= min(sign * p for p in parent)),
        "parent_runs": [round(v, 4) for v in parent],
        "change_runs": [round(v, 4) for v in change],
    }


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True, help="writes BENCH_<n>.json")
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", default="HEAD", help="change revision (default: HEAD)")
    parser.add_argument("--note", required=True, help="one sentence on what the change does")
    parser.add_argument("--workload", action="append", required=True, metavar="NAME=FIRST-LAST",
                        help="a workload and its seeds, one pair per seed; repeatable")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--machine", default="", help="a few words on the machine")
    parser.add_argument("--workdir", type=Path, help="where the copies go (default: a temp dir)")
    args = parser.parse_args(argv)
    if args.workdir is not None and not args.workdir.is_dir():
        parser.error(f"--workdir {args.workdir} is not a directory")
    plan = [(name, seed_range(seeds)) for name, _, seeds in
            (w.partition("=") for w in args.workload)]

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for path in sides.values():
            path.mkdir()
        parent_commit = export_revision(args.parent, sides["parent"])
        change_commit = export_revision(args.change, sides["change"])
        spec = json.loads((sides["change"] / "BENCHMARK.json").read_text("utf-8"))
        metrics = []
        for m in spec["end_to_end"]:
            metrics.append(m)
            if m["name"] == "run_s":  # the unscaled wall time, under run_s's bound
                metrics.append(dict(m, name="run_wall_s"))
        workloads, environment = {}, {}
        for name, seeds in plan:
            runs = {side: [] for side in sides}
            failed = {side: 0 for side in sides}
            digests = []
            for i, seed in enumerate(seeds):
                digests.append({"seed": seed, "parent": None, "change": None})
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    out = invoke(sides[side], name, seed, args.seconds)
                    runs[side].append(out["values"])
                    failed[side] += out["failed"]
                    digests[-1][side] = out["digests"]
                    environment = {k: out["environment"][k] for k in ENV_KEYS}
                    print(f"{name} seed {seed} {side}: {out['values']} {out['digests']}",
                          flush=True)
                cpu = {side: [] for side in order}
                for _ in range(CPU_RUNS):
                    for side in order:
                        cpu[side].append(cpu_seconds(sides[side], name, seed))
                for side in order:
                    runs[side][-1]["cpu_s"] = median(cpu[side])
                print(f"{name} seed {seed} cpu_s: {cpu}", flush=True)
            workloads[name] = {
                "pairs": len(seeds),
                "seeds": seeds,
                "failed_samples": failed,
                "digests": digests,
                "digests_differ": [d["seed"] for d in digests if d["parent"] != d["change"]],
                "metrics": {m["name"]: summarise([r[m["name"]] for r in runs["parent"]],
                                                 [r[m["name"]] for r in runs["change"]],
                                                 m["better"], m["bound"])
                            for m in metrics} | {
                    "cpu_s": cpu_summary([r["cpu_s"] for r in runs["parent"]],
                                         [r["cpu_s"] for r in runs["change"]])},
            }

    bench = {
        "change": args.note,
        "parent_commit": parent_commit,
        "change_commit": change_commit,
        "method": (
            "Alternating parent/change pairs, which side runs first alternating from pair to "
            "pair; each side is one `python3 perfbench/run.py --workload W --seed S --seconds "
            f"{args.seconds:g} --trace 0` invocation from a clean copy of that side's files, and "
            "each run value is that invocation's median over its samples (run_s and setup_s "
            "rescaled by perfbench's speed probe); run_wall_s is the unscaled run wall time "
            "perfbench prints beside run_s, judged under run_s's bound, and is not in "
            f"BENCHMARK.json. cpu_s, not in BENCHMARK.json either, is per pair the median over "
            f"{CPU_RUNS} fresh processes of the CPU seconds (user + system, the process's and "
            "its reaped children's) of one run_continual plus write_run_bundle, the two sides' "
            "processes alternating after the pair's perfbench invocations, judged under a "
            f"bound of {CPU_BOUND:g}. One pair per seed. change_wins counts pairs "
            "where the change is better; parent_iqr is the distance between the quartiles of "
            "the parent's runs. regressed: the change's median is worse than the parent's by "
            "more than the metric's bound in BENCHMARK.json; unresolved: the parent's IQR is "
            "wider than bound x its median and not every change run beats every parent run; "
            f"gain: at least {MIN_GAIN_PAIRS} pairs, the change wins at least 9 in 10 of them "
            "(ties count for neither side), and its median beats the parent's by more than the "
            "parent's IQR; under no effect a one-sided sign test gives 9 or more wins of 10 a "
            "chance of 11/1024, and 5 of 5 a chance of 1/32, so fewer pairs give no gain. "
            "digests holds each side's matrix.csv/ledger.csv sha256 "
            "prefixes per pair, and digests_differ the seeds where they differ. Written by "
            "tools/bench_pairs.py."
        ),
        "machine": args.machine or f"{environment.get('nproc')} CPUs",
        "environment": environment,
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(bench, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
