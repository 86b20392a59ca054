"""sha256 of every results-bundle file, for byte-parity checks between revisions.

    python3 tools/bundle_digests.py 0 1 2 3 4 > digests.txt

It imports ``pecl`` from the ``src`` directory next to this script.  For each
seed it builds the three perfbench workloads and the acceptance recipe in
``uniform_dp`` mode.  Per workload it first prints one
``<workload> <seed> stream <sha256>`` line over the synthetic stream the
workload was built from (token ids, vocabulary and sensitive ids; see
``stream_digest``), so that a changed stream shows before any bundle does.  It
then runs the workload, writes its bundle with ``write_run_bundle``, and prints
one ``<workload> <seed> <file> <sha256>`` line per bundle file and, for a
non-empty ledger, the ``<workload> <seed> compose <line>`` that ``pecl compose``
prints for ``ledger.csv`` under the run's delta and delta'.  Last it runs
``pecl audit`` on the default config at that seed and prints the digest of
``audit.csv``.  Run it in two checkouts and ``diff`` the outputs.

Run it a second time under ``taskset -c 0`` as well:

    taskset -c 0 python3 tools/bundle_digests.py 0 1 2 3 4 > digests-1cpu.txt

On one CPU a run does all its work in its own process; on two or more a
noised run forks one worker, which prepares epochs 1, 2, ... of each task,
in pecl fills the next task's clean base table, and runs half of the scoring,
epoch-0 fill, wrap-up and evaluation passes, each as ``trainer.RunWorker``
commands it.  Only both runs check both paths against the other checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from pecl import run_continual, synthetic_stream  # noqa: E402
from pecl.artifacts import write_run_bundle  # noqa: E402
from pecl.cli import main as pecl_main  # noqa: E402
from workloads import WORKLOADS, _recipe_config, _recipe_stream  # noqa: E402


def _recipe_uniform_dp(seed: int):
    stream = _recipe_stream(seed)
    return _recipe_config("uniform_dp", seed, stream, 0.0), stream.tasks


RUNS = {**WORKLOADS, "recipe-uniform_dp": _recipe_uniform_dp}


def build(name: str, seed: int):
    """Workload ``name``'s config and tasks at ``seed``, and the stream they were built from.

    The stream is the one ``workloads`` makes, recorded as it is made, so this
    script restates no workload's stream settings."""
    streams = []

    def recording(*args, **kwargs):
        streams.append(synthetic_stream(*args, **kwargs))
        return streams[-1]

    workloads.synthetic_stream = recording
    try:
        config, tasks = RUNS[name](seed)
    finally:
        workloads.synthetic_stream = synthetic_stream
    (stream,) = streams
    return config, tasks, stream


def stream_digest(stream) -> str:
    """sha256 of a stream's token ids (task by task, train then eval), vocabulary
    surfaces and sorted sensitive ids."""
    vocab = stream.vocab
    content = {
        "tasks": [[task.task_id, [seq.tokens for seq in task.train],
                   [seq.tokens for seq in task.eval]] for task in stream.tasks],
        "vocab": [vocab.surface_of(i) for i in range(len(vocab))],
        "sensitive_ids": sorted(stream.sensitive_ids),
    }
    return hashlib.sha256(json.dumps(content).encode()).hexdigest()


def _digests(out: Path):
    for p in sorted(out.iterdir()):
        yield p.name, hashlib.sha256(p.read_bytes()).hexdigest()


def _pecl(argv: list[str]) -> str:
    """What ``pecl <argv>`` prints; a nonzero exit stops the script."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = pecl_main(argv)
    if code:
        raise SystemExit(f"pecl {' '.join(argv)} exited {code}")
    return out.getvalue().strip()


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    for seed in map(int, argv):
        for name in RUNS:
            config, tasks, stream = build(name, seed)
            print(name, seed, "stream", stream_digest(stream), flush=True)
            with tempfile.TemporaryDirectory() as tmp:
                result = run_continual(config, tasks)
                write_run_bundle(tmp, result, config)
                for file, digest in _digests(Path(tmp)):
                    print(name, seed, file, digest, flush=True)
                if len(result.ledger):
                    composed = _pecl(["compose", "--ledger", str(Path(tmp) / "ledger.csv"),
                                      "--delta", repr(config.privacy.delta),
                                      "--delta-prime", repr(config.delta_prime)])
                    print(name, seed, "compose", composed, flush=True)
        with tempfile.TemporaryDirectory() as tmp:
            _pecl(["audit", "--out", tmp, "--seed", str(seed)])
            for file, digest in _digests(Path(tmp)):
                print("default-audit", seed, file, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
