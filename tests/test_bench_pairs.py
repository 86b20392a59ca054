import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

TIGHT = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]  # IQR 0.015
WIDE = [0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.8, 1.2, 0.9, 1.1]             # IQR 0.35


@pytest.mark.parametrize("better, parent, change, regressed, unresolved, gain", [
    ("lower", TIGHT, [v * 1.2 for v in TIGHT], False, False, False),    # worse, within the bound
    ("lower", TIGHT, [v * 1.3 for v in TIGHT], True, False, False),     # worse, past the bound
    ("lower", TIGHT, [v * 0.7 for v in TIGHT], False, False, True),     # better
    ("higher", TIGHT, [v * 0.7 for v in TIGHT], True, False, False),
    ("higher", TIGHT, [v * 1.3 for v in TIGHT], False, False, True),
    ("lower", WIDE, WIDE, False, True, False),                  # the parent's spread hides 25%
    # Every change run beats every parent run.
    ("lower", WIDE, [v * 0.2 for v in WIDE], False, False, True),
    ("higher", WIDE, [v * 2.0 for v in WIDE], False, True, True),  # 0.6 * 2 does not beat 1.4
    ("higher", WIDE, [v + 1.0 for v in WIDE], False, False, True),
    # Wins 10 of 10 pairs, and the medians lie further apart than the IQR.
    ("lower", TIGHT, [v - 0.05 for v in TIGHT], False, False, True),
    # Wins 9 of 10 pairs, but the medians lie within the IQR.
    ("lower", WIDE, [v - 0.1 for v in WIDE[:9]] + [WIDE[9] + 0.1], False, True, False),
    # Wins 8 pairs and ties 2: a tie is no win, though the medians are clear.
    ("lower", TIGHT, [v - 0.05 for v in TIGHT[:8]] + TIGHT[8:], False, False, False),
])
def test_summarise_gives_a_no_regression_verdict_against_the_bound(better, parent, change,
                                                                   regressed, unresolved, gain):
    summary = bench_pairs.summarise(parent, change, better, 0.25)
    assert (summary["regressed"], summary["unresolved"]) == (regressed, unresolved)
    assert summary["gain"] == gain
    assert summary["parent_iqr"] == (0.015 if parent is TIGHT else 0.35)


def test_fewer_than_ten_pairs_give_no_gain():
    parent, change = TIGHT[:5], [v * 0.7 for v in TIGHT[:5]]  # 5 of 5 pairs won by 30%
    assert bench_pairs.summarise(parent, change, "lower", 0.25)["change_wins"] == 5
    assert not bench_pairs.summarise(parent, change, "lower", 0.25)["gain"]
    assert bench_pairs.summarise(TIGHT, [v * 0.7 for v in TIGHT], "lower", 0.25)["gain"]


def test_the_unscaled_run_wall_time_is_read_beside_run_s():
    lines = [
        "workload recipe-pecl  seed 3  samples 40 (0 failed); closed loop",
        "  run_s            p50 0.7632 s (n=40; no percentile above p50)",
        "  run_wall_s       p50 0.8123 s (n=40; unscaled; 1600 speed probes)",
        "  digests matrix.csv 0123456789abcdef  ledger.csv fedcba9876543210  (40 samples)",
        'environment: {"nproc": 2}',
        '{"correct": true, "attempted": 40, "failed": 0, '
        '"metrics": {"run_s": {"value": 0.7632, "unit": "s"}}}',
    ]
    out = bench_pairs.parse_output(lines)
    assert out["values"] == {"run_s": 0.7632, "run_wall_s": 0.8123}
    assert out["digests"] == [{"matrix.csv": "0123456789abcdef",
                               "ledger.csv": "fedcba9876543210"}]
    assert out["failed"] == 0 and out["environment"] == {"nproc": 2}


def test_cpu_s_is_summarised_beside_the_metrics_under_its_own_bound():
    summary = bench_pairs.cpu_summary(TIGHT, [v * 1.06 for v in TIGHT])  # 6% more CPU
    assert summary["regressed"] and not summary["gain"]
    assert "not a BENCHMARK.json metric" in summary["note"]
    assert summary["parent_runs"] == TIGHT and summary["change_wins"] == 0
    assert summary["parent_iqr"] == 0.015 and summary["change_vs_parent"] == 0.06
    assert not bench_pairs.cpu_summary(TIGHT, [v * 1.04 for v in TIGHT])["regressed"]


def test_cpu_seconds_counts_a_run_in_a_fresh_process():
    root = Path(__file__).resolve().parents[1]
    cpu_s = bench_pairs.cpu_seconds(root, "default-pecl", 0)
    assert 0.0 < cpu_s < 60.0


def test_a_workdir_that_is_not_a_directory_is_refused_before_anything_is_exported(
        tmp_path, monkeypatch, capsys):
    def export(*args):
        raise AssertionError("nothing is exported")

    monkeypatch.setattr(bench_pairs, "export_revision", export)
    monkeypatch.setattr(bench_pairs, "copy_worktree", export)
    missing = tmp_path / "missing"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--n", "0", "--parent", "HEAD", "--note", "n",
                          "--workload", "default-pecl=1-2", "--workdir", str(missing)])
    assert exit_info.value.code == 2
    assert f"--workdir {missing} is not a directory" in capsys.readouterr().err
    assert not missing.exists()
