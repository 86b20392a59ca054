import csv
import json
import math
import os
import re
import signal
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pecl.artifacts import check_bundle, read_matrix_csv, write_run_bundle
from pecl.cli import main
from pecl.config import SCHEMA, config_from_dict, config_to_dict, parse_config
from pecl.errors import DataError
from pecl.privacy import PrivacyConfig, PrivacyLedger
from pecl.sculpt import SculptConfig
from pecl.tinylm import init_lm
from pecl.trainer import AccuracyMatrix, RunConfig, RunResult, RunWorker, TaskReport

SMALL = {
    "train_per_task": 25,
    "eval_per_task": 8,
    "epochs": 1,
    "batch_size": 16,
    "seed": 4,
    "num_tasks": 2,
}


def write_config(tmp_path, extra=None, name="config.json"):
    obj = dict(SMALL)
    if extra:
        obj.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def parse_metric_line(line):
    pairs = dict(part.split("=") for part in line.strip().split())
    return {k: float(v) for k, v in pairs.items()}


def test_parse_config_defaults_match_published_values(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}", encoding="utf-8")
    config = parse_config(path)
    assert config.sensitivity.alpha == 0.5
    assert config.privacy.eps_lower == 1.0
    assert config.privacy.eps_upper == 10.0
    assert config.privacy.delta == 1e-6
    assert config.sculpt.theta == 0.6
    assert config.sculpt.lambda_max == 10.0
    assert config.sculpt.lambda_min == 1.0
    assert config.sculpt.lambda_unlearn == 1.0
    assert config.lr == 5e-4
    assert config.epochs == 3
    assert config.batch_size == 32
    assert config.mode == "pecl"
    assert config.tau == 0.2


def test_parse_config_names_offending_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alpha": 1.5}), encoding="utf-8")
    with pytest.raises(DataError, match="alpha"):
        parse_config(path)


def test_parse_config_epsilon_ordering(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"eps_lower": 5, "eps_upper": 2}), encoding="utf-8")
    with pytest.raises(DataError, match="eps_lower"):
        parse_config(path)


def test_parse_config_unknown_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alfa": 0.5}), encoding="utf-8")
    with pytest.raises(DataError, match="alfa"):
        parse_config(path)


def test_parse_config_type_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"epochs": "three"}), encoding="utf-8")
    with pytest.raises(DataError, match="epochs"):
        parse_config(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(k for k, (_, tp) in SCHEMA.items() if tp is float))
def test_non_finite_float_key_is_a_data_error(tmp_path, capsys, monkeypatch, key, value):
    # JSON's NaN and Infinity parse, and NaN slips past every ``x <= 0`` check.
    def no_training(*args, **kwargs):
        raise AssertionError("training started on a non-finite config value")

    monkeypatch.setattr("pecl.trainer.backward", no_training)
    config = write_config(tmp_path, {key: value})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and repr(key) in err


@pytest.mark.parametrize("value", [2**63, -2**63 - 1, 10**30])
@pytest.mark.parametrize("key", sorted(k for k, (_, tp) in SCHEMA.items() if tp is int))
def test_int_key_numpy_cannot_hold_is_a_data_error(tmp_path, capsys, monkeypatch, key, value):
    # numpy cannot size an array or seed a generator with such a value: init_lm
    # would end in a TypeError traceback.
    def no_training(*args, **kwargs):
        raise AssertionError("training started on an integer numpy cannot hold")

    monkeypatch.setattr("pecl.trainer.backward", no_training)
    config = write_config(tmp_path, {key: value})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: config key {key!r} must fit in 64 bits")


@pytest.mark.parametrize("given, named", [
    ({"n_ctx": 2**62}, "n_ctx * d_emb"),
    ({"n_ctx": 2**31, "d_emb": 2**32}, "n_ctx * d_emb"),
    ({"d_hidden": 2**40, "n_ctx": 2**20, "d_emb": 2**10}, "d_hidden * n_ctx * d_emb"),
], ids=["n_ctx", "n_ctx_d_emb", "d_hidden_n_ctx_d_emb"])
def test_shape_products_numpy_cannot_hold_are_data_errors(tmp_path, capsys, monkeypatch, given,
                                                          named):
    # Each key fits in int64 but the model's shapes do not: init_lm ended in a
    # TypeError traceback from np.sqrt of the hidden layer's input width.
    def no_training(*args, **kwargs):
        raise AssertionError("training started on shapes numpy cannot hold")

    monkeypatch.setattr("pecl.trainer.backward", no_training)
    config = write_config(tmp_path, given)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        f"data error: invalid config: {named} must fit in 64 bits, got ")
    assert not (tmp_path / "out").exists()


def test_shape_products_at_the_int64_limit_are_accepted():
    n_ctx = 7 * 73 * 127  # a divisor of 2**63 - 1
    config = config_from_dict({"n_ctx": n_ctx, "d_emb": (2**63 - 1) // n_ctx, "d_hidden": 1})
    assert config.d_hidden * config.n_ctx * config.d_emb == 2**63 - 1


def test_int_keys_at_the_int64_limits_are_accepted():
    for value in (2**63 - 1, -2**63):
        assert config_from_dict({"noise_seed": value}).privacy.noise_seed == value


def test_running_out_of_memory_is_an_error_without_a_traceback(tmp_path, capsys,
                                                               monkeypatch):
    def no_memory(*args):
        raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (1000000000,)")

    monkeypatch.setattr("pecl.cli.run_continual", no_memory)
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 7.45 GiB for an array with shape "
        "(1000000000,)\n")
    assert not (tmp_path / "out").exists()


def test_an_out_of_memory_error_in_the_epoch_worker_is_an_error_without_a_traceback(
        tmp_path, capsys, monkeypatch):
    # numpy's _ArrayMemoryError needs a shape and a dtype besides the message.
    from numpy._core._exceptions import _ArrayMemoryError

    from pecl.privacy import perturb_embeddings

    config = write_config(tmp_path, extra={"epochs": 2})
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    run_pid = os.getpid()
    refused = _ArrayMemoryError((2**24, 2**24), np.dtype(np.uint8))

    def mechanism(*args):
        if os.getpid() != run_pid:
            raise refused
        return perturb_embeddings(*args)

    monkeypatch.setattr("pecl.trainer.perturb_embeddings", mechanism)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: out of memory: {refused}\n"
    assert not (tmp_path / "out").exists()


def test_a_seed_outside_32_bits_is_a_data_error(tmp_path, capsys, monkeypatch):
    # Kept modulo 2**32, seeds 0 and 2**32 would write the same bundle.
    def no_training(*args, **kwargs):
        raise AssertionError("training started on a seed outside [0, 2**32)")

    monkeypatch.setattr("pecl.trainer.backward", no_training)
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--seed", "4294967296"]) == 2
    assert capsys.readouterr().err == (
        "data error: seed must be in [0, 2**32), got 4294967296\n")
    assert not out.exists()


@pytest.mark.parametrize("make", [
    lambda v: RunConfig(lr=v), lambda v: RunConfig(weight_decay=v),
    lambda v: RunConfig(uniform_eps=v), lambda v: PrivacyConfig(eps_lower=v),
    lambda v: PrivacyConfig(eps_upper=v), lambda v: PrivacyConfig(clip_norm=v),
    lambda v: SculptConfig(lambda_min=v), lambda v: SculptConfig(lambda_max=v),
    lambda v: SculptConfig(lambda_unlearn=v),
], ids=["lr", "weight_decay", "uniform_eps", "eps_lower", "eps_upper", "clip_norm",
        "lambda_min", "lambda_max", "lambda_unlearn"])
def test_config_dataclasses_reject_nan(make):
    with pytest.raises(ValueError):
        make(math.nan)


def test_config_round_trips_through_dict():
    config = config_from_dict(dict(SMALL))
    again = config_from_dict(config_to_dict(config))
    assert config_to_dict(again) == config_to_dict(config)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_table_matches_the_schema():
    section = README.read_text("utf-8").split("### Config file", 1)[1].split("\n###", 1)[0]
    documented = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        keys, defaults = re.split(r"(?<!\\)\|", line)[1:3]
        keys = re.findall(r"`(\w+)`", keys)
        defaults = [json.loads(d.strip().strip("`")) for d in defaults.split(" / ")]
        assert len(keys) == len(defaults), line
        documented.update(zip(keys, defaults))
    assert len(SCHEMA) == 33
    assert documented.keys() == SCHEMA.keys()
    assert documented == config_to_dict(RunConfig())


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=2),
    max_leaves=4,
)
# Values of each field's type, so that many drawn configs are valid.
typed_values = {int: st.integers(1, 5), float: st.floats(0.0, 1.0), bool: st.booleans(),
                str: st.sampled_from(["pecl", "seqft", "adamw", "all", "main_text", "synthetic"])}
known_entries = st.sampled_from(sorted(SCHEMA)).flatmap(lambda key: st.tuples(
    st.just(key), typed_values.get(SCHEMA[key][1], st.none()) | json_values))
any_entries = known_entries | st.tuples(st.text(max_size=6), json_values)


@settings(max_examples=300, deadline=None)
@given(obj=(st.lists(known_entries, max_size=5) | st.lists(any_entries, max_size=5)).map(dict))
def test_config_from_dict_gives_a_data_error_or_a_config_that_round_trips(obj):
    try:
        config = config_from_dict(obj)
    except DataError:
        return
    flat = config_to_dict(config)
    assert config_to_dict(config_from_dict(json.loads(json.dumps(flat)))) == flat


matrix_cells = st.floats(0.0, 1.0).map(repr) | st.one_of(
    st.floats().map(repr), st.sampled_from(["", " ", "1e0", "-0", "2", "x"]))
matrix_rows = st.integers(1, 3).flatmap(
    lambda n: st.tuples(*(st.lists(matrix_cells, min_size=k, max_size=k) for k in range(1, n + 1)))
) | st.lists(st.lists(matrix_cells, min_size=1, max_size=4), max_size=4)
matrix_text = matrix_rows.map(lambda rows: "\n".join(map(",".join, rows)).encode("utf-8"))


@settings(max_examples=200, deadline=None)
@given(data=matrix_text | st.binary(max_size=24))
def test_read_matrix_csv_gives_a_data_error_or_a_valid_matrix(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("matrix") / "matrix.csv"
    path.write_bytes(data)
    try:
        matrix = read_matrix_csv(path)
    except DataError as exc:
        assert str(path) in str(exc)
        return
    for k, row in enumerate(matrix.rows(), start=1):
        assert len(row) == k and all(0.0 <= v <= 1.0 for v in row)


def test_matrix_accuracy_outside_the_unit_interval_names_the_file(tmp_path, capsys):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("0.5\n1.5,0.6\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{matrix}: accuracies must lie in [0, 1]")):
        read_matrix_csv(matrix)
    assert main(["metrics", "--matrix", str(matrix)]) == 2
    assert str(matrix) in capsys.readouterr().err


def test_single_task_run_and_metrics_warn_once_each(tmp_path, capsys):
    warning = "warning: BWT is undefined for a single task; reporting 0.0\n"
    config = write_config(tmp_path, {"num_tasks": 1})
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().err == warning
    assert main(["metrics", "--matrix", str(out / "matrix.csv")]) == 0
    assert capsys.readouterr().err == warning


def test_warning_filters_from_the_command_line_are_kept(tmp_path, monkeypatch):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("0.5\n", encoding="utf-8")
    monkeypatch.setattr(sys, "warnoptions", ["error"])  # as `python -W error` sets it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="BWT is undefined"):
            main(["metrics", "--matrix", str(matrix)])


def test_metrics_command_matches_hand_values(tmp_path, capsys):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("0.5\n0.4,0.6\n", encoding="utf-8")
    assert main(["metrics", "--matrix", str(matrix)]) == 0
    values = parse_metric_line(capsys.readouterr().out)
    assert values["bwt"] == pytest.approx(-0.1, rel=1e-9)
    assert values["last"] == pytest.approx(0.5, rel=1e-9)
    assert values["avg"] == pytest.approx(0.5, rel=1e-9)


def test_compose_command_two_record_ledger(tmp_path, capsys):
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(
        "sequence_id,position,epoch,epsilon,sigma\ns,0,0,1.0,1.0\ns,1,0,2.0,1.0\n",
        encoding="utf-8",
    )
    assert main(["compose", "--ledger", str(ledger)]) == 0
    out = capsys.readouterr().out
    eps_total = float(re.search(r"epsilon_total=([\d.eE+-]+)", out).group(1))
    delta_total = float(re.search(r"delta_total=([\d.eE+-]+)", out).group(1))
    assert eps_total == pytest.approx(3 + math.sqrt(4 * math.log(1e6)) * 2, rel=1e-12)
    assert delta_total == pytest.approx(2e-6, rel=1e-12)
    assert "L=2" in out


GOOD_ROW = {"sequence_id": "s", "position": "0", "epoch": "0", "epsilon": "1.0", "sigma": "1.0"}


@pytest.mark.parametrize("bad, flags", [
    ({"epsilon": "nan"}, []), ({"epsilon": "-3.0"}, []), ({"epsilon": "inf"}, []),
    ({"sigma": "-1.0"}, []), ({"position": "-1"}, []), ({"epoch": "-1"}, []),
    ({}, ["--delta", "5"]), ({}, ["--delta", "nan"]),
], ids=["epsilon-nan", "epsilon-negative", "epsilon-inf", "sigma-negative",
        "position-negative", "epoch-negative", "delta-5", "delta-nan"])
def test_compose_rejects_meaningless_budgets(tmp_path, capsys, bad, flags):
    ledger = tmp_path / "ledger.csv"
    row = {**GOOD_ROW, **bad}
    ledger.write_text(",".join(row) + "\n" + ",".join(GOOD_ROW.values()) + "\n"
                      + ",".join(row.values()) + "\n", encoding="utf-8")
    assert main(["compose", "--ledger", str(ledger), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("data error: ")
    if bad:
        assert f"{ledger}:3: " in captured.err


def test_compose_overflowing_total_is_a_numeric_failure(tmp_path, capsys):
    ledger = tmp_path / "ledger.csv"
    ledger.write_text("sequence_id,position,epoch,epsilon,sigma\n"
                      "s,0,0,1e308,1.0\ns,1,0,1e308,1.0\n", encoding="utf-8")
    assert main(["compose", "--ledger", str(ledger)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric failure: epsilon_total overflows")
    assert "\n" == captured.err[-1] and captured.err.count("\n") == 1


def test_run_twice_is_byte_identical(tmp_path, capsys):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out2)]) == 0
    capsys.readouterr()
    for name in ("metrics.json", "matrix.csv", "ledger.csv", "sculpt_report.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_then_metrics_round_trip_exact(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out), "--self-check"]) == 0
    capsys.readouterr()
    assert main(["metrics", "--matrix", str(out / "matrix.csv")]) == 0
    printed = parse_metric_line(capsys.readouterr().out.strip().splitlines()[-1])
    stored = json.loads((out / "metrics.json").read_text("utf-8"))
    assert printed["bwt"] == stored["bwt"]
    assert printed["last"] == stored["last"]
    assert printed["avg"] == stored["avg"]


def test_run_bundle_contents(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("matrix.csv", "metrics.json", "ledger.csv", "sculpt_report.csv",
                 "model.ckpt", "run_config.json"):
        assert (out / name).exists(), name
    replay = json.loads((out / "run_config.json").read_text("utf-8"))
    assert replay["seed"] == SMALL["seed"]
    config_from_dict(replay)  # resolved config must parse back


def test_run_seed_and_mode_overrides(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out),
                 "--mode", "seqft", "--seed", "9"]) == 0
    capsys.readouterr()
    replay = json.loads((out / "run_config.json").read_text("utf-8"))
    assert replay["mode"] == "seqft" and replay["seed"] == 9
    ledger_rows = (out / "ledger.csv").read_text("utf-8").strip().splitlines()
    assert len(ledger_rows) == 1  # header only: seqft adds no noise


def test_audit_schema(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "audit"
    assert main(["audit", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    with (out / "audit.csv").open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["position", "surface", "score1", "score2", "score",
                      "epsilon", "sigma", "stopword"]
    assert rows
    for row in rows[:200]:
        score = float(row[4])
        if score == 0.0:
            assert row[5] == "" and row[6] == ""
        else:
            assert float(row[5]) > 0 and float(row[6]) > 0
        assert row[7] in ("0", "1")


def test_report_bytes_of_the_bundle_are_pinned(tmp_path):
    reports = [TaskReport(1, 0.1, 1e-300, None, None, 0.0, None),
               TaskReport(2, 2.5, 0.1, 0.30000000000000004, 1e-05, 1e-300, 7.0)]
    result = RunResult(matrix=AccuracyMatrix.from_rows([[0.5], [0.25, 1.0]]),
                       ledger=PrivacyLedger(1e-6), reports=reports,
                       model=init_lm((4, 2, 2, 3), 0), adapter=None)
    write_run_bundle(tmp_path, result, RunConfig())
    assert (tmp_path / "sculpt_report.csv").read_bytes() == (
        b"task_id,omega,omega_bar,s_bar,lambda_dyn,final_l_reg,final_l_unlearn\r\n"
        b"1,0.1,1e-300,,,0.0,\r\n"
        b"2,2.5,0.1,0.30000000000000004,1e-05,1e-300,7.0\r\n"
    )
    per_task = [
        '    {\n      "final_l_reg": 0.0,\n      "final_l_unlearn": null,\n'
        '      "lambda_dyn": null,\n      "omega": 0.1,\n      "omega_bar": 1e-300,\n'
        '      "s_bar": null,\n      "task_id": 1\n    }',
        '    {\n      "final_l_reg": 1e-300,\n      "final_l_unlearn": 7.0,\n'
        '      "lambda_dyn": 1e-05,\n      "omega": 2.5,\n      "omega_bar": 0.1,\n'
        '      "s_bar": 0.30000000000000004,\n      "task_id": 2\n    }',
    ]
    assert (tmp_path / "metrics.json").read_text("utf-8") == (
        '{\n  "avg": 0.5625,\n  "bwt": -0.25,\n  "last": 0.625,\n  "per_task": [\n'
        + ",\n".join(per_task) + "\n  ]\n}\n"
    )
    assert (tmp_path / "ledger.csv").read_bytes() == b"sequence_id,position,epoch,epsilon,sigma\r\n"


def test_audit_csv_bytes_are_pinned(tmp_path, capsys):
    corpus = tmp_path / "quoting.jsonl"
    corpus.write_text("\n".join(json.dumps(r) for r in [
        {"task_id": 1, "text": 'the cat, said "hi" to alice', "label": "pos"},
        {"task_id": 1, "text": "a dog barked, loudly", "label": "neg"},
        {"task_id": 1, "text": "the cat sat", "label": "pos", "split": "eval"},
        {"task_id": 2, "text": 'bob wrote "secret", then left', "label": "neg"},
        {"task_id": 2, "text": "a bird flew", "label": "neg", "split": "eval"},
    ]) + "\n", encoding="utf-8")
    config = write_config(tmp_path, {"corpus": str(corpus), "d_emb": 4, "d_hidden": 8,
                                     "rank": 2})
    out = tmp_path / "audit"
    assert main(["audit", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out / 'audit.csv'} (25 token rows)\n"
    text = (out / "audit.csv").read_bytes().decode("utf-8")
    assert text.endswith("\r\n")
    lines = text[:-2].split("\r\n")
    assert lines[0] == "position,surface,score1,score2,score,epsilon,sigma,stopword"
    surfaces = ["the", "cat", '","', "said", '""""', "hi", '""""', "to", "alice", "pos",
                "a", "dog", "barked", '","', "loudly", "neg",
                "bob", "wrote", '""""', "secret", '""""', '","', "then", "left", "neg"]
    positions = [*range(1, 11), *range(1, 7), *range(1, 10)]
    assert len(lines) - 1 == len(surfaces) == 25
    for line, pos, surface in zip(lines[1:], positions, surfaces):
        # Every float cell is the repr of the value it holds, and an unset
        # budget is an empty cell: the line can be rebuilt from its values.
        (_, _, score1, score2, score, eps, sigma, stop), = csv.reader([line])
        cells = [repr(float(score1)), repr(float(score2)), repr(float(score))]
        if float(score) == 0.0:
            cells += ["", ""]
        else:
            cells += [repr(float(eps)), repr(float(sigma))]
        assert stop in ("0", "1")
        assert line == ",".join([str(pos), surface, *cells, stop])
    assert lines[1] == "1,the,0.0,0.0,0.0,,,1"
    assert lines[17] == "1,bob,0.0,0.0,0.0,,,0"
    stopwords = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert stopwords[:11] == ["1", "0", "0", "1", "0", "0", "0", "1", "0", "0", "1"]


def test_sweep_emits_per_point_metrics(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--out", str(out),
                 "--sweep-param", "alpha", "--sweep-values", "0.2,0.8"]) == 0
    capsys.readouterr()
    lines = (out / "sweep.csv").read_text("utf-8").strip().splitlines()
    assert lines[0] == "param,value,bwt,last,avg"
    assert len(lines) == 3
    assert lines[1].startswith("alpha,0.2,")
    assert lines[2].startswith("alpha,0.8,")


def test_exit_codes(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run", "--config", "/nope.json", "--out", str(tmp_path / "x")]) == 2
    assert main(["metrics", "--matrix", "/nope.csv"]) == 2
    assert main(["metrics"]) == 1           # missing required flag
    assert main(["unknown-command"]) == 1
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "s"),
                 "--sweep-param", "alpha", "--sweep-values", "abc"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("given", ["config", "corpus", "stopword_file", "ledger", "matrix"])
def test_input_path_that_is_a_directory_is_a_data_error(tmp_path, capsys, given):
    folder = tmp_path / "folder"
    folder.mkdir()
    out = str(tmp_path / "out")
    if given in ("corpus", "stopword_file"):
        argv = ["run", "--config", str(write_config(tmp_path, {given: str(folder)})), "--out", out]
    else:
        argv = {"config": ["run", "--config", str(folder), "--out", out],
                "ledger": ["compose", "--ledger", str(folder)],
                "matrix": ["metrics", "--matrix", str(folder)]}[given]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot read {folder}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "audit"])
@pytest.mark.parametrize("given, text", [
    ("corpus", "[" * 200_000),
    ("corpus", '{"task_id": ' + "7" * 5000 + ', "text": "a", "label": "b"}'),
    ("config", '{"seed": ' + "[" * 200_000),
    ("config", '{"seed": ' + "7" * 5000 + "}"),
], ids=["corpus-nested", "corpus-long-task-id", "config-nested", "config-long-int"])
def test_json_the_parser_refuses_is_a_data_error(tmp_path, capsys, command, given, text):
    bad = tmp_path / f"bad.{given}"
    bad.write_text(text + "\n", encoding="utf-8")
    config = bad if given == "config" else write_config(tmp_path, {"corpus": str(bad)})
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    where = f"{bad}:1: malformed record" if given == "corpus" else f"{bad}: malformed JSON"
    assert err.startswith(f"data error: {where}: ")
    assert "Traceback" not in err


LONG = "x" * 100_000


@pytest.mark.parametrize("given, value, named", [
    ("corpus", {"task_id": 1, "text": "a", "label": "b", "split": "x" * 1_000_000}, ":1: split"),
    ("corpus", {"task_id": LONG, "text": "a", "label": "b"}, ":1: task_id"),
    ("corpus", {"task_id": 1, "text": "a", "label": " " * 100_000}, ":1: label"),
    ("config", {"lr": 10 ** 400}, "'lr'"),
    ("config", {"epochs": -10 ** 400}, "epochs"),
    ("config", {"seed": LONG}, "'seed'"),
    ("config", {"mode": LONG}, "mode"),
    ("config", {LONG: 1}, "unknown config key 'xxx"),
    ("config", {"task_order": list(range(3, 30_000))}, "task_order"),
], ids=["split", "task_id", "label", "lr", "epochs", "seed", "mode", "unknown-key", "task_order"])
def test_a_long_value_in_an_error_message_is_cut(tmp_path, capsys, given, value, named):
    if given == "corpus":
        corpus = tmp_path / "long.jsonl"
        corpus.write_text(json.dumps(value) + "\n", encoding="utf-8")
        config, named = write_config(tmp_path, {"corpus": str(corpus)}), f"{corpus}{named}"
    else:
        config = write_config(tmp_path, value)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and named in err
    assert len(err) < 300 and " chars)" in err


def test_failed_run_leaves_no_partial_outputs(tmp_path, capsys):
    config = write_config(tmp_path, extra={"task_order": [1, 7]})
    out = tmp_path / "broken"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    capsys.readouterr()
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_killed_epoch_worker_is_an_error_not_an_output_write_error(tmp_path, capsys,
                                                                     monkeypatch, command):
    config = write_config(tmp_path, extra={"epochs": 2})
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    run_pid = os.getpid()
    prepare = RunWorker._prepare

    def dying(self, k, epoch, *args):
        if os.getpid() != run_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return prepare(self, k, epoch, *args)

    monkeypatch.setattr(RunWorker, "_prepare", dying)
    out = tmp_path / "out"
    flags = ["--sweep-param", "alpha", "--sweep-values", "0.2"] if command == "sweep" else []
    assert main([command, "--config", str(config), "--out", str(out), *flags]) == 2
    # The worker's own message alone: no "cannot write output", no traceback.
    assert capsys.readouterr().err == (
        "error: the epoch worker ended without its result (killed by signal 9)\n")
    assert not out.exists()


def test_run_failing_mid_bundle_removes_the_files_it_wrote(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    blocker = out / "ledger.csv"
    blocker.mkdir(parents=True)
    (blocker / "keep.txt").write_text("untouched", encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(blocker) in err
    assert sorted(p.name for p in out.iterdir()) == ["ledger.csv"]
    assert (blocker / "keep.txt").read_text(encoding="utf-8") == "untouched"


def _drop_checkpoint_meta_key(out):
    path = out / "model.ckpt"
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(str(arrays.pop("meta")))
    del meta["rank"]
    with path.open("wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def _rewrite_metrics(out, **changes):
    path = out / "metrics.json"
    path.write_text(json.dumps({**json.loads(path.read_text("utf-8")), **changes}), "utf-8")


BROKEN_BUNDLES = {
    "ledger-missing": lambda out: (out / "ledger.csv").unlink(),
    "checkpoint-truncated": lambda out: (out / "model.ckpt").write_bytes(
        (out / "model.ckpt").read_bytes()[:100]),
    "checkpoint-plain-bytes": lambda out: (out / "model.ckpt").write_bytes(b"not a checkpoint"),
    "checkpoint-empty": lambda out: (out / "model.ckpt").write_bytes(b""),
    "checkpoint-meta-key-missing": _drop_checkpoint_meta_key,
    "metrics-not-utf8": lambda out: (out / "metrics.json").write_bytes(b'{"bwt": "\xff"}'),
    "metrics-not-an-object": lambda out: (out / "metrics.json").write_text("5", "utf-8"),
    "per-task-not-a-list": lambda out: _rewrite_metrics(out, per_task=2),
}


@pytest.mark.parametrize("name", BROKEN_BUNDLES)
def test_check_bundle_names_an_unreadable_file_in_a_data_error(tmp_path, name):
    reports = [TaskReport(k, 0.1, 0.1, None, None, 0.0, None) for k in (1, 2)]
    result = RunResult(matrix=AccuracyMatrix.from_rows([[0.5], [0.25, 1.0]]),
                       ledger=PrivacyLedger(1e-6), reports=reports,
                       model=init_lm((4, 2, 2, 3), 0), adapter=None)
    write_run_bundle(tmp_path, result, RunConfig())
    assert len(check_bundle(tmp_path)) == 6
    BROKEN_BUNDLES[name](tmp_path)
    with pytest.raises(DataError, match=re.escape(str(tmp_path))):
        check_bundle(tmp_path)


def test_run_output_under_a_file_is_a_data_error(tmp_path, capsys):
    config = write_config(tmp_path)
    blocker = tmp_path / "plain.txt"
    blocker.write_text("not a directory", encoding="utf-8")
    out = blocker / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(out) in err
    assert "Traceback" not in err


def test_audit_output_under_a_file_is_a_data_error(tmp_path, capsys):
    config = write_config(tmp_path)
    blocker = tmp_path / "plain.txt"
    blocker.write_text("not a directory", encoding="utf-8")
    out = blocker / "audit"
    assert main(["audit", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(out) in err
