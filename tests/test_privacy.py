import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pecl.errors import DataError, NumericError
from pecl.privacy import (
    LEDGER_COLUMNS,
    PrivacyConfig,
    PrivacyLedger,
    RecordTable,
    allocate_budget,
    assign_budgets,
    clip,
    compose_sequence,
    noise_sigma,
    perturb_embedding,
    perturb_embeddings,
    record_table,
)
from pecl.sensitivity import ProfileEntry


CFG = PrivacyConfig()


def test_allocate_budget_endpoints_and_midpoint():
    assert allocate_budget(0.0, CFG) == pytest.approx(10.0, rel=1e-12)
    assert allocate_budget(1.0, CFG) == pytest.approx(1.0, rel=1e-12)
    assert allocate_budget(0.5, CFG) == pytest.approx(3.25, rel=1e-12)


def test_allocate_budget_scalar_and_array_agree_bit_for_bit():
    scores = np.random.default_rng(5).uniform(0, 1, size=100_000)
    batched = allocate_budget(scores, CFG)
    one_by_one = np.array([allocate_budget(float(s), CFG) for s in scores])
    np.testing.assert_array_equal(batched, one_by_one)


def test_allocate_budget_range_and_monotone():
    rng = np.random.default_rng(0)
    scores = rng.uniform(0, 1, size=20000)
    eps = allocate_budget(scores, CFG)
    assert ((eps >= CFG.eps_lower) & (eps <= CFG.eps_upper)).all()
    ordered = np.sort(scores)
    assert (np.diff(allocate_budget(ordered, CFG)) <= 0).all()
    strict = np.linspace(0, 0.999, 500)
    assert (np.diff(allocate_budget(strict, CFG)) < 0).all()


def test_allocate_budget_rejects_out_of_range():
    with pytest.raises(ValueError):
        allocate_budget(1.5, CFG)
    with pytest.raises(ValueError):
        allocate_budget(-0.1, CFG)


def test_clip_examples():
    e = np.array([0.1, 0.2])
    np.testing.assert_array_equal(clip(e, 1.0), e)
    np.testing.assert_allclose(clip(np.array([3.0, 4.0]), 1.0), [0.6, 0.8], rtol=1e-12)
    big = np.array([5.0, -2.0, 1.0])
    once = clip(big, 0.7)
    np.testing.assert_array_equal(clip(once, 0.7), once)


def test_clip_norm_bound_and_equality_condition():
    rng = np.random.default_rng(1)
    vectors = rng.normal(scale=2.0, size=(5000, 8))
    clipped = clip(vectors, 1.0)
    norms = np.linalg.norm(clipped, axis=1)
    assert (norms <= 1.0 + 1e-12).all()
    outside = np.linalg.norm(vectors, axis=1) >= 1.0
    np.testing.assert_allclose(norms[outside], 1.0, rtol=1e-12)


def test_clip_sensitivity_bound_randomized():
    rng = np.random.default_rng(2)
    c = 0.9
    a = clip(rng.normal(scale=3.0, size=(20000, 6)), c)
    b = clip(rng.normal(scale=3.0, size=(20000, 6)), c)
    gaps = np.linalg.norm(a - b, axis=1)
    assert (gaps <= 2 * c + 1e-12).all()


def test_clip_validation():
    with pytest.raises(ValueError):
        clip(np.ones(3), 0.0)
    with pytest.raises(NumericError):
        clip(np.array([np.nan, 1.0]), 1.0)


def test_noise_sigma_values():
    main = noise_sigma(1.0, 1e-6, 1.0, "main_text")
    assert main == pytest.approx(math.sqrt(2 * math.log(1.25e6)), rel=1e-12)
    assert main == pytest.approx(5.298802526850474, rel=1e-9)
    appendix = noise_sigma(1.0, 1e-6, 1.0, "appendix")
    assert appendix == pytest.approx(2 * main, rel=1e-12)


def test_noise_sigma_strictly_decreasing_in_epsilon():
    eps = np.linspace(0.5, 20, 400)
    sig = noise_sigma(eps, 1e-6, 1.0, "appendix")
    assert (np.diff(sig) < 0).all()


def test_noise_sigma_validation():
    with pytest.raises(ValueError):
        noise_sigma(0.0, 1e-6, 1.0)
    with pytest.raises(ValueError):
        noise_sigma(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        noise_sigma(1.0, 1e-6, -1.0)
    with pytest.raises(ValueError):
        noise_sigma(1.0, 1e-6, 1.0, "fancy")


def test_privacy_config_validation():
    with pytest.raises(ValueError, match="eps_lower"):
        PrivacyConfig(eps_lower=5.0, eps_upper=2.0)
    with pytest.raises(ValueError, match="delta"):
        PrivacyConfig(delta=0.0)
    with pytest.raises(ValueError):
        PrivacyConfig(sensitivity_variant="body")


def test_perturb_zero_score_is_bit_identical_passthrough():
    rng = np.random.default_rng(0)
    e = rng.normal(size=6)
    state = rng.bit_generator.state
    out = perturb_embedding(e, ProfileEntry(0.0, math.nan, math.nan), CFG, rng)
    assert out is e
    assert rng.bit_generator.state == state


def test_perturb_sigma_zero_limit_returns_clipped():
    rng = np.random.default_rng(0)
    e = np.array([3.0, 4.0])
    out = perturb_embedding(e, ProfileEntry(0.5, 3.25, 0.0), CFG, rng)
    np.testing.assert_allclose(out, [0.6, 0.8], rtol=1e-12)


def test_perturb_missing_sigma_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="no epsilon/sigma"):
        perturb_embedding(np.ones(3), ProfileEntry(0.5, math.nan, math.nan), CFG, rng)


def test_perturb_noise_moments():
    rng = np.random.default_rng(42)
    sigma = noise_sigma(2.0, 1e-6, 1.0, "appendix")
    entry = ProfileEntry(0.7, 2.0, sigma)
    e = np.array([3.0, 4.0, 0.0, -1.0])
    center = clip(e, CFG.clip_norm)
    n = 10_000
    samples = np.stack([perturb_embedding(e, entry, CFG, rng) for _ in range(n)])
    mean_err = np.abs(samples.mean(axis=0) - center)
    assert (mean_err < 4 * sigma / math.sqrt(n)).all()
    stds = samples.std(axis=0, ddof=1)
    assert (np.abs(stds - sigma) < 0.05 * sigma).all()


def test_assign_budgets_only_for_positive_scores():
    from pecl.sensitivity import SensitivityProfile

    score = np.array([0.0, 0.3, 0.0, 0.9])
    profile = SensitivityProfile(
        tokens=[1, 2, 3, 4],
        score1=np.zeros(4),
        score2=np.zeros(4),
        score=score,
        is_stopword=np.array([True, False, True, False]),
        epsilon=np.full(4, np.nan),
        sigma=np.full(4, np.nan),
    )
    assign_budgets(profile, CFG)
    assert math.isnan(profile.epsilon[0]) and math.isnan(profile.sigma[2])
    assert profile.epsilon[1] == pytest.approx(allocate_budget(0.3, CFG))
    assert profile.sigma[3] == pytest.approx(
        noise_sigma(allocate_budget(0.9, CFG), CFG.delta, CFG.clip_norm, "appendix")
    )


def ledger_with(epsilons, delta=1e-6):
    ledger = PrivacyLedger(delta)
    for i, eps in enumerate(epsilons):
        ledger.extend(["s"], i, 0, [eps], 1.0)
    return ledger


def assert_columns(ledger, **expected):
    """``ledger.columns()`` is ``expected``, column by column; floats bit for bit."""
    cols = ledger.columns()
    assert list(cols) == list(expected)
    for name, values in expected.items():
        got, want = cols[name], np.array(values, dtype=cols[name].dtype)
        if want.dtype == float:
            got, want = got.view(np.int64), want.view(np.int64)
        assert got.tolist() == want.tolist(), name


def test_compose_single_record():
    eps_total, delta_total = compose_sequence(ledger_with([2.0]), 1e-6)
    expected = 2.0 + math.sqrt(2 * math.log(1e6)) * 2.0
    assert eps_total == pytest.approx(expected, rel=1e-12)
    assert eps_total == pytest.approx(12.513043539513864, rel=1e-9)
    assert delta_total == pytest.approx(2e-6, rel=1e-12)


def test_compose_two_records():
    eps_total, _ = compose_sequence(ledger_with([1.0, 2.0]), 1e-6)
    expected = 3.0 + math.sqrt(4 * math.log(1e6)) * 2.0
    assert eps_total == pytest.approx(expected, rel=1e-12)
    assert eps_total == pytest.approx(17.867688755399353, rel=1e-9)


def test_compose_strictly_increases_with_records():
    rng = np.random.default_rng(3)
    eps = list(rng.uniform(1, 10, size=12))
    totals = [compose_sequence(ledger_with(eps[: k + 1]), 1e-6)[0] for k in range(len(eps))]
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_compose_empty_ledger_errors():
    with pytest.raises(DataError):
        compose_sequence(PrivacyLedger(1e-6), 1e-6)


def test_ledger_csv_round_trip(tmp_path):
    ledger = ledger_with([1.5, 3.25, 9.0])
    path = tmp_path / "ledger.csv"
    ledger.to_csv(path)
    loaded = PrivacyLedger.from_csv(path, delta=1e-6)
    assert len(loaded) == 3
    assert_columns(loaded, **ledger.columns())
    assert loaded.columns()["position"].tolist() == [0, 1, 2]
    eps_a, delta_a = compose_sequence(ledger, 1e-6)
    eps_b, delta_b = compose_sequence(loaded, 1e-6)
    assert eps_a == eps_b and delta_a == delta_b


@pytest.mark.parametrize("delta", [5.0, 0.0, 1.0, math.nan])
def test_privacy_ledger_refuses_a_delta_outside_0_1(tmp_path, delta):
    with pytest.raises(ValueError, match=r"^delta must be in \(0, 1\)"):
        PrivacyLedger(delta)
    path = tmp_path / "ledger.csv"
    ledger_with([1.5]).to_csv(path)
    with pytest.raises(DataError, match=r"^delta must be in \(0, 1\)"):
        PrivacyLedger.from_csv(path, delta)


def test_from_csv_reads_the_ledger_under_the_delta_it_is_given(tmp_path):
    path = tmp_path / "ledger.csv"
    ledger_with([1.5, 3.25], delta=3e-6).to_csv(path)
    loaded = PrivacyLedger.from_csv(path, 2e-5)
    assert loaded.delta == 2e-5 and len(loaded) == 2
    assert compose_sequence(loaded, 1e-6)[1] == 2e-5 + 1e-6


@pytest.mark.parametrize("delta, delta_prime", [(1e-6, 1e-6), (3e-6, 1e-9), (0.25, 0.5)])
def test_compose_adds_delta_prime_to_the_ledgers_delta(delta, delta_prime):
    ledger = ledger_with([1.0, 2.0, 4.0], delta)
    assert ledger.delta == delta
    assert compose_sequence(ledger, delta_prime)[1] == delta + delta_prime


def reference_ledger_csv(rows) -> bytes:
    """The ledger file as ``csv.writer`` writes it with each float as its ``repr``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["sequence_id", "position", "epoch", "epsilon", "sigma"])
    writer.writerows((i, p, e, repr(eps), repr(sig)) for i, p, e, eps, sig in rows)
    return buf.getvalue().encode("utf-8")


def last_line_of(rows) -> int:
    """The file line on which the last of ``rows`` ends, as ``csv`` readers count lines."""
    text = reference_ledger_csv(rows).decode("utf-8")
    return len(io.StringIO(text, newline="").readlines())


def valid_budget(value: float) -> float:
    """``value`` if it is a finite, positive budget, else a valid one of the same size."""
    return abs(value) if 0 < abs(value) < math.inf else 1.0


def assert_ledger_file_round_trips(ledger, rows, path):
    ledger.to_csv(path)
    assert path.read_bytes() == reference_ledger_csv(rows)
    bad = [i for i, row in enumerate(rows) if not all(0 < v < math.inf for v in row[3:])]
    if bad:
        # A budget that is not finite and positive is refused on read: the
        # first such row of the first column that holds one, by its file line.
        # The same rows with valid budgets must still read back bit for bit.
        column, k = next((name, k) for k, name in ((3, "epsilon"), (4, "sigma"))
                         if any(not 0 < row[k] < math.inf for row in rows))
        first = next(i for i, row in enumerate(rows) if not 0 < row[k] < math.inf)
        line = last_line_of(rows[: first + 1])
        with pytest.raises(DataError, match=rf":{line}: ledger column {column} must hold"):
            PrivacyLedger.from_csv(path, delta=1e-6)
        rows = [(*row[:3], *map(valid_budget, row[3:])) for row in rows]
        ledger = PrivacyLedger(1e-6)
        ledger.extend(*zip(*rows))
        ledger.to_csv(path)
        assert path.read_bytes() == reference_ledger_csv(rows)
    loaded = PrivacyLedger.from_csv(path, delta=1e-6)
    cols, expected = loaded.columns(), list(zip(*rows)) or [()] * 5
    assert cols["sequence_id"].tolist() == list(expected[0])
    assert cols["position"].tolist() == list(expected[1])
    assert cols["epoch"].tolist() == list(expected[2])
    for name, values in zip(("epsilon", "sigma"), expected[3:]):
        np.testing.assert_array_equal(cols[name].view(np.int64),
                                      np.array(values, dtype=float).view(np.int64))


AWKWARD_IDS = ["1:0", "a,b", 'say "hi"', "two\nlines", "cr\r", "", " ", "naïve", "日本:3"]
AWKWARD_FLOATS = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
    1.0, float(np.nextafter(1.0, 2.0)), float(np.nextafter(1.0, 0.0)),
    0.1, float(np.nextafter(0.1, 1.0)), 1.7976931348623157e308,
]
# No NUL: csv readers before Python 3.11 reject it.
ledger_ids = st.one_of(st.sampled_from(AWKWARD_IDS),
                       st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=6))
ledger_floats = st.one_of(st.sampled_from(AWKWARD_FLOATS),
                          st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
ledger_rows = st.lists(st.tuples(ledger_ids, st.integers(0, 2**62), st.integers(0, 2**62),
                                 ledger_floats, ledger_floats), max_size=12)


def unchecked_table(ids, positions, epsilons, sigmas) -> RecordTable:
    """A record table built directly, without ``record_table``'s checks: ``add``
    takes any table as it is, so the writer can be handed budgets that ``extend``
    and ``from_csv`` refuse (NaN payloads, -0.0, infinities)."""
    return RecordTable(np.array(ids, dtype=object), np.array(positions, dtype=np.int64),
                       np.array(epsilons, dtype=float), np.array(sigmas, dtype=float))


def add_unchecked(ledger, ids, positions, epochs, epsilons, sigmas):
    """Append rows as one chunk of their own records, as ``extend`` lays them out."""
    ledger.add(unchecked_table(ids, positions, epsilons, sigmas), np.arange(len(epsilons)),
               np.array(epochs, dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(rows=ledger_rows, cuts=st.lists(st.integers(0, 12), max_size=6))
def test_ledger_csv_writes_what_csv_writer_writes(rows, cuts, tmp_path_factory):
    ledger = PrivacyLedger(1e-6)
    # The rows appended as ledger chunks cut at ``cuts``: most examples span
    # several chunks, from one row each to all rows in one, some of them empty.
    for part in np.split(np.arange(len(rows)), sorted(cuts)):
        add_unchecked(ledger, *([rows[i][k] for i in part] for k in range(5)))
    assert_ledger_file_round_trips(ledger, rows, tmp_path_factory.mktemp("ledger") / "l.csv")


odd_cells = st.one_of(st.sampled_from(["", " 2", "1e3", "1_0", "0x10", "+inf", "-0"]),
                     st.text(st.characters(codec="utf-8"), max_size=6))
int_cells = st.one_of(st.integers(0, 9), st.integers(-3, 2**64)).map(str) | odd_cells
float_cells = st.one_of(st.floats(0.1, 10.0), ledger_floats).map(repr) | odd_cells
any_ledger_rows = st.lists(st.one_of(
    st.tuples(ledger_ids, int_cells, int_cells, float_cells, float_cells),
    st.lists(st.one_of(int_cells, float_cells), max_size=7),
), max_size=4)


@settings(max_examples=200, deadline=None)
@given(rows=any_ledger_rows)
def test_ledger_from_csv_gives_a_data_error_or_a_valid_ledger(rows, tmp_path_factory):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["sequence_id", "position", "epoch", "epsilon", "sigma"])
    writer.writerows(rows)
    path = tmp_path_factory.mktemp("ledger") / "l.csv"
    path.write_text(buf.getvalue(), encoding="utf-8", newline="")
    try:
        ledger = PrivacyLedger.from_csv(path, delta=1e-6)
    except DataError:
        return
    cols = ledger.columns()
    assert len(ledger) <= len(rows)
    assert (cols["position"] >= 0).all() and (cols["epoch"] >= 0).all()
    for name in ("epsilon", "sigma"):
        assert np.isfinite(cols[name]).all() and (cols[name] > 0).all()


def test_ledger_csv_longer_than_one_chunk(tmp_path):
    n = 2 * 4096 + 7
    rng = np.random.default_rng(5)
    ids = [AWKWARD_IDS[i] for i in rng.integers(0, len(AWKWARD_IDS), size=n)]
    eps = np.array(AWKWARD_FLOATS)[rng.integers(0, len(AWKWARD_FLOATS), size=n)]
    sig = rng.uniform(0.0, 5.0, size=n)
    positions, epochs = rng.integers(0, 9, size=n), np.repeat(np.arange(3), [n - 20, 10, 10])
    ledger = PrivacyLedger(1e-6)
    for part in np.split(np.arange(n), [4096, 2 * 4096]):  # three chunks, the last of 7 rows
        add_unchecked(ledger, np.array(ids, dtype=object)[part], positions[part], epochs[part],
                      eps[part], sig[part])
    rows = list(zip(ids, positions.tolist(), epochs.tolist(), eps.tolist(), sig.tolist()))
    assert_ledger_file_round_trips(ledger, rows, tmp_path / "ledger.csv")


def nan_with_payload(payload: int, sign: int = 0) -> float:
    return float(np.uint64((sign << 63) | 0x7FF8000000000000 | payload).view(np.float64))


def test_ledger_csv_of_record_table_chunks_mixed_with_extend_chunks(tmp_path):
    # Two record tables whose chunks repeat records and interleave with each
    # other and with ``extend`` chunks.  They hold -0.0, 0.0 and NaN payloads:
    # -0.0 == 0.0 and a NaN is unequal to itself, yet each is written as its
    # own repr.
    odd = [-0.0, 0.0, nan_with_payload(1), nan_with_payload(7, sign=1), math.nan, 2.5, -0.0]
    first = unchecked_table(AWKWARD_IDS[:7], np.arange(7), odd, odd[::-1])
    second = unchecked_table(["b", "a,b", "b"], [4, 0, 4], [0.0, -0.0, 1e-300], [-0.0, 0.0, 0.5])
    ledger, rows = PrivacyLedger(1e-6), []

    def add(table, index, epoch):
        ledger.add(table, index, epoch)
        rows.extend((table.sequence_id[i], int(table.position[i]), int(e),
                     float(table.epsilon[i]), float(table.sigma[i]))
                    for i, e in zip(index, np.broadcast_to(epoch, len(index))))

    def extend(*cells):
        add_unchecked(ledger, *([c] for c in cells))
        rows.append(cells)

    extend("x", 3, 0, -0.0, 1.0)
    add(first, [0, 1, 1, 2, 6, 0], 1)
    add(second, [2, 0, 0, 1], 1)
    extend("日本:3", 0, 2, 0.0, nan_with_payload(3))
    add(first, [3, 4, 5, 5], [2, 3, 2, 9])
    add(second, [], 2)
    add(second, [1, 2, 1], 3)
    add(first, [6, 0], 4)
    assert len(ledger) == len(rows) == 21
    # A second write gives the same bytes: the record text dropped after a
    # table's last chunk is made again.
    ledger.to_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == reference_ledger_csv(rows)
    assert_ledger_file_round_trips(ledger, rows, tmp_path / "ledger.csv")
    ledger = PrivacyLedger(1e-6)
    ledger.add(second, [0, 1], 0)
    ledger.to_csv(tmp_path / "second.csv")
    assert (tmp_path / "second.csv").read_bytes() == reference_ledger_csv(
        [("b", 4, 0, 0.0, -0.0), ("a,b", 0, 0, -0.0, 0.0)])


def test_ledger_columns_gather_records_through_each_chunks_index():
    table = record_table(["a", "b", "c"], [5, 6, 7], [1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
    ledger = PrivacyLedger(1e-6)
    ledger.add(table, [2, 0, 2], 4)
    ledger.extend("d", [8], 1, 4.0, [0.4])
    ledger.add(table, np.array([1]), [7])
    cols = ledger.columns()
    assert len(ledger) == 5
    assert cols["sequence_id"].tolist() == ["c", "a", "c", "d", "b"]
    assert cols["position"].tolist() == [7, 5, 7, 8, 6]
    assert cols["epoch"].tolist() == [4, 4, 4, 1, 7]
    assert cols["epsilon"].tolist() == [3.0, 1.0, 3.0, 4.0, 2.0]
    assert cols["sigma"].tolist() == [0.3, 0.1, 0.3, 0.4, 0.2]
    assert {name: c.dtype for name, c in PrivacyLedger(1e-6).columns().items()} == {
        name: c.dtype for name, c in cols.items()}


@pytest.mark.parametrize("columns, name", [
    ((["a", "b", "c"], [1], 0, [1.0, 2.0], 1.0), "position"),
    ((["a"], [1, 2], 0, 1.0, 1.0), "position"),
    (("a", 1, [0, 0], [1.0, 2.0, 3.0], 1.0), "epsilon"),
    (("a", 1, 0, [1.0], [[1.0]]), "sigma"),
])
def test_ledger_extend_rejects_columns_of_different_lengths(columns, name):
    ledger = PrivacyLedger(1e-6)
    with pytest.raises(ValueError, match=f"ledger column {name} has shape"):
        ledger.extend(*columns)
    assert len(ledger) == 0
    assert_columns(ledger, **{name: [] for name in LEDGER_COLUMNS})


def test_ledger_extend_takes_its_row_count_from_the_array_like_columns():
    ledger = PrivacyLedger(1e-6)
    ledger.extend(["a", "b"], [3, 4], 2, 1.5, 0.25)  # scalar epsilon and sigma fill
    assert_columns(ledger, sequence_id=["a", "b"], position=[3, 4], epoch=[2, 2],
                   epsilon=[1.5, 1.5], sigma=[0.25, 0.25])
    with pytest.raises(ValueError, match="all scalars"):
        ledger.extend("a", 3, 2, 1.5, 0.25)
    with pytest.raises(ValueError, match="all scalars"):
        record_table("a", 3, 1.5, 0.25)
    assert len(ledger) == 2


def test_ledger_add_rejects_a_bad_index_or_epochs():
    table = record_table(["a", "b"], [0, 1], 1.0, 1.0)
    ledger = PrivacyLedger(1e-6)
    with pytest.raises(ValueError, match="one epoch or one per exposure"):
        ledger.add(table, [0, 1, 1], [0, 1])
    with pytest.raises(ValueError, match="1-D index"):
        ledger.add(table, [[0]], 0)
    for index in ([0, 2], [-1]):  # -1 would read the last record, not fail
        with pytest.raises(ValueError, match="outside the record table's 2 rows"):
            ledger.add(table, index, 0)
    assert len(ledger) == 0


@pytest.mark.parametrize("column, value", [
    ("position", 1.7), ("position", -1), ("position", 2**63), ("position", math.nan),
    ("epoch", 2.9), ("epoch", -1), ("epsilon", -1.0), ("epsilon", 0.0), ("epsilon", math.nan),
    ("epsilon", math.inf), ("sigma", math.nan), ("sigma", -0.0), ("sigma", math.inf),
])
def test_ledger_extend_and_record_table_refuse_what_from_csv_refuses(column, value):
    cells = {"sequence_id": ["a", "b"], "position": [3, 4], "epoch": [0, 1],
             "epsilon": [1.5, 2.0], "sigma": [0.5, 0.25]}
    cells[column] = [cells[column][0], value]  # the bad value in the second row
    ledger = PrivacyLedger(1e-6)
    refused = f"ledger column {column} must hold .*; row 1 holds "
    with pytest.raises(ValueError, match=refused):
        ledger.extend(*cells.values())
    assert len(ledger) == 0
    if column != "epoch":
        with pytest.raises(ValueError, match=refused):
            record_table(*(cells[name] for name in RecordTable._fields))


def test_ledger_extend_keeps_whole_numbers_and_composes_a_valid_delta():
    ledger = PrivacyLedger(1e-6)
    with pytest.raises(ValueError, match="column epsilon"):
        ledger.extend(["a"], [3], 0, [-1.0], math.nan)
    with pytest.raises(ValueError, match="column position"):
        ledger.extend(["a"], [1.7], 2.9, [1.0], 1.0)
    with pytest.raises(ValueError, match="delta must be in"):
        PrivacyLedger(5.0)
    assert len(ledger) == 0
    # Whole numbers given as floats, and the largest int64 position, are kept.
    ledger.extend(["a", "b"], [3.0, 4.0], 2.0, [1.0, 2.0], 1.0)
    ledger.extend(["c"], [2**63 - 1], 0, [1.0], 1.0)
    cols = ledger.columns()
    assert cols["position"].tolist() == [3, 4, 2**63 - 1] and cols["epoch"].tolist() == [2, 2, 0]
    assert compose_sequence(ledger, 1e-6)[1] == 1e-6 + 1e-6


def test_ledger_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "ledger.csv"
    path.write_text("foo,bar\n1,2\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        PrivacyLedger.from_csv(path, delta=1e-6)


@pytest.mark.parametrize("cells, refused", [
    ("s,0,0,nan,1.0", "epsilon"),
    ("s,-1,0,1.0,1.0", "position"),
    ("s,x,0,1.0,1.0", "malformed ledger row"),
])
def test_ledger_row_error_names_the_file_line_after_a_multi_line_id(tmp_path, cells, refused):
    # A cell that does not parse is a malformed row; one that parses but that
    # the column refuses is named by its column.
    message = refused if " " in refused else f"ledger column {refused} must hold"
    path = tmp_path / "ledger.csv"
    path.write_text('sequence_id,position,epoch,epsilon,sigma\n"two\nlines",0,0,1.0,1.0\n'
                    + cells + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}:4: {message}")):
        PrivacyLedger.from_csv(path, delta=1e-6)


@pytest.mark.parametrize("column, cell", [("position", str(2**63)), ("epsilon", "0.0"),
                                          ("sigma", "inf")])
def test_from_csv_names_the_line_and_column_of_a_refused_value(tmp_path, column, cell):
    # The bad record is the second of three and ends on line 4, after a
    # two-line id: the error names the file line, not the record's index.
    row = {"sequence_id": "s", "position": "5", "epoch": "0", "epsilon": "1.0", "sigma": "1.0",
           column: cell}
    path = tmp_path / "ledger.csv"
    path.write_text('sequence_id,position,epoch,epsilon,sigma\n"two\nlines",0,0,1.0,1.0\n'
                    + ",".join(row.values()) + "\ns,1,0,1.0,1.0\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}:4: ledger column {column} must hold ")):
        PrivacyLedger.from_csv(path, delta=1e-6)


def test_batched_mechanism_matches_successive_single_row_calls():
    rng = np.random.default_rng(3)
    rows = rng.normal(scale=2.0, size=(7, 5))
    score = np.array([0.0, 0.4, 0.9, 0.0, 0.0, 0.2, 0.7])
    epsilon = allocate_budget(score, CFG)
    sigma = noise_sigma(epsilon, CFG.delta, CFG.clip_norm)
    epsilon[score == 0] = sigma[score == 0] = math.nan  # unassigned, as in a profile
    hit = score > 0

    one_rng = np.random.default_rng(11)
    one_by_one = np.stack([
        perturb_embedding(rows[i], ProfileEntry(score[i], epsilon[i], sigma[i]), CFG, one_rng)
        for i in range(len(rows))
    ])
    # The batched call takes the exposures only.
    batch_rng = np.random.default_rng(11)
    batched = perturb_embeddings(rows[hit], sigma[hit], CFG.clip_norm, batch_rng)

    np.testing.assert_array_equal(batched, one_by_one[hit])
    np.testing.assert_array_equal(one_by_one[~hit], rows[~hit])
    # The noise is the stream of rng.normal(0, sigma_i) draws, exposure by exposure.
    normal_rng = np.random.default_rng(11)
    noise = normal_rng.normal(0.0, sigma[hit][:, None], size=(hit.sum(), rows.shape[1]))
    np.testing.assert_array_equal(batched, clip(rows[hit], CFG.clip_norm) + noise)
    assert normal_rng.bit_generator.state == batch_rng.bit_generator.state
    assert batch_rng.bit_generator.state == one_rng.bit_generator.state
