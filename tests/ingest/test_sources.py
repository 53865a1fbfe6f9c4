"""Batch sources: resolution, round-trips, sharding, mixing, pacing."""

import numpy as np
import pytest

from repro.ingest import (
    IngestError,
    MixedSource,
    PacedSource,
    build_source,
    source,
    write_csv,
    write_jsonl,
    write_replay_log,
)
from repro.preprocessing import KAGGLE_SCHEMA, SyntheticCriteoDataset


@pytest.fixture(scope="module")
def batches():
    src = source("synthetic://kaggle?batch=96&batches=5&seed=17")
    return [src.batch(i) for i in range(5)]


def _assert_batches_equal(got, want):
    assert set(got.dense) == set(want.dense)
    assert set(got.sparse) == set(want.sparse)
    for name, col in want.dense.items():
        np.testing.assert_allclose(
            got.dense[name].values, col.values, rtol=1e-6, equal_nan=True
        )
    for name, col in want.sparse.items():
        assert np.array_equal(got.sparse[name].offsets, col.offsets)
        assert np.array_equal(got.sparse[name].values, col.values)


def test_synthetic_source_matches_generator():
    src = source("synthetic://kaggle?batch=64&batches=3&seed=9&start=2")
    want = SyntheticCriteoDataset(KAGGLE_SCHEMA, seed=9).batch(64, index=2)
    _assert_batches_equal(src.batch(0), want)
    assert len(src) == 3
    assert src.rows_per_batch == 64


def test_synthetic_rejects_unknown_base_and_params():
    with pytest.raises(IngestError, match="kaggle or terabyte"):
        source("synthetic://mnist?batch=64")
    with pytest.raises(IngestError, match="unknown parameter"):
        source("synthetic://kaggle?bacth=64")


def test_csv_round_trip(tmp_path, batches):
    path = tmp_path / "day0.csv"
    rows = write_csv(str(path), batches)
    assert rows == 5 * 96
    src = source(f"csv://{path}?batch=96")
    assert len(src) == 5
    for i, want in enumerate(batches):
        _assert_batches_equal(src.batch(i), want)


def test_jsonl_round_trip(tmp_path, batches):
    path = tmp_path / "rows.jsonl"
    write_jsonl(str(path), batches)
    src = source(f"jsonl://{path}?batch=96")
    assert len(src) == 5
    _assert_batches_equal(src.batch(4), batches[4])


def test_replay_round_trip_and_pacing(tmp_path, batches):
    path = tmp_path / "run.replay.jsonl"
    write_replay_log(str(path), batches, [0.0, 0.1, 0.3, 0.35, 0.75])
    src = source(f"replay://{path}?speed=10")
    assert len(src) == 5
    assert src.delay_s(0) == 0.0
    assert src.delay_s(2) == pytest.approx(0.02)  # (0.3 - 0.1) / 10
    _assert_batches_equal(src.batch(3), batches[3])
    unpaced = source(f"replay://{path}?pace=0")
    assert unpaced.delay_s(2) == 0.0
    assert src.rows_per_batch == 96


def test_replay_rejects_wrong_header_and_bad_timestamps(tmp_path, batches):
    bad = tmp_path / "not.replay.jsonl"
    bad.write_text('{"type": "something-else"}\n')
    with pytest.raises(IngestError, match="rap-replay"):
        len(source(f"replay://{bad}"))
    backwards = tmp_path / "backwards.replay.jsonl"
    write_replay_log(str(backwards), batches[:2], [0.0, 0.5])
    lines = backwards.read_text().splitlines()
    backwards.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
    with pytest.raises(IngestError, match="non-decreasing"):
        len(source(f"replay://{backwards}"))


def test_csv_sharding_is_strided_and_seekable(tmp_path, batches):
    path = tmp_path / "sharded.csv"
    write_csv(str(path), batches)
    full = np.concatenate([b.dense["dense_0"].values for b in batches])
    for k in range(3):
        shard = source(f"csv://{path}?batch=32&shard={k}/3")
        got = np.concatenate(
            [shard.batch(i).dense["dense_0"].values for i in range(len(shard))]
        )
        want = full[k::3][: len(got)]
        np.testing.assert_allclose(got, want, rtol=1e-6, equal_nan=True)


def test_shard_smaller_than_one_batch_is_an_error(tmp_path, batches):
    path = tmp_path / "tiny.csv"
    write_csv(str(path), batches[:1])
    with pytest.raises(IngestError, match="fewer than one batch"):
        len(source(f"csv://{path}?batch=96&shard=0/2"))


def test_missing_file_is_a_clear_error():
    with pytest.raises(IngestError, match="cannot read"):
        source("csv:///nonexistent/no.csv?batch=4").batch(0)


def test_mixed_source_is_deterministic_and_seekable():
    a = source("synthetic://kaggle?batch=32&batches=4&seed=1")
    b = source("synthetic://kaggle?batch=32&batches=4&seed=2")
    mixed = MixedSource([a, b], [3.0, 1.0], seed=42)
    assert len(mixed) == 8
    again = MixedSource([a, b], [3.0, 1.0], seed=42)
    for i in (0, 3, 7, 1):  # out-of-order access must not change results
        _assert_batches_equal(mixed.batch(i), again.batch(i))
    assert mixed.rows_per_batch == 32


def test_mixed_weights_bias_the_draw():
    a = source("synthetic://kaggle?batch=16&batches=50&seed=1")
    b = source("synthetic://kaggle?batch=16&batches=50&seed=2")
    mixed = MixedSource([a, b], [9.0, 1.0], seed=7)
    from_a = sum(int(mixed._assignment[i]) == 0 for i in range(len(mixed)))
    assert from_a > len(mixed) * 0.7


def test_build_source_comma_list_and_weights():
    single = build_source("synthetic://kaggle?batch=16&batches=2")
    assert len(single) == 2
    mixed = build_source(
        "synthetic://kaggle?batch=16&batches=2&weight=2,"
        "synthetic://kaggle?batch=16&batches=2&seed=5",
        seed=3,
    )
    assert isinstance(mixed, MixedSource)
    assert mixed.weights == [2.0, 1.0]
    for spec in ("carrier-pigeon://x", "parquet:///data/x.parquet?batch=4"):
        with pytest.raises(IngestError, match="unknown source scheme"):
            build_source(spec)


def test_paced_source_overrides_delays():
    inner = source("synthetic://kaggle?batch=16&batches=4&io_delay_ms=100")
    paced = PacedSource(inner, [0.0, 0.01])
    assert paced.delay_s(0) == 0.0
    assert paced.delay_s(1) == 0.01
    assert paced.delay_s(3) == 0.01  # past the schedule: last delay repeats
    assert paced.batch(2).size == 16
    with pytest.raises(IngestError, match="non-negative"):
        PacedSource(inner, [-0.1])
