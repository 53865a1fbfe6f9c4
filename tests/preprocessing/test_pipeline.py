"""PipelinedFeeder as a context manager: ``with`` exit closes the feeder.

``tests/ingest/test_feeder.py`` pins the feeder itself; these check the
lifecycle a preprocessing loop sees when it wraps the feeder in ``with``
-- on a consumer break, a producer failure and an empty epoch -- and
that a closed feeder refuses iteration.
"""

import threading
import traceback

import pytest

from repro.ingest import PipelinedFeeder


def _feeder_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("rap-feeder")]


def _identity(i: int) -> int:
    return i


def _boom_on_two(i: int) -> int:
    if i == 2:
        raise ValueError(f"producer failed on batch {i}")
    return i


def test_consumer_break_shuts_down():
    feeder = PipelinedFeeder(_identity, num_batches=100, depth=2)
    with feeder:
        for value in feeder:
            if value == 3:
                break
    assert feeder.closed
    assert not _feeder_threads()


def test_thread_mode_reraises_original_traceback():
    with PipelinedFeeder(_boom_on_two, num_batches=5) as feeder:
        consumed = []
        with pytest.raises(ValueError, match="batch 2") as excinfo:
            for value in feeder:
                consumed.append(value)
    # Batches before the failure were delivered in order...
    assert consumed == [0, 1]
    # ...and the re-raised exception carries the producer's own frames.
    frames = traceback.extract_tb(excinfo.value.__traceback__)
    assert any(f.name == "_boom_on_two" for f in frames)
    assert feeder.closed
    assert not _feeder_threads()


def test_closed_feeder_refuses_iteration():
    # Closed before any lease existed: nothing to release, iteration refused.
    feeder = PipelinedFeeder(_identity, num_batches=2)
    feeder.close()
    with pytest.raises(RuntimeError, match="closed"):
        iter(feeder).__next__()
    assert not _feeder_threads()
    feeder.close()  # idempotent


def test_zero_batches_yields_nothing():
    with PipelinedFeeder(_identity, num_batches=0) as feeder:
        assert list(feeder) == []
    assert feeder.closed
    assert not _feeder_threads()
