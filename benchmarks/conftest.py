"""Benchmark configuration: one measured round per harness.

Each benchmark regenerates a paper table/figure (the measured quantity is
the harness wall time) and asserts the figure's qualitative shape so a
regression in either speed or result fails the run.
"""

import pytest

#: Sequential/pipelined pass pairs behind each feeder-overlap bar.
FEEDER_PAIRS = 5


@pytest.fixture
def run_once(benchmark):
    """Run a harness exactly once under pytest-benchmark timing."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run


@pytest.fixture
def alternating_pairs():
    """Time a sequential and a pipelined pass ``FEEDER_PAIRS`` times.

    Each callable runs one pass and returns its measured seconds. The pass
    that goes first alternates from pair to pair, so a slow drift in host
    load favors neither side; the caller gates on the median pair, so one
    noisy pass cannot decide the bar. Returns ``[(sequential_s,
    pipelined_s), ...]`` in run order.
    """

    def _run(sequential, pipelined):
        pairs = []
        for k in range(FEEDER_PAIRS):
            if k % 2 == 0:
                sequential_s = sequential()
                pipelined_s = pipelined()
            else:
                pipelined_s = pipelined()
                sequential_s = sequential()
            pairs.append((sequential_s, pipelined_s))
        return pairs

    return _run
