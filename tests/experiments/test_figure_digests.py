"""Exact-output pin for the two figures drawn from utilization traces.

The figure benchmarks check trends only. ``fixtures/figure_digests.json``
holds the SHA-256 of the sorted-key JSON of ``fig1.run`` and ``fig11.run``
at small sizes, captured while the simulator still built a trace on every
call, so building it on first read must leave every number unchanged.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import fig1, fig11

FIXTURE = Path(__file__).parent.parent / "fixtures" / "figure_digests.json"


@pytest.mark.parametrize("figure", [fig1, fig11], ids=["fig1", "fig11"])
def test_figure_output_is_pinned(figure):
    pinned = json.loads(FIXTURE.read_text())[figure.__name__.rsplit(".", 1)[-1]]
    output = figure.run(**pinned["kwargs"])
    digest = hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()
    assert digest == pinned["sha256"]
