"""Pluggable streaming ingestion: sources, backpressure, pipelined feeding.

The ingest tier turns one URL-style spec string (``csv:///path?shard=3/8``,
``synthetic://kaggle?batch=4096``, ``replay:///log.jsonl?speed=2``, ...)
into a sharded, seekable batch generator and feeds it through a multi-use
:class:`PipelinedFeeder` (paper §6.3 inter-batch interleaving): a thread
pool whose coordinator feeds a :class:`BackpressureQueue`. The queue's
overload policies (``block`` / ``drop_oldest`` / ``spill_to_disk``) keep
producer/consumer rates honest, so at most ``depth`` batches are in
flight plus ``capacity`` buffered. :class:`IngestMetrics` exposes the
whole tier's health in the telemetry registry. See DESIGN.md §14.
"""

from .feeder import PipelinedFeeder, QueueConfig
from .metrics import IngestMetrics
from .queue import OVERLOAD_POLICIES, BackpressureQueue, QueueClosed, QueueStats
from .sources import (
    BatchSource,
    CsvSource,
    JsonlSource,
    MixedSource,
    PacedSource,
    ReplaySource,
    SyntheticSource,
    build_source,
    source,
    write_csv,
    write_jsonl,
    write_replay_log,
)
from .spec import IngestError, SourceSpec, parse_spec, split_specs

__all__ = [
    "BackpressureQueue",
    "BatchSource",
    "CsvSource",
    "IngestError",
    "IngestMetrics",
    "JsonlSource",
    "MixedSource",
    "OVERLOAD_POLICIES",
    "PacedSource",
    "PipelinedFeeder",
    "QueueClosed",
    "QueueConfig",
    "QueueStats",
    "ReplaySource",
    "SourceSpec",
    "SyntheticSource",
    "build_source",
    "parse_spec",
    "source",
    "split_specs",
    "write_csv",
    "write_jsonl",
    "write_replay_log",
]
