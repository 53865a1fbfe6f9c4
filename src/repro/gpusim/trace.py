"""Utilization timelines recorded by the device simulator.

Traces are what the paper's profiling figures are drawn from: Fig. 1a plots
SM and DRAM utilization across two training iterations, and Table 4 reports
average GPU/SM utilization at the latency turning points. The simulator
emits a :class:`UtilizationTrace` per simulated iteration; traces can be
concatenated, sampled onto a uniform grid, and summarized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .resources import ResourceVector

__all__ = ["TraceSegment", "UtilizationTrace"]


@dataclass(frozen=True)
class TraceSegment:
    """A half-open time interval ``[t0, t1)`` with constant utilization."""

    t0: float
    t1: float
    utilization: ResourceVector
    label: str = ""

    def __post_init__(self) -> None:
        if self.t1 < self.t0:
            raise ValueError(f"segment ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class UtilizationTrace:
    """An append-only sequence of contiguous utilization segments."""

    def __init__(self, segments: Iterable[TraceSegment] = ()) -> None:
        self._segments: list[TraceSegment] = []
        for seg in segments:
            self.append(seg)

    def append(self, segment: TraceSegment) -> None:
        """Append a segment; it must not start before the trace ends."""
        if self._segments and segment.t0 < self._segments[-1].t1 - 1e-9:
            raise ValueError(
                f"segment starting at {segment.t0} overlaps trace ending at "
                f"{self._segments[-1].t1}"
            )
        if segment.duration <= 0:
            return
        self._segments.append(segment)

    @property
    def segments(self) -> tuple[TraceSegment, ...]:
        return tuple(self._segments)

    @property
    def t_start(self) -> float:
        return self._segments[0].t0 if self._segments else 0.0

    @property
    def t_end(self) -> float:
        return self._segments[-1].t1 if self._segments else 0.0

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def sample(self, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample the trace on a uniform grid of step ``dt``.

        Returns ``(times, sm_utilization, dram_utilization)`` arrays, the
        format the figure harnesses plot directly.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not self._segments:
            return np.array([]), np.array([]), np.array([])
        times = np.arange(self.t_start, self.t_end, dt)
        sm = np.zeros_like(times)
        dram = np.zeros_like(times)
        idx = 0
        for i, t in enumerate(times):
            while idx < len(self._segments) - 1 and t >= self._segments[idx].t1:
                idx += 1
            sm[i] = self._segments[idx].utilization.sm
            dram[i] = self._segments[idx].utilization.dram
        return times, sm, dram

    def mean_utilization(self, t0: float | None = None, t1: float | None = None) -> ResourceVector:
        """Time-weighted mean utilization over ``[t0, t1]`` (default: whole trace)."""
        lo = self.t_start if t0 is None else t0
        hi = self.t_end if t1 is None else t1
        if hi <= lo:
            return ResourceVector(0.0, 0.0)
        sm_area = 0.0
        dram_area = 0.0
        for seg in self._segments:
            a = max(lo, seg.t0)
            b = min(hi, seg.t1)
            if b > a:
                sm_area += seg.utilization.sm * (b - a)
                dram_area += seg.utilization.dram * (b - a)
        span = hi - lo
        return ResourceVector(sm_area / span, dram_area / span)

    def mean_peak_utilization(self, t0: float | None = None, t1: float | None = None) -> float:
        """Time-weighted mean of ``max(sm, dram)`` -- the "GPU utilization"
        a coarse profiler reports: how much of the device's dominant
        resource is in use at each instant, averaged over the window."""
        lo = self.t_start if t0 is None else t0
        hi = self.t_end if t1 is None else t1
        if hi <= lo:
            return 0.0
        area = 0.0
        for seg in self._segments:
            a = max(lo, seg.t0)
            b = min(hi, seg.t1)
            if b > a:
                area += seg.utilization.peak * (b - a)
        return area / (hi - lo)
