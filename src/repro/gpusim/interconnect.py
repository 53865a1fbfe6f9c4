"""NVLink/NVSwitch interconnect cost model.

DLRM hybrid parallelism moves data between GPUs twice per iteration
(all-to-all of embedding activations forward and backward) and all-reduces
the data-parallel MLP gradients. Input-preprocessing graph mapping adds a
third flow: when a feature's preprocessing output is not produced on the
GPU that consumes it, the tensor must be redistributed -- the penalty RAP's
data-locality-aware mapping removes (Fig. 12).

The model is the standard alpha-beta cost with per-algorithm effective
bandwidth on a fully connected NVSwitch fabric (the DGX-A100 topology).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .resources import GpuSpec, A100_SPEC

__all__ = ["Interconnect"]


@dataclass(frozen=True)
class Interconnect:
    """Collective latency estimates for one node.

    ``spec`` supplies the per-GPU NVLink bandwidth.
    """

    spec: GpuSpec = A100_SPEC
    #: Fixed per-collective software latency (launch + rendezvous).
    alpha_us: ClassVar[float] = 12.0
    #: Fraction of peak link bandwidth achieved by collectives.
    efficiency: ClassVar[float] = 0.75

    @property
    def link_bytes_per_us(self) -> float:
        return self.spec.nvlink_bw_gbps * 1e9 / 1e6 * self.efficiency

    def all_to_all_us(self, nbytes_per_gpu: float, num_gpus: int) -> float:
        """All-to-all where each GPU exchanges ``nbytes_per_gpu`` in total.

        Each GPU sends ``(n-1)/n`` of its payload over its own links, which
        on NVSwitch happens in parallel across peers.
        """
        if num_gpus <= 1 or nbytes_per_gpu <= 0:
            return 0.0
        payload = nbytes_per_gpu * (num_gpus - 1) / num_gpus
        return self.alpha_us + payload / self.link_bytes_per_us

    def all_reduce_us(self, nbytes: float, num_gpus: int) -> float:
        """Ring all-reduce of an ``nbytes`` buffer across ``num_gpus`` GPUs."""
        if num_gpus <= 1 or nbytes <= 0:
            return 0.0
        volume = 2.0 * nbytes * (num_gpus - 1) / num_gpus
        return self.alpha_us + volume / self.link_bytes_per_us

    def redistribution_us(
        self,
        nbytes_moved: float,
        num_gpus: int,
        num_transfers: int = 1,
    ) -> float:
        """Cost of moving misplaced preprocessing outputs between GPUs.

        ``nbytes_moved`` is the total volume leaving its producer GPU; on a
        switch fabric the transfers parallelize across source GPUs, so the
        bandwidth term is set by the busiest GPU (assumed to carry an even
        share). ``num_transfers`` counts the distinct per-feature tensors
        being exchanged: each is its own collective and pays the fixed
        latency -- the reason data-parallel mapping's per-feature input
        redistribution is expensive even when the tensors are small
        (Fig. 12).
        """
        if nbytes_moved <= 0 or num_gpus <= 1 or num_transfers <= 0:
            return 0.0
        per_gpu = nbytes_moved / num_gpus
        return self.alpha_us * num_transfers + per_gpu / self.link_bytes_per_us
