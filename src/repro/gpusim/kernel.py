"""Kernel descriptors: the unit of work the simulated GPU executes.

A :class:`KernelDesc` is a *resource-annotated* piece of work: how long it
takes standalone, how many warps it launches, and what fraction of SM issue
slots and DRAM bandwidth it demands while running. Preprocessing operators
(``repro.preprocessing.ops``) and DLRM training stages (``repro.dlrm``)
both lower to kernels before hitting the device model.

Sharding physics
----------------
Resource-aware kernel sharding (§6.2) splits a kernel into pieces that fit
the leftover resources of a training stage. Sharding is not free: every
shard pays its own launch overhead, and a shard's body time has a floor of
one "wave" (all its warps resident simultaneously) -- doing the same work
with less parallelism cannot be faster. The scheduler's preference for
high-capacity stages falls out of this cost.
:func:`repro.core.fusion.shard_to_fit_demand` applies these rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Any, Mapping

from .resources import GpuSpec, ResourceVector, new_vector

__all__ = ["KernelDesc", "fuse_kernels"]


@dataclass(frozen=True)
class KernelDesc:
    """A GPU kernel with its standalone latency and resource demand.

    Parameters
    ----------
    name:
        Human-readable identifier (also used in traces).
    duration_us:
        Standalone execution latency in microseconds, i.e. the latency when
        the kernel owns the whole device. This is the uniform cost currency
        of RAP's latency-based preprocessing overhead abstraction (§5.1).
    demand:
        Fractional SM/DRAM demand while the kernel is resident.
    num_warps:
        Total warps launched; drives demand scaling under sharding and the
        Fig.-5c analysis.
    tag:
        Operator family (e.g. ``"Ngram"``); fused kernels keep their family
        tag because only same-type operators fuse horizontally.
    launch_us:
        The fixed launch overhead included in ``duration_us``. Shards each
        pay it again.
    warp_slots:
        Total resident-warp capacity of the device the kernel was costed
        for (0 = unknown; sharding then scales demand linearly).
    meta:
        Free-form metadata (op configuration, feature ids, ...).
    """

    name: str
    duration_us: float
    demand: ResourceVector
    num_warps: int = 0
    tag: str = "generic"
    launch_us: float = 0.0
    warp_slots: int = 0
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration_us < 0:
            raise ValueError(f"kernel {self.name!r} has negative duration")
        if self.num_warps < 0:
            raise ValueError(f"kernel {self.name!r} has negative warp count")
        if self.launch_us < 0 or self.launch_us > self.duration_us + 1e-9:
            raise ValueError(
                f"kernel {self.name!r}: launch_us must lie within [0, duration_us]"
            )

    @cached_property
    def sim_key(self) -> tuple:
        """The five fields the device simulator reads, as a memo key part
        built once per kernel."""
        return (self.name, self.tag, self.duration_us, self.demand.sm, self.demand.dram)

    @property
    def body_us(self) -> float:
        """Execution time excluding the fixed launch overhead."""
        return max(0.0, self.duration_us - self.launch_us)

    # The derivations below build through :func:`new_kernel`, not
    # ``dataclasses.replace``: ``__post_init__`` still validates the result,
    # without replace's per-field lookups.
    def with_duration(self, duration_us: float) -> "KernelDesc":
        return new_kernel(
            self.name, duration_us, self.demand, self.num_warps, self.tag,
            self.launch_us, self.warp_slots, self.meta,
        )

    def drifted(self, factor: float) -> "KernelDesc":
        """This kernel with its duration multiplied by ``factor`` (input drift).

        The one run-time change to a placed kernel's duration. The launch
        overhead is a fixed part of the duration, so a drift that takes the
        duration below it caps the overhead at the new duration.
        """
        if factor == 1.0:
            return self
        duration_us = self.duration_us * factor
        return new_kernel(
            self.name, duration_us, self.demand, self.num_warps, self.tag,
            min(self.launch_us, duration_us), self.warp_slots, self.meta,
        )


def new_kernel(
    name: str,
    duration_us: float,
    demand: ResourceVector,
    num_warps: int,
    tag: str,
    launch_us: float,
    warp_slots: int,
    meta: Mapping[str, Any],
) -> KernelDesc:
    """``KernelDesc(...)`` with every field given, without the frozen
    constructor's eight ``object.__setattr__`` calls; ``__post_init__``
    still validates it. Pricing, renaming, fusion and sharding build their
    kernels through it; everything else keeps the public constructor.

    The fields go in as one new ``__dict__``: filling the dict that
    ``kernel.__dict__`` materializes builds as fast but leaves every later
    attribute read ~1.7x slower on CPython 3.11.
    """
    kernel = object.__new__(KernelDesc)
    object.__setattr__(kernel, "__dict__", {
        "name": name, "duration_us": duration_us, "demand": demand, "num_warps": num_warps,
        "tag": tag, "launch_us": launch_us, "warp_slots": warp_slots, "meta": meta,
    })
    kernel.__post_init__()
    return kernel


_tag = attrgetter("tag")
_name = attrgetter("name")
_num_warps = attrgetter("num_warps")
_sm = attrgetter("demand.sm")
_dram = attrgetter("demand.dram")


def fuse_kernels(kernels: list[KernelDesc], spec: GpuSpec) -> KernelDesc:
    """Horizontally fuse same-type kernels into one wider kernel.

    Horizontal fusion (§6.1) launches the threads of several independent
    same-type kernels together. The fused kernel:

    - pays a *single* launch overhead instead of one per kernel, which is
      where the speedup comes from (the member kernels are lightweight and
      launch-bound);
    - demands the *sum* of member resources (it is genuinely wider);
    - runs its member bodies concurrently -- the body time is the max
      member body, stretched once the aggregate demand saturates the
      device, never exceeding the serial sum.
    """
    if not kernels:
        raise ValueError("cannot fuse an empty kernel list")
    tags = set(map(_tag, kernels))
    if len(tags) != 1:
        raise ValueError(f"horizontal fusion requires a single operator type, got {sorted(tags)}")
    if len(kernels) == 1:
        return kernels[0]

    # Each field is one sum() over the members in order; a hand-written
    # accumulation would round differently where sum() compensates (3.12+).
    launch = spec.kernel_launch_us
    bodies = [k.body_us for k in kernels]
    total_warps = sum(map(_num_warps, kernels))
    raw_sm = sum(map(_sm, kernels))
    raw_dram = sum(map(_dram, kernels))
    demand = new_vector(min(1.0, raw_sm), min(1.0, raw_dram))
    stretch = max(1.0, raw_sm, raw_dram)
    concurrent = max(bodies)
    serial = sum(bodies)
    body = min(serial, concurrent * stretch)
    tag = kernels[0].tag
    total_rows = sum([int(k.meta.get("rows", 0)) for k in kernels])
    return new_kernel(
        f"fused_{tag}_x{len(kernels)}", launch + body, demand, total_warps, tag, launch,
        spec.total_warp_slots,
        {
            "fused": list(map(_name, kernels)),
            "members": len(kernels),
            "rows": total_rows,
            "member_kernels": tuple(kernels),
        },
    )
