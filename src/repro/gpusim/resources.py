"""GPU hardware specifications and resource-vector arithmetic.

The simulator models a GPU as a bundle of two contended, rate-shared
resources -- streaming-multiprocessor (SM) issue slots and DRAM bandwidth --
following the observation in the RAP paper (Fig. 1) that DLRM training
alternates between compute-bound MLP phases and memory-bound embedding
phases, leaving complementary slack for input preprocessing.

Everything downstream (kernels, training stages, co-running contention)
expresses its demand as a :class:`ResourceVector` of fractional SM and DRAM
utilization against a :class:`GpuSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "GpuSpec",
    "ResourceVector",
    "A100_SPEC",
    "H100_SPEC",
    "V100_SPEC",
    "GPU_PROFILES",
    "resolve_profile",
    "warps_to_sm_fraction",
]


@dataclass(frozen=True)
class GpuSpec:
    """Static description of one GPU's capacity.

    The defaults follow the NVIDIA A100-40GB used in the paper's DGX-A100
    testbed. Only quantities the co-running model actually consumes are
    included; anything else (L2 size, clocks, ...) is folded into the
    calibrated per-operator cost constants in ``repro.preprocessing.ops``.
    """

    name: str = "A100-40GB"
    num_sms: int = 108
    warps_per_sm: int = 64
    dram_bw_gbps: float = 1555.0
    mem_gb: float = 40.0
    fp32_tflops: float = 19.5
    nvlink_bw_gbps: float = 300.0
    pcie_bw_gbps: float = 32.0
    kernel_launch_us: float = 5.0
    #: Maximum number of resident warps across all SMs.
    total_warp_slots: int = field(init=False, repr=False, compare=False)
    #: DRAM bandwidth expressed in bytes per microsecond.
    dram_bytes_per_us: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The spec is frozen, so its two derived values are set once here:
        # pricing, fusion, sharding and the cost model read them per kernel.
        # (A cached_property would store them in a materialized instance
        # dict, which slows every later field read on CPython 3.11.)
        object.__setattr__(self, "total_warp_slots", self.num_sms * self.warps_per_sm)
        object.__setattr__(self, "dram_bytes_per_us", self.dram_bw_gbps * 1e9 / 1e6)

    def h2d_time_us(self, nbytes: float) -> float:
        """Host-to-device copy time over PCIe for ``nbytes`` bytes."""
        if nbytes <= 0:
            return 0.0
        return nbytes / (self.pcie_bw_gbps * 1e9 / 1e6)


A100_SPEC = GpuSpec()
H100_SPEC = GpuSpec(
    name="H100-80GB",
    num_sms=132,
    warps_per_sm=64,
    dram_bw_gbps=3350.0,
    mem_gb=80.0,
    fp32_tflops=66.9,
    nvlink_bw_gbps=450.0,
    pcie_bw_gbps=64.0,
    kernel_launch_us=4.0,
)
V100_SPEC = GpuSpec(
    name="V100-32GB",
    num_sms=80,
    warps_per_sm=64,
    dram_bw_gbps=900.0,
    mem_gb=32.0,
    fp32_tflops=14.0,
    nvlink_bw_gbps=150.0,
    pcie_bw_gbps=16.0,
)

#: Named GPU profiles for heterogeneous-fleet construction (scenario forge,
#: ``--fleet`` CLI). Keys are the short lowercase handles serialized into
#: scenarios and checkpoints; treat them as append-only identifiers.
GPU_PROFILES: dict[str, GpuSpec] = {
    "a100": A100_SPEC,
    "h100": H100_SPEC,
    "v100": V100_SPEC,
}


def resolve_profile(name: str) -> GpuSpec:
    """Look up a GPU profile by handle (``a100``) or full spec name."""
    key = name.strip().lower()
    if key in GPU_PROFILES:
        return GPU_PROFILES[key]
    for spec in GPU_PROFILES.values():
        if spec.name.lower() == key:
            return spec
    raise ValueError(
        f"unknown GPU profile {name!r}; expected one of {', '.join(sorted(GPU_PROFILES))}"
    )


def warps_to_sm_fraction(num_warps: float, spec: GpuSpec) -> float:
    """Convert a warp count into the fraction of SM issue capacity it needs.

    The mapping is intentionally simple -- occupancy effects beyond slot
    counting are folded into per-operator cost constants -- but it preserves
    the property exploited by Fig. 1b of the paper: kernel resource demand
    grows with input width until the device saturates.
    """
    if num_warps <= 0:
        return 0.0
    return min(1.0, num_warps / spec.total_warp_slots)


@dataclass(frozen=True)
class ResourceVector:
    """Fractional demand on (or utilization of) the two contended resources.

    Values are fractions of the device's peak; they may transiently exceed
    1.0 when expressing *demand* (oversubscription), in which case the
    contention model in :mod:`repro.gpusim.device` rate-shares the resource.
    """

    sm: float = 0.0
    dram: float = 0.0

    def __post_init__(self) -> None:
        sm, dram = self.sm, self.dram
        if sm >= 0 and dram >= 0:  # false for a NaN as well
            return
        if sm < 0 or dram < 0:
            raise ValueError(f"resource fractions must be non-negative, got {self}")
        raise ValueError("resource fractions must not be NaN")

    def scale(self, factor: float) -> "ResourceVector":
        """Return a copy with both components multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return new_vector(self.sm * factor, self.dram * factor)

    @property
    def peak(self) -> float:
        """The dominant (bottleneck) component."""
        return max(self.sm, self.dram)

    def headroom(self) -> "ResourceVector":
        """Leftover capacity if this vector describes current utilization."""
        return new_vector(max(0.0, 1.0 - self.sm), max(0.0, 1.0 - self.dram))

    def fits_within(self, available: "ResourceVector") -> bool:
        """True when this demand fits inside ``available`` without contention."""
        return self.sm <= available.sm + 1e-12 and self.dram <= available.dram + 1e-12

    def as_tuple(self) -> tuple[float, float]:
        return (self.sm, self.dram)


def new_vector(sm: float, dram: float) -> ResourceVector:
    """``ResourceVector(sm, dram)`` without the frozen constructor's
    per-field ``object.__setattr__`` calls; ``__post_init__`` still
    validates it. For the planner's per-kernel paths. The fields go in as
    one new ``__dict__``, which keeps attribute reads as fast as on a
    constructor-built vector (see :func:`repro.gpusim.kernel.new_kernel`)."""
    vector = object.__new__(ResourceVector)
    object.__setattr__(vector, "__dict__", {"sm": sm, "dram": dram})
    vector.__post_init__()
    return vector


IDLE = ResourceVector(0.0, 0.0)
