"""The planner search's cheaper forms equal the forms they replaced.

- ``_local_improve`` scans only the steps that hold an op of the moving
  op's type; the reference below scans every step of the op's window.
- ``shard_to_fit_demand`` builds only the pieces it returns; the reference
  peels one piece at a time off a built remainder with ``shard_kernel``.
  That and ``KernelDesc.scaled`` are kept below as they were in
  ``repro.gpusim.kernel`` before the latency split that used them was
  deleted, with ``self`` read as ``kernel``.
- ``HorizontalFusionPass`` prices each operator configuration once and
  renames the priced kernel for every other op of that configuration; the
  reference is the op's own ``gpu_kernel``.

Every comparison is field for field (``KernelDesc`` equality covers name,
duration, demand, warps, tag, launch, warp slots and ``meta``).
"""

import itertools
import math
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.fusion import MAX_SHARD_PIECES, HorizontalFusionPass, shard_to_fit_demand
from repro.gpusim.kernel import KernelDesc, fuse_kernels, new_kernel
from repro.gpusim.resources import A100_SPEC, ResourceVector, new_vector
from repro.milp.fusion_problem import FusionInstance, _local_improve
from repro.preprocessing.ops import OP_REGISTRY, make_op


# ----------------------------------------------------------------------
# _local_improve
# ----------------------------------------------------------------------


def reference_local_improve(instance, steps, max_rounds=6):
    """``_local_improve`` as it was: every step of each op's window."""
    steps = list(steps)
    pred = instance.predecessors()
    succ = instance.successors()
    n = instance.num_ops
    max_step = max(steps) + 1 if steps else 0

    for _ in range(max_rounds):
        improved = False
        groups = {}
        for idx, step in enumerate(steps):
            groups.setdefault((instance.op_types[idx], step), []).append(idx)
        for op in range(n):
            op_type = instance.op_types[op]
            lo = max((steps[p] + 1 for p in pred[op]), default=0)
            hi = min((steps[s] - 1 for s in succ[op]), default=max_step)
            if lo > hi:
                continue
            current = steps[op]
            current_size = len(groups[(op_type, current)])
            best_step = current
            best_gain = 0
            for cand in range(lo, hi + 1):
                if cand == current:
                    continue
                cand_size = len(groups.get((op_type, cand), []))
                gain = cand_size - (current_size - 1)
                if gain > best_gain:
                    best_gain = gain
                    best_step = cand
            if best_step != current:
                groups[(op_type, current)].remove(op)
                if not groups[(op_type, current)]:
                    del groups[(op_type, current)]
                groups.setdefault((op_type, best_step), []).append(op)
                steps[op] = best_step
                improved = True
        if not improved:
            break
    used = sorted(set(steps))
    remap = {s: i for i, s in enumerate(used)}
    return [remap[s] for s in steps]


@st.composite
def typed_dags(draw):
    """Up to 40 ops over 1-4 types, forward edges only, with a valid
    starting assignment: ASAP levels delayed by random slack."""
    n = draw(st.integers(min_value=0, max_value=40))
    types = draw(st.sampled_from(["A", "AB", "ABC", "ABCD"]))
    op_types = draw(st.lists(st.sampled_from(types), min_size=n, max_size=n))
    pairs = list(itertools.combinations(range(n), 2))
    deps = sorted(draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True))) if pairs else []
    instance = FusionInstance(op_types=op_types, deps=deps)
    pred = instance.predecessors()
    steps = []
    for op in range(n):
        earliest = max((steps[p] + 1 for p in pred[op]), default=0)
        steps.append(earliest + draw(st.integers(min_value=0, max_value=2)))
    return instance, steps


@settings(max_examples=300, deadline=None)
@given(case=typed_dags(), max_rounds=st.integers(min_value=1, max_value=6))
def test_local_improve_equals_full_window_scan(case, max_rounds):
    instance, steps = case
    assert _local_improve(instance, steps, max_rounds) == reference_local_improve(
        instance, steps, max_rounds
    )


@settings(max_examples=100, deadline=None)
@given(case=typed_dags())
def test_local_improve_from_asap_equals_full_window_scan(case):
    instance, _ = case
    levels = instance.asap_levels()
    assert _local_improve(instance, levels) == reference_local_improve(instance, levels)


# ----------------------------------------------------------------------
# shard_to_fit_demand
# ----------------------------------------------------------------------


# ``KernelDesc.waves``, ``.wave_floor_us`` and ``.scaled`` and
# ``shard_kernel``, as they were in ``repro.gpusim.kernel``.


def waves(kernel):
    """How many times the kernel oversubscribes the device's warp slots."""
    if kernel.warp_slots <= 0 or kernel.num_warps <= 0:
        return 1.0
    return max(1.0, kernel.num_warps / kernel.warp_slots)


def wave_floor_us(kernel):
    """Body time of a single fully-resident wave: the sharding floor."""
    return kernel.body_us / waves(kernel)


def scaled(kernel, fraction, suffix=""):
    """Return a shard covering ``fraction`` of this kernel's work.

    The shard launches ``fraction`` of the warps, pays a full launch
    overhead, and its body time scales with its own wave count --
    flooring at one wave, so sub-saturation shards do not get faster.
    Demand scales with resident warps (saturated kernels stay at full
    demand until their shard drops below one wave).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"shard fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0 and not suffix:
        return kernel
    # A shard is a warp-slice of the whole kernel: member identity is
    # lost, so fused-member descriptors must not survive (they would
    # double-count work if the shard were later degree-reduced).
    meta = {k: v for k, v in kernel.meta.items() if k != "member_kernels"} if kernel.meta else {}
    new_warps = max(1, int(round(kernel.num_warps * fraction))) if kernel.num_warps else 0
    if kernel.warp_slots > 0 and kernel.num_warps > 0:
        new_waves = max(1.0, new_warps / kernel.warp_slots)
        new_body = wave_floor_us(kernel) * new_waves
        sm = min(1.0, new_warps / kernel.warp_slots)
        dram_scale = sm / kernel.demand.sm if kernel.demand.sm > 0 else fraction
        dram = min(1.0, kernel.demand.dram * min(1.0, dram_scale))
    else:
        new_body = kernel.body_us * fraction
        sm = kernel.demand.sm * fraction
        dram = kernel.demand.dram * fraction
    return new_kernel(
        kernel.name + suffix, kernel.launch_us + new_body, new_vector(sm, dram),
        new_warps, kernel.tag, kernel.launch_us, kernel.warp_slots, meta,
    )


def shard_kernel(kernel, first_fraction):
    """Split a kernel into two shards covering ``first_fraction`` and the rest."""
    if not 0.0 < first_fraction < 1.0:
        raise ValueError(f"first_fraction must be in (0, 1), got {first_fraction}")
    first = scaled(kernel, first_fraction, suffix="#a")
    second = scaled(kernel, 1.0 - first_fraction, suffix="#b")
    return first, second


def reference_shard_to_fit_demand(kernel, leftover):
    """``shard_to_fit_demand`` as it was: a chain of ``shard_kernel`` calls."""
    sm_demand, dram_demand = kernel.demand.sm, kernel.demand.dram
    if sm_demand <= leftover.sm + 1e-12 and dram_demand <= leftover.dram + 1e-12:
        return [kernel]
    if (sm_demand > 0 and leftover.sm <= 0) or (dram_demand > 0 and leftover.dram <= 0):
        return None
    if kernel.warp_slots > 0 and kernel.num_warps > 0:
        limits = [float(kernel.num_warps)]
        if sm_demand > 0:
            limits.append(kernel.warp_slots * leftover.sm)
        if dram_demand > 0:
            limits.append(kernel.warp_slots * min(1.0, leftover.dram / dram_demand))
        max_piece_warps = min(limits)
        if max_piece_warps < 1.0:
            return None
        pieces = math.ceil(kernel.num_warps / max_piece_warps)
    else:
        ratios = [leftover.sm / sm_demand if sm_demand > 0 else math.inf,
                  leftover.dram / dram_demand if dram_demand > 0 else math.inf]
        ratio = min(ratios)
        if ratio <= 0.0:
            return None
        pieces = math.ceil(1.0 / ratio)
    if pieces > MAX_SHARD_PIECES:
        return None
    fraction = 1.0 / pieces
    shards = []
    remaining = kernel
    for i in range(pieces - 1):
        remaining_fraction = fraction / (1.0 - i * fraction)
        first, remaining = shard_kernel(remaining, remaining_fraction)
        shards.append(first)
    shards.append(remaining)
    return shards


unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def kernels(draw) -> KernelDesc:
    duration = draw(st.floats(min_value=0.0, max_value=1e5, allow_nan=False))
    kernel = KernelDesc(
        name=draw(st.sampled_from(["k", "Ngram:f3", "fused#a"])),
        duration_us=duration,
        demand=ResourceVector(draw(unit), draw(unit)),
        num_warps=draw(st.integers(min_value=0, max_value=10 * A100_SPEC.total_warp_slots)),
        tag="SigridHash",
        launch_us=draw(unit) * duration,
        warp_slots=draw(st.sampled_from([0, A100_SPEC.total_warp_slots])),
        meta=draw(st.sampled_from([{}, {"rows": 64, "members": 1}])),
    )
    if draw(st.booleans()):
        # A fused kernel: its meta carries member descriptors, which shards drop.
        kernel = fuse_kernels([kernel, replace(kernel, name=kernel.name + "'")], A100_SPEC)
    return kernel


@st.composite
def leftovers(draw) -> ResourceVector:
    return ResourceVector(
        draw(st.one_of(st.just(0.0), unit)), draw(st.one_of(st.just(0.0), unit))
    )


@settings(max_examples=500, deadline=None)
@given(kernel=kernels(), leftover=leftovers())
def test_shard_to_fit_demand_equals_shard_kernel_chain(kernel, leftover):
    got = shard_to_fit_demand(kernel, leftover)
    try:
        want = reference_shard_to_fit_demand(kernel, leftover)
    except OverflowError:
        # The old form raised on a subnormal leftover (1 / ratio overflowed
        # to infinity); that many pieces exceed any bound, so it is None now.
        want = None
    assert got == want
    if got is not None:
        assert [type(k.meta) for k in got] == [type(k.meta) for k in want]
        if len(got) > 1:
            assert all("member_kernels" not in k.meta for k in got)
            assert len({id(k.meta) for k in got}) == len(got)


def plain(num_warps, warp_slots, sm=0.8, dram=0.6, **meta) -> KernelDesc:
    return KernelDesc(
        "k", 100.0, ResourceVector(sm, dram), num_warps=num_warps, tag="Clamp",
        launch_us=5.0, warp_slots=warp_slots, meta=meta,
    )


def test_shard_names_follow_the_chain():
    # Half the DRAM the kernel demands: pieces of half a wave, four of them.
    kernel = plain(2 * A100_SPEC.total_warp_slots, A100_SPEC.total_warp_slots, rows=8)
    pieces = shard_to_fit_demand(kernel, ResourceVector(1.0, 0.3))
    assert [k.name for k in pieces] == ["k#a", "k#b#a", "k#b#b#a", "k#b#b#b"]
    assert pieces == reference_shard_to_fit_demand(kernel, ResourceVector(1.0, 0.3))
    assert all(k.meta == {"rows": 8} for k in pieces)


def test_single_piece_is_the_kernel_itself():
    # The demand exceeds the leftover by less than one piece's worth of warps.
    kernel = plain(10, A100_SPEC.total_warp_slots, sm=0.5, dram=0.9)
    pieces = shard_to_fit_demand(kernel, ResourceVector(0.5, 0.8))
    assert pieces == reference_shard_to_fit_demand(kernel, ResourceVector(0.5, 0.8))
    assert len(pieces) == 1 and pieces[0] is kernel


def test_zero_warp_slots_and_zero_warps_scale_linearly():
    for kernel in (plain(512, 0), plain(0, A100_SPEC.total_warp_slots)):
        pieces = shard_to_fit_demand(kernel, ResourceVector(0.25, 0.25))
        assert pieces == reference_shard_to_fit_demand(kernel, ResourceVector(0.25, 0.25))
        assert len(pieces) == 4


def test_subnormal_leftover_needs_too_many_pieces():
    kernel = plain(0, 0, sm=1.0, dram=0.0)
    assert shard_to_fit_demand(kernel, ResourceVector(5e-324, 0.0)) is None


def test_zero_demand_fits_any_leftover():
    kernel = plain(512, A100_SPEC.total_warp_slots, sm=0.0, dram=0.0)
    assert shard_to_fit_demand(kernel, ResourceVector(0.0, 0.0)) == [kernel]
    assert reference_shard_to_fit_demand(kernel, ResourceVector(0.0, 0.0)) == [kernel]


# ----------------------------------------------------------------------
# Priced operator kernels
# ----------------------------------------------------------------------

#: Parameter choices per operator class. Several share a configuration on
#: purpose (Bucketize borders of one length, MapId multipliers), so a price
#: is reused across ops whose cost-relevant parameters match.
OP_PARAMS = {
    "Logit": [{"eps": 1e-5}, {"eps": 1e-3}],
    "BoxCox": [{"lmbda": 0.5}, {"lmbda": 0.25}],
    "Onehot": [{"num_classes": 8}, {"num_classes": 16}],
    "SigridHash": [{"salt": 1, "max_value": 1000}, {"salt": 2, "max_value": 1000},
                   {"salt": 1, "max_value": 5000}],
    "FirstX": [{"x": 1}, {"x": 3}, {"x": 5}],
    "Clamp": [{"lower": 0, "upper": 100}, {"lower": 5, "upper": 100}],
    "Bucketize": [{"borders": (0.5,)}, {"borders": (0.25, 0.5)}, {"borders": (0.1, 0.9)},
                  {"borders": (0.1, 0.2, 0.3, 0.4)}],
    "Ngram": [{"n": 2}, {"n": 3}],
    "MapId": [{"multiplier": 3, "table_size": 100}, {"multiplier": 5, "table_size": 100},
              {"multiplier": 3, "table_size": 900}],
    "FillNull": [{"fill_value": 0.0}, {"fill_value": 1.0}],
    "Cast": [{"dtype": "float32"}, {"dtype": "float16"}],
}


def test_params_cover_every_operator_class():
    assert set(OP_PARAMS) == set(OP_REGISTRY)


@st.composite
def configured_ops(draw):
    name = draw(st.sampled_from(sorted(OP_REGISTRY)))
    inputs = 1
    if OP_REGISTRY[name].input_kind == "multi_sparse":
        inputs = draw(st.integers(min_value=1, max_value=3))
    op = make_op(
        name,
        [f"sparse_{i}" for i in range(inputs)],
        draw(st.sampled_from(["out_a", "out_b", "out_c"])),
        **draw(st.sampled_from(OP_PARAMS[name])),
    )
    # 2.0004 prices apart from 2.0 although both round to one noise key.
    return op, draw(st.sampled_from([64, 4096])), draw(st.sampled_from([2.0, 2.0004, 3.5]))


@settings(max_examples=200, deadline=None)
@given(cases=st.lists(configured_ops(), min_size=1, max_size=24))
def test_priced_kernels_equal_gpu_kernel(cases):
    fusion = HorizontalFusionPass(A100_SPEC)
    priced = [fusion._price(op, rows, avg) for op, rows, avg in cases]
    for kernel, (op, rows, avg) in zip(priced, cases):
        assert kernel == op.gpu_kernel(rows, A100_SPEC, avg_list_length=avg)
    assert len({id(k.meta) for k in priced}) == len({id(k) for k in priced})
