"""Pricing equals its earlier arithmetic, field for field.

``PreprocessingOp.gpu_kernel`` computes ``work_elements`` once, reads
``_params_key()`` once and builds its kernel without the frozen
constructor's per-field calls. ``reference_gpu_kernel`` below is a frozen
copy of the arithmetic it replaced: ``work_elements`` read three times
(directly, through ``num_warps`` and through ``output_bytes``), the four
overrides (Onehot's ``output_bytes``, FirstX's, Bucketize's and Ngram's
``work_elements``), the SM fraction and the spec's derived values
recomputed from the spec's fields, and the noise digest recomputed from the
key.
Every class in ``OP_REGISTRY`` is priced over drawn parameters, rows, list
lengths and GPU profiles, directly and through the fusion pass's renamed
copies.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.fusion import HorizontalFusionPass
from repro.gpusim.kernel import KernelDesc
from repro.gpusim.resources import GPU_PROFILES, ResourceVector
from repro.preprocessing.ops import OP_REGISTRY, make_op


def reference_work_elements(op, rows, avg_list_length):
    name = op.op_name
    if name == "FirstX":
        return rows * min(float(op.x), avg_list_length)
    if name == "Bucketize":
        return rows * max(1.0, np.log2(len(op.borders) + 1))
    if name == "Ngram":
        return rows * avg_list_length * len(op.inputs) * op.n
    if op.input_kind == "dense":
        return float(rows)
    if op.input_kind == "sparse":
        return rows * avg_list_length
    return rows * avg_list_length * len(op.inputs)


def reference_output_bytes(op, rows, avg_list_length):
    if op.op_name == "Onehot":
        return float(rows) * op.num_classes
    return reference_work_elements(op, rows, avg_list_length) * op.bytes_per_elem


def reference_noise(key):
    digest = hashlib.md5(repr(key).encode()).digest()
    return 0.92 + 0.16 * (int.from_bytes(digest[:4], "little") / 0xFFFFFFFF)


def reference_gpu_kernel(op, rows, spec, avg_list_length, name=None):
    """``gpu_kernel`` as it was, through the public constructors."""
    slots = spec.num_sms * spec.warps_per_sm
    work = reference_work_elements(op, rows, avg_list_length)
    warps = max(1, math.ceil(reference_work_elements(op, rows, avg_list_length) / 128))
    sm_frac = 0.0 if warps <= 0 else min(1.0, warps / slots)
    occupancy = max(warps / slots, 1e-4)
    compute_us = work / (op.gpu_elems_per_us * min(1.0, occupancy))
    write_us = reference_output_bytes(op, rows, avg_list_length) / (spec.dram_bw_gbps * 1e9 / 1e6)
    body_us = max(compute_us, write_us)
    noise = reference_noise((op.op_name, rows, round(avg_list_length, 3)) + op._params_key())
    duration = spec.kernel_launch_us + body_us * noise
    dram_frac = op.dram_intensity * min(1.0, warps / (slots * 0.25))
    return KernelDesc(
        name=name or f"{op.op_name}:{op.output}",
        duration_us=duration,
        demand=ResourceVector(sm=sm_frac, dram=dram_frac),
        num_warps=warps,
        tag=op.op_name,
        launch_us=spec.kernel_launch_us,
        warp_slots=slots,
        meta={
            "rows": rows,
            "avg_list_length": avg_list_length,
            "params": op._params_key(),
            "members": 1,
        },
    )


def assert_same_kernel(got, want):
    assert got == want
    assert type(got) is KernelDesc and type(got.demand) is ResourceVector
    assert type(got.meta) is dict and list(got.meta) == list(want.meta)
    assert type(got.num_warps) is int and type(got.warp_slots) is int


#: Parameters drawn per operator, beside the input columns.
PARAMS = {
    "Logit": st.fixed_dictionaries({"eps": st.sampled_from([1e-5, 1e-3, 0.01])}),
    "BoxCox": st.fixed_dictionaries({"lmbda": st.sampled_from([0.0, 0.25, 0.5, 2.0])}),
    "Onehot": st.fixed_dictionaries({"num_classes": st.integers(1, 128)}),
    "SigridHash": st.fixed_dictionaries({"max_value": st.integers(1, 10**7)}),
    "FirstX": st.fixed_dictionaries({"x": st.integers(1, 16)}),
    "Clamp": st.fixed_dictionaries({"upper": st.integers(0, 10**6)}),
    "Bucketize": st.fixed_dictionaries({
        "borders": st.lists(st.floats(0.0, 1.0), max_size=12).map(lambda b: tuple(sorted(b)))
    }),
    "Ngram": st.fixed_dictionaries({"n": st.integers(1, 5)}),
    "MapId": st.fixed_dictionaries({"table_size": st.integers(1, 10**7)}),
    "FillNull": st.fixed_dictionaries({"fill_value": st.sampled_from([0.0, -1.0, 3.5])}),
    "Cast": st.fixed_dictionaries({"dtype": st.sampled_from(["float32", "int64", "float16"])}),
}
assert set(PARAMS) == set(OP_REGISTRY)


@st.composite
def priced_ops(draw):
    name = draw(st.sampled_from(sorted(OP_REGISTRY)))
    width = draw(st.integers(1, 4)) if OP_REGISTRY[name].input_kind == "multi_sparse" else 1
    inputs = [f"in{i}" for i in range(width)]
    return make_op(name, inputs, "out", **draw(PARAMS[name]))


rows = st.integers(min_value=1, max_value=1 << 22)
list_lengths = st.floats(min_value=0.0, max_value=200.0, allow_nan=False)
specs = st.sampled_from(sorted(GPU_PROFILES.values(), key=lambda s: s.name))


@settings(max_examples=400, deadline=None)
@given(op=priced_ops(), rows=rows, avg_list_length=list_lengths, spec=specs,
       name=st.sampled_from([None, "custom"]))
def test_gpu_kernel_equals_its_earlier_arithmetic(op, rows, avg_list_length, spec, name):
    got = op.gpu_kernel(rows, spec, avg_list_length, name=name)
    assert_same_kernel(got, reference_gpu_kernel(op, rows, spec, avg_list_length, name))


@settings(max_examples=200, deadline=None)
@given(op=priced_ops(), rows=rows, avg_list_length=list_lengths, spec=specs)
def test_renamed_copies_equal_their_earlier_arithmetic(op, rows, avg_list_length, spec):
    fusion = HorizontalFusionPass(spec)
    twin = replace(op, output="twin")
    first = fusion._price(op, rows, avg_list_length)
    copy = fusion._price(twin, rows, avg_list_length)
    assert len(fusion._prices) == 1
    assert_same_kernel(first, reference_gpu_kernel(op, rows, spec, avg_list_length))
    assert_same_kernel(copy, reference_gpu_kernel(twin, rows, spec, avg_list_length))
    assert copy.meta is not first.meta
