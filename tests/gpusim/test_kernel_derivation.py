"""Constructor-built kernel derivations equal their ``dataclasses.replace`` forms.

``KernelDesc.drifted`` and ``with_duration`` build the derived kernel with
the constructor. The reference forms below are the
``dataclasses.replace`` versions they replaced; every field, ``meta``
included, must come out equal. ``PreprocessingOp.gpu_kernel`` likewise counts
warps with ``math.ceil`` where it used ``np.ceil``.
"""

from dataclasses import fields, replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpusim.kernel import KernelDesc, fuse_kernels
from repro.gpusim.resources import A100_SPEC, ResourceVector
from repro.preprocessing.ops import _ELEMS_PER_WARP, make_op


def replace_with_duration(kernel: KernelDesc, duration_us: float) -> KernelDesc:
    return replace(kernel, duration_us=duration_us)


def replace_drifted(kernel: KernelDesc, factor: float) -> KernelDesc:
    if factor == 1.0:
        return kernel
    duration_us = kernel.duration_us * factor
    return replace(kernel, duration_us=duration_us, launch_us=min(kernel.launch_us, duration_us))


factors = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


@st.composite
def kernels(draw) -> KernelDesc:
    duration = draw(st.floats(min_value=0.0, max_value=1e5, allow_nan=False))
    launch = draw(st.floats(min_value=0.0, max_value=1.0)) * duration
    tag = draw(st.sampled_from(["FillNull", "SigridHash"]))
    kernel = KernelDesc(
        name=draw(st.text(min_size=1, max_size=8)),
        duration_us=duration,
        demand=ResourceVector(
            draw(st.floats(min_value=0.0, max_value=1.0)),
            draw(st.floats(min_value=0.0, max_value=1.0)),
        ),
        num_warps=draw(st.integers(min_value=0, max_value=10 * A100_SPEC.total_warp_slots)),
        tag=tag,
        launch_us=launch,
        warp_slots=draw(st.sampled_from([0, A100_SPEC.total_warp_slots])),
        meta=draw(st.sampled_from([{}, {"rows": 64, "members": 1}])),
    )
    if draw(st.booleans()):
        # A fused kernel: its meta carries the member descriptors.
        kernel = fuse_kernels([kernel, replace(kernel, name=kernel.name + "'")], A100_SPEC)
    return kernel


def assert_same_kernel(built: KernelDesc, reference: KernelDesc) -> None:
    for f in fields(KernelDesc):
        assert getattr(built, f.name) == getattr(reference, f.name), f.name
    assert type(built.meta) is type(reference.meta)


@settings(max_examples=200, deadline=None)
@given(kernel=kernels(), factor=factors)
def test_drifted_matches_replace(kernel, factor):
    assert_same_kernel(kernel.drifted(factor), replace_drifted(kernel, factor))


@settings(max_examples=200, deadline=None)
@given(kernel=kernels(), duration=st.floats(min_value=0.0, max_value=1e5))
def test_with_duration_matches_replace(kernel, duration):
    if duration < kernel.launch_us:
        duration = kernel.launch_us
    built = kernel.with_duration(duration)
    assert_same_kernel(built, replace_with_duration(kernel, duration))
    assert built.meta is kernel.meta


@settings(max_examples=300, deadline=None)
@given(
    op_name=st.sampled_from(["FillNull", "SigridHash", "Ngram"]),
    rows=st.integers(min_value=1, max_value=1 << 22),
    avg_list_length=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
)
def test_num_warps_matches_numpy_ceil(op_name, rows, avg_list_length):
    op = make_op(op_name, ["a", "b"] if op_name == "Ngram" else ["a"], "out")
    work = op.work_elements(rows, avg_list_length)
    warps = op.gpu_kernel(rows, avg_list_length=avg_list_length).num_warps
    assert type(warps) is int
    assert warps == max(1, int(np.ceil(work / _ELEMS_PER_WARP)))
