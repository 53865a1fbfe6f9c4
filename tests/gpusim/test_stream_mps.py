"""Tests for the stream and MPS sharing policies of the §8.1 baselines.

Both baselines release every preprocessing kernel at the top of the
iteration, so the kernels are assigned to stage 0.
"""

import pytest

from repro.gpusim import (
    MPS_POLICY,
    STREAM_POLICY,
    GpuDevice,
    KernelDesc,
    ResourceVector,
    StageProfile,
)


@pytest.fixture
def pipeline():
    return [
        StageProfile("mlp", 1000.0, ResourceVector(0.85, 0.3)),
        StageProfile("emb", 600.0, ResourceVector(0.2, 0.9)),
    ]


@pytest.fixture
def kernels():
    return [
        KernelDesc(f"k{i}", 60.0, ResourceVector(0.2, 0.1), num_warps=64, tag="FillNull")
        for i in range(6)
    ]


def corun(device, pipeline, kernels, policy):
    return device.simulate_iteration(pipeline, {0: kernels}, policy=policy)


def test_stream_completes_all_kernels(pipeline, kernels):
    result = corun(GpuDevice(), pipeline, kernels, STREAM_POLICY)
    assert len(result.kernel_spans) == len(kernels)


def test_stream_extends_training(pipeline, kernels):
    device = GpuDevice()
    base = device.run_training_standalone(pipeline)
    result = corun(device, pipeline, kernels, STREAM_POLICY)
    assert result.total_time_us > base.total_time_us


def test_mps_beats_stream(pipeline, kernels):
    device = GpuDevice()
    stream = corun(device, pipeline, kernels, STREAM_POLICY)
    mps = corun(device, pipeline, kernels, MPS_POLICY)
    assert mps.total_time_us < stream.total_time_us


def test_empty_kernel_list_is_noop(pipeline):
    device = GpuDevice()
    base = device.run_training_standalone(pipeline)
    stream = corun(device, pipeline, [], STREAM_POLICY)
    mps = corun(device, pipeline, [], MPS_POLICY)
    assert stream.total_time_us == pytest.approx(base.total_time_us)
    assert mps.total_time_us == pytest.approx(base.total_time_us)
