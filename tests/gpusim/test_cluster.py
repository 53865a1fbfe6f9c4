"""Unit tests for the multi-GPU cluster composition."""

import pytest

from repro.gpusim.cluster import MultiGpuCluster
from repro.gpusim.device import StageProfile
from repro.gpusim.kernel import KernelDesc
from repro.gpusim.resources import ResourceVector


def stages(duration=1000.0):
    return [
        StageProfile("mlp", duration, ResourceVector(0.85, 0.3)),
        StageProfile("emb", duration / 2, ResourceVector(0.2, 0.9)),
    ]


class TestMultiGpuCluster:
    def test_rejects_zero_gpus(self):
        with pytest.raises(ValueError):
            MultiGpuCluster(0)

    def test_iteration_is_max_over_gpus(self):
        cluster = MultiGpuCluster(2)
        result = cluster.simulate_iteration([stages(1000.0), stages(2000.0)])
        assert result.iteration_time_us == pytest.approx(3000.0)
        assert result.per_gpu[1].total_time_us > result.per_gpu[0].total_time_us

    def test_requires_matching_pipeline_count(self):
        cluster = MultiGpuCluster(4)
        with pytest.raises(ValueError):
            cluster.simulate_iteration([stages()])

    def test_requires_matching_assignment_count(self):
        cluster = MultiGpuCluster(2)
        with pytest.raises(ValueError):
            cluster.simulate_iteration([stages(), stages()], assignments_per_gpu=[{}])

    def test_input_comm_adds_to_critical_path(self):
        cluster = MultiGpuCluster(2)
        free = cluster.simulate_iteration([stages(), stages()])
        with_comm = cluster.simulate_iteration(
            [stages(), stages()], input_comm_bytes=100_000_000
        )
        assert with_comm.iteration_time_us > free.iteration_time_us
        assert with_comm.input_comm_us > 0

    def test_per_gpu_results_exposed(self):
        cluster = MultiGpuCluster(3)
        result = cluster.simulate_iteration([stages(), stages(), stages()])
        assert len(result.per_gpu) == 3

    def test_trailing_kernels_expose_latency(self):
        cluster = MultiGpuCluster(2)
        trailing = [KernelDesc("t", 500.0, ResourceVector(0.5, 0.5))]
        result = cluster.simulate_iteration(
            [stages(), stages()], trailing_per_gpu=[trailing, []]
        )
        assert result.max_exposed_preprocessing_us == pytest.approx(500.0)

    def test_empty_cluster_result_defaults(self):
        cluster = MultiGpuCluster(1)
        result = cluster.simulate_iteration([stages()])
        assert result.max_exposed_preprocessing_us == 0.0
