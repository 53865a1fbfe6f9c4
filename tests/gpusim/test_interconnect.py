"""Unit tests for the NVLink/NVSwitch interconnect model."""

import pytest
from hypothesis import given, strategies as st

from repro.gpusim.interconnect import Interconnect

IC = Interconnect()


class TestAllToAll:
    def test_single_gpu_is_free(self):
        assert IC.all_to_all_us(1_000_000, 1) == 0.0

    def test_zero_payload_is_free(self):
        assert IC.all_to_all_us(0, 8) == 0.0

    def test_more_gpus_more_payload_fraction(self):
        t2 = IC.all_to_all_us(10_000_000, 2)
        t8 = IC.all_to_all_us(10_000_000, 8)
        # (n-1)/n grows with n: 1/2 vs 7/8 of the payload crosses links.
        assert t8 > t2


class TestAllReduce:
    def test_trivial_cases(self):
        assert IC.all_reduce_us(1_000_000, 1) == 0.0
        assert IC.all_reduce_us(0, 8) == 0.0

    def test_ring_volume(self):
        t = IC.all_reduce_us(1_000_000, 4)
        expected = IC.alpha_us + 2 * 1_000_000 * 3 / 4 / IC.link_bytes_per_us
        assert t == pytest.approx(expected)


class TestRedistribution:
    def test_zero_volume_free(self):
        assert IC.redistribution_us(0, 8) == 0.0

    def test_single_gpu_free(self):
        assert IC.redistribution_us(1_000_000, 1) == 0.0

    def test_parallelizes_across_sources(self):
        t4 = IC.redistribution_us(10_000_000, 4)
        t8 = IC.redistribution_us(10_000_000, 8)
        assert t8 < t4

    @given(st.floats(min_value=1.0, max_value=1e9), st.integers(min_value=2, max_value=16))
    def test_monotone_in_volume(self, nbytes, n):
        assert IC.redistribution_us(nbytes * 2, n) > IC.redistribution_us(nbytes, n)
