"""Tests for the terminal plotting helpers."""

import pytest

from repro.experiments.plotting import ascii_line_chart


class TestLineChart:
    def test_empty(self):
        assert ascii_line_chart({}) == "(no data)"

    def test_rejects_tiny_dimensions(self):
        with pytest.raises(ValueError):
            ascii_line_chart({"a": [(0, 0)]}, width=5)
        with pytest.raises(ValueError):
            ascii_line_chart({"a": [(0, 0)]}, height=2)

    def test_contains_markers_and_legend(self):
        out = ascii_line_chart({"up": [(0, 0), (1, 1)], "down": [(0, 1), (1, 0)]})
        assert "*" in out and "o" in out
        assert "legend: * up  o down" in out

    def test_axis_labels(self):
        out = ascii_line_chart({"a": [(0.0, 10.0), (5.0, 50.0)]}, title="T")
        assert out.splitlines()[0] == "T"
        assert "50" in out and "10" in out
        assert "0" in out and "5" in out

    def test_monotone_series_renders_monotone(self):
        """The highest y lands on the top row, the lowest on the bottom."""
        out = ascii_line_chart({"a": [(0, 0), (10, 100)]}, width=20, height=6)
        rows = [line for line in out.splitlines() if "|" in line]
        assert "*" in rows[0]
        assert "*" in rows[-1]

    def test_constant_series_no_crash(self):
        out = ascii_line_chart({"flat": [(0, 5), (1, 5), (2, 5)]})
        assert "*" in out

    def test_many_series_cycle_markers(self):
        series = {f"s{i}": [(0, i)] for i in range(10)}
        out = ascii_line_chart(series)
        assert "legend" in out


class TestSensitivity:
    def test_small_sweep_robust(self):
        from repro.experiments import sensitivity

        results = sensitivity.run(plan_id=1, num_gpus=2)
        assert results["robust"]
        sweeps = {r["sweep"] for r in results["rows"]}
        assert sweeps == set(sensitivity.SWEEPS)

    def test_render(self):
        from repro.experiments import sensitivity

        results = sensitivity.run(plan_id=0, num_gpus=2)
        out = sensitivity.render(results)
        assert "Sensitivity" in out
        assert "robust" in out
