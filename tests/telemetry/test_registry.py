"""Unit tests for the process-local metrics registry."""

import pytest

from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
)


class TestInstruments:
    def test_counter_increments(self):
        c = Counter("requests_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        c = Counter("requests_total")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        g = Gauge("queue_depth")
        g.set(7.0)
        assert g.value == 7.0
        g.set(5.0)
        assert g.value == 5.0

    def test_histogram_buckets_and_sum(self):
        h = Histogram("lat_us", buckets=(10.0, 100.0, 1000.0))
        for v in (5.0, 50.0, 500.0, 5000.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 5555.0
        cumulative = h.cumulative_counts()
        # Implicit +Inf bucket terminates the list and equals the count.
        assert cumulative[-1][0] == float("inf")
        assert [c for _, c in cumulative] == [1, 2, 3, 4]

    @pytest.mark.parametrize(
        "values",
        [
            (10.0, 100.0, 1000.0),  # exactly on each bound
            (9.999, 10.0, 10.001, 1000.0, 1000.5),
            (float("-inf"), float("inf"), -5.0, 0.0),
            (float("nan"), 3.0, float("nan")),
            (1, 250, 10**6),  # ints are observed as floats
            (),
        ],
    )
    def test_histogram_observe_many_equals_observe(self, values):
        one = Histogram("lat_us", buckets=(10.0, 100.0, 1000.0))
        many = Histogram("lat_us", buckets=(10.0, 100.0, 1000.0))
        for v in values:
            one.observe(v)
        many.observe_many(values)
        assert many.cumulative_counts() == one.cumulative_counts()
        assert many.count == one.count == len(values)
        assert repr(many.sum) == repr(one.sum)  # bit-equal, NaN included

    def test_histogram_nan_goes_to_inf_bucket(self):
        h = Histogram("lat_us", buckets=(10.0, 100.0))
        h.observe_many([float("nan")])
        assert h.cumulative_counts() == [(10.0, 0), (100.0, 0), (float("inf"), 1)]

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(10.0, 10.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(100.0, 10.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(10.0, float("inf")))

    def test_default_buckets_strictly_increase(self):
        assert list(DEFAULT_LATENCY_BUCKETS_US) == sorted(
            set(DEFAULT_LATENCY_BUCKETS_US)
        )


class TestMetricKey:
    def test_labels_are_order_insensitive(self):
        assert metric_key("m", {"a": "1", "b": "2"}) == metric_key(
            "m", {"b": "2", "a": "1"}
        )

    def test_distinct_labels_distinct_keys(self):
        assert metric_key("m", {"a": "1"}) != metric_key("m", {"a": "2"})


class TestMetricsRegistry:
    def test_get_or_create_returns_same_child(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total", labels={"cache": "plan"})
        b = reg.counter("hits_total", labels={"cache": "plan"})
        assert a is b
        a.inc()
        assert b.value == 1.0

    def test_label_children_are_independent(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", labels={"cache": "plan"}).inc(3)
        reg.counter("hits_total", labels={"cache": "milp"}).inc(1)
        snap = reg.snapshot()
        values = {
            tuple(sorted(series["labels"].items())): series["value"]
            for series in snap["hits_total"]["series"]
        }
        assert values[(("cache", "plan"),)] == 3.0
        assert values[(("cache", "milp"),)] == 1.0

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m_total")
        with pytest.raises(ValueError):
            reg.gauge("m_total")

    def test_histogram_bucket_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h_us", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h_us", buckets=(1.0, 3.0))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok_total", labels={"bad label": "x"})

    def test_families_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("zzz_total")
        reg.gauge("aaa")
        names = [name for name, _, _, _ in reg.families()]
        assert names == sorted(names)

    def test_snapshot_is_json_plain(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        reg.histogram("h_us", buckets=(1.0,)).observe(0.5)
        json.dumps(reg.snapshot())  # must not raise
