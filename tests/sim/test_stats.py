"""Run statistics and comparison arithmetic."""

import math

import pytest
from hypothesis import assume, given, strategies as st

from repro.sim.stats import (
    Comparison,
    RunStats,
    geomean,
    mean,
    percent_reduction,
)


class TestRunStats:
    def test_derived_rates(self):
        s = RunStats(
            l1_accesses=100, l1_hits=80,
            llc_accesses=20, llc_hits=15,
            network_packets=10, network_total_latency=200,
            network_total_hops=45,
        )
        assert s.l1_hit_rate == 0.8
        assert s.llc_hit_rate == 0.75
        assert s.llc_miss_rate == 0.25
        assert s.avg_network_latency == 20.0
        assert s.avg_hops == 4.5

    def test_zero_division_guards(self):
        s = RunStats()
        assert s.l1_hit_rate == 0.0
        assert s.avg_network_latency == 0.0
        assert s.memory_stall_fraction == 0.0
        assert s.overhead_fraction == 0.0

    def test_zero_accesses_everywhere(self):
        """A run that never touched memory has all-zero derived metrics."""
        s = RunStats(execution_cycles=500, iterations_executed=100)
        assert s.llc_hit_rate == 0.0
        assert s.llc_miss_rate == 0.0
        assert s.avg_hops == 0.0
        assert s.memory_stall_fraction == 0.0

    def test_fractions_of_execution(self):
        s = RunStats(
            execution_cycles=1000,
            memory_stall_cycles=250,
            overhead_cycles=100,
        )
        assert s.memory_stall_fraction == 0.25
        assert s.overhead_fraction == 0.1

    @given(
        st.integers(0, 10**6), st.integers(0, 10**6),
    )
    def test_hit_rate_bounded(self, accesses, hits):
        hits = min(hits, accesses)
        s = RunStats(l1_accesses=accesses, l1_hits=hits)
        assert 0.0 <= s.l1_hit_rate <= 1.0


class TestPercentReduction:
    def test_basic(self):
        assert percent_reduction(100, 80) == pytest.approx(20.0)
        assert percent_reduction(100, 120) == pytest.approx(-20.0)

    def test_zero_baseline(self):
        assert percent_reduction(0, 50) == 0.0

    @given(st.floats(1, 1e6), st.floats(0, 1e6))
    def test_bounded_above_by_100(self, base, opt):
        assert percent_reduction(base, opt) <= 100.0 + 1e-9


class TestComparison:
    def test_reductions(self):
        base = RunStats(
            execution_cycles=1000,
            network_packets=10, network_total_latency=300,
        )
        opt = RunStats(
            execution_cycles=900,
            network_packets=10, network_total_latency=150,
            overhead_cycles=45,
        )
        c = Comparison("x", base, opt)
        assert c.execution_time_reduction == pytest.approx(10.0)
        assert c.network_latency_reduction == pytest.approx(50.0)
        assert c.overhead_percent == pytest.approx(5.0)

    def test_zero_baseline_run(self):
        """Empty baseline (no packets, zero cycles) must not divide by zero."""
        c = Comparison("empty", RunStats(), RunStats(execution_cycles=100))
        assert c.execution_time_reduction == 0.0
        assert c.network_latency_reduction == 0.0
        assert c.overhead_percent == 0.0

    def test_identical_runs_reduce_zero(self):
        s = RunStats(
            execution_cycles=500, network_packets=5, network_total_latency=60
        )
        c = Comparison("same", s, s)
        assert c.execution_time_reduction == 0.0
        assert c.network_latency_reduction == 0.0


class TestAggregates:
    def test_geomean_basic(self):
        assert geomean([4.0, 16.0]) == pytest.approx(8.0)
        assert geomean([]) == 0.0

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    @given(st.lists(st.floats(0.1, 1000), min_size=1, max_size=20))
    def test_geomean_between_min_and_max(self, values):
        g = geomean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9

    # -- sign-aware behaviour on regressions (negative "reductions") -------
    def test_geomean_negative_keeps_sign(self):
        """A mix with a regression aggregates in ratio space, signed."""
        with pytest.warns(RuntimeWarning):
            value = geomean([10.0, -5.0])
        # Ratios 0.90 and 1.05: 1 - (0.90 * 1.05)^(1/2)  =  +2.7889...%
        assert value == pytest.approx(100.0 * (1.0 - math.sqrt(0.90 * 1.05)))
        with pytest.warns(RuntimeWarning):
            # Ratios 0.5 and 1.5: the metrics shrank overall.
            assert geomean([50.0, -50.0]) == pytest.approx(
                100.0 * (1.0 - math.sqrt(0.75))
            )

    def test_geomean_single_negative_is_identity(self):
        with pytest.warns(RuntimeWarning):
            assert geomean([-12.0]) == pytest.approx(-12.0)

    def test_geomean_net_regression_is_negative(self):
        """The old epsilon-floor reported this near zero; now it is < 0."""
        with pytest.warns(RuntimeWarning):
            assert geomean([5.0, -40.0]) < 0.0

    def test_geomean_zero_uses_ratio_space(self):
        with pytest.warns(RuntimeWarning):
            value = geomean([0.0, 0.0])
        assert value == pytest.approx(0.0)

    def test_geomean_reduction_of_100_or_more_raises(self):
        """A metric cut to zero has no ratio; a more-than-doubled one has."""
        for values in ([100.0, -5.0], [150.0, 0.0]):
            with pytest.raises(ValueError, match="100%"):
                geomean(values)
        with pytest.warns(RuntimeWarning):
            # Ratios 2.5 and 0.9: (2.25)^(1/2) = 1.5, a 50% regression.
            assert geomean([-150.0, 10.0]) == pytest.approx(-50.0)

    def test_geomean_all_positive_emits_no_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert geomean([1.0, 100.0]) == pytest.approx(10.0)

    @given(
        st.lists(st.floats(-99.0, 99.0), min_size=1, max_size=20).filter(
            lambda vs: min(vs) <= 0.0
        )
    )
    def test_geomean_signed_bounded_by_min_and_max(self, values):
        with pytest.warns(RuntimeWarning):
            g = geomean(values)
        assert min(values) - 1e-6 <= g <= max(values) + 1e-6

    @given(
        st.lists(st.floats(-500.0, 99.0), min_size=1, max_size=20).filter(
            lambda vs: min(vs) <= 0.0
        ),
        st.randoms(use_true_random=False),
    )
    def test_geomean_signed_permutation_invariant(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        with pytest.warns(RuntimeWarning):
            a, b = geomean(values), geomean(shuffled)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    @given(
        st.lists(st.floats(-500.0, 99.0), min_size=1, max_size=20).filter(
            lambda vs: min(vs) <= 0.0
        )
    )
    def test_geomean_signed_sign_follows_product_of_ratios(self, values):
        """Net improvement (> 0) exactly when the ratios multiply to < 1."""
        log_product = sum(math.log1p(-v / 100.0) for v in values)
        assume(abs(log_product) > 1e-9)
        with pytest.warns(RuntimeWarning):
            g = geomean(values)
        assert (g > 0.0) == (log_product < 0.0)
        assert (g < 0.0) == (log_product > 0.0)
