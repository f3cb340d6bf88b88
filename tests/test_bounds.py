"""Unit tests for the closed-form paper bounds (repro.analysis.bounds)."""

import math
from fractions import Fraction

import pytest

from repro.analysis import (
    abs_listen_threshold_bit0,
    abs_listen_threshold_bit1,
    abs_phase_count,
    abs_phase_slot_bound,
    abs_slot_upper_bound,
    ao_election_slots,
    ao_long_silence_time_bound,
    ao_queue_bound_L,
    ao_queue_bound_S,
    ao_sync_extra_wait,
    ao_sync_silence_threshold,
    ca_gap_slots,
    ca_queue_bound_L,
    mbtf_queue_bound,
    sst_lower_bound_slots,
    thm4_minimum_start_slot,
)
from repro.core import ConfigurationError


class TestAbsThresholds:
    def test_bit0_is_3r(self):
        assert abs_listen_threshold_bit0(2) == 6
        assert abs_listen_threshold_bit0(4) == 12

    def test_bit1_is_4r2_plus_3r(self):
        assert abs_listen_threshold_bit1(2) == 22
        assert abs_listen_threshold_bit1(3) == 45

    def test_fractional_r_rounds_up(self):
        # R = 3/2: 3R = 4.5 -> 5 slots; 4R^2+3R = 13.5 -> 14 slots.
        assert abs_listen_threshold_bit0("3/2") == 5
        assert abs_listen_threshold_bit1("3/2") == 14

    def test_bit1_dominates_bit0_times_r(self):
        # The asymmetry that makes Lemma 3 work: a bit-1 listener
        # outlasts any bit-0 silence even at maximal slot-length skew.
        for R in (1, 2, 3, 5, 8):
            assert abs_listen_threshold_bit1(R) >= R * abs_listen_threshold_bit0(R) + R

    def test_r_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            abs_listen_threshold_bit0("1/2")


class TestAbsSlotBound:
    def test_phase_bound_formula(self):
        # (R+1) + (4R^2+3R) + 1 at R=2: 3 + 22 + 1 = 26.
        assert abs_phase_slot_bound(2) == 26

    def test_phase_count_log_n(self):
        assert abs_phase_count(1) == 2
        assert abs_phase_count(2) == 3
        assert abs_phase_count(8) == 5
        assert abs_phase_count(255) == 9

    def test_quadratic_growth_in_r(self):
        n = 16
        b2 = abs_slot_upper_bound(n, 2)
        b4 = abs_slot_upper_bound(n, 4)
        b8 = abs_slot_upper_bound(n, 8)
        # Doubling R should roughly quadruple the bound (O(R^2)).
        assert 3 < b4 / b2 < 5
        assert 3 < b8 / b4 < 5

    def test_logarithmic_growth_in_n(self):
        R = 2
        assert abs_slot_upper_bound(256, R) < 2 * abs_slot_upper_bound(16, R)

    def test_invalid_n_rejected(self):
        with pytest.raises(ConfigurationError):
            abs_phase_count(0)


class TestSstLowerBound:
    def test_trivial_for_single_station(self):
        assert sst_lower_bound_slots(1, 4) == 0

    def test_synchronous_case_is_log_n(self):
        assert sst_lower_bound_slots(256, 1) == 8

    def test_scales_linearly_in_r_at_fixed_log_ratio(self):
        # r and n = r^k scaled together: bound ~ r (k + 1).
        low = sst_lower_bound_slots(16, 4)   # ~ 4 * (2+1) = 12
        high = sst_lower_bound_slots(64, 8)  # ~ 8 * (2+1) = 24
        assert 1.5 < float(high) / float(low) < 2.5

    def test_below_abs_upper_bound(self):
        for n in (4, 16, 64, 256):
            for r in (2, 4, 8):
                assert sst_lower_bound_slots(n, r) <= abs_slot_upper_bound(n, r)


class TestAoConstants:
    def test_sync_threshold_exceeds_longest_election_silence(self):
        # Threshold must exceed R * (in-election silent slots) strictly.
        for R in (1, 2, 3, 4):
            in_election = (4 * R * R + 3 * R) + (R + 1)
            assert ao_sync_silence_threshold(R) > R * in_election

    def test_extra_wait_is_r_times_threshold(self):
        for R in (1, 2, 5):
            assert ao_sync_extra_wait(R) == R * ao_sync_silence_threshold(R)

    def test_election_slots_matches_abs(self):
        assert ao_election_slots(8, 2) == abs_slot_upper_bound(8, 2)

    def test_long_silence_bound_is_r_r4(self):
        b = ao_long_silence_time_bound(2, 2)
        assert b == 2 * 22 * 2 * 3 + 2


class TestAoQueueBounds:
    def test_s_formula(self):
        n, R, rho, b, r = 2, 2, Fraction(1, 2), 1, 2
        a = ao_election_slots(n, R)
        big_b = ao_long_silence_time_bound(R, r)
        expected = (n * R * a + b + big_b) / Fraction(1, 2)
        assert ao_queue_bound_S(n, R, rho, b, r) == expected

    def test_l_is_max_of_l0_l1(self):
        value = ao_queue_bound_L(4, 2, "1/2", 2, 2)
        s = ao_queue_bound_S(4, 2, "1/2", 2, 2)
        assert value >= s  # L0 >= S by construction

    def test_l_diverges_as_rho_to_one(self):
        near = ao_queue_bound_L(2, 2, "99/100", 1, 2)
        far = ao_queue_bound_L(2, 2, "1/2", 1, 2)
        assert near > 20 * far

    def test_rho_one_rejected(self):
        with pytest.raises(ConfigurationError):
            ao_queue_bound_L(2, 2, 1, 1, 2)


class TestCaBounds:
    def test_gap_is_2r(self):
        assert ca_gap_slots(2) == 4
        assert ca_gap_slots("5/2") == 5

    def test_queue_bound_formula_shape(self):
        # 2nR^2(rho+1)/(1-rho)-shaped: check divergence and n-linearity.
        base = ca_queue_bound_L(2, 2, "1/2", 1)
        double_n = ca_queue_bound_L(4, 2, "1/2", 1)
        assert Fraction(3, 2) < double_n / base < Fraction(5, 2)
        near_one = ca_queue_bound_L(2, 2, "9/10", 1)
        assert near_one > base


class TestAuxBounds:
    def test_mbtf_bound(self):
        assert mbtf_queue_bound(3, 4) == 26

    def test_thm4_start_slot_large_enough(self):
        # S > (2L-1)/(rho(R-1)) strictly.
        s = thm4_minimum_start_slot(8, Fraction(1, 2), 2)
        assert s > Fraction(15) / Fraction(1, 2)

    def test_thm4_requires_real_asynchrony(self):
        with pytest.raises(ConfigurationError):
            thm4_minimum_start_slot(8, Fraction(1, 2), 1)

    def test_thm4_requires_positive_rate(self):
        with pytest.raises(ConfigurationError):
            thm4_minimum_start_slot(8, Fraction(0), 2)


#: The per-R thresholds every station of a fleet asks for, memoized per
#: normalised R, with their closed forms.
PER_R_THRESHOLDS = {
    abs_listen_threshold_bit0: lambda r: 3 * r,
    abs_listen_threshold_bit1: lambda r: 4 * r * r + 3 * r,
    ao_sync_silence_threshold: lambda r: (
        r * ((4 * r * r + 3 * r) + (r + 1)) + 2
    ),
    ao_sync_extra_wait: lambda r: r * math.ceil(
        r * ((4 * r * r + 3 * r) + (r + 1)) + 2
    ),
    ca_gap_slots: lambda r: 2 * r,
}


class TestPerRMemo:
    @pytest.mark.parametrize(
        "threshold", PER_R_THRESHOLDS, ids=lambda f: f.__name__
    )
    def test_invalid_r_raises_on_every_call(self, threshold):
        # R = 1 is cached first: True and Fraction(1) compare equal to it.
        assert threshold(1) == threshold(Fraction(1))
        for bad in (True, 0, "1/2", Fraction(1, 2)):
            for _ in range(2):
                with pytest.raises(ConfigurationError):
                    threshold(bad)

    @pytest.mark.parametrize(
        "threshold", PER_R_THRESHOLDS, ids=lambda f: f.__name__
    )
    @pytest.mark.parametrize(
        "r", [2, 3, Fraction(5, 2), "7/3", "3/2", 2.5],
        ids=lambda r: f"{type(r).__name__}-{r}",
    )
    def test_cached_and_uncached_values_agree(self, threshold, r):
        threshold.cache_clear()
        uncached = threshold(r)
        assert threshold.cache_info().misses >= 1
        hits = threshold.cache_info().hits
        exact = Fraction(r) if not isinstance(r, float) else Fraction(str(r))
        for equal in (r, exact, str(exact)):
            assert threshold(equal) == uncached
        assert threshold.cache_info().hits == hits + 3
        assert uncached == math.ceil(PER_R_THRESHOLDS[threshold](exact))

    def test_public_signature_accepts_any_time_like(self):
        import inspect

        for threshold in PER_R_THRESHOLDS:
            params = list(inspect.signature(threshold).parameters)
            assert params == ["max_slot_length"], threshold.__name__
            assert threshold(max_slot_length="2") == threshold(2)

    def test_abs_overrides_still_honoured_and_demote(self):
        from repro.algorithms import ABSLeaderElection
        from repro.algorithms.abs_leader import AbsCore
        from repro.core import Simulator
        from repro.timing import Synchronous

        assert abs_listen_threshold_bit0(2) == 6  # warm the memo
        core = AbsCore(station_id=3, max_slot_length=2,
                       threshold0_override=2, threshold1_override=5)
        assert (core._threshold0, core._threshold1) == (2, 5)
        plain = AbsCore(station_id=3, max_slot_length=2)
        assert (plain._threshold0, plain._threshold1) == (6, 22)

        pytest.importorskip("numpy")
        fleet = {i: ABSLeaderElection(i, 2) for i in range(1, 5)}
        fleet[2].core.threshold1_override = 9
        fleet[2].core.__post_init__()
        assert fleet[2].core._threshold1 == 9
        sim = Simulator(fleet, Synchronous(), max_slot_length=2)
        assert sim.engine == "object"
        assert sim.engine_detail == (
            "ABS with listening-threshold overrides is object-path only"
        )
