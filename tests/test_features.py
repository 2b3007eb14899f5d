import math
from dataclasses import replace

import numpy as np
import pytest

from sparsevib import (
    BearingGeometry,
    DegenerateInputError,
    FaultFrequencies,
    FaultSimConfig,
    FeatureVector,
    Signal,
    blehnr,
    csf_cost,
    extract_feature_vector,
    fault_frequencies,
    kurtosis,
    lp_lq_norm,
    simulate_bearing_fault,
)
from sparsevib.features import FEATURE_NAMES

OUTER_100 = FaultSimConfig(
    fault_components=("outer",), snr_db=float("inf"), n_samples=20480, seed=0
)


class TestLpLqNorm:
    def test_uniform_vector(self):
        assert lp_lq_norm(np.ones(100), 1, 2) == pytest.approx(10.0, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(500)
        assert lp_lq_norm(3.7 * f, 1, 2) == pytest.approx(lp_lq_norm(f, 1, 2), rel=1e-12)

    def test_matches_csf_cost_in_limit(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            f = rng.standard_normal(256)
            assert lp_lq_norm(f, 1, 2) == pytest.approx(csf_cost(f, 1e-12), rel=1e-4)

    def test_zero_vector(self):
        with pytest.raises(DegenerateInputError):
            lp_lq_norm(np.zeros(8), 1, 2)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            lp_lq_norm(np.ones(8), 2, 2)
        with pytest.raises(ValueError):
            lp_lq_norm(np.ones(8), -1, 2)


class TestKurtosis:
    def test_alternating_signs(self):
        f = np.tile([1.0, -1.0], 50)
        assert kurtosis(f) == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_reference(self):
        rng = np.random.default_rng(2)
        assert kurtosis(rng.standard_normal(100000)) == pytest.approx(3.0, abs=0.1)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(400)
        assert kurtosis(5.0 * f) == pytest.approx(kurtosis(f), rel=1e-12)

    def test_zero_variance(self):
        with pytest.raises(DegenerateInputError):
            kurtosis(np.full(16, 2.0))

    def test_short_vectors(self):
        # MED scores its outputs with this kurtosis, and the shortest has 3 samples.
        assert kurtosis([1.0, -1.0]) == pytest.approx(1.0, rel=1e-12)
        assert kurtosis([1.0, 0.0, -1.0]) == pytest.approx(1.5, rel=1e-12)
        with pytest.raises(ValueError, match="at least 2"):
            kurtosis([1.0])

    def test_matches_lp_lq_identity(self):
        # kurtosis == N / J_{2,4}^2 when both see the same mean-removed samples
        rng = np.random.default_rng(4)
        for _ in range(50):
            f = rng.standard_normal(rng.integers(16, 512))
            centered = f - f.mean()
            j24 = lp_lq_norm(centered, 2, 4)
            assert kurtosis(f) == pytest.approx(f.size / j24**2, rel=1e-9)


class TestFaultFrequencies:
    def test_hand_computed_example(self):
        geometry = BearingGeometry(8, 1.0, 4.0, 0.0)  # d/D = 0.25
        freqs = fault_frequencies(geometry, 10.0)
        assert freqs.bpfo_hz == pytest.approx(30.0)
        assert freqs.bpfi_hz == pytest.approx(50.0)
        assert freqs.bsf_hz == pytest.approx(18.75)

    def test_sum_identity(self):
        geometry = BearingGeometry(13, 2.0, 9.0, 0.3)
        freqs = fault_frequencies(geometry, 16.6)
        assert freqs.bpfo_hz + freqs.bpfi_hz == pytest.approx(13 * 16.6, rel=1e-12)

    def test_small_ratio_limit(self):
        geometry = BearingGeometry(8, 1e-6, 4.0, 0.0)
        freqs = fault_frequencies(geometry, 10.0)
        assert freqs.bpfo_hz == pytest.approx(40.0, rel=1e-6)
        assert freqs.bpfi_hz == pytest.approx(40.0, rel=1e-6)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            BearingGeometry(1, 1.0, 4.0, 0.0)
        with pytest.raises(ValueError):
            BearingGeometry(8, 5.0, 4.0, 0.0)
        for diameters_and_angle in ((1.0, math.inf, 0.0), (1.0, 4.0, math.nan),
                                    (1.0, 4.0, math.inf), (math.nan, 4.0, 0.0)):
            with pytest.raises(ValueError):
                BearingGeometry(8, *diameters_and_angle)
        for count in (9.5, 9.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="n_rolling_elements"):
                BearingGeometry(count, 1.0, 4.0, 0.0)
        BearingGeometry(np.int64(9), 1.0, 4.0, 0.0)

    def test_invalid_shaft_speed(self):
        geometry = BearingGeometry(8, 1.0, 4.0, 0.0)
        with pytest.raises(ValueError):
            fault_frequencies(geometry, 0.0)
        for shaft_hz in (math.inf, math.nan):
            with pytest.raises(ValueError, match="shaft_hz must be positive and finite"):
                fault_frequencies(geometry, shaft_hz)

    def test_frequencies_must_be_positive_and_finite(self):
        for name in ("bpfo_hz", "bpfi_hz", "bsf_hz"):
            for value in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                    FaultFrequencies(**{"bpfo_hz": 100.0, "bpfi_hz": 160.0, "bsf_hz": 70.0,
                                        name: value})


class TestBlehnr:
    def test_detects_fault_period(self):
        sig = simulate_bearing_fault(OUTER_100)
        at_fault = blehnr(sig, 100.0)
        off_fault = blehnr(sig, 137.0)
        assert at_fault > 0.5
        assert at_fault > off_fault

    @pytest.mark.parametrize("k", [0.001, 1000.0])
    def test_scale_invariance(self, k):
        sig = simulate_bearing_fault(OUTER_100)
        scaled = Signal(k * sig.samples, sig.sample_rate_hz)
        assert blehnr(scaled, 100.0) == pytest.approx(blehnr(sig, 100.0), rel=1e-9)

    def test_white_noise_low(self):
        rng = np.random.default_rng(6)
        sig = Signal(rng.standard_normal(20480), 20000.0)
        for hz in (100.0, 160.0, 70.0):
            assert blehnr(sig, hz) < 0.1

    def test_bounded(self):
        sig = simulate_bearing_fault(OUTER_100)
        value = blehnr(sig, 100.0)
        assert -1.0 <= value <= 1.0

    def test_empty_band_rejected(self):
        # period 2.5 samples: the +-2% band, lags 2.45 to 2.55, holds no integer
        sig = Signal(np.sin(np.arange(4096.0)), 20000.0)
        with pytest.raises(ValueError, match="search band is empty"):
            blehnr(sig, 8000.0)


class TestExtractFeatureVector:
    FAULTS = FaultFrequencies(bpfo_hz=100.0, bpfi_hz=160.0, bsf_hz=70.0)

    def test_outer_fault_dominates_bpfo(self):
        sig = simulate_bearing_fault(replace(OUTER_100, snr_db=-8.0))
        vec = extract_feature_vector(sig, self.FAULTS)
        assert vec.blehnr_bpfo > vec.blehnr_bpfi
        assert vec.blehnr_bpfo > vec.blehnr_bsf

    def test_scaling_leaves_vector_unchanged(self):
        sig = simulate_bearing_fault(OUTER_100)
        scaled = Signal(10.0 * sig.samples, sig.sample_rate_hz)
        a = extract_feature_vector(sig, self.FAULTS).as_array()
        b = extract_feature_vector(scaled, self.FAULTS).as_array()
        assert np.allclose(a, b, rtol=1e-9)

    def test_white_noise_profile(self):
        rng = np.random.default_rng(7)
        sig = Signal(rng.standard_normal(20480), 20000.0)
        vec = extract_feature_vector(sig, self.FAULTS)
        assert vec.kurtosis == pytest.approx(3.0, abs=0.2)
        assert max(vec.blehnr_bpfo, vec.blehnr_bpfi, vec.blehnr_bsf) < 0.1

    def test_blehnr_features_equal_blehnr(self):
        sig = simulate_bearing_fault(OUTER_100)
        vec = extract_feature_vector(sig, self.FAULTS)
        assert vec.blehnr_bpfo == blehnr(sig, self.FAULTS.bpfo_hz)
        assert vec.blehnr_bpfi == blehnr(sig, self.FAULTS.bpfi_hz)
        assert vec.blehnr_bsf == blehnr(sig, self.FAULTS.bsf_hz)

    def test_names_follow_vector_order(self):
        assert FEATURE_NAMES == ("kurtosis", "l1_l2", "blehnr_bpfo", "blehnr_bpfi", "blehnr_bsf")
        vec = FeatureVector(1.0, 2.0, 3.0, 4.0, 5.0)
        assert vec.as_array().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_l1_l2_range(self):
        sig = simulate_bearing_fault(OUTER_100)
        vec = extract_feature_vector(sig, self.FAULTS)
        assert 1.0 <= vec.l1_l2 <= np.sqrt(len(sig))

    @pytest.mark.parametrize("k", [1e-6, 3.7, 1e6, -2.0])
    def test_full_vector_scale_invariance(self, k):
        sig = simulate_bearing_fault(replace(OUTER_100, seed=1))
        scaled = Signal(k * sig.samples, sig.sample_rate_hz)
        a = extract_feature_vector(sig, self.FAULTS).as_array()
        b = extract_feature_vector(scaled, self.FAULTS).as_array()
        assert np.allclose(a, b, rtol=1e-9)
