import math
from dataclasses import replace

import numpy as np
import pytest

from sparsevib import (
    FaultFrequencies,
    FaultSimConfig,
    Signal,
    autocorrelation,
    blehnr,
    envelope_spectrum,
    extract_feature_vector,
    fit_simplified_csf,
    gaussian_with_outlier,
    hilbert_envelope,
    kurtosis,
    make_degradation_sequence,
    make_fault_taxonomy_dataset,
    simulate_bearing_fault,
)
from sparsevib.simulate import TAXONOMY, _impulse_train, _resonance_kernel

FAULTS = FaultFrequencies(bpfo_hz=100.0, bpfi_hz=160.0, bsf_hz=70.0)


class TestSimulateBearingFault:
    def test_noiseless_outer_envelope_peak(self):
        config = FaultSimConfig(fault_components=("outer",), snr_db=float("inf"), seed=0)
        spec = envelope_spectrum(simulate_bearing_fault(config))
        df = spec.frequencies_hz[1]
        assert abs(spec.peak_frequency() - 100.0) <= df + 1e-9

    @pytest.mark.parametrize("snr_db,seed", [(-8.0, 0), (-8.0, 5), (0.0, 1), (10.0, 2)])
    def test_realized_snr(self, snr_db, seed):
        config = FaultSimConfig(fault_components=("outer",), snr_db=snr_db, seed=seed)
        # The noiseless config makes the same clean draws, so the noise is the difference.
        clean = simulate_bearing_fault(replace(config, snr_db=math.inf)).samples
        noise = simulate_bearing_fault(config).samples - clean
        measured = 10 * np.log10(np.mean(clean**2) / np.mean(noise**2))
        assert measured == pytest.approx(snr_db, abs=0.1)

    def test_normal_class_is_noise(self):
        config = FaultSimConfig(fault_components=(), seed=3, n_samples=20480)
        sig = simulate_bearing_fault(config)
        assert kurtosis(sig.samples) == pytest.approx(3.0, abs=0.2)

    def test_deterministic(self):
        config = FaultSimConfig(fault_components=("outer", "inner"), snr_db=-5.0, seed=11)
        a = simulate_bearing_fault(config)
        b = simulate_bearing_fault(config)
        assert np.array_equal(a.samples, b.samples)

    def test_default_fault_envelope_harmonics(self):
        # with the default generator settings the raw envelope spectrum
        # already shows the defect line and its first two harmonics
        config = FaultSimConfig(fault_components=("outer",), snr_db=-8.0, seed=0)
        spec = envelope_spectrum(simulate_bearing_fault(config))
        mags = spec.magnitudes
        median = np.median(mags[1:])
        df = spec.frequencies_hz[1]
        for k in (1, 2, 3):
            center = int(round(k * 100.0 / df))
            assert mags[center - 1 : center + 2].max() > 3 * median

    def test_noiseless_envelope_acf_peak_at_period(self):
        config = FaultSimConfig(fault_components=("outer",), snr_db=float("inf"), seed=4)
        sig = simulate_bearing_fault(config)
        env = hilbert_envelope(sig).samples
        period = round(config.sample_rate_hz / config.outer_fault_hz)
        acf = autocorrelation(env, period + 20)
        # global nonzero-lag max within +-1 sample of the nominal period;
        # skip the decaying shoulder around lag 0
        search_from = period // 2
        peak_lag = search_from + int(np.argmax(acf[search_from:]))
        assert abs(peak_lag - period) <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSimConfig(fault_components=("sideways",))
        with pytest.raises(ValueError):
            FaultSimConfig(n_samples=100)
        with pytest.raises(ValueError):
            FaultSimConfig(resonance_hz=15000.0, sample_rate_hz=20000.0)
        with pytest.raises(ValueError):
            FaultSimConfig(period_jitter_fraction=0.2)
        for bad in ({"snr_db": math.nan}, {"snr_db": -math.inf}, {"damping_rate": math.inf},
                    {"damping_rate": math.nan}, {"shaft_hz": math.inf}, {"shaft_hz": math.nan}):
            with pytest.raises(ValueError):
                FaultSimConfig(**bad)
        for n_samples in (4096.5, 4096.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="n_samples"):
                FaultSimConfig(n_samples=n_samples)
        for seed in (-1, 1.5, 1.0, math.nan):
            with pytest.raises(ValueError, match="seed"):
                FaultSimConfig(seed=seed)
        FaultSimConfig(snr_db=math.inf)  # noiseless

    def test_resonance_kernel_is_cut_at_the_record(self):
        # At damping 1/s the 0.01% decay takes 184,207 samples; the record is 4096.
        config = FaultSimConfig(fault_components=("outer",), damping_rate=1.0, n_samples=4096,
                                snr_db=math.inf, seed=5)
        assert _resonance_kernel(config).size == config.n_samples
        spikes = _impulse_train(np.random.default_rng(config.seed), config, config.outer_fault_hz)
        t = np.arange(184_207) / config.sample_rate_hz
        kernel = np.exp(-t) * np.sin(2 * math.pi * config.resonance_hz * t)
        reference = np.convolve(spikes, kernel)[: config.n_samples]
        reference /= math.sqrt(np.mean(reference * reference))
        samples = simulate_bearing_fault(config).samples
        assert np.max(np.abs(samples - reference)) <= 1e-12 * np.max(np.abs(reference))


class TestGaussianWithOutlier:
    def test_outlier_position_and_height(self):
        sig = gaussian_with_outlier(8192, 8.0, seed=0)
        assert np.max(np.abs(sig.samples)) == 8.0
        assert int(np.argmax(np.abs(sig.samples))) == 4096

    def test_outlier_raises_kurtosis(self):
        n, seed = 4096, 1
        sig = gaussian_with_outlier(n, 8.0, seed=seed)
        base = np.random.default_rng(seed).standard_normal(n)
        assert kurtosis(sig.samples) > kurtosis(base)

    def test_deterministic(self):
        a = gaussian_with_outlier(2048, 8.0, seed=2)
        b = gaussian_with_outlier(2048, 8.0, seed=2)
        assert np.array_equal(a.samples, b.samples)

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_with_outlier(100, 8.0, seed=0)
        with pytest.raises(ValueError):
            gaussian_with_outlier(2048, 2.0, seed=0)


class TestTaxonomyDataset:
    BASE = FaultSimConfig(snr_db=-3.0, n_samples=8192, damping_rate=2000.0)

    def test_cardinality_and_labels(self):
        ds = make_fault_taxonomy_dataset(10, self.BASE, seed=0)
        assert len(ds.signals) == 80
        labels, counts = np.unique(ds.labels, return_counts=True)
        assert list(labels) == [f"F{i}" for i in range(1, 9)]
        assert np.all(counts == 10)

    def test_all_signals_distinct(self):
        ds = make_fault_taxonomy_dataset(3, self.BASE, seed=1)
        fingerprints = {s.samples.tobytes() for s in ds.signals}
        assert len(fingerprints) == len(ds.signals)

    def test_taxonomy_component_sets(self):
        assert TAXONOMY["F1"] == ()
        assert set(TAXONOMY["F8"]) == {"outer", "inner", "roller"}
        assert set(TAXONOMY["F5"]) == {"inner", "roller"}

    def test_outer_fault_class_separates_from_normal(self):
        # F2 (outer) vs F1 (normal) through the full CSF + BLEHNR pipeline
        ds = make_fault_taxonomy_dataset(10, self.BASE, seed=2)
        labels = np.array(ds.labels)
        wins = 0
        f1_signals = [s for s, l in zip(ds.signals, labels) if l == "F1"]
        f2_signals = [s for s, l in zip(ds.signals, labels) if l == "F2"]
        for s1, s2 in zip(f1_signals, f2_signals):
            v1 = extract_feature_vector(
                Signal(fit_simplified_csf(s1, filter_length=100).filtered, s1.sample_rate_hz),
                FAULTS,
            )
            v2 = extract_feature_vector(
                Signal(fit_simplified_csf(s2, filter_length=100).filtered, s2.sample_rate_hz),
                FAULTS,
            )
            wins += v2.blehnr_bpfo > v1.blehnr_bpfo
        assert wins >= 9

    def test_deterministic(self):
        a = make_fault_taxonomy_dataset(2, self.BASE, seed=5)
        b = make_fault_taxonomy_dataset(2, self.BASE, seed=5)
        for sa, sb in zip(a.signals, b.signals):
            assert np.array_equal(sa.samples, sb.samples)


class TestDegradationSequence:
    BASE = FaultSimConfig(snr_db=0.0, n_samples=8192, damping_rate=2000.0, seed=0)

    def test_pre_onset_files_are_noise(self):
        signals = make_degradation_sequence(30, 20, self.BASE)
        for idx in (0, 9, 18):
            assert kurtosis(signals[idx].samples) == pytest.approx(3.0, abs=0.35)
            assert blehnr(signals[idx], 100.0) < 0.1

    def test_fault_growth(self):
        signals = make_degradation_sequence(30, 10, self.BASE)
        assert blehnr(signals[-1], 100.0) > blehnr(signals[0], 100.0)

    def test_sequence_length(self):
        signals = make_degradation_sequence(25, 10, self.BASE)
        assert len(signals) == 25

    def test_onset_validation(self):
        with pytest.raises(ValueError):
            make_degradation_sequence(10, 10, self.BASE)
        with pytest.raises(ValueError):
            make_degradation_sequence(10, 0, self.BASE)
