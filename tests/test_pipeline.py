import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from sparsevib import (
    CsfConfig,
    FaultFrequencies,
    FaultSimConfig,
    assess_sequence,
    classify_dataset,
    feature_matrix,
    filter_signal,
    fit_med,
    fit_simplified_csf,
    gradient_check,
    make_degradation_sequence,
    simulate_bearing_fault,
    two_branch_features,
)
from sparsevib import pipeline
from sparsevib.pipeline import fit_signals
from sparsevib.simulate import LabeledDataset

FAULTS = FaultFrequencies(bpfo_hz=100.0, bpfi_hz=160.0, bsf_hz=70.0)
FAST_SIM = FaultSimConfig(
    fault_components=("outer",), snr_db=0.0, n_samples=4096, damping_rate=2000.0
)
FAST_CSF = CsfConfig(filter_length=50)


class TestFilterSignal:
    def test_method_dispatch(self):
        sig = simulate_bearing_fault(FAST_SIM)
        for method, fit in (("csf", fit_simplified_csf), ("med", fit_med)):
            assert np.array_equal(filter_signal(sig, FAST_CSF, method=method).w,
                                  fit(sig, FAST_CSF).w)
        with pytest.raises(ValueError):
            filter_signal(sig, FAST_CSF, method="wiener")


class TestFeatureMatrices:
    def test_two_branch_shapes(self):
        signals = [simulate_bearing_fault(replace(FAST_SIM, seed=s)) for s in range(3)]
        raw, filt, fits = two_branch_features(signals, FAULTS, FAST_CSF)
        assert len(fits) == 3
        assert raw.values.shape == (3, 5)
        assert filt.values.shape == (3, 5)
        assert raw.feature_names == ("kurtosis", "l1_l2", "blehnr_bpfo",
                                     "blehnr_bpfi", "blehnr_bsf")

    def test_feature_matrix_single(self):
        signals = [simulate_bearing_fault(FAST_SIM)]
        fm = feature_matrix(signals, FAULTS)
        assert fm.values.shape == (1, 5)


def fake_affinity(monkeypatch, n_cpus):
    """Make ``fit_signals`` see ``n_cpus`` CPUs in the affinity mask, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)), raising=False)


class TestFitSignals:
    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_matches_the_serial_loop_bit_for_bit(self, monkeypatch, n_cpus):
        # Mixed lengths, so the helpers and the caller finish at different times.
        signals = [simulate_bearing_fault(replace(FAST_SIM, n_samples=n, snr_db=-3.0, seed=s))
                   for s, n in enumerate([8192, 20480, 8192, 8192, 20480, 8192])]
        config = CsfConfig(filter_length=100)
        expected = [fit_simplified_csf(s, config) for s in signals]
        fake_affinity(monkeypatch, n_cpus)
        results = fit_signals(signals, config)
        assert len(results) == len(expected)
        for got, want in zip(results, expected):
            for name in ("w", "filtered", "cost_history"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert (got.iterations, got.converged) == (want.iterations, want.converged)

    def test_the_caller_fits_from_the_tail(self, monkeypatch):
        fitted = []
        fit = pipeline.fit_simplified_csf

        def recorded_fit(signal, config):
            fitted.append(signal.samples[0])  # only fits in this process are seen
            return fit(signal, config)

        monkeypatch.setattr(pipeline, "fit_simplified_csf", recorded_fit)
        fake_affinity(monkeypatch, 2)
        signals = [simulate_bearing_fault(replace(FAST_SIM, seed=s)) for s in range(6)]
        fit_signals(signals, FAST_CSF)
        assert 1 <= len(fitted) < len(signals)
        assert fitted[0] == signals[-1].samples[0]

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_the_first_failing_signal_is_reported(self, monkeypatch, n_cpus):
        signals = [simulate_bearing_fault(replace(FAST_SIM, seed=s)) for s in range(6)]
        for k in (2, 5):  # the tail-first caller meets index 5 first
            signals[k] = replace(signals[k], samples=signals[k].samples[:60])
        fake_affinity(monkeypatch, n_cpus)
        with pytest.raises(ValueError, match=r"^snapshot 3: filter_length 50 exceeds N/2"):
            fit_signals(signals, FAST_CSF)

    def test_more_workers_than_cores_fit_each_signal_once(self, monkeypatch):
        fits, fit = multiprocessing.Value("i", 0), pipeline.fit_simplified_csf

        def counted_fit(signal, config):
            with fits.get_lock():  # shared with the forked helpers
                fits.value += 1
            return fit(signal, config)

        signals = [simulate_bearing_fault(replace(FAST_SIM, n_samples=1024, seed=s))
                   for s in range(60)]
        config = CsfConfig(filter_length=16, max_iterations=5)
        expected = [fit(s, config) for s in signals]
        monkeypatch.setattr(pipeline, "fit_simplified_csf", counted_fit)
        fake_affinity(monkeypatch, 6)
        results = fit_signals(signals, config)
        assert fits.value == len(signals)
        assert all(np.array_equal(got.w, want.w) for got, want in zip(results, expected))

    def test_no_helper_outlives_the_call(self, monkeypatch):
        fake_affinity(monkeypatch, 3)
        signals = [simulate_bearing_fault(replace(FAST_SIM, seed=s)) for s in range(6)]
        fit_signals(signals, FAST_CSF)
        assert multiprocessing.active_children() == []

    def test_a_helper_that_dies_is_reported(self, monkeypatch):
        caller, fit = os.getpid(), pipeline.fit_simplified_csf

        def dying_fit(signal, config):
            if os.getpid() != caller:
                os._exit(1)
            time.sleep(0.1)  # so the helper is up before the caller has claimed every signal
            return fit(signal, config)

        monkeypatch.setattr(pipeline, "fit_simplified_csf", dying_fit)
        fake_affinity(monkeypatch, 2)
        signals = [simulate_bearing_fault(replace(FAST_SIM, seed=s)) for s in range(6)]
        with pytest.raises(RuntimeError, match="helper exited"):
            fit_signals(signals, FAST_CSF)
        assert multiprocessing.active_children() == []


class TestAssessSequence:
    def test_needs_more_than_training_files(self):
        signals = [simulate_bearing_fault(replace(FAST_SIM, seed=s)) for s in range(5)]
        with pytest.raises(ValueError):
            assess_sequence(signals, FAULTS, FAST_CSF, n_train=5)

    def test_all_normal_sequence_raises_no_alarm(self):
        # false-alarm check on a healthy-only sequence, both branches
        base = replace(FAST_SIM, seed=0)
        signals = make_degradation_sequence(41, 40, base)[:39]
        report = assess_sequence(signals, FAULTS, FAST_CSF, n_train=20)
        assert report.filtered.alarm_index is None
        assert report.raw.alarm_index is None

    def test_row_counts_match_input(self):
        base = replace(FAST_SIM, seed=1)
        signals = make_degradation_sequence(24, 12, base)
        report = assess_sequence(signals, FAULTS, FAST_CSF, n_train=10)
        assert report.raw.mqe.shape == (24,)
        assert report.filtered.mqe.shape == (24,)


class TestClassifyDataset:
    def test_rejects_single_class(self):
        signals = [simulate_bearing_fault(replace(FAST_SIM, seed=s)) for s in range(4)]
        dataset = LabeledDataset(signals=signals, labels=["F2"] * 4)
        with pytest.raises(ValueError):
            classify_dataset(dataset, FAULTS, FAST_CSF)

    def test_two_class_report(self):
        signals, labels = [], []
        for s in range(4):
            signals.append(simulate_bearing_fault(replace(FAST_SIM, seed=s)))
            labels.append("outer")
            signals.append(simulate_bearing_fault(
                replace(FAST_SIM, fault_components=(), seed=100 + s)))
            labels.append("normal")
        dataset = LabeledDataset(signals=signals, labels=labels)
        report = classify_dataset(dataset, FAULTS, FAST_CSF, n_restarts=5, seed=0)
        assert report.filtered.purity == 1.0
        assert report.filtered.vat.reordered_dissimilarity.shape == (8, 8)
        assert sorted(report.filtered.kmeans_labels.tolist()) == [0] * 4 + [1] * 4


class TestGradientCheck:
    def test_shape_and_magnitude(self):
        errors = gradient_check(n_trials=5, n_samples=128, filter_length=16)
        assert errors.shape == (5,)
        assert errors.max() < 1e-6

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="n_trials"):
            gradient_check(n_trials=0)
