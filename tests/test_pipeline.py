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
        raw, filt = two_branch_features(signals, FAULTS, FAST_CSF)
        assert raw.values.shape == (3, 5)
        assert filt.values.shape == (3, 5)
        assert raw.feature_names == ("kurtosis", "l1_l2", "blehnr_bpfo",
                                     "blehnr_bpfi", "blehnr_bsf")

    def test_feature_matrix_single(self):
        signals = [simulate_bearing_fault(FAST_SIM)]
        fm = feature_matrix(signals, FAULTS)
        assert fm.values.shape == (1, 5)


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
