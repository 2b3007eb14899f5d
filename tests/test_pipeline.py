import math
import multiprocessing
import os
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from sparsevib import (
    DegenerateInputError,
    FaultFrequencies,
    FaultSimConfig,
    Signal,
    assess_sequence,
    classify_dataset,
    extract_feature_vector,
    filter_signal,
    fit_med,
    fit_simplified_csf,
    gradient_check,
    make_degradation_sequence,
    simulate_bearing_fault,
    write_ims_file,
)
from sparsevib import ingest, pipeline, sparse_filter
from sparsevib.ingest import RunToFailureFiles
from sparsevib.simulate import LabeledDataset

FAULTS = FaultFrequencies(bpfo_hz=100.0, bpfi_hz=160.0, bsf_hz=70.0)
FAST_SIM = FaultSimConfig(
    fault_components=("outer",), snr_db=0.0, n_samples=4096, damping_rate=2000.0
)
FAST_LENGTH = 50


def snapshot_features(signals, filter_length):
    """What ``assess_sequence`` and ``classify_dataset`` run: each ``_snapshot`` fanned out.

    Returns the raw-branch and filtered-branch feature matrices and the
    :class:`SnapshotFit` of each signal.
    """
    fits = pipeline._fan_out(partial(pipeline._snapshot, signals, FAULTS, filter_length),
                             len(signals))
    return (*pipeline._feature_matrices(fits), fits)


class TestFilterSignal:
    def test_method_dispatch(self):
        sig = simulate_bearing_fault(FAST_SIM)
        for method, fit in (("csf", fit_simplified_csf), ("med", fit_med)):
            assert np.array_equal(filter_signal(sig, FAST_LENGTH, method=method).w,
                                  fit(sig, FAST_LENGTH).w)
        with pytest.raises(ValueError):
            filter_signal(sig, FAST_LENGTH, method="wiener")


class TestFeatureMatrices:
    def test_two_branch_shapes(self):
        signals = [simulate_bearing_fault(replace(FAST_SIM, seed=s)) for s in range(3)]
        raw, filt, fits = snapshot_features(signals, FAST_LENGTH)
        assert len(fits) == 3
        assert raw.values.shape == (3, 5)
        assert filt.values.shape == (3, 5)
        assert raw.feature_names == ("kurtosis", "l1_l2", "blehnr_bpfo",
                                     "blehnr_bpfi", "blehnr_bsf")


def fake_affinity(monkeypatch, n_cpus):
    """Make ``_fan_out`` see ``n_cpus`` CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)), raising=False)


def serial_snapshots(signals, filter_length):
    """Raw features, fits and filtered features of ``signals``, one snapshot after another."""
    raw, fits, filtered = [], [], []
    for s in signals:
        raw.append(extract_feature_vector(s, FAULTS).as_array())
        fits.append(fit_simplified_csf(s, filter_length))
        enhanced = Signal(fits[-1].filtered, s.sample_rate_hz)
        filtered.append(extract_feature_vector(enhanced, FAULTS).as_array())
    return np.vstack(raw), fits, np.vstack(filtered)


def fit_record(fit):
    """What a report reads of a fit: a ``CsfResult``'s or a ``SnapshotFit``'s."""
    if isinstance(fit, pipeline.SnapshotFit):
        return fit.iterations, fit.converged, fit.stop, fit.initial_cost, fit.final_cost
    return fit.iterations, fit.converged, fit.stop, fit.cost_history[0], fit.cost_history[-1]


class TestFitSignals:
    """Each snapshot's features and fit, fanned out over the CPUs by ``_fan_out``."""

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_matches_the_serial_loop_bit_for_bit(self, monkeypatch, n_cpus):
        # Mixed lengths, so the helpers and the caller finish at different times.
        signals = [simulate_bearing_fault(replace(FAST_SIM, n_samples=n, snr_db=-3.0, seed=s))
                   for s, n in enumerate([8192, 20480, 8192, 8192, 20480, 8192])]
        want_raw, expected, want_filtered = serial_snapshots(signals, 100)
        fake_affinity(monkeypatch, n_cpus)
        raw, filtered, results = snapshot_features(signals, 100)
        assert np.array_equal(raw.values, want_raw)
        assert np.array_equal(filtered.values, want_filtered)
        assert [fit_record(got) for got in results] == [fit_record(want) for want in expected]

    def test_the_caller_extracts_only_its_share_of_the_features(self, monkeypatch):
        calls, extract = [], pipeline.extract_feature_vector

        def counted_extract(*args):
            calls.append(1)  # only calls in this process are seen
            return extract(*args)

        monkeypatch.setattr(pipeline, "extract_feature_vector", counted_extract)
        fake_affinity(monkeypatch, 2)
        signals = [simulate_bearing_fault(replace(FAST_SIM, seed=s)) for s in range(6)]
        snapshot_features(signals, FAST_LENGTH)
        assert 2 <= len(calls) < 2 * len(signals)

    def test_the_caller_reads_only_its_share_of_the_files(self, monkeypatch, tmp_path):
        calls, read = [], ingest.read_ims_file

        def counted_read(*args):
            calls.append(1)  # only calls in this process are seen
            return read(*args)

        for k in range(6):
            samples = simulate_bearing_fault(replace(FAST_SIM, seed=k)).samples
            write_ims_file(tmp_path / f"2004.02.12.10.{k:02d}.39", samples[:, None])
        monkeypatch.setattr(ingest, "read_ims_file", counted_read)
        fake_affinity(monkeypatch, 2)
        report = assess_sequence(RunToFailureFiles(tmp_path, 0, 20000.0), FAULTS, FAST_LENGTH,
                                 n_train=3)
        assert len(report.fits) == 6 and report.parse_errors == []
        assert 1 <= len(calls) < 6

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_the_first_failing_signal_is_reported(self, monkeypatch, n_cpus):
        signals = [simulate_bearing_fault(replace(FAST_SIM, seed=s)) for s in range(6)]
        signals[2] = replace(signals[2], samples=signals[2].samples[:300])  # only its fit fails
        signals[5] = replace(signals[5], samples=np.full(4096, 0.25))  # features fail
        fake_affinity(monkeypatch, n_cpus)  # a helper may meet index 5 before index 2 fails
        with pytest.raises(ValueError, match=r"^snapshot 3: filter_length 200 exceeds N/2"):
            snapshot_features(signals, 200)

    def test_no_snapshot_above_a_failure_runs(self, monkeypatch):
        extracts, fits, extract = [], [], pipeline.extract_feature_vector
        monkeypatch.setattr(pipeline, "extract_feature_vector",
                            lambda *args: extracts.append(1) or extract(*args))
        monkeypatch.setattr(pipeline, "fit_simplified_csf", lambda *args: fits.append(1))
        fake_affinity(monkeypatch, 1)
        signals = [simulate_bearing_fault(replace(FAST_SIM, seed=s)) for s in range(12)]
        signals[0] = replace(signals[0], samples=np.full(4096, 0.25))
        with pytest.raises(DegenerateInputError, match=r"^snapshot 1: "):
            snapshot_features(signals, FAST_LENGTH)
        assert (len(extracts), len(fits)) == (1, 0)

    def test_more_workers_than_cores_fit_each_signal_once(self, monkeypatch):
        fits, fit = multiprocessing.Value("i", 0), pipeline.fit_simplified_csf

        def counted_fit(signal, filter_length):
            with fits.get_lock():  # shared with the forked helpers
                fits.value += 1
            return fit(signal, filter_length)

        signals = [simulate_bearing_fault(replace(FAST_SIM, n_samples=1024, seed=s))
                   for s in range(60)]
        monkeypatch.setattr(sparse_filter, "_MAX_ITERATIONS", 5)  # forked helpers inherit it
        want_raw, expected, want_filtered = serial_snapshots(signals, 16)
        monkeypatch.setattr(pipeline, "fit_simplified_csf", counted_fit)
        fake_affinity(monkeypatch, 6)
        raw, filtered, results = snapshot_features(signals, 16)
        assert fits.value == len(signals)
        assert [fit_record(got) for got in results] == [fit_record(want) for want in expected]
        assert np.array_equal(raw.values, want_raw)
        assert np.array_equal(filtered.values, want_filtered)

    def test_no_helper_outlives_the_call(self, monkeypatch):
        fake_affinity(monkeypatch, 3)
        signals = [simulate_bearing_fault(replace(FAST_SIM, seed=s)) for s in range(6)]
        snapshot_features(signals, FAST_LENGTH)
        assert multiprocessing.active_children() == []

    def test_a_helper_that_dies_is_reported(self, monkeypatch):
        caller, fit = os.getpid(), pipeline.fit_simplified_csf

        def dying_fit(signal, filter_length):
            if os.getpid() != caller:
                os._exit(1)
            time.sleep(0.1)  # so the helper is up before the caller has claimed every signal
            return fit(signal, filter_length)

        monkeypatch.setattr(pipeline, "fit_simplified_csf", dying_fit)
        fake_affinity(monkeypatch, 2)
        signals = [simulate_bearing_fault(replace(FAST_SIM, seed=s)) for s in range(6)]
        with pytest.raises(RuntimeError, match="helper exited"):
            snapshot_features(signals, FAST_LENGTH)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_fan_out_is_the_serial_loop(self, monkeypatch, n_cpus):
        def work(i):
            time.sleep(0.01)  # so the helpers are up before the caller has claimed every item
            if i in failing:
                raise KeyError(f"item {i}")
            return i * i

        fake_affinity(monkeypatch, n_cpus)
        failing = ()
        assert pipeline._fan_out(work, 10) == [i * i for i in range(10)]
        failing = (4, 7)
        with pytest.raises(KeyError) as excinfo:
            pipeline._fan_out(work, 10)
        assert type(excinfo.value) is KeyError and excinfo.value.args == ("item 4",)

    def test_every_process_claims_in_increasing_order(self, monkeypatch):
        n = 12
        claims = multiprocessing.Array("q", 2 * n)  # (pid, i) in the order the items ran
        ran = multiprocessing.Value("i", 0)

        def work(i):
            with ran.get_lock():  # shared with the forked helper
                claims[2 * ran.value:2 * ran.value + 2] = [os.getpid(), i]
                ran.value += 1
            time.sleep(0.02)
            return i

        fake_affinity(monkeypatch, 2)
        assert pipeline._fan_out(work, n) == list(range(n))
        by_process = {}
        for pid, i in zip(claims[0::2], claims[1::2]):
            by_process.setdefault(pid, []).append(i)
        assert len(by_process) == 2
        assert all(items == sorted(items) for items in by_process.values())


class TestAssessSequence:
    def test_needs_more_than_training_files(self):
        signals = [simulate_bearing_fault(replace(FAST_SIM, seed=s)) for s in range(5)]
        with pytest.raises(ValueError):
            assess_sequence(signals, FAULTS, FAST_LENGTH, n_train=5)

    def test_all_normal_sequence_raises_no_alarm(self):
        # false-alarm check on a healthy-only sequence, both branches
        base = replace(FAST_SIM, seed=0)
        signals = make_degradation_sequence(41, 40, base)[:39]
        report = assess_sequence(signals, FAULTS, FAST_LENGTH, n_train=20)
        assert report.filtered.alarm_index is None
        assert report.raw.alarm_index is None

    def test_row_counts_match_input(self):
        base = replace(FAST_SIM, seed=1)
        signals = make_degradation_sequence(24, 12, base)
        report = assess_sequence(signals, FAULTS, FAST_LENGTH, n_train=10)
        assert report.raw.mqe.shape == (24,)
        assert report.filtered.mqe.shape == (24,)


class TestClassifyDataset:
    def test_rejects_single_class(self):
        signals = [simulate_bearing_fault(replace(FAST_SIM, seed=s)) for s in range(4)]
        dataset = LabeledDataset(signals=signals, labels=["F2"] * 4)
        with pytest.raises(ValueError):
            classify_dataset(dataset, FAULTS, FAST_LENGTH)

    def test_two_class_report(self):
        signals, labels = [], []
        for s in range(4):
            signals.append(simulate_bearing_fault(replace(FAST_SIM, seed=s)))
            labels.append("outer")
            signals.append(simulate_bearing_fault(
                replace(FAST_SIM, fault_components=(), seed=100 + s)))
            labels.append("normal")
        dataset = LabeledDataset(signals=signals, labels=labels)
        report = classify_dataset(dataset, FAULTS, FAST_LENGTH, n_restarts=5, seed=0)
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

    @pytest.mark.parametrize("step", [0.0, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(ValueError, match=f"step must be positive and finite, got {step}"):
            gradient_check(n_trials=1, step=step)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be a non-negative whole number, got -1"):
            gradient_check(n_trials=1, seed=-1)
