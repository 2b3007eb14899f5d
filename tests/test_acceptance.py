"""Acceptance gate: one test per build criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Simulation parameters are frozen here together with the expected
outcomes; every threshold was established by running the stated oracle
before the test was written.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from sparsevib import (
    FaultFrequencies,
    FaultSimConfig,
    Signal,
    assess_sequence,
    classify_dataset,
    csf_cost,
    envelope_spectrum,
    extract_feature_vector,
    fit_med,
    fit_simplified_csf,
    gaussian_with_outlier,
    gradient_check,
    iterate_run_to_failure,
    kurtosis,
    lp_lq_norm,
    make_degradation_sequence,
    make_fault_taxonomy_dataset,
    read_ims_file,
    simulate_bearing_fault,
    write_ims_file,
)

FAULTS = FaultFrequencies(bpfo_hz=100.0, bpfi_hz=160.0, bsf_hz=70.0)


def verdict(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def spectrum_passes(spec, fault_hz, n_harmonics=3, factor=3.0):
    """Dominant nonzero line within one bin of the fault frequency, and the
    first harmonics all well above the median level."""
    mags = spec.magnitudes
    median = np.median(mags[1:])
    df = spec.frequencies_hz[1] - spec.frequencies_hz[0]
    peak_idx = 1 + int(np.argmax(mags[1:]))
    dominant = abs(spec.frequencies_hz[peak_idx] - fault_hz) <= df + 1e-9
    harmonics = all(
        mags[max(int(round(k * fault_hz / df)) - 1, 1) : int(round(k * fault_hz / df)) + 2].max()
        > factor * median
        for k in range(1, n_harmonics + 1)
    )
    return dominant and harmonics


def concentration(f):
    return float(np.max(np.abs(f)) / np.linalg.norm(f))


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    errors = gradient_check(n_trials=20, n_samples=256, filter_length=32,
                            step=1e-6, seed=1234)
    elapsed = time.perf_counter() - t0
    worst = float(errors.max())
    verdict(
        "1 gradient matches central finite differences",
        worst <= 1e-6 and elapsed < 5.0,
        f"max rel err {worst:.2e} in {elapsed:.2f}s",
    )


def test_criterion_02_scale_invariance():
    scales = (1e-6, 3.7, 1e6, -2.0)
    worst = 0.0
    for seed in range(10):
        config = FaultSimConfig(fault_components=("outer",), snr_db=-8.0,
                                n_samples=8192, damping_rate=2000.0, seed=seed)
        sig = simulate_bearing_fault(config)
        base = np.array([
            lp_lq_norm(sig.samples, 1, 2),
            lp_lq_norm(sig.samples, 2, 4),
            kurtosis(sig.samples),
            *extract_feature_vector(sig, FAULTS).as_array()[2:],
        ])
        for k in scales:
            scaled = Signal(k * sig.samples, sig.sample_rate_hz)
            values = np.array([
                lp_lq_norm(scaled.samples, 1, 2),
                lp_lq_norm(scaled.samples, 2, 4),
                kurtosis(scaled.samples),
                *extract_feature_vector(scaled, FAULTS).as_array()[2:],
            ])
            worst = max(worst, float(np.max(np.abs(values - base) / np.abs(base))))
    verdict("2 features invariant to signal scale", worst <= 1e-9,
            f"max rel deviation {worst:.2e}")


def test_criterion_03_cost_bounds():
    rng = np.random.default_rng(2024)
    vectors = [rng.standard_normal(int(rng.integers(4, 4096))) for _ in range(96)]
    spike = np.zeros(256)
    spike[17] = 3.0
    near_sparse = spike.copy()
    near_sparse[100] = 1e-6
    vectors += [spike, near_sparse, np.full(512, 0.3), -np.full(100, 2.0)]
    ok = True
    for f in vectors:
        cost = csf_cost(f, 1e-8)
        if not (1.0 <= cost <= np.sqrt(f.size) + 1e-3):
            ok = False
    verdict("3 cost bounded in [1, sqrt(dim)]", ok and len(vectors) == 100,
            f"{len(vectors)} vectors checked")


def test_criterion_04_outlier_robustness():
    med_hits = csf_hits = 0
    for seed in range(10):
        sig = gaussian_with_outlier(8192, 8.0, seed=seed)
        med = fit_med(sig, filter_length=4096)
        csf = fit_simplified_csf(sig, filter_length=100)
        med_hits += concentration(med.filtered) > 0.9
        csf_hits += concentration(csf.filtered) < 0.5
    verdict("4 MED collapses onto the outlier, the sparse filter does not",
            med_hits >= 9 and csf_hits >= 9,
            f"MED {med_hits}/10 above 0.9, CSF {csf_hits}/10 below 0.5")


def test_criterion_05_outer_race_enhancement():
    filtered_pass = raw_pass = 0
    for seed in range(10):
        config = FaultSimConfig(fault_components=("outer",), snr_db=-8.0,
                                n_samples=20480, damping_rate=2000.0, seed=seed)
        sig = simulate_bearing_fault(config)
        fit = fit_simplified_csf(sig, filter_length=100)
        raw_pass += spectrum_passes(envelope_spectrum(sig), 100.0)
        filtered_pass += spectrum_passes(
            envelope_spectrum(Signal(fit.filtered, sig.sample_rate_hz)), 100.0
        )
    verdict("5 outer-race signature enhanced at -8 dB",
            filtered_pass >= 9 and raw_pass <= 5,
            f"filtered {filtered_pass}/10 pass, raw {raw_pass}/10 pass")


def test_criterion_06_inner_race_enhancement():
    filtered_pass = raw_pass = sideband_pass = 0
    for seed in range(10):
        config = FaultSimConfig(fault_components=("inner",), snr_db=-8.0,
                                n_samples=8192, damping_rate=2000.0, seed=seed)
        sig = simulate_bearing_fault(config)
        fit = fit_simplified_csf(sig, filter_length=100)
        spec = envelope_spectrum(Signal(fit.filtered, sig.sample_rate_hz))
        raw_pass += spectrum_passes(envelope_spectrum(sig), 160.0)
        filtered_pass += spectrum_passes(spec, 160.0)
        mags = spec.magnitudes
        median = np.median(mags[1:])
        df = spec.frequencies_hz[1] - spec.frequencies_hz[0]
        sideband = min(
            mags[max(int(round(hz / df)) - 1, 1) : int(round(hz / df)) + 2].max()
            for hz in (160.0 - config.shaft_hz, 160.0 + config.shaft_hz)
        )
        sideband_pass += sideband > 2.0 * median
    verdict("6 inner-race signature and shaft sidebands enhanced",
            filtered_pass >= 9 and raw_pass <= 5 and sideband_pass >= 8,
            f"filtered {filtered_pass}/10, raw {raw_pass}/10, sidebands {sideband_pass}/10")


def test_criterion_07_efficiency():
    config = FaultSimConfig(fault_components=("outer",), snr_db=-8.0,
                            n_samples=20480, seed=0)
    sig = simulate_bearing_fault(config)
    t0 = time.perf_counter()
    fit = fit_simplified_csf(sig, filter_length=100)
    elapsed = time.perf_counter() - t0
    nonincreasing = bool(np.all(np.diff(fit.cost_history) <= 1e-12))
    verdict("7 full-length fit completes within budget",
            elapsed < 5.0 and nonincreasing,
            f"{elapsed:.2f}s for 20480 samples, l=100, {fit.iterations} iterations")


def test_criterion_08_classification():
    base = FaultSimConfig(snr_db=-2.0, n_samples=8192, damping_rate=2000.0)
    filtered_purities, raw_purities, contiguous = [], [], []
    for ds_seed in (0, 1, 2):
        dataset = make_fault_taxonomy_dataset(10, base, seed=ds_seed)
        report = classify_dataset(dataset, FAULTS, filter_length=100,
                                  n_restarts=10, seed=0)
        filtered_purities.append(report.filtered.purity)
        raw_purities.append(report.raw.purity)
        labels = np.array(report.labels)
        ordered = labels[report.filtered.vat.order]
        contiguous.append(int(1 + np.sum(ordered[1:] != ordered[:-1])) == 8)
    verdict(
        "8 eight-class taxonomy separates perfectly after filtering",
        all(p == 1.0 for p in filtered_purities)
        and any(p < 1.0 for p in raw_purities)
        and all(contiguous),
        f"filtered purity {filtered_purities}, raw {raw_purities}, "
        f"VAT contiguous {contiguous}",
    )


def test_criterion_09_assessment():
    base = FaultSimConfig(fault_components=("outer",), snr_db=0.0,
                          n_samples=4096, damping_rate=2000.0, seed=0)
    signals = make_degradation_sequence(n_files=100, onset_index=40, base_config=base)
    report = assess_sequence(signals, FAULTS, filter_length=50, n_train=20)
    filtered_alarm = report.filtered.alarm_index
    raw_alarm = report.raw.alarm_index if report.raw.alarm_index is not None else 10**9
    rho = spearmanr(np.arange(40, 101), report.filtered.mqe[39:]).statistic
    verdict(
        "9 SOM-MQE detects the simulated degradation",
        filtered_alarm is not None
        and filtered_alarm >= 40
        and filtered_alarm <= raw_alarm
        and rho >= 0.9,
        f"alarms: filtered {filtered_alarm}, raw {report.raw.alarm_index}; "
        f"Spearman {rho:.3f}",
    )


def test_criterion_10_kurtosis_identity():
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(50):
        f = rng.standard_normal(int(rng.integers(16, 2048)))
        centered = f - f.mean()
        identity = f.size / lp_lq_norm(centered, 2, 4) ** 2
        worst = max(worst, abs(kurtosis(f) - identity) / identity)
    verdict("10 kurtosis equals N / J_{2,4}^2", worst <= 1e-9,
            f"max rel deviation {worst:.2e}")


def test_criterion_11_ingest_round_trip(tmp_path):
    rng = np.random.default_rng(99)
    matrix = rng.standard_normal((20480, 4))
    path = tmp_path / "2004.02.12.10.32.39"
    write_ims_file(path, matrix)
    snapshot = read_ims_file(path, 20000.0)
    channel = snapshot.channel_signal(2)
    again = tmp_path / "resaved" / "2004.02.12.10.32.39"
    again.parent.mkdir()
    write_ims_file(again, snapshot.channels)
    reparsed = read_ims_file(again, 20000.0)
    lossless = np.array_equal(reparsed.channels, matrix) and np.array_equal(
        channel.samples, matrix[:, 2]
    )

    seq_dir = tmp_path / "sequence"
    seq_dir.mkdir()
    stamps = []
    for i in range(984):
        stamp = f"2004.03.{1 + i // 1440:02d}.{(i // 60) % 24:02d}.{i % 60:02d}.00"
        stamps.append(stamp)
    order = np.random.default_rng(1).permutation(984)
    for i in order:
        (seq_dir / stamps[i]).write_text("0.5\t1.5\n2.5\t3.5\n")
    sequence = iterate_run_to_failure(seq_dir, 0, 20000.0)
    ordered = [p.name for p in sequence.paths] == stamps
    verdict("11 IMS layout round-trips losslessly and iterates in order",
            lossless and len(sequence) == 984 and ordered,
            f"{snapshot.channels.shape} matrix, {len(sequence)} files")
