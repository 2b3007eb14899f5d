import json
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import sparsevib
from sparsevib import sparse_filter
from sparsevib import (
    CsfConfig,
    DegenerateInputError,
    NumericalFailureError,
    Signal,
    convolve_valid,
    csf_cost,
    csf_gradient,
    fit_med,
    fit_simplified_csf,
    gaussian_with_outlier,
)
from sparsevib.core_signal import _correlator


def finite_difference_gradient(signal, w, epsilon, step=1e-6):
    """Test-local central-difference oracle, independent of the analytic path."""
    grad = np.empty_like(w)
    for j in range(w.size):
        plus = w.copy()
        minus = w.copy()
        plus[j] += step
        minus[j] -= step
        grad[j] = (
            csf_cost(convolve_valid(signal, plus), epsilon)
            - csf_cost(convolve_valid(signal, minus), epsilon)
        ) / (2 * step)
    return grad


def impulse_train_signal(n=4096, period=64, fs=20000.0):
    y = np.zeros(n)
    y[::period] = 1.0
    return Signal(y, fs)


class TestCsfCost:
    def test_single_spike_is_minimal(self):
        assert csf_cost(np.array([1.0, 0, 0, 0]), 1e-8) == pytest.approx(1.0, abs=1e-3)

    def test_uniform_vector(self):
        assert csf_cost(np.ones(100), 1e-8) == pytest.approx(10.0, abs=1e-6)

    def test_three_four_five(self):
        assert csf_cost(np.array([3.0, -4.0]), 1e-8) == pytest.approx(1.4, abs=1e-6)

    def test_zero_vector_degenerate(self):
        with pytest.raises(DegenerateInputError):
            csf_cost(np.zeros(10), 1e-8)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            csf_cost(np.ones(4), 0.0)

    def test_bounds_on_seeded_vectors(self):
        rng = np.random.default_rng(100)
        cases = [rng.standard_normal(rng.integers(4, 2000)) for _ in range(98)]
        spike = np.zeros(64)
        spike[5] = 2.0
        cases.append(spike)  # near-sparse extreme
        cases.append(np.full(128, 0.7))  # constant extreme
        for f in cases:
            cost = csf_cost(f, 1e-8)
            assert 1.0 <= cost <= np.sqrt(f.size) + 1e-3

    @pytest.mark.parametrize("k", [1e-3, 3.7, 1e3])
    def test_scale_invariance_with_matched_epsilon(self, k):
        rng = np.random.default_rng(8)
        f = rng.standard_normal(300)
        base = csf_cost(f, 1e-8)
        scaled = csf_cost(k * f, 1e-8 * k * k)
        assert scaled == pytest.approx(base, rel=1e-9)


class TestCsfGradient:
    def test_symmetry_of_palindromic_signal(self):
        sig = Signal(np.array([1.0, 2.0, 2.0, 1.0]), 100.0)
        grad = csf_gradient(sig, np.array([0.3, 0.3]), 1e-8)
        assert grad[0] == pytest.approx(grad[1], rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        y = rng.standard_normal(128)
        w = rng.standard_normal(8)
        w /= np.linalg.norm(w)
        sig = Signal(y, 1.0)
        analytic = csf_gradient(sig, w, 1e-8)
        numeric = finite_difference_gradient(sig, w, 1e-8)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-30)
        assert np.max(rel) <= 1e-6

    def test_inverse_scaling_in_small_epsilon_limit(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(200)
        w = rng.standard_normal(10)
        sig = Signal(y, 1.0)
        k = 10.0
        g1 = csf_gradient(sig, w, 1e-12)
        gk = csf_gradient(sig, k * w, 1e-12)
        assert np.max(np.abs(gk - g1 / k)) <= 1e-4 * np.max(np.abs(g1 / k))


class TestFitSimplifiedCsf:
    def test_enhances_buried_fault_signature(self):
        from sparsevib import FaultSimConfig, envelope_spectrum, simulate_bearing_fault

        config = FaultSimConfig(fault_components=("outer",), snr_db=-8.0, seed=0)
        sig = simulate_bearing_fault(config)
        result = fit_simplified_csf(sig, CsfConfig(filter_length=100))
        spec = envelope_spectrum(Signal(result.filtered, sig.sample_rate_hz))
        df = spec.frequencies_hz[1]
        assert abs(spec.peak_frequency() - 100.0) <= df + 1e-9

    def test_does_not_collapse_on_outlier(self):
        sig = gaussian_with_outlier(8192, 8.0, seed=0)
        result = fit_simplified_csf(sig, CsfConfig(filter_length=100))
        concentration = np.max(np.abs(result.filtered)) / np.linalg.norm(result.filtered)
        assert concentration < 0.5

    def test_beats_every_delta_filter_on_impulse_train(self):
        sig = impulse_train_signal()
        config = CsfConfig(filter_length=32)
        result = fit_simplified_csf(sig, config)
        # Brute-force oracle: every single-coefficient filter.
        delta_costs = []
        for j in range(config.filter_length):
            delta = np.zeros(config.filter_length)
            delta[j] = 1.0
            delta_costs.append(csf_cost(convolve_valid(sig, delta), sparse_filter._EPSILON))
        assert result.cost_history[-1] < min(delta_costs)

    def test_cost_history_nonincreasing(self):
        sig = gaussian_with_outlier(2048, 8.0, seed=3)
        result = fit_simplified_csf(sig, CsfConfig(filter_length=50))
        diffs = np.diff(result.cost_history)
        assert np.all(diffs <= 1e-12)

    def test_deterministic(self):
        sig = gaussian_with_outlier(2048, 8.0, seed=4)
        config = CsfConfig(filter_length=40)
        a = fit_simplified_csf(sig, config)
        b = fit_simplified_csf(sig, config)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.filtered, b.filtered)
        assert np.array_equal(a.cost_history, b.cost_history)

    def test_sign_symmetry(self):
        sig = gaussian_with_outlier(2048, 8.0, seed=5)
        flipped = Signal(-sig.samples, sig.sample_rate_hz)
        config = CsfConfig(filter_length=30)
        a = fit_simplified_csf(sig, config)
        b = fit_simplified_csf(flipped, config)
        assert np.allclose(np.abs(b.filtered), np.abs(a.filtered), rtol=1e-9, atol=1e-12)
        assert b.cost_history[-1] == pytest.approx(a.cost_history[-1], rel=1e-9)

    def test_unit_norm_and_final_cost_bounds(self):
        sig = gaussian_with_outlier(4096, 8.0, seed=6)
        result = fit_simplified_csf(sig, CsfConfig(filter_length=64))
        assert np.linalg.norm(result.w) == pytest.approx(1.0, abs=1e-9)
        m = result.filtered.size
        assert 1.0 <= result.cost_history[-1] <= np.sqrt(m)

    @pytest.mark.parametrize("scale", [1e-8, 2.0**-40])
    def test_fit_that_stops_within_one_iteration_has_not_converged(self, scale):
        # At these scales epsilon flattens the cost: the solver stops after one
        # iteration with w still far from the scale-1 fit's.
        sig = gaussian_with_outlier(4096, 8.0, seed=0)
        config = CsfConfig(filter_length=64)
        reference = fit_simplified_csf(sig, config)
        result = fit_simplified_csf(Signal(scale * sig.samples, sig.sample_rate_hz), config)
        assert reference.converged and reference.iterations > 1
        assert result.iterations <= 1 and not result.converged
        assert np.max(np.abs(result.w - reference.w)) > 0.1

    # ``config`` sets the fit's stop constants, which it hands to ``_lbfgs``.
    @pytest.mark.parametrize("scale, config, stop", [
        (1.0, {}, "plateau"),
        (1.0, {"_GRADIENT_TOL": 0.3}, "gradient"),
        (1.0, {"_MAX_ITERATIONS": 2}, "iteration_cap"),
        (1e-80, {}, "line_search"),  # epsilon swamps the cost
    ])
    def test_reports_why_it_stopped(self, scale, config, stop, monkeypatch):
        for name, value in config.items():
            monkeypatch.setattr(sparse_filter, name, value)
        sig = gaussian_with_outlier(4096, 8.0, seed=0)
        result = fit_simplified_csf(Signal(scale * sig.samples, sig.sample_rate_hz),
                                    CsfConfig(filter_length=64))
        assert result.stop == stop
        assert result.converged == (stop in ("gradient", "plateau"))

    def test_constant_signal_degenerate(self):
        sig = Signal(np.full(1024, 2.0), 100.0)
        with pytest.raises(DegenerateInputError):
            fit_simplified_csf(sig, CsfConfig(filter_length=16))

    def test_filter_length_validated_against_signal(self):
        sig = gaussian_with_outlier(1024, 8.0, seed=7)
        with pytest.raises(ValueError):
            fit_simplified_csf(sig, CsfConfig(filter_length=1000))


class TestFitMed:
    def test_collapses_onto_outlier_at_full_capacity(self):
        sig = gaussian_with_outlier(8192, 8.0, seed=0)
        result = fit_med(sig, CsfConfig(filter_length=4096))
        concentration = np.max(np.abs(result.filtered)) / np.linalg.norm(result.filtered)
        assert concentration > 0.9

    def test_ascends_kurtosis_on_impulse_train(self):
        sig = impulse_train_signal()

        def kurt(x):
            xc = x - x.mean()
            return x.size * np.sum(xc**4) / np.sum(xc**2) ** 2

        result = fit_med(sig, CsfConfig(filter_length=32))
        assert kurt(result.filtered) >= kurt(sig.samples)

    def test_deterministic(self):
        sig = gaussian_with_outlier(2048, 8.0, seed=8)
        config = CsfConfig(filter_length=64)
        a = fit_med(sig, config)
        b = fit_med(sig, config)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.filtered, b.filtered)

    def test_reports_no_stop_reason(self):
        result = fit_med(impulse_train_signal(n=2048, period=32), CsfConfig(filter_length=24))
        assert result.stop is None

    def test_history_is_negative_kurtosis(self):
        sig = impulse_train_signal(n=2048, period=32)
        result = fit_med(sig, CsfConfig(filter_length=24))
        assert result.cost_history[0] < 0
        assert len(result.cost_history) == result.iterations + 1

    def test_factors_the_normal_equations_in_place(self):
        sig = gaussian_with_outlier(4096, 8.0, seed=0)
        l = 2048
        tracemalloc.start()
        try:
            fit_med(sig, CsfConfig(filter_length=l))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The packed factor is l (l + 1) / 2 doubles, about half an l x l
        # matrix; a dense l x l factor would exceed this bound.
        assert peak < 0.75 * l * l * 8

    def test_failed_solve_raises(self, monkeypatch):
        monkeypatch.setattr(sparse_filter, "dpptrs", lambda n, ap, b, **kwargs: (b, -1))
        with pytest.raises(NumericalFailureError, match="dpptrs info=-1"):
            fit_med(gaussian_with_outlier(1024, 8.0, seed=0), CsfConfig(filter_length=16))

    def test_matches_a_dense_cholesky_reference(self):
        sig = gaussian_with_outlier(4096, 8.0, seed=0)
        config = CsfConfig(filter_length=1024)
        y, l = sig.samples, config.filter_length
        windows = np.lib.stride_tricks.sliding_window_view(y, l)
        gram = windows.T @ windows
        gram[np.diag_indices(l)] += 1e-8 * np.trace(gram) / l
        factor = cho_factor(gram)
        w = np.zeros(l)
        w[(l + 1) // 2 - 1] = 1.0
        iterations = 0
        for _ in range(sparse_filter._MAX_ITERATIONS):
            w_new = cho_solve(factor, windows.T @ (windows @ w) ** 3)
            w_new /= np.linalg.norm(w_new)
            delta = np.linalg.norm(w_new - w)
            w, iterations = w_new, iterations + 1
            if delta < sparse_filter._MED_STEP_TOL:
                break
        result = fit_med(sig, config)
        assert result.iterations == iterations
        assert np.max(np.abs(result.w - w)) < 1e-8

    def test_rank_deficient_hankel_matrix_gives_a_finite_filter(self):
        # The Hankel matrix of a pure sinusoid has rank 2: only the ridge
        # keeps the normal equations from being singular.
        t = np.arange(8192) / 20000.0
        result = fit_med(Signal(np.sin(2 * np.pi * 300.0 * t), 20000.0),
                         CsfConfig(filter_length=64))
        assert np.all(np.isfinite(result.w))
        assert np.linalg.norm(result.w) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n, l", [(64, 2), (64, 32), (101, 2), (101, 50), (4096, 2048)])
def test_gram_factor_is_the_cholesky_factor_of_the_ridged_gram_matrix(n, l):
    y = np.random.default_rng(n + l).standard_normal(n)
    packed = sparse_filter._gram_factor(y, _correlator(y, l), l)
    assert packed.shape == (l * (l + 1) // 2,)
    assert packed.flags.c_contiguous
    # LAPACK's packed lower storage runs down each column from the diagonal:
    # (0,0), (1,0), ..., (l-1,0), (1,1), ..., the transpose of numpy's
    # row-major order for the upper triangle.
    cols, rows = np.triu_indices(l)
    factor = np.zeros((l, l))
    factor[rows, cols] = packed
    windows = np.lib.stride_tricks.sliding_window_view(y, l)
    gram = windows.T @ windows
    trace = np.trace(gram)
    gram[np.diag_indices(l)] += 1e-8 * trace / l
    assert np.allclose(factor @ factor.T, gram, rtol=0, atol=1e-12 * trace)
    assert np.all(np.diag(factor) > 0)


# One IMS-length snapshot, fitted and described, and one MED fit at l = N/2,
# in a fresh interpreter, so that OPENBLAS_NUM_THREADS takes effect before
# numpy and scipy load OpenBLAS.
FIT_AND_FEATURES = """
import sys
import numpy as np
from sparsevib import (CsfConfig, FaultFrequencies, FaultSimConfig, Signal,
                       extract_feature_vector, fit_med, fit_simplified_csf,
                       gaussian_with_outlier, simulate_bearing_fault)
signal = simulate_bearing_fault(FaultSimConfig(fault_components=("outer",), seed=0))
fit = fit_simplified_csf(signal, CsfConfig(filter_length=100))
med = fit_med(gaussian_with_outlier(4096, 8.0, seed=0), CsfConfig(filter_length=2048))
faults = FaultFrequencies(bpfo_hz=100.0, bpfi_hz=160.0, bsf_hz=70.0)
enhanced = Signal(fit.filtered, signal.sample_rate_hz)
np.savez(sys.argv[1], w=fit.w, filtered=fit.filtered, cost_history=fit.cost_history,
         iterations=fit.iterations, stop=fit.stop,
         raw_features=extract_feature_vector(signal, faults).as_array(),
         filtered_features=extract_feature_vector(enhanced, faults).as_array(),
         **{f"med_{key}": value for key, value in vars(med).items()
            if value is not None})  # MED's stop is None, which savez cannot store without pickle
"""


def test_fit_and_features_independent_of_blas_threads(tmp_path):
    src = str(Path(sparsevib.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        subprocess.run([sys.executable, "-c", FIT_AND_FEATURES, str(out)],
                       env=env, check=True, timeout=300)
        runs.append(np.load(out))
    one, two = runs
    assert one["w"].size == 100 and one["filtered"].size == 20480 - 100 + 1
    assert one["med_w"].size == 2048 and one["med_filtered"].size == 4096 - 2048 + 1
    for key in one.files:
        assert np.array_equal(one[key], two[key]), key


def test_lbfgs_agrees_with_scipy_lbfgsb_within_the_rounding_spread():
    # scipy's L-BFGS-B is the reference; only this test imports scipy.optimize.
    # Rounding-level input changes (y (1 + k 2^-50)) already move L-BFGS-B's final
    # cost, so the in-house solver must land within that spread of it, over signals
    # of the taxonomy's eight classes.
    from scipy.optimize import minimize

    from sparsevib import FaultSimConfig, make_fault_taxonomy_dataset

    config = CsfConfig(filter_length=64)
    base = FaultSimConfig(snr_db=-2.0, n_samples=4096, damping_rate=2000.0)
    w0 = sparse_filter._initial_filter(config.filter_length)
    moves, spread = [], []
    for signal in make_fault_taxonomy_dataset(1, base, seed=0).signals:
        reference = []
        for k in range(5):
            fun = partial(sparse_filter._cost_and_gradient,
                          _correlator(signal.samples * (1 + k * 2.0**-50), config.filter_length),
                          epsilon=sparse_filter._EPSILON)
            gtol = sparse_filter._GRADIENT_TOL * np.abs(fun(w0)[1]).max()
            reference.append(minimize(fun, w0, jac=True, method="L-BFGS-B", options={
                "maxiter": sparse_filter._MAX_ITERATIONS, "maxcor": 10, "maxls": 60, "gtol": gtol,
                "ftol": sparse_filter._PLATEAU_FTOL}).fun)
            if k == 0:
                _, history, stop = sparse_filter._lbfgs(fun, w0, sparse_filter._GRADIENT_TOL,
                                                       sparse_filter._MAX_ITERATIONS)
                assert stop == "plateau"
        moves.append(history[-1] - reference[0])
        spread.extend(abs(cost - reference[0]) for cost in reference[1:])
    assert max(map(abs, moves)) <= max(spread)


def test_plateau_stop_is_the_one_the_stop_floor_study_chose():
    # Moving _PLATEAU_FTOL means re-running studies/stop_floor.py: the constant
    # must be the study's choice, and the study's record must back it.
    study = json.loads((Path(__file__).parents[1] / "studies" / "STOP_FLOOR.json").read_text())
    assert sparse_filter._PLATEAU_FTOL == study["chosen_ftol"]
    families = study["families"].values()
    inside = [ftol for ftol in study["grid"]
              if all(family["inside"][f"{ftol:g}"] for family in families)]
    assert study["chosen_ftol"] == max(inside)
    for family in families:
        moves = family["moves"][f"{study['chosen_ftol']:g}"]
        for name, spread in family["spread"].items():
            assert moves[name]["p95"] <= spread["p95"]
            assert moves[name]["max"] <= spread["max"]
