"""Property tests of the sparse-filter and MED fits.

The analytic cost gradient matches central finite differences on short
and long signals of odd, even and prime length, up to beyond the
20480-sample IMS snapshot; a prime length pads the correlation's FFT.
Every fit returns a finite, unit-norm filter.
"""

import numpy as np
import pytest

from sparsevib import (CsfConfig, Signal, convolve_valid, csf_cost, csf_gradient, fit_med,
                       fit_simplified_csf)
from sparsevib.sparse_filter import _EPSILON

from test_sparse_filter import finite_difference_gradient

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


STEP = 1e-6


@st.composite
def fit_shapes(draw):
    l = draw(st.integers(2, 64))
    n = draw(st.integers(2 * l, 512) | st.integers(8000, 21000)
             | st.sampled_from([131, 8191, 20479]))  # primes
    return n, l


@settings(max_examples=40, deadline=None)
@given(shape=fit_shapes(), seed=st.integers(0, 2**32 - 1))
@example(shape=(20480, 100), seed=0)
def test_gradient_matches_finite_differences(shape, seed):
    n, l = shape
    rng = np.random.default_rng(seed)
    signal = Signal(rng.standard_normal(n), 1.0)
    w = rng.standard_normal(l)
    w /= np.linalg.norm(w)
    analytic = csf_gradient(signal, w, _EPSILON)
    numeric = finite_difference_gradient(signal, w, _EPSILON, step=STEP)
    # The central difference errs by its truncation (up to ~2e-5 of the
    # gradient for short signals and long filters) plus the cost's own
    # rounding, about sqrt(n) eps relative for a sum over n samples,
    # divided by the step.
    cost = csf_cost(convolve_valid(signal, w), _EPSILON)
    rounding = 10 * np.sqrt(n) * np.finfo(float).eps * cost / STEP
    assert np.max(np.abs(analytic - numeric)) <= 1e-4 * np.max(np.abs(numeric)) + rounding


@settings(max_examples=30, deadline=None)
@given(fit=st.sampled_from([fit_simplified_csf, fit_med]),
       l=st.integers(2, 32), extra=st.integers(0, 200), seed=st.integers(0, 2**32 - 1),
       log_scale=st.integers(-6, 6), n_impulses=st.integers(0, 5))
def test_fits_return_finite_unit_norm_filters(fit, l, extra, seed, log_scale, n_impulses):
    n = 2 * l + extra
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    y[rng.integers(0, n, n_impulses)] += rng.choice([-1.0, 1.0], n_impulses) * 20.0
    result = fit(Signal(10.0**log_scale * y, 1.0), CsfConfig(filter_length=l))
    assert np.all(np.isfinite(result.w))
    assert np.linalg.norm(result.w) == pytest.approx(1.0, abs=1e-12)
