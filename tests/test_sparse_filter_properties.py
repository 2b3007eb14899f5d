"""Property test: the analytic cost gradient matches central finite differences.

Signal lengths are drawn both below and above ``_SERIAL_DOT + l``, so the
gradient's correlation runs both as one call and summed over pieces.
"""

import numpy as np
import pytest

from sparsevib import Signal, convolve_valid, csf_cost, csf_gradient
from sparsevib.core_signal import _SERIAL_DOT

from test_sparse_filter import finite_difference_gradient

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


STEP = 1e-6


@st.composite
def fit_shapes(draw):
    l = draw(st.integers(2, 64))
    n = draw(st.integers(2 * l, 512) | st.integers(_SERIAL_DOT + l, _SERIAL_DOT + 400))
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
    analytic = csf_gradient(signal, w, 1e-8)
    numeric = finite_difference_gradient(signal, w, 1e-8, step=STEP)
    # The central difference errs by its truncation (up to ~2e-5 of the
    # gradient for short signals and long filters) plus the cost's own
    # rounding, about sqrt(n) eps relative for a sum over n samples,
    # divided by the step.
    cost = csf_cost(convolve_valid(signal, w), 1e-8)
    rounding = 10 * np.sqrt(n) * np.finfo(float).eps * cost / STEP
    assert np.max(np.abs(analytic - numeric)) <= 1e-4 * np.max(np.abs(numeric)) + rounding
