"""Property tests of the condition indicators.

The whole feature vector is invariant to the scale and sign of the
snapshot, and the l1/l2 sparsity cost lies between its two bounds.
"""

import numpy as np
import pytest

from sparsevib import FaultFrequencies, Signal, csf_cost, extract_feature_vector

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

FAULTS = FaultFrequencies(bpfo_hz=100.0, bpfi_hz=160.0, bsf_hz=70.0)
ULP = np.finfo(float).eps


@settings(max_examples=40, deadline=None)
@given(n=st.integers(512, 8192), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-6.0, 6.0), sign=st.sampled_from([-1.0, 1.0]),
       n_impulses=st.integers(0, 20))
def test_feature_vector_is_scale_invariant(n, seed, log_scale, sign, n_impulses):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    y[rng.integers(0, n, n_impulses)] += 10.0
    signal = Signal(y, 20000.0)
    scaled = Signal(sign * 10.0**log_scale * y, 20000.0)
    a = extract_feature_vector(signal, FAULTS).as_array()
    b = extract_feature_vector(scaled, FAULTS).as_array()
    assert np.allclose(b, a, rtol=1e-9, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(f=arrays(np.float64, st.integers(1, 2000), elements=st.floats(-1e6, 1e6)))
@example(f=np.full(1999, -3.0))  # uniform magnitudes: the upper bound
@example(f=np.eye(1, 2000)[0])  # one spike: near the lower bound
def test_csf_cost_lies_between_one_and_root_k(f):
    assume(np.any(f != 0.0))
    cost = csf_cost(f)
    assert 1.0 - 4 * ULP <= cost <= np.sqrt(f.size) * (1.0 + 4 * ULP)
