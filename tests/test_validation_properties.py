"""Property tests of the library's input checks.

Every numeric field of the public configs and records is drawn from the
values that have escaped a check before (NaN, +-inf, 0, negatives, the
smallest subnormal, 1e-310 and 1e308) and from ordinary ones.  A value
is refused at construction with a ``ValueError`` that says why, or it is
accepted; and what is accepted runs: a ``FaultSimConfig`` simulates, and
features fail, if at all, with a ``ValueError``.
"""

import math

import numpy as np
import pytest

from sparsevib import (
    BearingGeometry,
    FaultFrequencies,
    FaultSimConfig,
    Signal,
    SomConfig,
    extract_feature_vector,
    fault_frequencies,
    simulate_bearing_fault,
)
from sparsevib.simulate import TAXONOMY

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

EXTREMES = (math.nan, math.inf, -math.inf, 0.0, -1.0, -1e308, 5e-324, 1e-310, 1e308)
FAULTS = FaultFrequencies(bpfo_hz=100.0, bpfi_hz=160.0, bsf_hz=70.0)
RECORD = np.random.default_rng(0).standard_normal(4096)
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's overflow, invalid value


def values(*ordinary):
    """An extreme value or one of ``ordinary``; counts take floats too, which they refuse."""
    return st.sampled_from(EXTREMES + ordinary)


@st.composite
def changed(draw, ordinary):
    """One or two fields of ``ordinary`` (field -> its ordinary values), each set to a value."""
    names = draw(st.lists(st.sampled_from(sorted(ordinary)), min_size=1, max_size=2, unique=True))
    return {name: draw(values(*ordinary[name])) for name in names}


def built(cls, **fields):
    """``cls(**fields)``, or None when it refuses them with a ``ValueError`` that says why."""
    try:
        return cls(**fields)
    except ValueError as exc:
        assert str(exc)
        return None


def features_or_value_error(signal, faults):
    try:
        extract_feature_vector(signal, faults)
    except ValueError as exc:
        assert str(exc)


@SETTINGS
@given(components=st.sampled_from(list(TAXONOMY.values())), fields=changed({
    "outer_fault_hz": (100.0, 1e-320), "inner_fault_hz": (160.0,), "roller_fault_hz": (70.0,),
    "resonance_hz": (3000.0,), "damping_rate": (800.0, 1.0, 1e-300), "shaft_hz": (33.3,),
    "snr_db": (-8.0, math.inf, 4000.0, -4000.0, -3200.0, 3000.0, -3000.0),
    "n_samples": (1024, -1, 0), "sample_rate_hz": (20000.0,),
    "period_jitter_fraction": (0.01, 0.05), "seed": (7, -1)}))
# Once an infinite defect period, a 10 ** (snr_db / 10) that overflows or underflows, a
# noise power that overflows, resonance kernels of 1.8e305 and 184,207 samples, and an
# infinite shaft modulation phase rate.
@example(components=("outer",), fields={"outer_fault_hz": 1e-320})
@example(components=("outer",), fields={"snr_db": 4000.0})
@example(components=("outer",), fields={"snr_db": -4000.0})
@example(components=("outer",), fields={"snr_db": -3200.0})
@example(components=(), fields={"damping_rate": 1e-300})
@example(components=("outer",), fields={"damping_rate": 1e-300})
@example(components=("outer",), fields={"damping_rate": 1.0})
@example(components=("inner",), fields={"shaft_hz": 1e308})
def test_fault_sim_config_is_refused_or_simulates(components, fields):
    config = built(FaultSimConfig, **{"fault_components": components, "n_samples": 4096, **fields})
    if config is not None:
        assert len(simulate_bearing_fault(config)) == config.n_samples


@SETTINGS
@given(sample=values(1.0, 1.7e308), rate=values(20000.0))
def test_signal_is_refused_or_gives_features(sample, rate):
    samples = RECORD.copy()
    samples[100] = sample
    signal = built(Signal, samples=samples, sample_rate_hz=rate)
    if signal is not None:
        features_or_value_error(signal, FAULTS)


@SETTINGS
@given(fields=changed({"bpfo_hz": (100.0,), "bpfi_hz": (160.0,), "bsf_hz": (70.0,)}))
@example(fields={"bpfo_hz": 5e-324})  # once an infinite defect period in samples
@example(fields={"bpfo_hz": 1e-310})
def test_fault_frequencies_are_refused_or_give_features(fields):
    faults = built(FaultFrequencies, **{"bpfo_hz": 100.0, "bpfi_hz": 160.0, "bsf_hz": 70.0,
                                        **fields})
    if faults is not None:
        features_or_value_error(Signal(RECORD, 20000.0), faults)


@SETTINGS
@given(fields=changed({"n_rolling_elements": (9, 2, 1), "roller_diameter": (1.0, 1e-200),
                       "pitch_diameter": (4.0, 1e200), "contact_angle_rad": (0.3,)}),
       shaft=values(30.0))
@example(fields={"roller_diameter": 1e-200, "pitch_diameter": 1e200}, shaft=30.0)  # d/D was 0
def test_bearing_geometry_is_refused_or_gives_frequencies(fields, shaft):
    geometry = built(BearingGeometry, **{"n_rolling_elements": 9, "roller_diameter": 1.0,
                                         "pitch_diameter": 4.0, **fields})
    if geometry is not None:
        try:
            faults = fault_frequencies(geometry, shaft)
        except ValueError as exc:
            assert str(exc)
        else:
            features_or_value_error(Signal(RECORD, 20000.0), faults)


@SETTINGS
@given(fields=changed({"grid_rows": (3, 2, 1), "grid_cols": (3,), "epochs": (200, 1),
                       "seed": (0, -1)}))
def test_som_config_is_refused_or_built(fields):
    built(SomConfig, **fields)
