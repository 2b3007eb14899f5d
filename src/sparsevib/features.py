"""Scale-invariant condition indicators.

Convolutional filtering loses the absolute amplitude scale of the input,
so every feature here is invariant to multiplying the signal by any
nonzero constant: the generalized lp/lq sparsity ratio, kurtosis (its
p=2, q=4 member, up to the ``N / J^2`` mapping), and the band-limited
envelope harmonic-to-noise ratio (BLEHNR) evaluated at the bearing
defect frequencies.
"""

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .core_signal import autocorrelation, hilbert_envelope
from .errors import DegenerateInputError, _require_whole

__all__ = [
    "BearingGeometry",
    "FaultFrequencies",
    "FeatureVector",
    "lp_lq_norm",
    "kurtosis",
    "fault_frequencies",
    "blehnr",
    "extract_feature_vector",
]

DEFAULT_BAND_FRACTION = 0.02  # BLEHNR searches each defect period within +-2%


@dataclass(frozen=True)
class BearingGeometry:
    """Rolling-element bearing geometry for defect-frequency kinematics."""

    n_rolling_elements: int
    roller_diameter: float
    pitch_diameter: float
    contact_angle_rad: float = 0.0

    def __post_init__(self):
        _require_whole(n_rolling_elements=self.n_rolling_elements)
        if self.n_rolling_elements < 2:
            raise ValueError("need at least 2 rolling elements")
        if not (0 < self.roller_diameter < self.pitch_diameter < math.inf):
            raise ValueError("require 0 < roller_diameter < pitch_diameter, both finite")
        if not math.isfinite(self.contact_angle_rad):
            raise ValueError("contact_angle_rad must be finite")
        ratio = self.roller_diameter / self.pitch_diameter
        if abs(ratio * math.cos(self.contact_angle_rad)) >= 1.0:
            raise ValueError("invalid geometry: |cos(angle) * d/D| must be < 1")


@dataclass(frozen=True)
class FaultFrequencies:
    """Characteristic defect frequencies in Hz (outer race, inner race, roller)."""

    bpfo_hz: float
    bpfi_hz: float
    bsf_hz: float

    def __post_init__(self):
        for name in ("bpfo_hz", "bpfi_hz", "bsf_hz"):
            if not (0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class FeatureVector:
    """The five-feature snapshot descriptor used by the health models."""

    kurtosis: float
    l1_l2: float
    blehnr_bpfo: float
    blehnr_bpfi: float
    blehnr_bsf: float

    def as_array(self):
        return np.array(astuple(self))


FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))


def lp_lq_norm(f, p, q):
    """Generalized sparsity ratio ``(||f||_p / ||f||_q)^p`` for ``0 < p < q``.

    Scale-invariant by construction; computed on magnitudes normalized by
    their maximum so that rescaled inputs reproduce the same value to
    machine precision.
    """
    f = np.asarray(f, dtype=np.float64)
    if not (0 < p < q):
        raise ValueError("require 0 < p < q")
    mags = np.abs(f)
    peak = mags.max(initial=0.0)
    if peak == 0.0:
        raise DegenerateInputError("lp/lq norm of the zero vector is undefined")
    mags = mags / peak
    norm_p = np.sum(mags**p) ** (1.0 / p)
    norm_q = np.sum(mags**q) ** (1.0 / q)
    return float((norm_p / norm_q) ** p)


def kurtosis(f):
    """Non-excess sample kurtosis ``N * sum((f-m)^4) / (sum((f-m)^2))^2``.

    Mean is removed first; a Gaussian sequence scores about 3.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.size < 2:
        raise ValueError("kurtosis needs at least 2 samples")
    fc = f - f.mean()
    peak = np.abs(fc).max(initial=0.0)
    if peak == 0.0:
        raise DegenerateInputError("kurtosis of a zero-variance vector is undefined")
    fc = fc / peak
    m2 = np.sum(fc * fc)
    return float(f.size * np.sum(fc**4) / (m2 * m2))


def fault_frequencies(geometry, shaft_hz):
    """Defect frequencies from bearing kinematics at a given shaft speed."""
    if not (0 < shaft_hz < math.inf):
        raise ValueError("shaft_hz must be positive and finite")
    n = geometry.n_rolling_elements
    ratio = geometry.roller_diameter / geometry.pitch_diameter
    cos_term = ratio * math.cos(geometry.contact_angle_rad)
    bpfo = 0.5 * n * shaft_hz * (1.0 - cos_term)
    bpfi = 0.5 * n * shaft_hz * (1.0 + cos_term)
    bsf = shaft_hz / (2.0 * ratio) * (1.0 - cos_term**2)
    return FaultFrequencies(bpfo_hz=bpfo, bpfi_hz=bpfi, bsf_hz=bsf)


def _band_lags(n_samples, sample_rate_hz, fault_hz):
    period_samples = sample_rate_hz / fault_hz
    if period_samples < 2.0:
        raise ValueError(f"fault period {fault_hz} Hz spans fewer than 2 samples")
    lo = math.ceil((1.0 - DEFAULT_BAND_FRACTION) * period_samples)
    hi = math.floor((1.0 + DEFAULT_BAND_FRACTION) * period_samples)
    if lo > hi:
        raise ValueError("search band is empty after rounding to integer lags")
    if hi >= n_samples:
        raise ValueError("search band extends past the available signal length")
    return lo, hi


def _band_peaks(signal, fault_hzs):
    """Envelope autocorrelation peak in each fault's lag band, from one autocorrelation."""
    bands = [_band_lags(len(signal), signal.sample_rate_hz, hz) for hz in fault_hzs]
    env = hilbert_envelope(signal)
    acf = autocorrelation(env.samples, max(hi for _, hi in bands))
    return [float(np.max(acf[lo : hi + 1])) for lo, hi in bands]


def blehnr(signal, fault_hz):
    """Band-limited envelope harmonic-to-noise ratio at a fault frequency.

    Highest value of the envelope's normalized autocorrelation over integer
    lags within ``(1 ± DEFAULT_BAND_FRACTION) / fault_hz``, bounded in [-1, 1].
    """
    return _band_peaks(signal, (fault_hz,))[0]


def extract_feature_vector(signal, faults):
    """Assemble the five-feature vector for one signal snapshot.

    Kurtosis and the l1/l2 ratio come from the raw samples; the three
    BLEHNR features share a single envelope autocorrelation evaluated out
    to the largest requested lag.
    """
    peaks = _band_peaks(signal, (faults.bpfo_hz, faults.bpfi_hz, faults.bsf_hz))
    return FeatureVector(kurtosis(signal.samples), lp_lq_norm(signal.samples, 1, 2), *peaks)
