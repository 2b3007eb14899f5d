"""Signal containers and the basic transforms everything else builds on.

A vibration record is a uniformly sampled real series.  The module provides
the sliding-window (valid) convolution used by the adaptive filters, the
analytic-signal envelope, the normalized autocorrelation of a vector, and
the one-sided envelope spectrum.
"""

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve, hilbert

from .errors import DegenerateInputError

__all__ = [
    "Signal",
    "Spectrum",
    "convolve_valid",
    "hilbert_envelope",
    "autocorrelation",
    "envelope_spectrum",
]


@dataclass
class Signal:
    """Uniformly sampled real-valued time series.

    Attributes
    ----------
    samples : np.ndarray
        Amplitude values in engineering units (e.g. g).  At least 2 samples,
        all finite.
    sample_rate_hz : float
        Sampling rate, strictly positive.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.samples.size < 2:
            raise ValueError("signal needs at least 2 samples")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")
        if not (self.sample_rate_hz > 0):
            raise ValueError("sample_rate_hz must be positive")
        self.sample_rate_hz = float(self.sample_rate_hz)

    def __len__(self):
        return self.samples.size


@dataclass
class Spectrum:
    """One-sided magnitude spectrum: bin frequencies and nonnegative magnitudes."""

    frequencies_hz: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self):
        self.frequencies_hz = np.asarray(self.frequencies_hz, dtype=np.float64)
        self.magnitudes = np.asarray(self.magnitudes, dtype=np.float64)
        if self.frequencies_hz.shape != self.magnitudes.shape:
            raise ValueError("frequencies and magnitudes must have equal length")
        if self.frequencies_hz[0] != 0.0:
            raise ValueError("spectrum must start at 0 Hz")
        if np.any(np.diff(self.frequencies_hz) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if np.any(self.magnitudes < 0):
            raise ValueError("magnitudes must be nonnegative")

    def peak_frequency(self):
        """Frequency of the largest magnitude bin above DC."""
        return float(self.frequencies_hz[1 + int(np.argmax(self.magnitudes[1:]))])


# Above this many multiply-adds the FFT route wins; below it the direct
# route is both faster and exact.  Direct valid-mode work is
# (len(y) - len(v) + 1) * len(v): one kernel-length dot product per output.
_DIRECT_CORRELATE_OPS = 4_000_000


# OpenBLAS on x86_64 hands a ``ddot`` longer than 10000 elements to its
# thread pool.  On the fit path that pool then competes for the cores with
# the one scipy's L-BFGS-B uses, which makes a fit several times slower,
# and its per-thread partial sums make the result depend on the thread
# count.  Long dot products are therefore summed over pieces no longer
# than this, each of which OpenBLAS runs on the calling thread.
_SERIAL_DOT = 8192


def _dot(a, b):
    """``np.dot`` of two 1-D arrays, summed over pieces of ``_SERIAL_DOT`` elements."""
    total = np.dot(a[:_SERIAL_DOT], b[:_SERIAL_DOT])
    for i in range(_SERIAL_DOT, a.size, _SERIAL_DOT):
        total += np.dot(a[i : i + _SERIAL_DOT], b[i : i + _SERIAL_DOT])
    return total


def _correlate_valid(y, v):
    """``out[i] = sum_j y[i+j] v[j]`` with a size-adaptive method choice.

    The direct route computes one ``len(v)``-long dot product per output,
    so it sums correlations over pieces of ``v`` no longer than
    ``_SERIAL_DOT``; a ``v`` that fits in one piece is one plain call.
    """
    if (y.size - v.size + 1) * v.size > _DIRECT_CORRELATE_OPS:
        return fftconvolve(y, v[::-1], mode="valid")
    k = y.size - v.size
    out = np.correlate(y[: _SERIAL_DOT + k], v[:_SERIAL_DOT], mode="valid")
    for i in range(_SERIAL_DOT, v.size, _SERIAL_DOT):
        out += np.correlate(y[i : i + _SERIAL_DOT + k], v[i : i + _SERIAL_DOT], mode="valid")
    return out


def convolve_valid(signal, w):
    """Valid (sliding-window) convolution of a signal with filter coefficients.

    Output element ``i`` is the dot product of the window
    ``y[i], ..., y[i+l-1]`` with ``w``, equivalently the product of the
    signal's Hankel matrix with ``w``.  For a length-``N`` signal and a
    length-``l`` filter the output has ``N - l + 1`` elements.

    Parameters
    ----------
    signal : Signal
    w : array_like
        Filter coefficients, length ``l`` with ``2 <= l <= N/2``.

    Returns
    -------
    np.ndarray
    """
    return _correlate_valid(signal.samples, _validated_filter(signal, w))


def _validated_filter(signal, w):
    """``w`` as a float array, checked to be 1-D, finite and 2..N/2 taps long."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("filter coefficients must be one-dimensional")
    n = signal.samples.size
    l = w.size
    if l < 2 or l > n // 2:
        raise ValueError(f"filter length {l} outside [2, N/2] for N={n}")
    if not np.all(np.isfinite(w)):
        raise ValueError("filter coefficients contain non-finite values")
    return w


def hilbert_envelope(signal):
    """Envelope of a signal as the magnitude of its analytic signal.

    The analytic signal is built in the frequency domain (negative bins
    zeroed, strictly positive bins doubled, DC/Nyquist untouched).

    Parameters
    ----------
    signal : Signal

    Returns
    -------
    Signal
        Nonnegative envelope at the same sample rate.
    """
    if len(signal) < 4:
        raise ValueError("envelope needs at least 4 samples")
    env = np.abs(hilbert(signal.samples))
    return Signal(env, signal.sample_rate_hz)


def autocorrelation(x, max_lag):
    """Biased sample autocorrelation of a mean-removed vector.

    ``values[k] = sum_t (x_t - m)(x_{t+k} - m) / (N * var)`` so that
    ``values[0] == 1`` and ``|values[k]| <= 1``.

    Parameters
    ----------
    x : array_like
        Input vector; must have nonzero variance.
    max_lag : int
        Largest lag to evaluate, ``max_lag < len(x)``.

    Returns
    -------
    np.ndarray
        ``max_lag + 1`` values; lag ``k`` is at index ``k``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("input must be one-dimensional")
    n = x.size
    max_lag = int(max_lag)
    if not (0 <= max_lag < n):
        raise ValueError(f"max_lag {max_lag} must lie in [0, {n - 1}]")
    xc = x - x.mean()
    if not np.any(xc != 0.0):
        raise DegenerateInputError("autocorrelation of a constant signal is undefined")
    # Full correlation via FFT; direct evaluation would be O(N * max_lag).
    r = fftconvolve(xc, xc[::-1], mode="full")[n - 1 : n + max_lag]
    values = r / r[0]
    values[0] = 1.0
    return values


def envelope_spectrum(signal):
    """One-sided magnitude spectrum of the mean-removed envelope.

    Bin spacing is ``sample_rate / N``.  Magnitudes use single-sided
    amplitude scaling (interior bins doubled).

    Parameters
    ----------
    signal : Signal

    Returns
    -------
    Spectrum
    """
    if len(signal) < 8:
        raise ValueError("envelope spectrum needs at least 8 samples")
    env = hilbert_envelope(signal).samples
    env = env - env.mean()
    n = env.size
    mags = np.abs(np.fft.rfft(env)) / n
    # Double the bins that carry a conjugate twin (not DC, not Nyquist for even N).
    upper = mags.size - 1 if n % 2 == 0 else mags.size
    mags[1:upper] *= 2.0
    freqs = np.fft.rfftfreq(n, d=1.0 / signal.sample_rate_hz)
    return Spectrum(freqs, mags)
