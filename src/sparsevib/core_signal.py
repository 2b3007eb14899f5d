"""Signal containers and the basic transforms everything else builds on.

A vibration record is a uniformly sampled real series.  The module provides
the sliding-window (valid) convolution used by the adaptive filters, the
analytic-signal envelope, the normalized autocorrelation of a vector, and
the one-sided envelope spectrum.
"""

from dataclasses import dataclass

import numpy as np

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
        Sampling rate, strictly positive and finite.
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
        if not (0 < self.sample_rate_hz < np.inf):
            raise ValueError("sample_rate_hz must be positive and finite")
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


def _next_fast_len(n):
    """Smallest ``2^a 3^b 5^c >= n``: a length pocketfft transforms quickly.

    Each ``3^b 5^c`` below the best so far is scaled by the least power of
    two that reaches ``n``.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _correlator(y, l):
    """``v -> out`` with ``out[i] = sum_j y[i+j] v[j]``, for a filter length ``l``.

    A ``v`` of ``l`` taps gives the ``m = N - l + 1`` valid windows' sums
    (the forward pass); a ``v`` of ``m`` weights gives the ``l`` sums
    ``sum_i v[i] y[i+j]`` (the adjoint: the gradient, MED's right-hand side
    and normal equations).  Overlap-save (Stockham 1966): ``y`` is cut into
    blocks of ``size`` points that overlap by ``l - 1``, so each block holds
    ``step = size - l + 1`` whole windows, and the blocks' ``rfft`` is taken
    once.  A call then runs one batched transform of ``size``-point rows and
    one small transform, not whole-record transforms.  ``size`` is ``8 l``
    rounded up to a fast length, capped at the record's own fast length; a
    filter that long gets one block, the whole record, and the same bits as
    a whole-record FFT correlation.  The transforms are ``numpy.fft``'s: the
    C++ pocketfft that ``scipy.fft`` also wraps, with the same bits.  It runs
    on the calling thread and uses no BLAS, and the blocks are summed in a
    fixed order, so no thread or CPU count changes a result.  The returned
    function reuses its work arrays, so it serves one caller at a time.
    """
    n = y.size
    m = n - l + 1
    size = min(_next_fast_len(8 * l), _next_fast_len(n))
    step = size - l + 1
    count = -(-m // step)
    padded = np.zeros(count * step + l - 1)
    padded[:n] = y
    blocks = np.fft.rfft(np.lib.stride_tricks.sliding_window_view(padded, size)[::step])
    pad = count * step - m  # zeros after the last window
    first = step - 1 - pad
    # The adjoint's work arrays are kept across calls: fresh ones, a record's
    # worth of memory each, were page-faulted in again on every call at
    # N = 20480, as glibc trimmed the heap in between.
    weights = np.zeros(count * step)
    kernels = np.zeros((count, size))

    def correlate(v):
        if v.size == l:
            # ``blocks`` first: numpy's complex product is not symmetric bit for
            # bit, and scipy.signal.fftconvolve, the reference these sums are
            # tested against, multiplies in this order.
            spectra = np.multiply(blocks, np.fft.rfft(v[::-1], size))
            return np.fft.irfft(spectra, size)[:, l - 1 :].ravel()[:m]
        # Piece b of ``v`` (its windows in block b), reversed, meets block b; the
        # pieces' spectra are summed before one inverse transform.  Each reversed
        # piece is rolled back by ``pad`` points, circularly, so the sums are read
        # at ``first``, and a lone block's kernel is ``v[::-1]`` then zeros, as in
        # a whole-record correlation.
        weights[:m] = v
        rows = weights.reshape(count, step)[:, ::-1]
        kernels[:, : step - pad] = rows[:, pad:]
        kernels[:, size - pad :] = rows[:, :pad]
        spectra = np.fft.rfft(kernels)
        np.multiply(blocks, spectra, out=spectra)
        return np.fft.irfft(spectra.sum(axis=0), size)[first : first + l]

    return correlate


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
    w = _validated_filter(signal, w)
    return _correlator(signal.samples, w.size)(w)


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
    n = len(signal)
    h = np.ones(n // 2 + 1)
    h[1 : (n + 1) // 2] = 2.0
    # The bins from ``rfft``, not a complex ``fft``: numpy's complex transform
    # of a real input differs from scipy.signal.hilbert's in the last bit.
    analytic = np.zeros(n, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        analytic[: h.size] = np.fft.rfft(signal.samples) * h
        env = np.abs(np.fft.ifft(analytic))
    if not np.isfinite(env).all():
        raise ValueError("envelope overflowed at this amplitude (largest |sample| "
                         f"{np.abs(signal.samples).max():.3g})")
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
    # Zero-padding by n - 1 makes every lag a valid window.
    r = _correlator(np.concatenate((xc, np.zeros(n - 1))), n)(xc)[: max_lag + 1]
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
