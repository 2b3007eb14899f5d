import math

import numpy as np
import pytest
from scipy import signal as scipy_signal
from scipy.fft import irfft, next_fast_len, rfft

from sparsevib import (
    DegenerateInputError,
    Signal,
    autocorrelation,
    convolve_valid,
    envelope_spectrum,
    hilbert_envelope,
)
from sparsevib.core_signal import _correlator, _next_fast_len


def make_signal(samples, fs=1000.0):
    return Signal(np.asarray(samples, dtype=float), fs)


def hankel_product(y, w):
    """Independent oracle: explicit Hankel matrix times w."""
    n, l = len(y), len(w)
    rows = n - l + 1
    matrix = np.empty((rows, l))
    for i in range(rows):
        matrix[i] = y[i : i + l]
    return matrix @ w


class TestSignal:
    def test_rejects_short_signal(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0]), 100.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0, np.nan, 2.0]), 100.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0, 2.0]), 0.0)

    def test_duration(self):
        signal = make_signal(np.zeros(500), fs=1000.0)
        assert len(signal) / signal.sample_rate_hz == 0.5


class TestConvolveValid:
    def test_identity_like_kernel(self):
        out = convolve_valid(make_signal([1, 2, 3, 4]), [1.0, 0.0])
        assert np.allclose(out, [1, 2, 3])

    def test_averaging_constant(self):
        out = convolve_valid(make_signal([1, 1, 1, 1, 1]), [0.5, 0.5])
        assert np.allclose(out, [1, 1, 1, 1])

    def test_matches_hankel_oracle(self):
        rng = np.random.default_rng(42)
        y = rng.standard_normal(256)
        w = rng.standard_normal(16)
        got = convolve_valid(make_signal(y), w)
        want = hankel_product(y, w)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n,l,seed", [(64, 2, 0), (128, 17, 1), (512, 64, 2), (333, 33, 3)])
    def test_hankel_equality_grid(self, n, l, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(n)
        w = rng.standard_normal(l)
        got = convolve_valid(make_signal(y), w)
        want = hankel_product(y, w)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        y1 = rng.standard_normal(200)
        y2 = rng.standard_normal(200)
        w = rng.standard_normal(12)
        a, b = 2.5, -1.25
        lhs = convolve_valid(make_signal(a * y1 + b * y2), w)
        rhs = a * convolve_valid(make_signal(y1), w) + b * convolve_valid(make_signal(y2), w)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_filter_length_bounds(self):
        sig = make_signal(np.arange(10.0))
        with pytest.raises(ValueError):
            convolve_valid(sig, [1.0])
        with pytest.raises(ValueError):
            convolve_valid(sig, np.ones(6))

    def test_nonfinite_filter(self):
        with pytest.raises(ValueError):
            convolve_valid(make_signal(np.arange(10.0)), [1.0, np.inf])


def block_size(n, l):
    """The engine's block length: ``8 l`` rounded up to a fast length, capped at the record's."""
    return min(next_fast_len(8 * l, True), next_fast_len(n, True))


def test_next_fast_len_is_scipys():
    # scipy's real-transform fast length is the reference; the engine's block
    # lengths, and so its bits, follow from it.
    for n in [*range(1, 50_001), 2**20 + 1, 3**13 + 1, 5**9 - 1, 10**9 + 7]:
        assert _next_fast_len(n) == next_fast_len(n, True), n


def check_both_directions(y, l, rng):
    """Forward pass and adjoint of ``_correlator(y, l)`` against exactly rounded sums.

    Normwise error bound of an FFT convolution: eps log2(size) |y| |v|.
    Each direction is checked at 25 spread outputs and at the ends of
    every block within reach of them.
    """
    n = y.size
    m = n - l + 1
    correlate = _correlator(y, l)
    size = block_size(n, l)
    step = size - l + 1
    scale = np.finfo(float).eps * math.log2(size) * np.linalg.norm(y)

    v = rng.standard_normal(l)
    got = correlate(v)
    assert got.shape == (m,)
    edges = [i for k in range(1, -(-m // step)) for i in (k * step - 1, k * step)]
    for i in sorted({*np.linspace(0, m - 1, 25).astype(int), *edges[:8], *edges[-8:]}):
        assert abs(got[i] - math.fsum(y[i : i + l] * v)) <= scale * np.linalg.norm(v)

    u = rng.standard_normal(m)
    got = correlate(u)
    assert got.shape == (l,)
    for j in np.unique(np.linspace(0, l - 1, 25).astype(int)):
        assert abs(got[j] - math.fsum(y[j : j + m] * u)) <= scale * np.linalg.norm(u)


class TestCorrelator:
    """The block (overlap-save) correlation engine against exactly rounded sums."""

    # At l = 2 and l = 100 the record spans many blocks; at l = N/2 it is one
    # block, padded to 8192 or 20480 points when N is the prime 8191 or 20479.
    @pytest.mark.parametrize("n", [8191, 8192, 20479, 20480])
    def test_matches_exact_sums(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal(n)
        for l in (2, 100, n // 2):
            check_both_directions(y, l, rng)

    # l = 100 gives blocks of 800 points that hold 701 windows each.
    @pytest.mark.parametrize("windows", [12 * 701, 12 * 701 + 1])
    def test_block_boundaries(self, windows):
        # 12 full blocks exactly, and 12 full blocks plus one holding one window.
        assert block_size(windows + 99, 100) - 99 == 701
        rng = np.random.default_rng(windows)
        check_both_directions(rng.standard_normal(windows + 99), 100, rng)

    # Filters long enough for one block: MED at l = N/2, and the autocorrelation's
    # zero-padded record, whose l is the vector's length.
    @pytest.mark.parametrize("n, l", [(4096, 2048), (8191, 4095), (8192, 4096),
                                      (20479, 10239), (20480, 4096), (2 * 1000 - 1, 1000)])
    def test_one_block_is_the_whole_record_transform(self, n, l):
        assert block_size(n, l) == next_fast_len(n, True)
        rng = np.random.default_rng(n + l)
        y = rng.standard_normal(n)
        correlate = _correlator(y, l)
        size = next_fast_len(n, True)
        spectrum = rfft(y, size)
        for v in (rng.standard_normal(l), rng.standard_normal(n - l + 1)):
            want = irfft(np.multiply(spectrum, rfft(v[::-1], size)), size)[v.size - 1 : n]
            assert np.array_equal(correlate(v), want)


class TestScipyReference:
    """Envelope and autocorrelation give scipy.signal's arrays bit for bit.

    The package transforms through ``numpy.fft``, so this pins numpy's
    pocketfft to scipy's: the same C++ pocketfft in numpy 2 and scipy, with
    the envelope's spectrum taken by ``rfft``, as scipy takes it.

    Lengths above 16384 give spectra large enough for numpy to reuse a
    temporary factor of a product in place, which can swap the factors;
    numpy's complex product is not symmetric bit for bit.
    """

    @pytest.mark.parametrize("n", [101, 8192, 20479, 20480])
    def test_bit_identical(self, n):
        x = np.random.default_rng(n).standard_normal(n) + 3.0
        env = hilbert_envelope(make_signal(x)).samples
        assert np.array_equal(env, np.abs(scipy_signal.hilbert(x)))
        xc = x - x.mean()
        full = scipy_signal.fftconvolve(xc, xc[::-1], mode="full")
        for max_lag in (0, 1, 100, n // 3, n - 1):
            want = full[n - 1 : n + max_lag] / full[n - 1]
            want[0] = 1.0
            assert np.array_equal(autocorrelation(x, max_lag), want)


class TestHilbertEnvelope:
    def test_pure_cosine_amplitude(self):
        fs = 8000.0
        t = np.arange(4096) / fs
        sig = Signal(2.0 * np.cos(2 * np.pi * 500.0 * t), fs)
        env = hilbert_envelope(sig).samples
        margin = len(env) // 20
        interior = env[margin:-margin]
        assert np.max(np.abs(interior - 2.0)) < 0.02

    def test_zero_signal(self):
        env = hilbert_envelope(make_signal(np.zeros(64))).samples
        assert np.allclose(env, 0.0)

    def test_am_tone_recovers_modulation(self):
        fs = 8000.0
        t = np.arange(8192) / fs
        modulation = 1.0 + 0.5 * np.cos(2 * np.pi * 10.0 * t)
        sig = Signal(modulation * np.cos(2 * np.pi * 1000.0 * t), fs)
        env = hilbert_envelope(sig).samples
        margin = len(env) // 20
        err = env[margin:-margin] - modulation[margin:-margin]
        rms_err = np.sqrt(np.mean(err**2))
        rms_ref = np.sqrt(np.mean(modulation[margin:-margin] ** 2))
        assert rms_err / rms_ref < 0.02

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        env = hilbert_envelope(make_signal(rng.standard_normal(512))).samples
        assert np.all(env >= 0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            hilbert_envelope(make_signal([1.0, 2.0, 3.0]))

    def test_sample_rate_preserved(self):
        sig = make_signal(np.sin(np.arange(100.0)), fs=1234.0)
        assert hilbert_envelope(sig).sample_rate_hz == 1234.0


class TestAutocorrelation:
    def test_impulse_train_period(self):
        period = 50
        x = np.zeros(period * 10)
        x[::period] = 1.0
        acf = autocorrelation(x, 3 * period)
        assert acf[period] > 0.8
        assert np.argmax(acf[2:]) + 2 == period

    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(11)
        acf = autocorrelation(rng.standard_normal(256), 32)
        assert acf.shape == (33,)
        assert acf[0] == 1.0

    def test_white_noise_low_correlation(self):
        rng = np.random.default_rng(123)
        acf = autocorrelation(rng.standard_normal(4096), 100)
        assert np.max(np.abs(acf[1:])) < 0.1

    def test_bounded_by_one(self):
        rng = np.random.default_rng(5)
        x = np.cumsum(rng.standard_normal(2048))  # strongly correlated
        acf = autocorrelation(x, 500)
        assert np.all(np.abs(acf) <= 1.0 + 1e-9)

    def test_constant_input_degenerate(self):
        with pytest.raises(DegenerateInputError):
            autocorrelation(np.full(100, 3.0), 10)

    def test_max_lag_bounds(self):
        with pytest.raises(ValueError):
            autocorrelation(np.arange(10.0), 10)


class TestEnvelopeSpectrum:
    def test_impulse_train_with_resonance(self):
        fs = 20000.0
        n = 16384
        fault_hz = 100.0
        spikes = np.zeros(n)
        spikes[:: int(fs / fault_hz)] = 1.0
        t_k = np.arange(200) / fs
        kernel = np.exp(-800.0 * t_k) * np.sin(2 * np.pi * 3000.0 * t_k)
        y = np.convolve(spikes, kernel)[:n]
        spec = envelope_spectrum(Signal(y, fs))
        df = spec.frequencies_hz[1]
        assert abs(spec.peak_frequency() - fault_hz) <= df + 1e-9

    def test_constant_signal_flat(self):
        spec = envelope_spectrum(make_signal(np.full(512, 4.0)))
        assert np.all(spec.magnitudes[1:] < 1e-12)

    def test_spectrum_axis_invariants(self):
        rng = np.random.default_rng(17)
        spec = envelope_spectrum(make_signal(rng.standard_normal(1000), fs=2000.0))
        assert spec.frequencies_hz[0] == 0.0
        assert np.all(np.diff(spec.frequencies_hz) > 0)
        assert spec.frequencies_hz[-1] <= 1000.0 + 1e-9
        assert np.all(spec.magnitudes >= 0)
        assert spec.frequencies_hz[1] == pytest.approx(2000.0 / 1000)

    def test_parseval_internal_transform(self):
        # The frequency transform behind the spectrum must conserve energy.
        rng = np.random.default_rng(29)
        x = rng.standard_normal(20480)
        spectrum = np.fft.fft(x)
        energy_time = np.sum(x * x)
        energy_freq = np.sum(np.abs(spectrum) ** 2) / x.size
        assert abs(energy_time - energy_freq) <= 1e-9 * energy_time
