"""Synthetic bearing vibration with controlled faults, noise and seeds.

A fault component is an impulse train at the defect period (with a little
per-impulse jitter) convolved with a decaying structural resonance.
Inner-race and roller trains are amplitude-modulated by a rectified
cosine spanning one shaft revolution, which puts shaft-rate sidebands
around the defect harmonics in the envelope spectrum.  Gaussian noise is
added at an exact requested signal-to-noise ratio.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .core_signal import Signal, _next_fast_len
from .errors import _require_whole

__all__ = [
    "FaultSimConfig",
    "LabeledDataset",
    "TAXONOMY",
    "simulate_bearing_fault",
    "gaussian_with_outlier",
    "make_fault_taxonomy_dataset",
    "make_degradation_sequence",
]

COMPONENT_ORDER = ("outer", "inner", "roller")

# Failure-mode taxonomy: which fault components each class combines.
TAXONOMY = {
    "F1": (),
    "F2": ("outer",),
    "F3": ("inner",),
    "F4": ("roller",),
    "F5": ("inner", "roller"),
    "F6": ("outer", "inner"),
    "F7": ("outer", "roller"),
    "F8": ("outer", "inner", "roller"),
}


@dataclass(frozen=True)
class FaultSimConfig:
    """Parameters of one synthetic vibration snapshot.

    ``snr_db`` may be ``math.inf`` for a noiseless signal.  An empty
    ``fault_components`` tuple produces pure unit-variance noise.
    """

    fault_components: tuple = ()
    outer_fault_hz: float = 100.0
    inner_fault_hz: float = 160.0
    roller_fault_hz: float = 70.0
    resonance_hz: float = 3000.0
    damping_rate: float = 800.0
    shaft_hz: float = 33.3
    snr_db: float = -8.0
    n_samples: int = 20480
    sample_rate_hz: float = 20000.0
    period_jitter_fraction: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name in self.fault_components:
            if name not in COMPONENT_ORDER:
                raise ValueError(f"unknown fault component {name!r}")
        if len(set(self.fault_components)) != len(self.fault_components):
            raise ValueError("fault_components must not repeat")
        _require_whole(n_samples=self.n_samples, seed=self.seed)
        if self.n_samples < 1024:
            raise ValueError("n_samples must be at least 1024")
        if not (0 < self.sample_rate_hz < math.inf):
            raise ValueError("sample_rate_hz must be positive and finite")
        if not (0 < self.resonance_hz < self.sample_rate_hz / 2):
            raise ValueError("resonance_hz must lie below Nyquist")
        if not (0 < self.damping_rate < math.inf):
            raise ValueError("damping_rate must be positive and finite")
        if not (0 < self.shaft_hz < math.inf):
            raise ValueError("shaft_hz must be positive and finite")
        if not (self.snr_db > -math.inf):  # +inf is a noiseless signal
            raise ValueError("snr_db must be a number or +inf")
        if not (0 <= self.period_jitter_fraction <= 0.05):
            raise ValueError("period_jitter_fraction must lie in [0, 0.05]")
        for name in self.fault_components:
            if not (0 < self.fault_hz(name) < self.resonance_hz):
                raise ValueError(f"{name} fault frequency must lie in (0, resonance_hz)")

    def fault_hz(self, component):
        return {
            "outer": self.outer_fault_hz,
            "inner": self.inner_fault_hz,
            "roller": self.roller_fault_hz,
        }[component]


@dataclass
class LabeledDataset:
    """Signals with parallel class labels (taxonomy keys F1..F8)."""

    signals: list
    labels: list


def _resonance_kernel(config):
    """Unit decaying resonance exp(-beta t) sin(2 pi f_r t), truncated at 0.01%."""
    t_end = -math.log(1e-4) / config.damping_rate
    n_kernel = max(int(math.ceil(t_end * config.sample_rate_hz)), 8)
    t = np.arange(n_kernel) / config.sample_rate_hz
    return np.exp(-config.damping_rate * t) * np.sin(2 * math.pi * config.resonance_hz * t)


def _impulse_train(rng, config, fault_hz):
    """Spike array with unit impulses at the jittered defect period."""
    n = config.n_samples
    fs = config.sample_rate_hz
    period = fs / fault_hz
    jitter = config.period_jitter_fraction
    spikes = np.zeros(n)
    pos = 0.0
    while True:
        pos += period * (1.0 + jitter * rng.uniform(-1.0, 1.0))
        idx = int(round(pos))
        if idx >= n:
            break
        spikes[idx] = 1.0
    return spikes


def _shaft_modulation(config):
    # Rectified cosine whose period is one shaft revolution, so the
    # modulation fundamental sits exactly at shaft_hz.
    t = np.arange(config.n_samples) / config.sample_rate_hz
    return np.abs(np.cos(math.pi * config.shaft_hz * t))


def _clean_signal(rng, config):
    """Sum of fault components; rng draws happen in canonical component order.

    Components are rescaled to equal RMS power before summing, so a
    modulated or slow train contributes as much energy to a multi-fault
    mix as an unmodulated fast one.
    """
    n = config.n_samples
    clean = np.zeros(n)
    kernel = _resonance_kernel(config)
    size = _next_fast_len(n + kernel.size - 1)
    kernel_spectrum = np.fft.rfft(kernel, size)
    modulation = None
    for name in COMPONENT_ORDER:
        if name not in config.fault_components:
            continue
        spikes = _impulse_train(rng, config, config.fault_hz(name))
        component = np.fft.irfft(np.fft.rfft(spikes, size) * kernel_spectrum, size)[:n]
        if name in ("inner", "roller"):
            if modulation is None:
                modulation = _shaft_modulation(config)
            component = component * modulation
        rms = math.sqrt(np.mean(component * component))
        if rms > 0.0:
            component = component / rms
        clean += component
    return clean


def _scaled_noise(rng, n, target_power):
    """Gaussian draw rescaled to an exact mean-square power."""
    draw = rng.standard_normal(n)
    rms = math.sqrt(np.mean(draw * draw))
    return draw * (math.sqrt(target_power) / rms)


def simulate_bearing_fault(config):
    """Generate one synthetic snapshot; deterministic for a given config + seed.

    The realized clean/noise power ratio matches ``snr_db`` exactly (the
    noise draw is rescaled to its target power).  With no fault components
    the output is pure unit-power Gaussian noise.
    """
    rng = np.random.default_rng(config.seed)
    clean = _clean_signal(rng, config)
    clean_power = float(np.mean(clean * clean))
    n = config.n_samples
    if clean_power == 0.0:
        noise = _scaled_noise(rng, n, 1.0)
    elif math.isinf(config.snr_db):
        noise = np.zeros(n)
    else:
        noise = _scaled_noise(rng, n, clean_power / 10.0 ** (config.snr_db / 10.0))
    return Signal(clean + noise, config.sample_rate_hz)


def gaussian_with_outlier(n, outlier_sigma, seed, sample_rate_hz=20000.0):
    """Unit-variance Gaussian noise with one ``outlier_sigma`` spike at ``n // 2``."""
    if n < 1024:
        raise ValueError("n must be at least 1024")
    if outlier_sigma < 3:
        raise ValueError("outlier_sigma must be at least 3")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x[n // 2] = float(outlier_sigma)
    return Signal(x, sample_rate_hz)


def _derived_seed(*parts):
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def make_fault_taxonomy_dataset(n_per_class, base_config, seed=0):
    """Simulate ``n_per_class`` snapshots for each of the 8 failure modes.

    Every signal gets its own seed derived from ``seed`` and its position,
    so the dataset is reproducible and all signals are distinct.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be at least 1")
    signals, labels = [], []
    for class_idx, (label, components) in enumerate(TAXONOMY.items()):
        for i in range(n_per_class):
            config = replace(
                base_config, fault_components=components, seed=_derived_seed(seed, class_idx, i)
            )
            signals.append(simulate_bearing_fault(config))
            labels.append(label)
    return LabeledDataset(signals=signals, labels=labels)


def make_degradation_sequence(n_files, onset_index, base_config):
    """Run-to-failure analogue: healthy files, then a linearly growing outer fault.

    Files are numbered 1..n_files.  Files before ``onset_index`` contain
    noise only; from ``onset_index`` on, the outer-race impulse amplitude
    ramps linearly from 0 to full scale at file ``n_files``.  The noise
    floor is constant across the sequence (set from the full-scale fault
    power and ``base_config.snr_db``).
    """
    if not (0 < onset_index < n_files):
        raise ValueError("require 0 < onset_index < n_files")

    reference = replace(base_config, fault_components=("outer",), period_jitter_fraction=0.0)
    rng_ref = np.random.default_rng(reference.seed)
    full_scale = _clean_signal(rng_ref, reference)
    full_power = float(np.mean(full_scale * full_scale))
    if math.isinf(base_config.snr_db):
        noise_power = 0.0
    else:
        noise_power = full_power / 10.0 ** (base_config.snr_db / 10.0)

    signals = []
    for k in range(1, n_files + 1):
        cfg = replace(
            base_config, fault_components=("outer",), seed=_derived_seed(base_config.seed, k)
        )
        rng = np.random.default_rng(cfg.seed)
        amplitude = 0.0
        if k >= onset_index:
            amplitude = (k - onset_index) / (n_files - onset_index)
        clean = amplitude * _clean_signal(rng, cfg)
        if noise_power > 0.0:
            noise = _scaled_noise(rng, cfg.n_samples, noise_power)
        else:
            noise = np.zeros(cfg.n_samples)
        signals.append(Signal(clean + noise, cfg.sample_rate_hz))
    return signals
