"""Outer-race fault buried at -8 dB: envelope spectrum before and after.

The defect line at 100 Hz and its harmonics are compared against the
median spectral level, with and without the sparse filter.
"""

import numpy as np

from sparsevib import (
    FaultSimConfig,
    Signal,
    envelope_spectrum,
    fit_simplified_csf,
    simulate_bearing_fault,
)

FAULT_HZ = 100.0


def harmonic_table(spec, fault_hz, n_harmonics=3):
    mags = spec.magnitudes
    median = np.median(mags[1:])
    df = spec.frequencies_hz[1] - spec.frequencies_hz[0]
    rows = []
    for k in range(1, n_harmonics + 1):
        center = int(round(k * fault_hz / df))
        peak = mags[max(center - 1, 1) : center + 2].max()
        rows.append((k * fault_hz, peak / median))
    return rows, spec.peak_frequency()


def main():
    config = FaultSimConfig(
        fault_components=("outer",), snr_db=-8.0, damping_rate=2000.0, seed=0
    )
    signal = simulate_bearing_fault(config)
    fit = fit_simplified_csf(signal, filter_length=100)
    filtered = Signal(fit.filtered, signal.sample_rate_hz)

    for name, sig in (("raw", signal), ("filtered", filtered)):
        rows, peak = harmonic_table(envelope_spectrum(sig), FAULT_HZ)
        print(f"\n{name} signal: dominant envelope line at {peak:.1f} Hz")
        for hz, ratio in rows:
            print(f"  {hz:6.0f} Hz harmonic: {ratio:8.1f} x median level")
    print(f"\nfilter cost went {fit.cost_history[0]:.1f} -> {fit.cost_history[-1]:.1f} "
          f"in {fit.iterations} iterations")


if __name__ == "__main__":
    main()
