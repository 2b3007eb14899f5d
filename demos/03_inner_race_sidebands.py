"""Inner-race fault: defect line plus shaft-rate sidebands after filtering.

Inner-race impacts are amplitude-modulated once per shaft revolution as
the defect sweeps the load zone, so the enhanced envelope spectrum shows
the 160 Hz defect line flanked by sidebands at 160 +- 33.3 Hz.
"""

import numpy as np

from sparsevib import (
    FaultSimConfig,
    Signal,
    envelope_spectrum,
    fit_simplified_csf,
    simulate_bearing_fault,
)


def line_strength(spec, hz):
    mags = spec.magnitudes
    median = np.median(mags[1:])
    df = spec.frequencies_hz[1] - spec.frequencies_hz[0]
    center = int(round(hz / df))
    return mags[max(center - 1, 1) : center + 2].max() / median


def main():
    config = FaultSimConfig(
        fault_components=("inner",), snr_db=-8.0, n_samples=8192,
        damping_rate=2000.0, seed=0,
    )
    signal = simulate_bearing_fault(config)
    fit = fit_simplified_csf(signal, filter_length=100)
    spec = envelope_spectrum(Signal(fit.filtered, signal.sample_rate_hz))

    fault = config.inner_fault_hz
    shaft = config.shaft_hz
    print(f"dominant envelope line: {spec.peak_frequency():.1f} Hz (defect at {fault} Hz)")
    for label, hz in [
        ("lower sideband", fault - shaft),
        ("defect line   ", fault),
        ("upper sideband", fault + shaft),
    ]:
        print(f"  {label} {hz:7.1f} Hz: {line_strength(spec, hz):8.1f} x median")


if __name__ == "__main__":
    main()
