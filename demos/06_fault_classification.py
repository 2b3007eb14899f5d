"""Eight failure modes, clustered: PCA scatter, k-means purity, VAT image.

Every combination of outer / inner / roller defects (plus the healthy
class) is simulated, pushed through both branches, and clustered.  The
VAT image is printed as ASCII shading; contiguous dark blocks on the
diagonal mean the classes separate cleanly.
"""

import numpy as np

from sparsevib import (
    FaultFrequencies,
    FaultSimConfig,
    classify_dataset,
    make_fault_taxonomy_dataset,
)

FAULTS = FaultFrequencies(bpfo_hz=100.0, bpfi_hz=160.0, bsf_hz=70.0)
SHADES = " .:-=+*#%@"


def ascii_vat(matrix, cells=40):
    n = matrix.shape[0]
    step = max(n // cells, 1)
    small = matrix[::step, ::step]
    top = small.max() or 1.0
    lines = []
    for row in small:
        # dark blocks = small distances, so invert
        lines.append("".join(SHADES[int((1 - v / top) * (len(SHADES) - 1))] for v in row))
    return "\n".join(lines)


def main():
    base = FaultSimConfig(snr_db=-3.0, n_samples=8192, damping_rate=2000.0)
    dataset = make_fault_taxonomy_dataset(5, base, seed=0)
    report = classify_dataset(dataset, FAULTS, filter_length=100,
                              n_restarts=10, seed=0)

    print(f"k-means purity: raw {report.raw.purity:.3f}, "
          f"filtered {report.filtered.purity:.3f}")
    labels = np.array(report.labels)
    ordered = labels[report.filtered.vat.order]
    print("filtered VAT label order:", "".join(l[1] for l in ordered))
    print("\nfiltered-branch VAT image (dark = similar):")
    print(ascii_vat(report.filtered.vat.reordered_dissimilarity))


if __name__ == "__main__":
    main()
