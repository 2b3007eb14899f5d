"""Outlier sensitivity: the sparse filter vs the MED baseline.

A single 8-sigma spike is planted in unit Gaussian noise.  MED, given
full deconvolution capacity (l = N/2), collapses its output onto that
one sample; the l1/l2 sparse filter keeps a spread output.  The peak
concentration max|f| / ||f||_2 makes the difference quantitative.
"""

import numpy as np

from sparsevib import fit_med, fit_simplified_csf, gaussian_with_outlier

N = 8192


def concentration(f):
    return float(np.max(np.abs(f)) / np.linalg.norm(f))


def main():
    print(f"{'seed':>4} {'MED (l=N/2)':>12} {'CSF (l=100)':>12}")
    for seed in range(5):
        signal = gaussian_with_outlier(N, outlier_sigma=8.0, seed=seed)
        med = fit_med(signal, filter_length=N // 2)
        csf = fit_simplified_csf(signal, filter_length=100)
        print(f"{seed:>4} {concentration(med.filtered):>12.3f} "
              f"{concentration(csf.filtered):>12.3f}")
    print("\nMED rams everything into the outlier (concentration near 1);")
    print("the sparse filter refuses to chase it (concentration well below 0.5).")


if __name__ == "__main__":
    main()
