"""Where the sparse-filter (CSF) fit may stop: each looser stop's move against the rounding floor.

    python studies/stop_floor.py [-o studies/STOP_FLOOR.json]

A filtered feature is determined only up to the spread that rounding-level
changes to the input give it: fits of ``y * (1 + k * 2**-50)`` land on
measurably different minima.  Refining a fit below that spread buys
nothing, so the plateau stop of the fit's L-BFGS solver
(``sparse_filter._lbfgs``: the relative-reduction test of L-BFGS-B's
``factr``, on ``sparse_filter._PLATEAU_FTOL``) may be loosened as long as
its move on every filtered feature stays inside the spread.  Re-run the
study whenever the solver changes, since the spread and the moves are
its own.

Two families of held-out signals (seeds 100 and above, none used by the
acceptance suite) are each fitted
  - at the reference stop ``REFERENCE_FTOL``;
  - at that stop on the eight perturbations ``y * (1 + k * 2**-50)``,
    k = 1..8, whose feature moves from the reference fit are the spread;
  - at every stop of ``GRID``, whose feature moves from the reference fit
    are that stop's move.
For each of the five filtered features the JSON holds the p50, p95 and
max of the spread (pooled over signals and perturbations) and of each
stop's move, the iteration totals and stop reasons, and the strict
criterion-08 outcome on held-out dataset seeds at the reference stop and
every grid stop.  ``chosen_ftol`` is the largest grid stop whose move is
no larger than the spread at p95 and at max, on every feature of both
families; ``sparse_filter._PLATEAU_FTOL`` must equal it, which
``tests/test_sparse_filter.py`` checks.  A run takes about 4 minutes on one
CPU of a shared 2-core host.
"""

import argparse
import collections
import contextlib
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import environment  # noqa: E402  (perfbench/environment.py)
from sparsevib import (  # noqa: E402
    CsfConfig,
    FaultFrequencies,
    FaultSimConfig,
    Signal,
    classify_dataset,
    extract_feature_vector,
    make_degradation_sequence,
    make_fault_taxonomy_dataset,
    sparse_filter,
)
from sparsevib.features import FEATURE_NAMES  # noqa: E402

REFERENCE_FTOL = 1e-7  # the plateau stop every fit used before this study
GRID = (2e-7, 3e-7, 5e-7, 1e-6)
PERTURBATIONS = tuple(1.0 + k * 2.0**-50 for k in range(1, 9))
STATS = ("p50", "p95", "max")

FAULTS = FaultFrequencies(bpfo_hz=100.0, bpfi_hz=160.0, bsf_hz=70.0)
CONFIG = CsfConfig(filter_length=100)
# The shapes of the classify_taxonomy and assess_ims_run benchmark workloads.
TAXONOMY = {"seeds": [200, 201], "n_per_class": 5, "n_samples": 8192, "snr_db": -2.0,
            "damping_rate": 2000.0}
DEGRADATION = {"seed": 200, "n_files": 24, "onset": 11, "n_samples": 20480, "snr_db": 0.0,
               "damping_rate": 2000.0}
CRITERION_08_SEEDS = list(range(100, 112))


def _key(ftol):
    return f"{ftol:g}"


@contextlib.contextmanager
def plateau(ftol):
    """Fit with ``ftol`` as the plateau stop."""
    saved = sparse_filter._PLATEAU_FTOL
    sparse_filter._PLATEAU_FTOL = ftol
    try:
        yield
    finally:
        sparse_filter._PLATEAU_FTOL = saved


def taxonomy_signals():
    base = FaultSimConfig(snr_db=TAXONOMY["snr_db"], n_samples=TAXONOMY["n_samples"],
                          damping_rate=TAXONOMY["damping_rate"])
    return [signal for seed in TAXONOMY["seeds"]
            for signal in make_fault_taxonomy_dataset(TAXONOMY["n_per_class"], base, seed).signals]


def degradation_signals():
    base = FaultSimConfig(fault_components=("outer",), snr_db=DEGRADATION["snr_db"],
                          n_samples=DEGRADATION["n_samples"],
                          damping_rate=DEGRADATION["damping_rate"], seed=DEGRADATION["seed"])
    return make_degradation_sequence(DEGRADATION["n_files"], DEGRADATION["onset"], base)


def fit(signal, ftol):
    """The filtered features, iteration count and stop reason of one fit at ``ftol``."""
    with plateau(ftol):
        result = sparse_filter.fit_simplified_csf(signal, CONFIG)
    enhanced = Signal(result.filtered, signal.sample_rate_hz)
    return extract_feature_vector(enhanced, FAULTS).as_array(), result.iterations, result.stop


def summary(moves):
    """p50, p95 and max of each feature's absolute moves (rows: cases, columns: features)."""
    moves = np.abs(np.asarray(moves))
    return {name: dict(zip(STATS, (float(np.percentile(column, 50)),
                                   float(np.percentile(column, 95)), float(column.max()))))
            for name, column in zip(FEATURE_NAMES, moves.T)}


def inside(move, spread):
    """True when every feature's p95 and max move is no larger than the spread's."""
    return all(move[name][stat] <= spread[name][stat]
               for name in FEATURE_NAMES for stat in ("p95", "max"))


def study_family(signals):
    spread = []
    moves = {ftol: [] for ftol in GRID}
    iterations = {ftol: 0 for ftol in (REFERENCE_FTOL, *GRID)}
    stops = {ftol: collections.Counter() for ftol in (REFERENCE_FTOL, *GRID)}
    for signal in signals:
        features, its, stop = fit(signal, REFERENCE_FTOL)
        iterations[REFERENCE_FTOL] += its
        stops[REFERENCE_FTOL][stop] += 1
        for factor in PERTURBATIONS:
            perturbed = Signal(signal.samples * factor, signal.sample_rate_hz)
            spread.append(fit(perturbed, REFERENCE_FTOL)[0] - features)
        for ftol in GRID:
            moved, its, stop = fit(signal, ftol)
            moves[ftol].append(moved - features)
            iterations[ftol] += its
            stops[ftol][stop] += 1
    spread = summary(spread)
    moves = {ftol: summary(rows) for ftol, rows in moves.items()}
    return {
        "count": len(signals),
        "iterations": {_key(f): n for f, n in iterations.items()},
        "stops": {_key(f): dict(sorted(s.items())) for f, s in stops.items()},
        "spread": spread,
        "moves": {_key(f): m for f, m in moves.items()},
        "inside": {_key(f): inside(m, spread) for f, m in moves.items()},
    }


def criterion_08(ftol):
    """Criterion 08's strict verdict on each held-out dataset seed, as in tests/test_acceptance.py."""
    base = FaultSimConfig(snr_db=-2.0, n_samples=8192, damping_rate=2000.0)
    per_seed, iterations = [], 0
    with plateau(ftol):
        for seed in CRITERION_08_SEEDS:
            dataset = make_fault_taxonomy_dataset(10, base, seed=seed)
            report = classify_dataset(dataset, FAULTS, CONFIG, n_restarts=10, seed=0)
            ordered = np.array(report.labels)[report.filtered.vat.order]
            blocks = int(1 + np.sum(ordered[1:] != ordered[:-1]))
            iterations += sum(fit.iterations for fit in report.fits)
            per_seed.append({"seed": seed, "filtered_purity": report.filtered.purity,
                             "raw_purity": report.raw.purity, "vat_blocks": blocks,
                             "passed": bool(report.filtered.purity == 1.0
                                            and report.raw.purity < 1.0 and blocks == 8)})
    return {"passed": sum(s["passed"] for s in per_seed), "iterations": iterations,
            "per_seed": per_seed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=str(Path(__file__).with_name("STOP_FLOOR.json")))
    args = parser.parse_args(argv)

    start = time.perf_counter()
    families = {"taxonomy": {"signals": TAXONOMY, **study_family(taxonomy_signals())},
                "degradation": {"signals": DEGRADATION, **study_family(degradation_signals())}}
    passing = [ftol for ftol in GRID
               if all(family["inside"][_key(ftol)] for family in families.values())]
    chosen = max(passing, default=REFERENCE_FTOL)
    result = {
        "reference_ftol": REFERENCE_FTOL,
        "grid": list(GRID),
        "perturbations": "y * (1 + k * 2**-50), k = 1..8",
        "rule": "largest grid stop whose move is no larger than the spread at p95 and at max "
                "on every filtered feature of both families",
        "chosen_ftol": chosen,
        "filter_length": CONFIG.filter_length,
        "families": families,
        "criterion_08": {"seeds": CRITERION_08_SEEDS,
                         **{_key(f): criterion_08(f) for f in (REFERENCE_FTOL, *GRID)}},
    }
    result["elapsed_s"] = round(time.perf_counter() - start, 1)
    result["environment"] = environment.describe({"study": "stop_floor",
                                                  "filter_length": CONFIG.filter_length})
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    for name, family in families.items():
        print(name, {f: (family["iterations"][f], family["inside"].get(f))
                     for f in family["iterations"]})
    print("criterion 08 passes:", {f: result["criterion_08"][_key(f)]["passed"]
                                   for f in (REFERENCE_FTOL, *GRID)})
    print(f"chosen ftol {chosen:g}; wrote {args.output} in {result['elapsed_s']} s")


if __name__ == "__main__":
    main()
