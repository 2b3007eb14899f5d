"""Command-line pipeline: simulate -> filter -> features -> assess / classify.

Every output file gets a JSON sidecar (or report) carrying the full
configuration, and the seed of whatever is drawn at random, so any result
can be regenerated from its own metadata.  Exit codes: 0 success,
1 validation failure, 2 I/O or parse failure.
"""

import argparse
import inspect
import json
import math
import os
import statistics
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, NumericalFailureError, SignalParseError, naming
from .features import (
    DEFAULT_BAND_FRACTION,
    FEATURE_NAMES,
    FaultFrequencies,
    extract_feature_vector,
)
from .health_models import SomConfig
from .ingest import RunToFailureFiles, SnapshotFiles, read_manifest, write_ims_file
from .pipeline import assess_sequence, classify_dataset, filter_signal
from .simulate import FaultSimConfig, simulate_bearing_fault
from .sparse_filter import STOP_REASONS

OUTPUT_DIR_ENV = "SPARSEVIB_OUTPUT_DIR"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _out_path(path_str):
    path = Path(path_str)
    if not path.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _write_sidecar(path, payload):
    _write_json(Path(str(path) + ".json"), payload)


def _fault_block(faults):
    """The ``fault_frequencies_hz`` block of a report."""
    return {"bpfo": faults.bpfo_hz, "bpfi": faults.bpfi_hz, "bsf": faults.bsf_hz}


def _json_dict(items):
    """``asdict`` factory for sidecars: JSON has no infinity, so a noiseless ``snr_db`` is null."""
    return {k: None if isinstance(v, float) and math.isinf(v) else v for k, v in items}


def _config_from_args(cls, args, **fixed):
    """A ``cls`` from the parsed flags whose dest names one of its fields, then ``fixed``."""
    names = {f.name for f in fields(cls)}
    return cls(**{**{k: v for k, v in vars(args).items() if k in names}, **fixed})


# Flags that set a config field: flag -> (field, further argparse keywords).
# The flag's dest is the field's name and its default the field's value in
# the config it is registered from, so each default is stated only there.
_FIELD_FLAGS = {
    "--fault": ("fault_components", {"type": lambda text: tuple(filter(None, text.split(","))),
                                     "help": "comma list from {outer,inner,roller}; empty = normal"}),
    "--snr-db": ("snr_db", {"help": "signal-to-noise ratio, dB, within +-3000; inf for a noiseless signal"}),
    "--n-samples": ("n_samples", {}),
    "--sample-rate": ("sample_rate_hz", {}),
    "--resonance-hz": ("resonance_hz", {}),
    "--damping-rate": ("damping_rate", {}),
    "--shaft-hz": ("shaft_hz", {}),
    "--outer-hz": ("outer_fault_hz", {}),
    "--inner-hz": ("inner_fault_hz", {}),
    "--roller-hz": ("roller_fault_hz", {}),
    "--jitter": ("period_jitter_fraction", {"help": "period jitter fraction"}),
    "--som-epochs": ("epochs", {}),
    "--seed": ("seed", {}),
}


def _add_field_flags(parser, config, *flags):
    for flag in flags:
        name, kwargs = _FIELD_FLAGS[flag]
        default = getattr(config, name)
        parser.add_argument(flag, dest=name, default=default, **{"type": type(default), **kwargs})


def _add_param_flags(parser, func, flags):
    """Flags for parameters of ``func``: each dest is the parameter, its default the parameter's."""
    params = inspect.signature(func).parameters
    for flag, name in flags.items():
        default = params[name].default
        parser.add_argument(flag, dest=name, type=type(default), default=default)


def _fit_summary(fits):
    """The ``filter_fits`` block of a report: how the sparse-filter fits went, per snapshot."""
    iterations = [fit.iterations for fit in fits]
    return {
        "count": len(fits),
        "converged": sum(fit.converged for fit in fits),
        "iterations": {"min": min(iterations), "median": statistics.median(iterations),
                       "max": max(iterations)},
        "not_converged": [i for i, fit in enumerate(fits, start=1) if not fit.converged],
        "stops": {stop: sum(fit.stop == stop for fit in fits) for stop in STOP_REASONS},
        "initial_cost": [fit.initial_cost for fit in fits],
        "final_cost": [fit.final_cost for fit in fits],
    }


def _add_fault_freq_flags(parser):
    """The ``FaultFrequencies`` flags, each required, and ``--sample-rate``."""
    parser.add_argument("--bpfo", dest="bpfo_hz", type=float, required=True,
                        help="outer-race defect frequency, Hz")
    parser.add_argument("--bpfi", dest="bpfi_hz", type=float, required=True,
                        help="inner-race defect frequency, Hz")
    parser.add_argument("--bsf", dest="bsf_hz", type=float, required=True,
                        help="roller defect frequency, Hz")
    _add_sample_rate_flag(parser)  # each defect period is searched at fs / f lags


def _add_sample_rate_flag(parser):
    parser.add_argument("--sample-rate", dest="sample_rate_hz", type=float,
                        help="Hz; without it each file's <name>.json sidecar gives it")


def cmd_simulate(args):
    config = _config_from_args(FaultSimConfig, args)
    signal = simulate_bearing_fault(config)
    out = _out_path(args.output)
    write_ims_file(out, signal.samples[:, None], header="sample")
    _write_sidecar(out, {
        "kind": "simulate",
        "config": asdict(config, dict_factory=_json_dict),
        "seed": config.seed,
        "sample_rate_hz": config.sample_rate_hz,
        "n_samples_written": len(signal),
    })
    print(f"wrote {out} ({len(signal)} samples) + sidecar")
    return EXIT_OK


def cmd_filter(args):
    signal = SnapshotFiles([args.input], 0, args.sample_rate_hz)[0]
    t0 = time.perf_counter()
    with naming(Path(args.input).name):
        result = filter_signal(signal, args.filter_length, method=args.method)
    wall = time.perf_counter() - t0
    out = _out_path(args.output)
    write_ims_file(out, result.filtered[:, None], header="sample")
    report = {
        "kind": "filter",
        "method": args.method,
        "config": {"filter_length": args.filter_length},
        "sample_rate_hz": signal.sample_rate_hz,
        "input_samples": len(signal),
        "output_samples": int(result.filtered.size),
        "w": result.w.tolist(),
        "cost_history": result.cost_history.tolist(),
        "converged": result.converged,
        "iterations": result.iterations,
        "wall_time_s": wall,
    }
    if result.stop is not None:  # MED reports no stop reason
        report["stop"] = result.stop
    _write_sidecar(out, report)
    print(f"{args.method}: cost {report['cost_history'][0]:.4f} -> {report['cost_history'][-1]:.4f} "
          f"in {result.iterations} iterations ({wall:.2f} s), converged={result.converged}")
    print(f"wrote {out} + report sidecar")
    return EXIT_OK


def cmd_features(args):
    faults = _config_from_args(FaultFrequencies, args)
    signal = SnapshotFiles([args.input], 0, args.sample_rate_hz)[0]
    with naming(Path(args.input).name):
        vector = extract_feature_vector(signal, faults)
    values = dict(zip(FEATURE_NAMES, vector.as_array().tolist()))
    payload = {
        "kind": "features",
        "fault_frequencies_hz": _fault_block(faults),
        "band_fraction": DEFAULT_BAND_FRACTION,
        "sample_rate_hz": signal.sample_rate_hz,
        "features": values,
    }
    out = _out_path(args.output)
    _write_json(out, payload)
    print(" ".join(f"{k}={values[k]:.4g}" for k in FEATURE_NAMES))
    print(f"wrote {out}")
    return EXIT_OK


def _som_config_from_args(args):
    try:
        rows, cols = (int(t) for t in args.som_grid.lower().split("x"))
    except ValueError:
        raise ValueError("--som-grid expects ROWSxCOLS, e.g. 4x4") from None
    return _config_from_args(SomConfig, args, grid_rows=rows, grid_cols=cols)


def _assess_branch_block(branch):
    """A branch's block of the assess report; the SOM left out its zero-variance features."""
    model = branch.model
    return {"threshold": branch.threshold, "alarm_index": branch.alarm_index,
            "dropped_columns": [model.feature_names[i] for i in model.dropped_columns]}


def cmd_assess(args):
    faults = _config_from_args(FaultFrequencies, args)
    signals = RunToFailureFiles(args.input_dir, args.channel, args.sample_rate_hz)
    som_config = _som_config_from_args(args)
    report = assess_sequence(signals, faults, args.filter_length, som_config, n_train=args.n_train)

    out = _out_path(args.output)
    with open(out, "w") as fh:
        fh.write("file_index,mqe_raw,mqe_filtered\n")
        for i, (mr, mf) in enumerate(zip(report.raw.mqe, report.filtered.mqe), start=1):
            fh.write(f"{i},{mr:.17g},{mf:.17g}\n")
    payload = {
        "kind": "assess",
        "source": {"input_dir": str(args.input_dir), "channel": args.channel,
                   "sample_rate_hz": args.sample_rate_hz, "parse_errors": report.parse_errors},
        "seed": args.seed,
        "n_train": report.n_train,
        "band_fraction": DEFAULT_BAND_FRACTION,
        "fault_frequencies_hz": _fault_block(faults),
        "csf_config": {"filter_length": args.filter_length},
        "som": asdict(som_config),
        "raw": _assess_branch_block(report.raw),
        "filtered": _assess_branch_block(report.filtered),
        "filter_fits": _fit_summary(report.fits),
    }
    _write_sidecar(out, payload)
    if args.save_models:
        prefix = _out_path(args.save_models)
        report.raw.model.save(f"{prefix}_raw.json")
        report.filtered.model.save(f"{prefix}_filtered.json")
    print(f"alarm (raw): {report.raw.alarm_index}  alarm (filtered): {report.filtered.alarm_index}")
    print(f"wrote {out} + report sidecar")
    return EXIT_OK


def cmd_classify(args):
    faults = _config_from_args(FaultFrequencies, args)
    dataset = read_manifest(args.manifest, args.sample_rate_hz)
    report = classify_dataset(dataset, faults, args.filter_length,
                              n_restarts=args.n_restarts, seed=args.seed)

    outdir = _out_path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, branch in (("raw", report.raw), ("filtered", report.filtered)):
        with open(outdir / f"scores_{name}.csv", "w") as fh:
            fh.write("index,label,pc1,pc2,cluster\n")
            for i, (lab, row, cl) in enumerate(
                zip(report.labels, branch.scores, branch.kmeans_labels)
            ):
                fh.write(f"{i},{lab},{row[0]:.17g},{row[1]:.17g},{int(cl)}\n")
        np.savetxt(outdir / f"vat_{name}.csv",
                   branch.vat.reordered_dissimilarity, delimiter=",", fmt="%.17g")
    payload = {
        "kind": "classify",
        "source": {"manifest": str(args.manifest), "sample_rate_hz": args.sample_rate_hz},
        "seed": args.seed,
        "band_fraction": DEFAULT_BAND_FRACTION,
        "fault_frequencies_hz": _fault_block(faults),
        "csf_config": {"filter_length": args.filter_length},
        "kmeans_restarts": args.n_restarts,
        "raw": {"purity": report.raw.purity,
                "explained_variance": report.raw.explained_variance_fractions.tolist(),
                "vat_order": report.raw.vat.order.tolist()},
        "filtered": {"purity": report.filtered.purity,
                     "explained_variance": report.filtered.explained_variance_fractions.tolist(),
                     "vat_order": report.filtered.vat.order.tolist()},
        "labels": report.labels,
        "filter_fits": _fit_summary(report.fits),
    }
    _write_json(outdir / "report.json", payload)
    print(f"purity raw={report.raw.purity:.3f} filtered={report.filtered.purity:.3f}")
    print(f"wrote {outdir}/scores_*.csv, vat_*.csv, report.json")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparsevib",
        description="Impulsive-signature enhancement and bearing health pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim, som = FaultSimConfig(), SomConfig()
    p = sub.add_parser("simulate", help="generate a synthetic bearing signal")
    _add_field_flags(p, sim, "--fault", "--snr-db", "--n-samples", "--sample-rate",
                     "--resonance-hz", "--damping-rate", "--shaft-hz", "--outer-hz", "--inner-hz",
                     "--roller-hz", "--jitter", "--seed")
    p.add_argument("-o", "--output", required=True, help="output CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("filter", help="run the sparse filter (or MED) on a signal file")
    p.add_argument("--input", required=True)
    _add_sample_rate_flag(p)
    p.add_argument("--method", choices=("csf", "med"), default="csf")
    _add_param_flags(p, filter_signal, {"--filter-length": "filter_length"})
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("features", help="extract the scale-invariant feature vector")
    p.add_argument("--input", required=True)
    _add_fault_freq_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("assess", help="SOM-MQE health assessment over a snapshot sequence")
    p.add_argument("--input-dir", required=True, help="directory of snapshot files")
    p.add_argument("--channel", type=int, required=True)
    _add_param_flags(p, assess_sequence, {"--n-train": "n_train",
                                          "--filter-length": "filter_length"})
    p.add_argument("--som-grid", default=f"{som.grid_rows}x{som.grid_cols}",
                   help="ROWSxCOLS (default %(default)s)")
    _add_field_flags(p, som, "--som-epochs", "--seed")
    _add_fault_freq_flags(p)
    p.add_argument("--save-models", default=None, help="prefix for saved SOM model JSON files")
    p.add_argument("-o", "--output", required=True, help="MQE series CSV path")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("classify", help="PCA + k-means + VAT on a labeled dataset")
    p.add_argument("--manifest", required=True, help="CSV manifest: path,label per row")
    _add_param_flags(p, classify_dataset, {"--restarts": "n_restarts",
                                           "--filter-length": "filter_length", "--seed": "seed"})
    _add_fault_freq_flags(p)
    p.add_argument("-o", "--output-dir", required=True)
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SignalParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, DegenerateInputError, NumericalFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
