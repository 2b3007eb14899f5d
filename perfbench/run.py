"""Benchmark of the ``sparsevib`` CLI on one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up writes three input sets of the workload from the seed.  The timed
phase is a closed loop with one caller: it calls ``sparsevib.cli.main``
in-process, cycling through the input sets, each call starting when the
previous one returned, for about S seconds (at least one iteration),
and checks every iteration's outputs.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports per-layer metrics from a
traced run, plus a single-threaded BLAS baseline from a child process.
The last line of stdout is the result object; the full report, with its
environment block, is written to
``.perfbench_runs/<workload>-seed<N>-trace<T>/report.json``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import program

try:
    program.import_cli()
except program.ProgramMissing as exc:
    sys.exit(f"perfbench: cannot load the program: {exc}")

import environment  # noqa: E402  (these import sparsevib, found by import_cli)
import tracing  # noqa: E402
import workloads  # noqa: E402

RUNS_DIR = program.ROOT / ".perfbench_runs"

# Set-up is repeated and its median reported, so one slow repeat does not move it.
# Each repeat writes its own input set, from seed ``SETUP_REPEATS * seed + k``,
# and the timed loop cycles through the sets, so one run's wall time is
# not the cost of a single draw of the data.
SETUP_REPEATS = 3

IMPORT_PROBE = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import sparsevib.cli; print(time.perf_counter() - start)")

CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "snapshots_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "failed_fraction": "ratio",
    "sparse_filter.fit.calls": "count",
    "sparse_filter.fit.busy_s": "s",
    "sparse_filter.fit.ms_p50": "ms",
    "sparse_filter.fit.ms_tail": "ms",
    "sparse_filter.fit.ms_tail_pct": "%",
    "sparse_filter.fit.ms_samples": "count",
    "sparse_filter.fit.iterations": "count",
    "sparse_filter.fit.converged_ratio": "ratio",
    "sparse_filter.med.calls": "count",
    "sparse_filter.med.busy_s": "s",
    "sparse_filter.med.iterations": "count",
    "sparse_filter.med.converged_ratio": "ratio",
    "features.extract.calls": "count",
    "features.extract.busy_s": "s",
    "features.extract.self_s": "s",
    "core_signal.envelope.busy_s": "s",
    "core_signal.autocorrelation.busy_s": "s",
    "health_models.som_train.busy_s": "s",
    "health_models.som_mqe.busy_s": "s",
    "health_models.pca.busy_s": "s",
    "health_models.kmeans.busy_s": "s",
    "health_models.vat.busy_s": "s",
    "ingest.read.files": "count",
    "ingest.read.mb": "MiB",
    "ingest.read.busy_s": "s",
    "ingest.read.mb_per_s": "MiB/s",
    "ingest.write.busy_s": "s",
    "ingest.write.mb_per_s": "MiB/s",
    "simulate.busy_s": "s",
    "pipeline.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "single_thread.wall_s": "s",
    "single_thread.fit_iterations": "count",
    "single_thread.digest_match": "bool",
}

MIB = 2.0**20

# Layers reported by busy time alone.
BUSY_ONLY_LAYERS = ("core_signal.envelope", "core_signal.autocorrelation",
                    "health_models.som_train", "health_models.som_mqe", "health_models.pca",
                    "health_models.kmeans", "health_models.vat")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def import_seconds():
    """Time to import the CLI module in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(program.SRC)],
                          capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return float(done.stdout.split()[-1])


def input_seeds(seed):
    return [SETUP_REPEATS * seed + k for k in range(SETUP_REPEATS)]


def set_up(workload, seed, inputs, tracer=None):
    """Import the program and write one input set, per input seed of ``seed``.

    Returns the seconds each set-up took and the input set directories.
    """
    samples, input_sets = [], []
    for repeat, input_seed in enumerate(input_seeds(seed)):
        seconds = import_seconds()
        root = tracer.open("setup", f"setup{repeat}") if tracer else None
        start = time.perf_counter()
        input_set = inputs / f"set{repeat}"
        input_set.mkdir(parents=True)
        workload.write_inputs(input_set, input_seed)
        samples.append(seconds + time.perf_counter() - start)
        if tracer:
            tracer.close(root)
        input_sets.append(input_set)
    return samples, input_sets


def measure(workload, input_sets, out, seconds, tracer=None, prefix="run"):
    """Closed loop of whole iterations for about ``seconds``; each iteration's outputs checked.

    Iteration ``i`` runs on input set ``i mod len(input_sets)``.  At least
    one iteration runs; another starts only if, at the mean pace so far,
    it ends within ``seconds`` plus half an iteration, so a run holds the
    whole number of iterations nearest to ``seconds``.
    """
    iterations = []
    start = time.perf_counter()
    while not iterations or (time.perf_counter() - start) * (len(iterations) + 0.5) / len(
            iterations) <= seconds:
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        os.sync()  # so the write-back of inputs and earlier outputs does not land in this iteration
        run_id = f"{prefix}{len(iterations)}"
        input_set = len(iterations) % len(input_sets)
        inputs = input_sets[input_set]
        wall, codes, messages = workloads.run_iteration(workload, inputs, out, tracer, run_id)
        iterations.append({
            "run_id": run_id,
            "input_set": input_set,
            "wall_s": wall,
            "attempted": len(codes),
            "failed": sum(workload.failures(out, codes)),
            "digest": workloads.output_digest(out, inputs),
            "messages": messages,
        })
    return iterations


def tail_ms(durations_s):
    """Highest percentile with at least ten samples beyond it: (percentile, ms), or zeros."""
    ms = sorted(d * 1e3 for d in durations_s)
    below = len(ms) - 10
    if below < 1:
        return 0.0, 0.0
    return 100.0 * below / len(ms), ms[below - 1]


def single_thread_baseline(workload, inputs, out):
    """One traced iteration in a child process with BLAS pinned to one thread."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    argv = [sys.executable, str(Path(__file__).with_name("single_thread.py")),
            json.dumps(workloads.to_spec(workload)), str(inputs), str(out)]
    try:
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if done.returncode != 0:
        return {"error": done.stderr[-2000:]}
    return json.loads(done.stdout.splitlines()[-1])


def layer_metrics(tracer, traced, setup_ids, untraced, baseline):
    """Per-layer metrics, per iteration (set-up layers: per set-up repeat)."""
    n = len(traced)
    layers = tracing.summarize(tracer, [it["run_id"] for it in traced])
    setup_layers = tracing.summarize(tracer, setup_ids)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [], "attrs": []}

    def layer(name, source=layers):
        return source.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    fit, med = layer("sparse_filter.fit"), layer("sparse_filter.med")
    tail_pct, tail_value = tail_ms(fit["durations"])
    read, write = layer("ingest.read"), layer("ingest.write", setup_layers)
    read_bytes = sum(a["bytes"] for a in read["attrs"])
    write_bytes = sum(a["bytes"] for a in write["attrs"])
    reps = len(setup_ids)
    # The single-threaded baseline ran on input set 0, as did the first traced iteration.
    default_digest = traced[0]["digest"]
    on_set0 = tracing.summarize(tracer, [it["run_id"] for it in traced if it["input_set"] == 0])
    metrics = {
        "failed_fraction": ratio(sum(it["failed"] for it in untraced + traced),
                                 sum(it["attempted"] for it in untraced + traced)),
        "sparse_filter.fit.calls": fit["calls"] / n,
        "sparse_filter.fit.busy_s": fit["busy_s"] / n,
        "sparse_filter.fit.ms_p50": statistics.median(fit["durations"]) * 1e3
        if fit["durations"] else 0.0,
        "sparse_filter.fit.ms_tail": tail_value,
        "sparse_filter.fit.ms_tail_pct": tail_pct,
        "sparse_filter.fit.ms_samples": len(fit["durations"]),
        "sparse_filter.fit.iterations": sum(a["iterations"] for a in fit["attrs"]) / n,
        "sparse_filter.fit.converged_ratio": ratio(sum(a["converged"] for a in fit["attrs"]),
                                                   fit["calls"]),
        "sparse_filter.med.calls": med["calls"] / n,
        "sparse_filter.med.busy_s": med["busy_s"] / n,
        "sparse_filter.med.iterations": sum(a["iterations"] for a in med["attrs"]) / n,
        "sparse_filter.med.converged_ratio": ratio(sum(a["converged"] for a in med["attrs"]),
                                                   med["calls"]),
        "features.extract.calls": layer("features.extract")["calls"] / n,
        "features.extract.busy_s": layer("features.extract")["busy_s"] / n,
        "features.extract.self_s": layer("features.extract")["self_s"] / n,
        **{f"{name}.busy_s": layer(name)["busy_s"] / n for name in BUSY_ONLY_LAYERS},
        "ingest.read.files": len(read["attrs"]) / n,
        "ingest.read.mb": read_bytes / MIB / n,
        "ingest.read.busy_s": read["busy_s"] / n,
        "ingest.read.mb_per_s": ratio(read_bytes / MIB, read["busy_s"]),
        "ingest.write.busy_s": write["busy_s"] / reps,
        "ingest.write.mb_per_s": ratio(write_bytes / MIB, write["busy_s"]),
        "simulate.busy_s": layer("simulate", setup_layers)["busy_s"] / reps,
        "pipeline.self_s": layer("pipeline")["self_s"] / n,
        "cli.self_s": layer("cli")["self_s"] / n,
        "trace.overhead_s": statistics.median(it["wall_s"] for it in traced)
        - statistics.median(it["wall_s"] for it in untraced),
        "single_thread.wall_s": baseline.get("wall_s", 0.0),
        "single_thread.fit_iterations": baseline.get("fit_iterations", 0),
        "single_thread.digest_match": int(baseline.get("digest") == default_digest),
    }
    self_sum = sum(v["self_s"] for v in layers.values()) / n
    detail = {
        "layers": {name: {k: v[k] for k in ("calls", "busy_s", "self_s")}
                   for name, v in sorted(layers.items())},
        "self_sum_s": self_sum,
        "default_threads": {"wall_s": statistics.median(it["wall_s"] for it in traced),
                            "fit_iterations": tracing.fit_iterations(on_set0)
                            / sum(it["input_set"] == 0 for it in traced),
                            "digest": default_digest},
        "single_thread": baseline,
    }
    return metrics, detail


def benchmark(workload, seed, seconds, trace, run_dir):
    """Run one workload and return (result object, full report)."""
    inputs, out = run_dir / "inputs", run_dir / "outputs"
    report = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace}
    if not trace:
        setup, input_sets = set_up(workload, seed, inputs)
        iterations = measure(workload, input_sets, out, seconds)
        wall = statistics.median(it["wall_s"] for it in iterations)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "snapshots_per_s": workload.snapshots / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            setup, input_sets = set_up(workload, seed, inputs, tracer)
        finally:
            tracer.uninstall()
        untraced = measure(workload, input_sets, out, seconds / 2)
        tracer.install()
        try:
            traced = measure(workload, input_sets, out, seconds / 2, tracer, prefix="traced")
        finally:
            tracer.uninstall()
        baseline = single_thread_baseline(workload, input_sets[0], run_dir / "single_thread")
        values, report["trace_detail"] = layer_metrics(
            tracer, traced, [f"setup{r}" for r in range(SETUP_REPEATS)], untraced, baseline)
        tracer.write(run_dir / "spans.jsonl")
        iterations = untraced + traced
        units = PER_LAYER_UNITS
    report["environment"] = environment.describe(
        {**workload.params(seed), "input_seeds": input_seeds(seed)})
    report["setup_samples_s"] = setup
    report["iterations"] = iterations
    report["digests_agree"] = all(
        len({it["digest"] for it in iterations if it["input_set"] == k}) == 1
        for k in {it["input_set"] for it in iterations})
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    report["result"] = result
    return result, report


def main(argv=None):
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    run_dir = RUNS_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        result, report = benchmark(workload, args.seed, args.seconds, args.trace, run_dir)
    finally:
        for scratch in ("inputs", "outputs", "single_thread"):
            shutil.rmtree(run_dir / scratch, ignore_errors=True)
    (run_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    print("environment:", json.dumps(report["environment"], sort_keys=True))
    print("digests:", sorted({it["digest"] for it in report["iterations"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
