"""One traced iteration of a workload, for the single-threaded BLAS baseline.

    python3 perfbench/single_thread.py WORKLOAD_SPEC_JSON INPUTS_DIR OUT_DIR

``run.py`` starts this as a child process with ``OPENBLAS_NUM_THREADS=1``
and ``OMP_NUM_THREADS=1`` on the inputs it already wrote, and reads the
one JSON line it prints: wall time, total fit iterations, failed calls,
output digest and the BLAS thread counts actually in force.
"""

import json
import sys
from pathlib import Path

import program


def main(argv):
    spec, inputs, out = json.loads(argv[0]), Path(argv[1]), Path(argv[2])
    program.import_cli()
    import environment
    import tracing
    import workloads

    workload = workloads.from_spec(spec)
    out.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall, codes, messages = workloads.run_iteration(workload, inputs, out, tracer, "single")
    finally:
        tracer.uninstall()
    layers = tracing.summarize(tracer, ["single"])
    print(json.dumps({
        "wall_s": wall,
        "fit_iterations": tracing.fit_iterations(layers),
        "attempted": len(codes),
        "failed": sum(workload.failures(out, codes)),
        "digest": workloads.output_digest(out, inputs),
        "blas_threads": environment.blas_threads(),
        "messages": messages,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
