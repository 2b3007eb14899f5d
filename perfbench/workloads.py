"""The benchmark's workloads: seeded inputs, the CLI calls they time, and output checks.

Each workload writes its inputs from the seed through the program's own
simulator and snapshot writer, lists the ``sparsevib`` CLI calls that make
up one closed-loop iteration, and checks the files those calls leave.
Import :mod:`program` and call ``import_cli()`` before importing this module.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import time
import traceback
from datetime import datetime, timedelta

import numpy as np

from sparsevib import cli, ingest, simulate

# The simulator's default defect frequencies, passed explicitly to every call.
FAULT_ARGS = ("--sample-rate", "20000", "--bpfo", "100", "--bpfi", "160", "--bsf", "70")


@dataclasses.dataclass(frozen=True)
class ClassifyTaxonomy:
    """Criterion 08: the 8-class taxonomy as single-channel snapshot files plus a manifest.

    Many short fits below OpenBLAS's threading cut-off, 160 feature
    vectors, then PCA, k-means and VAT; little input to read.
    """

    n_per_class: int = 10
    n_samples: int = 8192
    snr_db: float = -2.0
    damping_rate: float = 2000.0
    filter_length: int = 100

    name = "classify_taxonomy"
    n_classes = len(simulate.TAXONOMY)

    @property
    def snapshots(self):
        return self.n_classes * self.n_per_class

    def params(self, seed):
        return {"n_samples": self.n_samples, "filter_length": self.filter_length,
                "files": self.snapshots, "channels": 1, "seed": seed}

    def write_inputs(self, inputs, seed):
        base = simulate.FaultSimConfig(snr_db=self.snr_db, n_samples=self.n_samples,
                                       damping_rate=self.damping_rate)
        dataset = simulate.make_fault_taxonomy_dataset(self.n_per_class, base, seed=seed)
        lines = ["path,label"]
        for i, (signal, label) in enumerate(zip(dataset.signals, dataset.labels)):
            name = f"snapshot_{i:03d}"
            ingest.write_ims_file(inputs / name, signal.samples[:, None])
            lines.append(f"{name},{label}")
        (inputs / "manifest.csv").write_text("\n".join(lines) + "\n")

    def invocations(self, inputs, out):
        return [["classify", "--manifest", str(inputs / "manifest.csv"), *FAULT_ARGS,
                 "--filter-length", str(self.filter_length), "-o", str(out / "classify")]]

    # Criterion 08's strict outcome (filtered purity 1.0, one VAT block per
    # class) holds at its own seeds 0-2 but not at every seed, so the gate
    # checks what must hold at any seed: the outputs agree with each other,
    # and the filtered branch stays far from what misaligned features and
    # labels give (purity near 1/8, a VAT block every few signals).
    min_purity = 0.9
    max_blocks_per_class = 2

    def failures(self, out, exit_codes):
        """Outputs consistent; filtered purity >= 0.9; at most two VAT blocks per class."""
        try:
            report = json.loads((out / "classify" / "report.json").read_text())
            labels, filtered = report["labels"], report["filtered"]
            rows = [line.split(",") for line in
                    (out / "classify" / "scores_filtered.csv").read_text().splitlines()[1:]]
            members = {}
            for row in rows:
                members.setdefault(row[4], []).append(row[1])
            purity = sum(max(map(ms.count, ms)) for ms in members.values()) / len(rows)
            ordered = [labels[i] for i in filtered["vat_order"]]
            blocks = 1 + sum(a != b for a, b in zip(ordered, ordered[1:]))
            ok = (len(labels) == self.snapshots and [row[1] for row in rows] == labels
                  and sorted(filtered["vat_order"]) == list(range(self.snapshots))
                  and abs(purity - filtered["purity"]) < 1e-12
                  and purity >= self.min_purity
                  and blocks <= self.max_blocks_per_class * self.n_classes)
        except (OSError, ValueError, KeyError, IndexError, TypeError):
            ok = False
        return [code != 0 or not ok for code in exit_codes]


@dataclasses.dataclass(frozen=True)
class AssessImsRun:
    """A run-to-failure directory in the IMS layout, assessed on channel 0.

    Channel 0 carries the simulated degradation; the other channels are
    seeded noise, so ingest parses every channel of every file.  The only
    workload whose fits are long enough to enter threaded BLAS.
    """

    n_files: int = 24
    onset: int = 11
    n_train: int = 10
    n_samples: int = 20480
    n_channels: int = 4
    snr_db: float = 0.0
    damping_rate: float = 2000.0
    filter_length: int = 100

    name = "assess_ims_run"
    first_timestamp = datetime(2004, 2, 12, 10, 32, 39)

    def __post_init__(self):
        if not (self.n_train < self.onset < self.n_files):
            raise ValueError("require n_train < onset < n_files")

    @property
    def snapshots(self):
        return self.n_files

    def params(self, seed):
        return {"n_samples": self.n_samples, "filter_length": self.filter_length,
                "files": self.n_files, "channels": self.n_channels, "seed": seed,
                "onset": self.onset, "n_train": self.n_train}

    def write_inputs(self, inputs, seed):
        base = simulate.FaultSimConfig(fault_components=("outer",), snr_db=self.snr_db,
                                       n_samples=self.n_samples,
                                       damping_rate=self.damping_rate, seed=seed)
        signals = simulate.make_degradation_sequence(self.n_files, self.onset, base)
        rng = np.random.default_rng([seed, 1])
        run = inputs / "run"
        run.mkdir()
        for k, signal in enumerate(signals):
            noise = rng.standard_normal((self.n_samples, self.n_channels - 1))
            stamp = (self.first_timestamp + timedelta(minutes=10 * k)).strftime(
                ingest.TIMESTAMP_FORMAT)
            ingest.write_ims_file(run / stamp, np.column_stack([signal.samples, noise]))

    def invocations(self, inputs, out):
        return [["assess", "--input-dir", str(inputs / "run"), "--channel", "0",
                 "--n-train", str(self.n_train), *FAULT_ARGS,
                 "--filter-length", str(self.filter_length), "-o", str(out / "mqe.csv")]]

    def failures(self, out, exit_codes):
        """The filtered alarm fires at or after onset, so never on a training file."""
        try:
            report = json.loads((out / "mqe.csv.json").read_text())
            rows = (out / "mqe.csv").read_text().splitlines()[1:]
            alarm = report["filtered"]["alarm_index"]
            ok = (len(rows) == self.n_files and alarm is not None
                  and alarm >= self.onset and alarm > self.n_train)
        except (OSError, ValueError, KeyError, TypeError):
            ok = False
        return [code != 0 or not ok for code in exit_codes]


@dataclasses.dataclass(frozen=True)
class OutlierStudy:
    """Criterion 04: Gaussian records with one outlier, filtered by MED and by the sparse filter.

    Long-filter MED (O(l^2) autocorrelation matrix, l x l Cholesky) and
    short CSF fits, each record read and written by the CLI's own
    signal-CSV code.
    """

    n_records: int = 10
    n_samples: int = 8192
    outlier_sigma: float = 8.0
    med_length: int = 4096
    csf_length: int = 100

    name = "outlier_study"

    @property
    def snapshots(self):
        return 2 * self.n_records

    def params(self, seed):
        return {"n_samples": self.n_samples, "filter_length": self.csf_length,
                "med_filter_length": self.med_length, "files": self.n_records,
                "channels": 1, "seed": seed}

    def write_inputs(self, inputs, seed):
        for i in range(self.n_records):
            signal = simulate.gaussian_with_outlier(self.n_samples, self.outlier_sigma,
                                                    seed=seed * self.n_records + i)
            ingest.write_ims_file(inputs / f"record_{i:02d}.csv", signal.samples[:, None])

    def invocations(self, inputs, out):
        calls = []
        for i in range(self.n_records):
            record = str(inputs / f"record_{i:02d}.csv")
            for method, length in (("med", self.med_length), ("csf", self.csf_length)):
                calls.append(["filter", "--input", record, "--sample-rate", "20000",
                              "--method", method, "--filter-length", str(length),
                              "-o", str(out / f"{method}_{i:02d}.csv")])
        return calls

    def failures(self, out, exit_codes):
        """MED concentrates on the outlier (> 0.9), CSF does not (< 0.5), on 9 of 10 records.

        Each method may miss on ``n_records // 10`` records (criterion 04:
        at least 9 of 10); once a method misses more, each of its misses
        counts as a failed invocation.
        """
        hits = {}
        for i in range(self.n_records):
            for method in ("med", "csf"):
                try:
                    text = (out / f"{method}_{i:02d}.csv").read_text()
                    f = np.array(text.split()[1:], dtype=float)  # after the "sample" header
                    c = float(np.max(np.abs(f)) / np.linalg.norm(f))
                    hits[method, i] = c > 0.9 if method == "med" else c < 0.5
                except (OSError, ValueError):
                    hits[method, i] = False
        allowed = self.n_records // 10
        rule_met = {m: sum(not hits[m, i] for i in range(self.n_records)) <= allowed
                    for m in ("med", "csf")}
        return [code != 0 or not (hits[key] or rule_met[key[0]])
                for key, code in zip(hits, exit_codes)]


WORKLOADS = {w.name: w for w in (ClassifyTaxonomy(), AssessImsRun(), OutlierStudy())}


def to_spec(workload):
    """JSON-ready description of a workload, for a child process."""
    return {"name": workload.name, **dataclasses.asdict(workload)}


def from_spec(spec):
    fields = dict(spec)
    return type(WORKLOADS[fields.pop("name")])(**fields)


def _invoke(argv):
    """One in-process CLI call; returns its exit code and everything it printed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed invocation, not a failed benchmark
            traceback.print_exc()
            code = -1
    return code, sink.getvalue()


def run_iteration(workload, inputs, out, tracer=None, run_id=0):
    """Run every CLI call of one iteration in order; return (wall_s, exit codes, messages).

    With a tracer, the iteration is the root span that the calls' spans nest under.
    """
    codes, messages = [], []
    root = tracer.open("run", run_id) if tracer else None
    start = time.perf_counter()
    for argv in workload.invocations(inputs, out):
        code, text = _invoke(argv)
        codes.append(code)
        if code != 0:
            messages.append(f"{argv[0]} exited {code}: {text[-2000:]}")
    wall = time.perf_counter() - start
    if tracer:
        tracer.close(root)
    return wall, codes, messages


def output_digest(out, inputs):
    """SHA-256 over an iteration's output files, ignoring wall times and run paths."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json":
            try:
                payload = json.loads(data)
            except ValueError:  # a corrupt report is hashed as it is
                payload = None
            if isinstance(payload, dict):
                payload.pop("wall_time_s", None)  # differs between identical runs
                data = json.dumps(payload, sort_keys=True).encode()
        data = data.replace(str(inputs).encode(), b"<inputs>").replace(str(out).encode(), b"<out>")
        digest.update(path.relative_to(out).as_posix().encode() + b"\0" + data + b"\0")
    return digest.hexdigest()
