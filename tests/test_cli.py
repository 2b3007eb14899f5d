import contextlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from sparsevib import (FaultFrequencies, FaultSimConfig, SomConfig, gaussian_with_outlier,
                       pipeline, sparse_filter)
from sparsevib.cli import _config_from_args, _som_config_from_args, build_parser, main
from sparsevib.features import FEATURE_NAMES

jsonschema = pytest.importorskip("jsonschema")


def load_schema(name):
    return json.loads(
        resources.files("sparsevib").joinpath(f"schemas/{name}").read_text()
    )


def run(argv):
    return main(argv)


def check_filter_fits(block, count):
    assert block["count"] == count
    assert block["converged"] + len(block["not_converged"]) == count
    assert sum(block["stops"].values()) == count
    assert block["converged"] <= block["stops"]["gradient"] + block["stops"]["plateau"]
    its = block["iterations"]
    assert 0 <= its["min"] <= its["median"] <= its["max"]
    assert len(block["initial_cost"]) == len(block["final_cost"]) == count
    assert all(1 <= final <= initial
               for initial, final in zip(block["initial_cost"], block["final_cost"]))


@contextlib.contextmanager
def one_cpu():
    """Restrict this thread's affinity mask to one CPU, so fits run in-process in order."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="needs a settable CPU affinity mask")


@pytest.fixture()
def sim_csv(tmp_path):
    out = tmp_path / "signal.csv"
    code = run([
        "simulate", "--fault", "outer", "--snr-db", "-8", "--seed", "7",
        "--n-samples", "4096", "-o", str(out),
    ])
    assert code == 0
    return out


FAULTS = ["--bpfo", "100", "--bpfi", "160", "--bsf", "70"]
FAST_SIM = FaultSimConfig(snr_db=0.0, n_samples=4096, damping_rate=2000.0)


def write_record(path, signal):
    """``signal`` as a one-channel snapshot file, with a ``<name>.json`` sidecar giving its rate."""
    from sparsevib import write_ims_file

    write_ims_file(path, signal.samples[:, None])
    Path(f"{path}.json").write_text(json.dumps({"sample_rate_hz": signal.sample_rate_hz}))


def write_degradation_run(run_dir, n_files, onset, base=FAST_SIM):
    """``make_degradation_sequence`` as a run-to-failure directory; returns the signals."""
    from sparsevib import make_degradation_sequence

    signals = make_degradation_sequence(n_files, onset, base)
    run_dir.mkdir()
    for k, signal in enumerate(signals):
        write_record(run_dir / f"2004.02.12.10.{k:02d}.39", signal)
    return signals


def write_taxonomy_manifest(directory, n_per_class, base=FAST_SIM):
    """``make_fault_taxonomy_dataset`` as records and a manifest; returns it and the dataset."""
    from sparsevib import make_fault_taxonomy_dataset

    dataset = make_fault_taxonomy_dataset(n_per_class, base)
    lines = []
    for i, (signal, label) in enumerate(zip(dataset.signals, dataset.labels)):
        write_record(directory / f"rec{i}.txt", signal)
        lines.append(f"rec{i}.txt,{label}")
    manifest = directory / "taxonomy.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest, dataset


def assess_run(run_dir, out, *flags):
    return run(["assess", "--input-dir", str(run_dir), "--channel", "0", *FAULTS, *flags,
                "-o", str(out)])


class TestSimulate:
    def test_writes_csv_and_sidecar(self, sim_csv):
        lines = sim_csv.read_text().splitlines()
        assert lines[0] == "sample"
        assert len(lines) == 4097
        sidecar = json.loads((sim_csv.parent / "signal.csv.json").read_text())
        jsonschema.validate(sidecar, load_schema("sidecar_simulate.schema.json"))
        assert sidecar["config"]["seed"] == 7
        assert sidecar["config"]["fault_components"] == ["outer"]

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["simulate", "--fault", "outer", "--snr-db", "-8", "--seed", "3",
                "--n-samples", "2048"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_all_components_mode(self, tmp_path):
        out = tmp_path / "f8.csv"
        code = run(["simulate", "--fault", "outer,inner,roller", "--seed", "1",
                    "--n-samples", "2048", "-o", str(out)])
        assert code == 0
        sidecar = json.loads((tmp_path / "f8.csv.json").read_text())
        assert sidecar["config"]["fault_components"] == ["outer", "inner", "roller"]

    def test_noiseless_record_and_sidecar(self, tmp_path):
        from sparsevib import simulate_bearing_fault

        out = tmp_path / "clean.csv"
        assert run(["simulate", "--fault", "outer", "--seed", "3", "--n-samples", "2048",
                    "--snr-db", "inf", "-o", str(out)]) == 0
        sidecar = json.loads((tmp_path / "clean.csv.json").read_text())
        jsonschema.validate(sidecar, load_schema("sidecar_simulate.schema.json"))
        assert sidecar["config"]["snr_db"] is None
        expected = simulate_bearing_fault(FaultSimConfig(
            fault_components=("outer",), n_samples=2048, seed=3, snr_db=math.inf))
        assert np.array_equal(np.loadtxt(out, skiprows=1), expected.samples)

    def test_invalid_component_is_validation_error(self, tmp_path):
        code = run(["simulate", "--fault", "sideways", "-o", str(tmp_path / "x.csv")])
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--snr-db", "nan"], "snr_db must be a number or +inf"),
        (["simulate", "--snr-db=-inf"], "snr_db must be a number or +inf"),
        (["simulate", "--damping-rate", "inf"], "damping_rate must be positive and finite"),
        (["simulate", "--damping-rate", "nan"], "damping_rate must be positive and finite"),
        (["simulate", "--fault", "inner", "--shaft-hz", "inf"],
         "shaft_hz must be positive and finite"),
        # Finite, but 10 ** (snr_db / 10) or its reciprocal is not.
        *[(["simulate", "--fault", "outer", "--snr-db", snr_db],
           "snr_db must lie within +-3000 dB, or be +inf") for snr_db in ("-4000", "4000", "-3200")],
    ])
    @pytest.mark.filterwarnings("error")  # no numpy warning on the way
    def test_non_finite_value_is_validation_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.csv"
        assert run([*argv, "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--fault", "outer", "--outer-hz", "1e-320"],  # an infinite period: no impulse
        ["--damping-rate", "1e-300"],  # a kernel longer than the record
        ["--fault", "outer", "--damping-rate", "1e-300"],
    ])
    @pytest.mark.filterwarnings("error")
    def test_extreme_in_range_values_give_a_record(self, tmp_path, argv):
        out = tmp_path / "x.csv"
        assert run(["simulate", *argv, "--n-samples", "2048", "-o", str(out)]) == 0
        assert len(np.loadtxt(out, skiprows=1)) == 2048


class TestFilter:
    def test_csf_report_descends(self, sim_csv, tmp_path):
        out = tmp_path / "filtered.csv"
        code = run(["filter", "--input", str(sim_csv), "--filter-length", "64",
                    "-o", str(out)])
        assert code == 0
        report = json.loads((tmp_path / "filtered.csv.json").read_text())
        jsonschema.validate(report, load_schema("report_filter.schema.json"))
        assert "seed" not in report
        assert report["stop"] == "plateau"
        assert report["cost_history"][-1] < report["cost_history"][0]
        assert report["wall_time_s"] > 0
        assert len(report["w"]) == 64
        assert report["output_samples"] == 4096 - 64 + 1

    def test_med_shares_schema(self, sim_csv, tmp_path):
        out = tmp_path / "med.csv"
        code = run(["filter", "--input", str(sim_csv), "--method", "med",
                    "--filter-length", "64", "-o", str(out)])
        assert code == 0
        report = json.loads((tmp_path / "med.csv.json").read_text())
        jsonschema.validate(report, load_schema("report_filter.schema.json"))
        assert report["method"] == "med"
        assert "stop" not in report  # MED has no stop reason

    @pytest.mark.filterwarnings("error")
    def test_med_overflow_is_named(self, tmp_path, capsys):
        samples = gaussian_with_outlier(4096, 8.0, seed=0).samples * 1e150
        record = tmp_path / "huge.csv"
        record.write_text("sample\n" + "\n".join(map(repr, samples.tolist())) + "\n")
        code = run(["filter", "--input", str(record), "--sample-rate", "20000",
                    "--method", "med", "--filter-length", "64",
                    "-o", str(tmp_path / "f.csv")])
        assert code == 1
        assert "MED" in capsys.readouterr().err

    def test_med_solve_failure_names_the_file(self, sim_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sparse_filter, "dpptrs", lambda n, ap, b, **kwargs: (b, -1))
        code = run(["filter", "--input", str(sim_csv), "--method", "med",
                    "--filter-length", "64", "-o", str(tmp_path / "med.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: signal.csv: MED solve failed (LAPACK dpptrs info=-1)\n")

    def test_sample_rate_from_sidecar(self, sim_csv, tmp_path):
        # no --sample-rate flag: the simulate sidecar supplies it
        code = run(["filter", "--input", str(sim_csv), "--filter-length", "32",
                    "-o", str(tmp_path / "f.csv")])
        assert code == 0

    def test_tab_separated_file_uses_column_0(self, tmp_path):
        from sparsevib import write_ims_file

        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((2048, 2))
        write_ims_file(tmp_path / "two.txt", matrix)
        write_ims_file(tmp_path / "one.txt", matrix[:, :1])
        for name in ("two", "one"):
            assert run(["filter", "--input", str(tmp_path / f"{name}.txt"),
                        "--sample-rate", "20000", "--filter-length", "16",
                        "-o", str(tmp_path / f"{name}_f.csv")]) == 0
        assert (tmp_path / "two_f.csv").read_bytes() == (tmp_path / "one_f.csv").read_bytes()

    def test_missing_input_is_io_error(self, tmp_path):
        code = run(["filter", "--input", str(tmp_path / "nope.csv"),
                    "--sample-rate", "20000", "-o", str(tmp_path / "f.csv")])
        assert code == 2

    def test_garbage_input_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("sample\n1.0\nwhoops\n2.0\n")
        code = run(["filter", "--input", str(bad), "--sample-rate", "20000",
                    "-o", str(tmp_path / "f.csv")])
        assert code == 2

    def test_binary_input_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(np.random.default_rng(0).bytes(300))
        code = run(["filter", "--input", str(bad), "--sample-rate", "20000",
                    "-o", str(tmp_path / "f.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.bin" in err and "not UTF-8" in err


class TestFeatures:
    def test_explicit_frequencies_json(self, sim_csv, tmp_path):
        out = tmp_path / "features.json"
        code = run(["features", "--input", str(sim_csv),
                    "--bpfo", "100", "--bpfi", "160", "--bsf", "70",
                    "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("features.schema.json"))
        assert payload["features"]["blehnr_bpfo"] > payload["features"]["blehnr_bpfi"]
        assert payload["sample_rate_hz"] == 20000.0  # the simulate sidecar's

    def test_payload_records_the_sample_rate(self, sim_csv, tmp_path):
        # One record read at two rates: the BLEHNR lags, and so the features, differ.
        payloads = []
        for rate in ("20000", "50000"):
            out = tmp_path / f"features{rate}.json"
            assert run(["features", "--input", str(sim_csv), "--sample-rate", rate, *FAULTS,
                        "-o", str(out)]) == 0
            payloads.append(json.loads(out.read_text()))
            jsonschema.validate(payloads[-1], load_schema("features.schema.json"))
        assert [payload.pop("sample_rate_hz") for payload in payloads] == [20000.0, 50000.0]
        assert payloads[0]["features"] != payloads[1]["features"]

    @pytest.mark.parametrize("faults, message", [
        (["--bpfo", "inf", "--bpfi", "160", "--bsf", "70"], "bpfo_hz must be positive and finite"),
        (["--bpfo", "100", "--bpfi", "160", "--bsf", "nan"], "bsf_hz must be positive and finite"),
    ])
    def test_infinite_fault_frequency_fails_before_the_read(self, sim_csv, tmp_path, capsys,
                                                            monkeypatch, faults, message):
        from sparsevib import ingest

        reads, read = [], ingest.read_ims_file
        monkeypatch.setattr(ingest, "read_ims_file", lambda *args: reads.append(1) or read(*args))
        code = run(["features", "--input", str(sim_csv), *faults, "-o", str(tmp_path / "f.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert reads == []

    @pytest.mark.parametrize("sidecar", [
        '[]', '{"sample_rate_hz": "abc"}', '{"sample_rate_hz": Infinity}',
        pytest.param('{"sample_rate_hz": 1%s}' % ("0" * 400), id="integer_beyond_float")])
    def test_bad_sidecar_is_validation_error(self, sim_csv, tmp_path, capsys, sidecar):
        (tmp_path / "signal.csv.json").write_text(sidecar)
        code = run(["features", "--input", str(sim_csv),
                    "--bpfo", "100", "--bpfi", "160", "--bsf", "70",
                    "-o", str(tmp_path / "f.json")])
        assert code == 1
        assert "signal.csv.json" in capsys.readouterr().err


class TestAssess:
    def test_simulated_degradation(self, tmp_path):
        write_degradation_run(tmp_path / "run", 25, 10)
        out = tmp_path / "mqe.csv"
        code = assess_run(tmp_path / "run", out, "--n-train", "8", "--som-epochs", "50",
                          "--filter-length", "50", "--seed", "0")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "file_index,mqe_raw,mqe_filtered"
        assert len(lines) == 26
        report = json.loads((tmp_path / "mqe.csv.json").read_text())
        schema = load_schema("report_assess.schema.json")
        jsonschema.validate(report, schema)
        assert report["csf_config"] == {"filter_length": 50}
        report["csf_config"]["epsilon"] = 1e-8  # a stale key
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, schema)
        assert report["n_train"] == 8
        assert report["source"] == {"input_dir": str(tmp_path / "run"), "channel": 0,
                                    "sample_rate_hz": None, "parse_errors": []}
        check_filter_fits(report["filter_fits"], 25)

    def test_save_models_round_trip(self, tmp_path):
        write_degradation_run(tmp_path / "run", 12, 6)
        out = tmp_path / "mqe.csv"
        code = assess_run(tmp_path / "run", out, "--n-train", "6", "--som-epochs", "30",
                          "--filter-length", "50", "--save-models", str(tmp_path / "som"))
        assert code == 0
        from sparsevib import SomModel
        model = SomModel.load(tmp_path / "som_filtered.json")
        payload = json.loads((tmp_path / "som_filtered.json").read_text())
        jsonschema.validate(payload, load_schema("som_model.schema.json"))
        assert model.codebook.shape[0] == model.config.grid_rows * model.config.grid_cols
        report = json.loads((tmp_path / "mqe.csv.json").read_text())
        assert payload["config"] == report["som"]

    def test_som_grid_sets_its_own_radius(self, tmp_path):
        write_degradation_run(tmp_path / "run", 6, 4, replace(FAST_SIM, n_samples=2048))
        out = tmp_path / "mqe.csv"
        code = assess_run(tmp_path / "run", out, "--n-train", "4", "--som-grid", "2x4",
                          "--som-epochs", "5", "--filter-length", "16")
        assert code == 0
        som = json.loads((tmp_path / "mqe.csv.json").read_text())["som"]
        assert som == {"grid_rows": 2, "grid_cols": 4, "epochs": 5, "seed": 0}

    def test_too_few_snapshots(self, tmp_path, capsys):
        # Six timestamped files are enough for --n-train 5 until one of them gives no signal.
        write_degradation_run(tmp_path / "run", 5, 2, replace(FAST_SIM, n_samples=2048))
        (tmp_path / "run" / "2004.02.12.10.02.40").write_text("junk\n")
        code = assess_run(tmp_path / "run", tmp_path / "mqe.csv", "--n-train", "5",
                          "--filter-length", "16")
        assert code == 1
        assert capsys.readouterr().err == "error: need at least 6 snapshots, got 5\n"

    def test_noiseless_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            assess_run(tmp_path / "run", tmp_path / "mqe.csv", "--noiseless")
        assert excinfo.value.code == 2
        assert "error: unrecognized arguments: --noiseless" in capsys.readouterr().err

    def test_channel_out_of_range_is_validation_error(self, tmp_path, capsys):
        from sparsevib import write_ims_file

        data = tmp_path / "data"
        data.mkdir()
        rng = np.random.default_rng(0)
        for stamp in ("2004.02.12.10.32.39", "2004.02.12.10.42.39", "2004.02.12.10.52.39"):
            write_ims_file(data / stamp, rng.standard_normal((1024, 2)))
        code = run([
            "assess", "--input-dir", str(data), "--channel", "5", "--n-train", "2",
            "--sample-rate", "20000", "--bpfo", "100", "--bpfi", "160", "--bsf", "70",
            "-o", str(tmp_path / "mqe.csv"),
        ])
        assert code == 1
        assert "channel 5" in capsys.readouterr().err

    def test_too_few_files_fail_before_any_read(self, tmp_path, capsys, monkeypatch):
        from sparsevib import ingest, write_ims_file

        data = tmp_path / "data"
        data.mkdir()
        rng = np.random.default_rng(0)
        for minute in range(3):
            write_ims_file(data / f"2004.02.12.10.{minute:02d}.39", rng.standard_normal((1024, 1)))
        reads, read = [], ingest.read_ims_file
        monkeypatch.setattr(ingest, "read_ims_file", lambda *args: reads.append(1) or read(*args))
        code = run([
            "assess", "--input-dir", str(data), "--channel", "0", "--n-train", "3",
            "--bpfo", "100", "--bpfi", "160", "--bsf", "70",
            "-o", str(tmp_path / "mqe.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: need at least 4 snapshots, got 3\n"
        assert reads == []

    @pytest.mark.filterwarnings("error")
    def test_identical_records_name_the_dropped_columns(self, tmp_path, capfd):
        from sparsevib import write_ims_file

        data = tmp_path / "data"
        data.mkdir()
        record = gaussian_with_outlier(1024, 8.0, seed=0).samples[:, None]
        for minute in range(4):
            write_ims_file(data / f"2004.02.12.10.{minute:02d}.39", record)
        out = tmp_path / "mqe.csv"
        code = run([
            "assess", "--input-dir", str(data), "--channel", "0", "--n-train", "2",
            "--sample-rate", "20000", "--filter-length", "32", "--som-epochs", "5",
            "--bpfo", "100", "--bpfi", "160", "--bsf", "70", "-o", str(out),
        ])
        assert code == 0
        assert capfd.readouterr().err == ""
        report = json.loads((tmp_path / "mqe.csv.json").read_text())
        jsonschema.validate(report, load_schema("report_assess.schema.json"))
        assert report["raw"]["dropped_columns"] == report["filtered"]["dropped_columns"] == [
            "kurtosis", "l1_l2", "blehnr_bpfo", "blehnr_bpfi", "blehnr_bsf"]

    def test_no_parseable_snapshot_is_io_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for minute in range(3):
            (data / f"2004.02.12.10.{minute:02d}.39").write_text("junk\n")
        code = run([
            "assess", "--input-dir", str(data), "--channel", "0", "--n-train", "2",
            "--sample-rate", "20000", "--bpfo", "100", "--bpfi", "160", "--bsf", "70",
            "-o", str(tmp_path / "mqe.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: no parseable snapshot files in {data}" in err
        assert "2004.02.12.10.00.39: file contains no samples" in err

    def test_binary_snapshot_reported_and_skipped(self, tmp_path):
        from sparsevib import write_ims_file

        data = tmp_path / "data"
        data.mkdir()
        rng = np.random.default_rng(1)
        for minute in range(5):
            write_ims_file(data / f"2004.02.12.10.{minute:02d}.39", rng.standard_normal((1024, 2)))
        (data / "2004.02.12.10.02.40").write_bytes(rng.bytes(300))
        out = tmp_path / "mqe.csv"
        code = run([
            "assess", "--input-dir", str(data), "--channel", "0", "--n-train", "3",
            "--sample-rate", "20000", "--som-epochs", "20", "--filter-length", "32",
            "--bpfo", "100", "--bpfi", "160", "--bsf", "70", "-o", str(out),
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 6
        report = json.loads((tmp_path / "mqe.csv.json").read_text())
        [(path, message)] = report["source"]["parse_errors"]
        assert path.endswith("2004.02.12.10.02.40")
        assert "line" in message and "not UTF-8" in message

    @pytest.mark.parametrize("n_train", ["0", "1"])
    def test_n_train_below_two_rejected_before_fits(self, tmp_path, capsys, monkeypatch, n_train):
        fits = []
        fit = pipeline.fit_simplified_csf

        def counted_fit(*args, **kwargs):
            fits.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(pipeline, "fit_simplified_csf", counted_fit)
        write_degradation_run(tmp_path / "run", 6, 3, replace(FAST_SIM, n_samples=2048))
        code = assess_run(tmp_path / "run", tmp_path / "mqe.csv", "--n-train", n_train,
                          "--filter-length", "16")
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "n_train" in err
        assert fits == []

    def test_input_dir_requires_channel(self, tmp_path, capsys):
        (tmp_path / "data").mkdir()
        with pytest.raises(SystemExit) as excinfo:
            run([
                "assess", "--input-dir", str(tmp_path / "data"),
                "--bpfo", "100", "--bpfi", "160", "--bsf", "70",
                "-o", str(tmp_path / "mqe.csv"),
            ])
        assert excinfo.value.code == 2
        assert "error: the following arguments are required: --channel" in capsys.readouterr().err


class TestClassify:
    def test_simulated_taxonomy(self, tmp_path):
        manifest, _ = write_taxonomy_manifest(tmp_path, 2, replace(FAST_SIM, snr_db=-3.0))
        outdir = tmp_path / "cls"
        code = run([
            "classify", "--manifest", str(manifest), *FAULTS,
            "--filter-length", "50", "--restarts", "5", "--seed", "0", "-o", str(outdir),
        ])
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        schema = load_schema("report_classify.schema.json")
        jsonschema.validate(report, schema)
        assert report["csf_config"] == {"filter_length": 50}
        report["csf_config"]["max_iterations"] = 500  # a stale key
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, schema)
        assert len(report["labels"]) == 16
        assert report["source"] == {"manifest": str(manifest), "sample_rate_hz": None}
        check_filter_fits(report["filter_fits"], 16)
        vat = np.loadtxt(outdir / "vat_filtered.csv", delimiter=",")
        assert vat.shape == (16, 16)
        scores = (outdir / "scores_filtered.csv").read_text().splitlines()
        assert scores[0] == "index,label,pc1,pc2,cluster"
        assert len(scores) == 17

    def test_manifest_input(self, tmp_path):
        from sparsevib import FaultSimConfig, simulate_bearing_fault, write_ims_file

        for i, components in enumerate([(), ("outer",)] * 2):
            sig = simulate_bearing_fault(FaultSimConfig(
                fault_components=components, snr_db=0.0, n_samples=4096,
                damping_rate=2000.0, seed=i))
            write_ims_file(tmp_path / f"sig{i}.txt", sig.samples[:, None])
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "path,label\nsig0.txt,normal\nsig1.txt,outer\nsig2.txt,normal\nsig3.txt,outer\n"
        )
        outdir = tmp_path / "cls"
        code = run([
            "classify", "--manifest", str(manifest), "--sample-rate", "20000",
            "--bpfo", "100", "--bpfi", "160", "--bsf", "70",
            "--filter-length", "50", "--restarts", "3", "-o", str(outdir),
        ])
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        jsonschema.validate(report, load_schema("report_classify.schema.json"))
        assert sorted(set(report["labels"])) == ["normal", "outer"]
        assert report["source"] == {"manifest": str(manifest), "sample_rate_hz": 20000.0}

    def test_zero_restarts_rejected(self, tmp_path, capsys, monkeypatch):
        fits = []
        fit = pipeline.fit_simplified_csf

        def counted_fit(*args, **kwargs):
            fits.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(pipeline, "fit_simplified_csf", counted_fit)
        manifest, _ = write_taxonomy_manifest(tmp_path, 1, replace(FAST_SIM, n_samples=2048))
        code = run([
            "classify", "--manifest", str(manifest), *FAULTS,
            "--filter-length", "16", "--restarts", "0", "-o", str(tmp_path / "cls"),
        ])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "n_restarts" in err
        assert fits == []

    @pytest.mark.parametrize("argv", [
        ["simulate"],
        ["classify", "--manifest", "{manifest}"],
        ["assess", "--input-dir", "{run}", "--channel", "0", "--n-train", "3"],
    ], ids=["simulate", "classify-manifest", "assess"])
    def test_negative_seed_rejected_before_fits(self, tmp_path, capsys, monkeypatch, argv):
        fits = []
        monkeypatch.setattr(pipeline, "fit_simplified_csf", lambda *args: fits.append(args))
        manifest = write_manifest(tmp_path, taxonomy_signals(2))
        write_degradation_run(tmp_path / "run", 4, 2, replace(FAST_SIM, n_samples=2048))
        argv = [arg.format(manifest=manifest, run=tmp_path / "run") for arg in argv]
        if argv[0] in ("classify", "assess"):
            argv += ["--bpfo", "100", "--bpfi", "160", "--bsf", "70"]
        assert run([*argv, "-o", str(tmp_path / "out"), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be a non-negative whole number, got -1\n"
        assert fits == []

    def test_malformed_manifest_line_names_file_and_line(self, tmp_path, capsys):
        # An empty path or label is malformed too: an empty path names the
        # manifest's own directory, and an empty label a class "".
        manifest = tmp_path / "runs.csv"
        for bad in ("no-label-here", "a.csv,", ",normal", " , "):
            manifest.write_text(f"path,label\n{bad}\n")
            code = run([
                "classify", "--manifest", str(manifest), "--sample-rate", "20000",
                "--bpfo", "100", "--bpfi", "160", "--bsf", "70", "-o", str(tmp_path / "cls"),
            ])
            assert code == 2, bad
            assert "runs.csv: line 2: expected 'path,label'" in capsys.readouterr().err, bad

    def test_header_only_manifest_names_the_file(self, tmp_path, capsys):
        manifest = tmp_path / "runs.csv"
        manifest.write_text("path,label\n")
        code = run([
            "classify", "--manifest", str(manifest), "--sample-rate", "20000",
            "--bpfo", "100", "--bpfi", "160", "--bsf", "70", "-o", str(tmp_path / "cls"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: runs.csv: empty manifest\n"

    def test_non_utf8_manifest_names_file_and_line(self, tmp_path, capsys):
        manifest = tmp_path / "runs.csv"
        manifest.write_bytes(b"path,label\nsig\xff.txt,outer\n")
        code = run([
            "classify", "--manifest", str(manifest), "--sample-rate", "20000",
            "--bpfo", "100", "--bpfi", "160", "--bsf", "70", "-o", str(tmp_path / "cls"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "runs.csv: line 2" in err and "UTF-8" in err

    def test_single_class_rejected(self, tmp_path):
        from sparsevib import FaultSimConfig, simulate_bearing_fault, write_ims_file

        sig = simulate_bearing_fault(FaultSimConfig(n_samples=4096, seed=0))
        write_ims_file(tmp_path / "sig.txt", sig.samples[:, None])
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("path,label\nsig.txt,only\n")
        code = run([
            "classify", "--manifest", str(manifest), "--sample-rate", "20000",
            "--bpfo", "100", "--bpfi", "160", "--bsf", "70",
            "-o", str(tmp_path / "cls"),
        ])
        assert code == 1


@pytest.mark.parametrize("command", ["filter", "classify"])
def test_non_finite_sample_names_file_and_row(tmp_path, capsys, command):
    (tmp_path / "sig.txt").write_text("sample\n" + "1.0\n" * 4 + "nan\n" + "2.0\n" * 4)
    # Two classes: a one-class manifest is rejected before any record is read.
    (tmp_path / "runs.csv").write_text("sig.txt,outer\nsig.txt,normal\n")
    argv = {"filter": ["filter", "--input", str(tmp_path / "sig.txt"), "--filter-length", "2"],
            "classify": ["classify", "--manifest", str(tmp_path / "runs.csv"),
                         "--bpfo", "100", "--bpfi", "160", "--bsf", "70"]}[command]
    code = run([*argv, "--sample-rate", "20000", "-o", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: sig.txt: sample row 5 of channel 0 is nan, not a finite number\n")


@pytest.mark.parametrize("argv, samples, message", [
    (["filter", "--filter-length", "16"], [1.0, 2.0], "filter_length 16 exceeds N/2 for N=2"),
    (["filter", "--method", "med", "--filter-length", "8"], [1.5] * 64,
     "cannot fit a filter to a constant signal"),
    (["features", "--bpfo", "100", "--bpfi", "160", "--bsf", "70"],
     np.random.default_rng(0).standard_normal(64).tolist(),
     "search band extends past the available signal length"),
    (["features", "--bpfo", "100", "--bpfi", "160", "--bsf", "70"],  # finite, near the limit
     [-1.71e308, *np.random.default_rng(0).standard_normal(4095).tolist()],
     "envelope overflowed at this amplitude (largest |sample| 1.71e+308)"),
    # In range, but fs / bpfo, the defect period in samples, overflows to inf.
    *[(["features", "--bpfo", bpfo, "--bpfi", "160", "--bsf", "70"],
       np.random.default_rng(0).standard_normal(4096).tolist(),
       "search band extends past the available signal length") for bpfo in ("5e-324", "1e-310")],
])
@pytest.mark.filterwarnings("error")  # no numpy warning on the way
def test_fit_and_feature_errors_name_the_file(tmp_path, capsys, argv, samples, message):
    record = tmp_path / "rec.csv"
    record.write_text("sample\n" + "".join(f"{x!r}\n" for x in samples))
    code = run([*argv, "--input", str(record), "--sample-rate", "20000",
                "-o", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: rec.csv: {message}\n"


@pytest.mark.parametrize("command", ["features", "assess"])
def test_infinite_sample_rate_is_validation_error(sim_csv, tmp_path, capsys, command):
    write_degradation_run(tmp_path / "run", 4, 2, replace(FAST_SIM, n_samples=2048))
    argv = {"features": ["features", "--input", str(sim_csv)],
            "assess": ["assess", "--input-dir", str(tmp_path / "run"), "--channel", "0"]}[command]
    code = run([*argv, "--sample-rate", "inf", "--bpfo", "100", "--bpfi", "160", "--bsf", "70",
                "-o", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.endswith("sample_rate_hz must be positive and finite\n")


def write_manifest(tmp_path, signals):
    """One snapshot file per signal, labelled normal and outer in turn, and their manifest."""
    from sparsevib import write_ims_file

    lines = ["path,label"]
    for i, samples in enumerate(signals):
        write_ims_file(tmp_path / f"sig{i}.txt", samples[:, None])
        lines.append(f"sig{i}.txt,{('normal', 'outer')[i % 2]}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def taxonomy_signals(n):
    from sparsevib import simulate_bearing_fault

    return [simulate_bearing_fault(FaultSimConfig(
        fault_components=("outer",) * (i % 2), snr_db=0.0, n_samples=4096,
        damping_rate=2000.0, seed=i)).samples for i in range(n)]


@needs_affinity
class TestCpuCount:
    def outputs_on_one_and_all_cpus(self, argv, out):
        with one_cpu():
            assert run(argv + ["-o", str(out / "one")]) == 0
        assert run(argv + ["-o", str(out / "all")]) == 0
        return out / "one", out / "all"

    def test_classify_files_do_not_depend_on_the_cpu_count(self, tmp_path):
        manifest, _ = write_taxonomy_manifest(tmp_path, 2)
        one, every = self.outputs_on_one_and_all_cpus([
            "classify", "--manifest", str(manifest), *FAULTS, "--filter-length", "50",
            "--restarts", "3",
        ], tmp_path)
        names = sorted(p.name for p in one.iterdir())
        assert names == sorted(p.name for p in every.iterdir()) and "report.json" in names
        for name in names:
            assert (one / name).read_bytes() == (every / name).read_bytes(), name

    def test_assess_files_do_not_depend_on_the_cpu_count(self, tmp_path):
        write_degradation_run(tmp_path / "run", 8, 5)
        one, every = self.outputs_on_one_and_all_cpus([
            "assess", "--input-dir", str(tmp_path / "run"), "--channel", "0", "--n-train", "4",
            "--som-epochs", "10", *FAULTS, "--filter-length", "50",
        ], tmp_path)
        assert one.read_bytes() == every.read_bytes()  # the MQE CSV
        assert Path(f"{one}.json").read_bytes() == Path(f"{every}.json").read_bytes()

    def errors_on_one_and_all_cpus(self, manifest, capsys, *flags):
        argv = ["classify", "--manifest", str(manifest), "--sample-rate", "20000",
                *FAULTS, *flags, "-o", str(manifest.parent / "cls")]
        with one_cpu():
            assert run(argv) == 1
        first = capsys.readouterr().err
        assert run(argv) == 1
        assert capsys.readouterr().err == first
        return first

    def test_constant_snapshot_is_named(self, tmp_path, capsys):
        signals = taxonomy_signals(8)
        signals[5] = np.full(4096, 0.25)
        err = self.errors_on_one_and_all_cpus(write_manifest(tmp_path, signals), capsys,
                                              "--filter-length", "50")
        assert err == "error: sig5.txt: autocorrelation of a constant signal is undefined\n"

    def test_first_short_snapshot_is_named(self, tmp_path, capsys):
        signals = taxonomy_signals(8)
        for k in (4, 6):  # shorter than 2 * --filter-length
            signals[k] = signals[k][:300]
        err = self.errors_on_one_and_all_cpus(write_manifest(tmp_path, signals), capsys,
                                              "--filter-length", "200")
        assert err == "error: sig4.txt: filter_length 200 exceeds N/2 for N=300\n"


class TestFilesGiveTheLibraryResults:
    """The file commands on written simulated records give the library's results in memory."""

    FREQUENCIES = FaultFrequencies(bpfo_hz=100.0, bpfi_hz=160.0, bsf_hz=70.0)

    def test_assess_input_dir_gives_assess_sequence(self, tmp_path):
        from sparsevib import assess_sequence

        signals = write_degradation_run(tmp_path / "run", 12, 6)
        out = tmp_path / "mqe.csv"
        assert assess_run(tmp_path / "run", out, "--n-train", "5", "--som-epochs", "20",
                          "--filter-length", "32") == 0
        want = assess_sequence(signals, self.FREQUENCIES, 32, SomConfig(epochs=20), n_train=5)
        mqe = np.loadtxt(out, delimiter=",", skiprows=1)
        report = json.loads(Path(f"{out}.json").read_text())
        assert want.filtered.alarm_index is not None
        for column, name in ((1, "raw"), (2, "filtered")):
            branch = getattr(want, name)
            assert np.array_equal(mqe[:, column], branch.mqe)
            assert report[name]["threshold"] == branch.threshold
            assert report[name]["alarm_index"] == branch.alarm_index

    def test_classify_manifest_gives_classify_dataset(self, tmp_path):
        from sparsevib import classify_dataset

        manifest, dataset = write_taxonomy_manifest(tmp_path, 2)
        outdir = tmp_path / "cls"
        assert run(["classify", "--manifest", str(manifest), *FAULTS, "--filter-length", "32",
                    "--restarts", "3", "-o", str(outdir)]) == 0
        want = classify_dataset(dataset, self.FREQUENCIES, 32, n_restarts=3)
        report = json.loads((outdir / "report.json").read_text())
        assert report["labels"] == want.labels
        for name in ("raw", "filtered"):
            branch = getattr(want, name)
            scores = np.loadtxt(outdir / f"scores_{name}.csv", delimiter=",", skiprows=1,
                                usecols=(2, 3, 4))
            assert np.array_equal(scores[:, :2], branch.scores)
            assert np.array_equal(scores[:, 2], branch.kmeans_labels)
            assert report[name]["purity"] == branch.purity
            assert report[name]["vat_order"] == branch.vat.order.tolist()


def fake_affinity(monkeypatch, n_cpus):
    """Make the fan-out see ``n_cpus`` CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)), raising=False)


def write_run(data, lengths):
    """A run-to-failure directory: 2-channel snapshots of ``lengths`` (at most 4096) samples.

    Three more files are skipped on channel 1: one that does not parse
    (after snapshot 1), one with a single channel (after snapshot 2) and
    one whose name is not a timestamp.
    """
    from sparsevib import simulate_bearing_fault, write_ims_file

    data.mkdir()
    rng = np.random.default_rng(2)
    for k, n in enumerate(lengths):
        signal = simulate_bearing_fault(FaultSimConfig(
            fault_components=("outer",), snr_db=0.0, n_samples=4096, damping_rate=2000.0, seed=k))
        write_ims_file(data / f"2004.02.12.10.{k:02d}.39",
                       np.column_stack([rng.standard_normal(n), signal.samples[:n]]))
    (data / "2004.02.12.10.00.40").write_text("0.1\tx\n")
    write_ims_file(data / "2004.02.12.10.01.40", rng.standard_normal((4096, 1)))
    (data / "notes.txt").write_text("not a snapshot\n")
    return data


class TestReadInTheUnit:
    """``assess --input-dir`` and ``classify --manifest`` read each file in the unit that fits it."""

    def assess(self, data, out, *flags):
        return run(["assess", "--input-dir", str(data), "--channel", "1", "--sample-rate", "20000",
                    *FAULTS, *flags, "-o", str(out)])

    def test_input_dir_files_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch):
        from sparsevib import iterate_run_to_failure

        data = write_run(tmp_path / "data", [4096] * 7)
        outputs = []
        for n_cpus in (1, 2, 3):
            fake_affinity(monkeypatch, n_cpus)
            out = tmp_path / f"mqe{n_cpus}.csv"
            assert self.assess(data, out, "--n-train", "4", "--som-epochs", "10",
                               "--filter-length", "32") == 0
            outputs.append((out.read_bytes(), Path(f"{out}.json").read_bytes()))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert len(outputs[0][0].decode().splitlines()) == 1 + 7
        report = json.loads(outputs[0][1])
        jsonschema.validate(report, load_schema("report_assess.schema.json"))
        check_filter_fits(report["filter_fits"], 7)
        assert report["source"]["sample_rate_hz"] == 20000.0
        errors = iterate_run_to_failure(data, 1, 20000.0).errors
        assert len(errors) == 3
        assert report["source"]["parse_errors"] == [list(error) for error in errors]

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_fit_error_names_the_file(self, tmp_path, capsys, monkeypatch, n_cpus):
        # The first short record is the 5th timestamped file: two skipped files come before it.
        data = write_run(tmp_path / "data", [4096, 4096, 300, 4096, 300, 4096])
        fake_affinity(monkeypatch, n_cpus)
        assert self.assess(data, tmp_path / "mqe.csv", "--n-train", "3",
                           "--filter-length", "200") == 1
        assert capsys.readouterr().err == (
            "error: 2004.02.12.10.02.39: filter_length 200 exceeds N/2 for N=300\n")

    def test_manifest_errors(self, tmp_path, capsys, monkeypatch):
        from sparsevib import ingest

        manifest = write_manifest(tmp_path, taxonomy_signals(4))
        lines = manifest.read_text().splitlines()
        lines.insert(3, "missing.txt,outer")  # the third record
        argv = ["classify", "--manifest", str(manifest), "--sample-rate", "20000",
                *FAULTS, "--filter-length", "50", "-o", str(tmp_path / "cls")]
        reads, read = [], ingest.read_ims_file
        monkeypatch.setattr(ingest, "read_ims_file", lambda *args: reads.append(1) or read(*args))

        manifest.write_text("\n".join([*lines, "no-label-here"]) + "\n")
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: manifest.csv: line 7: expected 'path,label'\n"
        assert reads == []  # no record was read

        manifest.write_text("\n".join(lines) + "\n")
        for n_cpus in (1, 2):
            fake_affinity(monkeypatch, n_cpus)
            assert run(argv) == 2
            assert capsys.readouterr().err == (
                f"error: [Errno 2] No such file or directory: '{tmp_path / 'missing.txt'}'\n")


UNKNOWN_RATE = "sample rate unknown; pass --sample-rate or provide a sidecar"


class TestSampleRate:
    """Every file input takes ``--sample-rate``, or else each file's ``<name>.json`` sidecar's rate."""

    @pytest.mark.parametrize("command", ["filter", "features", "classify"])
    def test_unknown_rate_names_the_file(self, tmp_path, capsys, command):
        from sparsevib import write_ims_file

        write_ims_file(tmp_path / "rec.csv", gaussian_with_outlier(2048, 8.0, seed=0).samples[:, None],
                       header="sample")
        (tmp_path / "runs.csv").write_text("rec.csv,outer\nrec.csv,normal\n")
        argv = {"filter": ["filter", "--input", str(tmp_path / "rec.csv")],
                "features": ["features", "--input", str(tmp_path / "rec.csv"), *FAULTS],
                "classify": ["classify", "--manifest", str(tmp_path / "runs.csv"), *FAULTS]}
        assert run([*argv[command], "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: rec.csv: {UNKNOWN_RATE}\n"

    def simulated_run(self, run_dir, sample_rate, n):
        """``n`` records at ``sample_rate``, outer-race and normal in turn, with ``simulate``'s sidecars."""
        run_dir.mkdir()
        for k in range(n):
            assert run(["simulate", "--fault", ("outer", "")[k % 2], "--snr-db", "0",
                        "--damping-rate", "2000", "--sample-rate", sample_rate,
                        "--n-samples", "4096", "--seed", str(k),
                        "-o", str(run_dir / f"2004.02.12.10.{k:02d}.39")]) == 0
        return sorted(p for p in run_dir.iterdir() if p.suffix != ".json")

    def test_input_dir_skips_a_file_without_a_rate(self, tmp_path):
        from sparsevib import write_ims_file

        records = self.simulated_run(tmp_path / "run", "20000", 4)
        bare = tmp_path / "run" / "2004.02.12.10.01.40"
        write_ims_file(bare, np.loadtxt(records[1], skiprows=1)[:, None], header="sample")
        out = tmp_path / "mqe.csv"
        assert run(["assess", "--input-dir", str(tmp_path / "run"), "--channel", "0",
                    "--n-train", "3", "--som-epochs", "5", "--filter-length", "32",
                    *FAULTS, "-o", str(out)]) == 0
        report = json.loads(Path(f"{out}.json").read_text())
        jsonschema.validate(report, load_schema("report_assess.schema.json"))
        assert report["source"]["parse_errors"] == [[str(bare), f"{bare.name}: {UNKNOWN_RATE}"]]
        assert report["source"]["sample_rate_hz"] is None
        assert len(out.read_text().splitlines()) == 1 + 4

    def test_input_dir_without_any_rate_says_why(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for minute in range(4):
            (data / f"2004.02.12.10.{minute:02d}.39").write_text("0.5\n-0.25\n" * 1024)
        code = run(["assess", "--input-dir", str(data), "--channel", "0", "--n-train", "2",
                    *FAULTS, "-o", str(tmp_path / "mqe.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: no parseable snapshot files in {data}: "
            + "; ".join(f"2004.02.12.10.{m:02d}.39: {UNKNOWN_RATE}" for m in range(3))
            + "; and 1 more\n")

    @pytest.mark.parametrize("rate", ["inf", "0", "nan"])
    @pytest.mark.parametrize("mode", ["--manifest", "--input-dir"])
    def test_bad_rate_fails_before_any_read(self, tmp_path, capsys, monkeypatch, mode, rate):
        from sparsevib import ingest

        records = self.simulated_run(tmp_path / "run", "20000", 4)
        (tmp_path / "runs.csv").write_text(
            "".join(f"run/{p.name},{('outer', 'normal')[k % 2]}\n" for k, p in enumerate(records)))
        argv = {"--manifest": ["classify", "--manifest", str(tmp_path / "runs.csv")],
                "--input-dir": ["assess", "--input-dir", str(tmp_path / "run"), "--channel", "0",
                                "--n-train", "2"]}[mode]
        reads, read = [], ingest.read_ims_file
        monkeypatch.setattr(ingest, "read_ims_file", lambda *args: reads.append(1) or read(*args))
        assert run([*argv, "--sample-rate", rate, *FAULTS, "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: sample_rate_hz must be positive and finite\n"
        assert reads == []

    def test_sidecar_rates_give_the_features_of_each_record(self, tmp_path):
        # 50 kHz records: a guessed 20 kHz would put every defect period at the wrong lag.
        from sparsevib import FaultFrequencies, assess_sequence, classify_dataset
        from sparsevib.ingest import RunToFailureFiles, read_manifest

        records = self.simulated_run(tmp_path / "run", "50000", 4)
        manifest = tmp_path / "runs.csv"
        manifest.write_text(
            "".join(f"run/{p.name},{('outer', 'normal')[k % 2]}\n" for k, p in enumerate(records)))
        want = []
        for k, record in enumerate(records):
            out = tmp_path / f"features{k}.json"
            assert run(["features", "--input", str(record), *FAULTS, "-o", str(out)]) == 0
            values = json.loads(out.read_text())["features"]
            want.append([values[name] for name in FEATURE_NAMES])
        faults = FaultFrequencies(100.0, 160.0, 70.0)
        run_files = RunToFailureFiles(tmp_path / "run", 0, None)
        assert [s.sample_rate_hz for s in run_files] == [50000.0] * 4
        fits = assess_sequence(run_files, faults, 32, n_train=3).fits
        assert [fit.raw.tolist() for fit in fits] == want
        fits = classify_dataset(read_manifest(manifest, None), faults, 32, n_restarts=1).fits
        assert [fit.raw.tolist() for fit in fits] == want

        # The commands give what --sample-rate 50000 gives; their reports say whose rate it was.
        commands = {"classify": ["classify", "--manifest", str(manifest), "--restarts", "1"],
                    "assess": ["assess", "--input-dir", str(tmp_path / "run"), "--channel", "0",
                               "--n-train", "3", "--som-epochs", "5"]}
        for name, argv in commands.items():
            reports = []
            for rate in ([], ["--sample-rate", "50000"]):
                out = tmp_path / f"{name}{len(rate)}"
                assert run([*argv, *rate, *FAULTS, "--filter-length", "32",
                            "-o", str(out)]) == 0
                report = out / "report.json" if name == "classify" else Path(f"{out}.json")
                reports.append(json.loads(report.read_text()))
            assert [r["source"].pop("sample_rate_hz") for r in reports] == [None, 50000.0]
            assert reports[0] == reports[1]


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["assess", "--input-dir", "run", "--channel", "0", "--fault", "inner"],
        ["assess", "--input-dir", "run", "--channel", "0", "--inner-hz", "150"],
        ["assess", "--input-dir", "run", "--channel", "0", "--roller-hz", "60"],
        ["classify", "--manifest", "m.csv", "--fault", "outer"],
    ])
    def test_flags_that_did_nothing_are_rejected(self, argv, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(argv + ["--bpfo", "100", "--bpfi", "160", "--bsf", "70",
                        "-o", str(tmp_path / "out")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag, value", [("--seed", "1"), ("--init", "seeded_random")])
    def test_removed_filter_flags_are_rejected(self, flag, value, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(["filter", "--input", "signal.csv", flag, value, "-o", str(tmp_path / "out.csv")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("mode", [["filter", "--input", "signal.csv"],
                                      ["assess", "--input-dir", "run", "--channel", "0"],
                                      ["classify", "--manifest", "m.csv"]])
    @pytest.mark.parametrize("flag", ["--epsilon", "--max-iterations", "--gradient-tolerance"])
    def test_removed_fit_flags_are_rejected(self, mode, flag, tmp_path, capsys):
        # The cost's smoothing, the iteration cap and the stops are sparse_filter constants.
        with pytest.raises(SystemExit) as excinfo:
            run([mode[0], "--help"])
        assert excinfo.value.code == 0
        assert flag not in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            run(mode + [flag, "1", "-o", str(tmp_path / "out")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("mode, name", [
        (["filter", "--input", "{sim_csv}"], "signal.csv"),
        (["assess", "--input-dir", "{run}", "--channel", "0", "--n-train", "3", *FAULTS],
         "2004.02.12.10.00.39"),
        (["classify", "--manifest", "{manifest}", *FAULTS], "rec0.txt"),
    ])
    def test_filter_length_below_two_is_validation_error(self, sim_csv, mode, name, tmp_path,
                                                         capsys):
        short = replace(FAST_SIM, n_samples=2048)
        write_degradation_run(tmp_path / "run", 4, 2, short)
        manifest, _ = write_taxonomy_manifest(tmp_path, 1, short)
        argv = [arg.format(sim_csv=sim_csv, run=tmp_path / "run", manifest=manifest)
                for arg in mode]
        assert run([*argv, "--filter-length", "1", "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {name}: filter_length must be at least 2\n"

    @pytest.mark.parametrize("mode, name", [
        (["assess", "--input-dir", "{run}", "--channel", "0", "--n-train", "3"],
         "2004.02.12.10.00.39"),
        (["classify", "--manifest", "{manifest}"], "rec0.txt"),
    ])
    def test_infinite_defect_period_names_the_file(self, mode, name, tmp_path, capsys):
        # fs / 5e-324 overflows; the fan-out unit's error names the record it read.
        short = replace(FAST_SIM, n_samples=2048)
        write_degradation_run(tmp_path / "run", 4, 2, short)
        manifest, _ = write_taxonomy_manifest(tmp_path, 1, short)
        argv = [arg.format(run=tmp_path / "run", manifest=manifest) for arg in mode]
        assert run([*argv, "--bpfo", "5e-324", "--bpfi", "160", "--bsf", "70",
                    "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: {name}: search band extends past the available signal length\n")

    SIMULATION_ONLY = [("--snr-db", "0"), ("--n-samples", "4096"), ("--resonance-hz", "3000"),
                       ("--damping-rate", "900"), ("--outer-hz", "100"), ("--jitter", "0.01")]

    @pytest.mark.parametrize("mode, flag, value", [
        *[(["assess", "--input-dir", "run", "--channel", "0"], flag, value)
          for flag, value in [("--n-files", "30"), ("--onset", "10"), *SIMULATION_ONLY]],
        *[(["classify", "--manifest", "m.csv"], flag, value)
          for flag, value in [("--n-per-class", "3"), *SIMULATION_ONLY,
                              ("--inner-hz", "150"), ("--roller-hz", "60")]],
        # Flags that once shaped the other command's simulated input.
        *[(["assess", "--input-dir", "run", "--channel", "0"], flag, value)
          for flag, value in [("--n-per-class", "3"), ("--inner-hz", "150"), ("--roller-hz", "60")]],
        *[(["classify", "--manifest", "m.csv"], flag, value)
          for flag, value in [("--n-files", "30"), ("--onset", "10")]],
    ])
    def test_simulation_flags_rejected_with_file_input(self, mode, flag, value, tmp_path,
                                                       capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(mode + [flag, value, *FAULTS, "-o", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {flag} {value}" in err

    ASSESS_RUN = ["assess", "--input-dir", "run", "--channel", "0"]

    @pytest.mark.parametrize("argv, given", [
        *[([*mode, switch], switch)
          for mode in (ASSESS_RUN, ["classify", "--manifest", "m.csv"])
          for switch in ("--simulate-degradation", "--simulate-taxonomy")],
        # BLEHNR's band is the constant features.DEFAULT_BAND_FRACTION.
        *[([*mode, "--band-fraction", "0.02"], "--band-fraction 0.02")
          for mode in (["features", "--input", "signal.csv"], ASSESS_RUN,
                       ["classify", "--manifest", "m.csv"])],
        (["simulate", "--noiseless"], "--noiseless"),  # --snr-db inf is noiseless
        # The fault frequencies come only from --bpfo, --bpfi and --bsf; --shaft-hz is simulate's.
        *[([*mode, *flag], " ".join(flag))
          for mode in (["features", "--input", "signal.csv"], ASSESS_RUN,
                       ["classify", "--manifest", "m.csv"])
          for flag in (["--geometry", "9,1,4,0"], ["--shaft-hz", "25"])],
        (["features", "--input", "signal.csv", "--format", "csv"], "--format csv"),  # JSON only
    ])
    def test_removed_switches_and_flags_are_rejected(self, argv, given, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(argv + [*FAULTS, "-o", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        assert f"error: unrecognized arguments: {given}" in capsys.readouterr().err

    def test_gradcheck_command_is_gone(self, capsys):
        # The gradient check is the library's pipeline.gradient_check (criterion 01).
        with pytest.raises(SystemExit) as excinfo:
            run(["gradcheck"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'gradcheck'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["features", "--input", "signal.csv"], ASSESS_RUN,
                                         ["classify", "--manifest", "m.csv"]])
    @pytest.mark.parametrize("missing", range(3))
    def test_each_fault_frequency_is_required(self, command, missing, tmp_path, capsys):
        faults = [*FAULTS[:2 * missing], *FAULTS[2 * missing + 2:]]
        with pytest.raises(SystemExit) as excinfo:
            run([*command, *faults, "-o", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: the following arguments are required: {FAULTS[2 * missing]}" in err

    def test_benchmark_command_lines_run(self, tmp_path):
        workloads = _perfbench_workloads()
        tiny = [workloads.ClassifyTaxonomy(n_per_class=1, n_samples=2048),
                workloads.AssessImsRun(n_files=5, onset=4, n_train=3, n_samples=2048,
                                       n_channels=1),
                workloads.OutlierStudy(n_records=1, n_samples=1024, med_length=64)]
        for workload in tiny:
            inputs, out = tmp_path / workload.name / "in", tmp_path / workload.name / "out"
            inputs.mkdir(parents=True)
            workload.write_inputs(inputs, 0)
            for argv in workload.invocations(inputs, out):
                assert run(argv) == 0, argv

    def test_bare_command_lines_give_config_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "-o", "x.csv"])
        assert _config_from_args(FaultSimConfig, args) == FaultSimConfig()
        assert sparse_filter.DEFAULT_FILTER_LENGTH == 100
        args = parser.parse_args(["filter", "--input", "x.csv", "-o", "y.csv"])
        assert args.filter_length == sparse_filter.DEFAULT_FILTER_LENGTH
        args = parser.parse_args(["assess", "--input-dir", "run", "--channel", "0", *FAULTS,
                                  "-o", "mqe.csv"])
        assert _som_config_from_args(args) == SomConfig()  # the seed too
        assert args.filter_length == sparse_filter.DEFAULT_FILTER_LENGTH
        assert args.n_train == default_of(pipeline.assess_sequence, "n_train")
        assert args.sample_rate_hz is None
        args = parser.parse_args(["classify", "--manifest", "m.csv", *FAULTS, "-o", "out"])
        for name in ("n_restarts", "seed"):
            assert getattr(args, name) == default_of(pipeline.classify_dataset, name)
        assert args.filter_length == sparse_filter.DEFAULT_FILTER_LENGTH
        assert args.sample_rate_hz is None


def default_of(func, name):
    return inspect.signature(func).parameters[name].default


class TestReadmePipeline:
    def test_simulate_filter_features_without_sample_rate(self, tmp_path):
        sim = tmp_path / "outer.csv"
        enhanced = tmp_path / "enhanced.csv"
        assert run(["simulate", "--fault", "outer", "--snr-db", "-8", "--seed", "7",
                    "--n-samples", "4096", "-o", str(sim)]) == 0
        assert run(["filter", "--input", str(sim), "--filter-length", "32",
                    "-o", str(enhanced)]) == 0
        assert run(["features", "--input", str(enhanced),
                    "--bpfo", "100", "--bpfi", "160", "--bsf", "70",
                    "-o", str(tmp_path / "features.json")]) == 0


class TestOutputDirEnv:
    def test_relative_paths_resolve_under_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPARSEVIB_OUTPUT_DIR", str(tmp_path))
        code = run(["simulate", "--fault", "outer", "--n-samples", "2048",
                    "--seed", "0", "-o", "nested/out.csv"])
        assert code == 0
        assert (tmp_path / "nested" / "out.csv").exists()

    def test_missing_env_dir_is_made_and_absolute_paths_ignore_it(self, tmp_path, monkeypatch):
        base = tmp_path / "base"
        monkeypatch.setenv("SPARSEVIB_OUTPUT_DIR", str(base))
        simulate = ["simulate", "--n-samples", "2048"]
        assert run([*simulate, "-o", str(tmp_path / "abs" / "out.csv")]) == 0
        assert (tmp_path / "abs" / "out.csv").exists() and not base.exists()
        assert run([*simulate, "-o", "a/b/out.csv"]) == 0
        assert (base / "a" / "b" / "out.csv").exists()
        assert (base / "a" / "b" / "out.csv.json").exists()


def test_cli_import_leaves_out_scipy_signal():
    # A fresh interpreter: this test process may have imported any of these modules itself.
    # None of scipy.signal, scipy.optimize or scipy.fft is used (the transforms are
    # numpy.fft's), and each would add to every start.
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, sparsevib.cli; "
            "print([name for name in ('scipy.signal', 'scipy.optimize', 'scipy.fft') "
            "if name in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.strip() == "[]"
