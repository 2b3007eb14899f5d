import numpy as np
import pytest

from sparsevib import (
    SignalParseError,
    iterate_run_to_failure,
    read_ims_file,
    write_ims_file,
)
from sparsevib.ingest import RunToFailureFiles, SnapshotFiles, read_manifest


def make_snapshot(path, rows=16, cols=4, seed=0):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((rows, cols))
    write_ims_file(path, matrix)
    return matrix


class TestReadImsFile:
    def test_full_size_file(self, tmp_path):
        path = tmp_path / "2004.02.12.10.32.39"
        matrix = make_snapshot(path, rows=20480, cols=4)
        snapshot = read_ims_file(path, 20000.0)
        assert snapshot.channels.shape == (20480, 4)
        assert snapshot.n_channels == 4
        assert np.array_equal(snapshot.channels, matrix)
        assert snapshot.sample_rate_hz == 20000.0

    def test_round_trip_lossless(self, tmp_path):
        first = tmp_path / "2004.02.12.10.32.39"
        matrix = make_snapshot(first, rows=64, cols=4, seed=5)
        parsed = read_ims_file(first, 20000.0)
        second = tmp_path / "2004.02.12.10.52.39"
        write_ims_file(second, parsed.channels)
        again = read_ims_file(second, 20000.0)
        assert np.array_equal(again.channels, matrix)

    def test_short_file_parses(self, tmp_path):
        path = tmp_path / "2004.02.12.10.32.39"
        with open(path, "w") as fh:
            fh.write("1\n2\n3\n")
        snapshot = read_ims_file(path, 20000.0)
        assert snapshot.channels.shape == (3, 1)
        assert snapshot.channel_signal(0).samples.tolist() == [1.0, 2.0, 3.0]

    def test_parse_error_cites_line(self, tmp_path):
        path = tmp_path / "2004.02.12.10.32.39"
        rows = ["0.1\t0.2"] * 10
        rows[6] = "0.1\tnot_a_number"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(SignalParseError) as excinfo:
            read_ims_file(path, 20000.0)
        assert excinfo.value.line == 7
        assert "line 7" in str(excinfo.value)

    def test_parse_error_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text("sample\n1.0\n\n   \n\t\n2.0\nbad\n3.0\n")
        with pytest.raises(SignalParseError) as excinfo:
            read_ims_file(path, 20000.0)
        assert excinfo.value.line == 7
        assert "non-numeric content on line 7" in str(excinfo.value)

    def test_non_utf8_bytes_cite_line(self, tmp_path):
        path = tmp_path / "2004.02.12.10.32.39"
        path.write_bytes(b"0.1\t0.2\n0.3\t0.4\n\xff\xfe\t0.5\n")
        with pytest.raises(SignalParseError) as excinfo:
            read_ims_file(path, 20000.0)
        assert excinfo.value.line == 3
        assert "2004.02.12.10.32.39" in str(excinfo.value)
        assert "line 3" in str(excinfo.value)

    @pytest.mark.parametrize("end", [b"\r", b"\r\n", b"\n"])
    def test_non_utf8_line_counts_every_line_end(self, tmp_path, end):
        path = tmp_path / "signal.csv"
        path.write_bytes(end.join([b"1", b"2", b"\xff", b""]))
        with pytest.raises(SignalParseError, match="line 3 is not UTF-8") as excinfo:
            read_ims_file(path, 20000.0)
        assert excinfo.value.line == 3

    def test_mixed_line_ends_each_end_a_line(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_bytes(b"sample\r1\t2\r\n3\t4\n\r\n5\t6\r7\t8")
        assert read_ims_file(path, 20000.0).channels.tolist() == [[1, 2], [3, 4], [5, 6], [7, 8]]
        path.write_bytes(b"1\t2\r3\t4\r\n\n5\t6\nx\t8\r")
        with pytest.raises(SignalParseError, match="non-numeric content on line 5") as excinfo:
            read_ims_file(path, 20000.0)
        assert excinfo.value.line == 5

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5\t2.0\n3.0\t4.0\n")
        assert read_ims_file(path, 20000.0).channels.tolist() == [[1.5, 2.0], [3.0, 4.0]]

    def test_byte_order_mark_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_bytes(b"\xef\xbb\xbf0.1\t0.2\n0.3\t0.4\n\xff\t0.5\n")
        with pytest.raises(SignalParseError, match="line 3 is not UTF-8") as excinfo:
            read_ims_file(path, 20000.0)
        assert excinfo.value.line == 3

    def test_header_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text("sample\n1.5\t-2\n  \n\n3\t4\t\n")
        snapshot = read_ims_file(path, 20000.0)
        assert snapshot.channels.tolist() == [[1.5, -2.0], [3.0, 4.0]]

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text("sample\n\n")
        with pytest.raises(SignalParseError, match="no samples"):
            read_ims_file(path, 20000.0)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "2004.02.12.10.32.39"
        path.write_text("1\t2\n3\n")
        with pytest.raises(SignalParseError):
            read_ims_file(path, 20000.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_ims_file(tmp_path / "2004.01.01.00.00.00", 20000.0)

    def test_channel_signal_owns_its_samples(self, tmp_path):
        path = tmp_path / "2004.02.12.10.32.39"
        matrix = make_snapshot(path, rows=16, cols=4)
        samples = read_ims_file(path, 20000.0).channel_signal(2).samples
        assert samples.base is None
        assert np.array_equal(samples, matrix[:, 2])

    def test_channel_selection_bounds(self, tmp_path):
        path = tmp_path / "2004.02.12.10.32.39"
        make_snapshot(path, rows=16, cols=2)
        snapshot = read_ims_file(path, 20000.0)
        with pytest.raises(ValueError):
            snapshot.channel_signal(2)


    @pytest.mark.parametrize("text, message", [
        ("0.1\t0.2\nnan\t0.4\n", "sample row 2 of channel 0 is nan, not a finite number"),
        ("0.1\t0.2\n", "signal needs at least 2 samples"),
    ])
    def test_channel_signal_names_the_file_once(self, tmp_path, text, message):
        path = tmp_path / "2004.02.12.10.32.39"
        path.write_text(text)
        snapshot = read_ims_file(path, 20000.0)
        with pytest.raises(ValueError) as excinfo:
            snapshot.channel_signal(0)
        assert str(excinfo.value) == f"2004.02.12.10.32.39: {message}"


class TestWriteImsFile:
    @pytest.mark.parametrize("header", [None, "sample"])
    def test_bytes_match_per_value_format(self, tmp_path, header):
        rng = np.random.default_rng(6)
        matrix = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300, (50, 3))
        matrix[0] = [5e-324, -0.0, -np.finfo(float).max]
        path = tmp_path / "out.txt"
        write_ims_file(path, matrix, header=header)
        want = "".join("\t".join(f"{v:.17g}" for v in row) + "\n" for row in matrix)
        if header is not None:
            want = header + "\n" + want
        assert path.read_bytes() == want.encode()


class TestIterateRunToFailure:
    def test_chronological_order_beats_lexical(self, tmp_path):
        # lexically "2003.11..." < "2003.2..." but chronologically later
        late = tmp_path / "2003.11.25.10.00.00"
        early = tmp_path / "2003.2.01.09.00.00"
        make_snapshot(late, seed=1)
        make_snapshot(early, seed=2)
        sequence = iterate_run_to_failure(tmp_path, 0, 20000.0)
        names = [p.name for p in sequence.paths]
        assert names == ["2003.2.01.09.00.00", "2003.11.25.10.00.00"]

    def test_full_dataset_count_and_order(self, tmp_path):
        # 984 snapshot files, written shuffled, must come back in time order
        stamps = []
        for i in range(984):
            minute = i % 60
            hour = (i // 60) % 24
            day = 1 + i // 1440
            stamps.append(f"2004.02.{day:02d}.{hour:02d}.{minute:02d}.00")
        rng = np.random.default_rng(0)
        for i in rng.permutation(984):
            (tmp_path / stamps[i]).write_text("0.1\t0.2\n0.3\t0.4\n")
        sequence = iterate_run_to_failure(tmp_path, 1, 20000.0)
        assert len(sequence) == 984
        assert [p.name for p in sequence.paths] == stamps
        assert sequence.signals[0].samples.tolist() == [0.2, 0.4]

    def test_bad_files_reported_not_fatal(self, tmp_path):
        good = tmp_path / "2004.02.12.10.32.39"
        make_snapshot(good, seed=3)
        bad = tmp_path / "2004.02.12.10.52.39"
        bad.write_text("not numbers at all\n")
        unstamped = tmp_path / "readme.txt"
        unstamped.write_text("hello\n")
        sequence = iterate_run_to_failure(tmp_path, 0, 20000.0)
        assert len(sequence) == 1
        assert len(sequence.errors) == 2

    def test_sidecars_of_snapshots_are_passed_over(self, tmp_path):
        for stamp in ("2004.02.12.10.32.39", "2004.02.12.10.42.39"):
            make_snapshot(tmp_path / stamp, seed=3)
            (tmp_path / f"{stamp}.json").write_text("{}\n")
        (tmp_path / "2004.02.12.10.52.39.json").write_text("{}\n")  # no such snapshot
        sequence = iterate_run_to_failure(tmp_path, 0, 20000.0)
        assert len(sequence) == 2
        assert sequence.errors == [(str(tmp_path / "2004.02.12.10.52.39.json"),
                                    "filename does not encode a timestamp")]

    def test_binary_file_reported_not_fatal(self, tmp_path):
        make_snapshot(tmp_path / "2004.02.12.10.32.39", seed=3)
        binary = tmp_path / "2004.02.12.10.42.39"
        binary.write_bytes(np.random.default_rng(0).bytes(300))
        sequence = iterate_run_to_failure(tmp_path, 0, 20000.0)
        assert len(sequence) == 1
        [(path, message)] = sequence.errors
        assert path == str(binary)
        assert "not UTF-8" in message

    def test_non_finite_file_reported_not_fatal(self, tmp_path):
        make_snapshot(tmp_path / "2004.02.12.10.32.39", seed=3)
        bad = tmp_path / "2004.02.12.10.42.39"
        bad.write_text("sample\n0.1\t0.2\n\ninf\t0.4\n")  # row 2 is on line 4
        sequence = iterate_run_to_failure(tmp_path, 0, 20000.0)
        assert len(sequence) == 1
        [(path, message)] = sequence.errors
        assert path == str(bad)
        assert "2004.02.12.10.42.39: sample row 2 of channel 0 is inf" in message

    def test_channel_out_of_range_reported(self, tmp_path):
        make_snapshot(tmp_path / "2004.02.12.10.32.39", cols=2, seed=4)
        make_snapshot(tmp_path / "2004.02.12.10.52.39", cols=4, seed=5)
        sequence = iterate_run_to_failure(tmp_path, 3, 20000.0)
        assert len(sequence) == 1
        assert len(sequence.errors) == 1

    def test_channel_missing_from_every_file(self, tmp_path):
        make_snapshot(tmp_path / "2004.02.12.10.32.39", cols=2, seed=4)
        make_snapshot(tmp_path / "2004.02.12.10.52.39", cols=2, seed=5)
        with pytest.raises(ValueError, match="channel 5"):
            iterate_run_to_failure(tmp_path, 5, 20000.0)

    def test_unusable_channel_cites_the_file_errors(self, tmp_path):
        # Every file parses and has channel 0, but none gives a signal on it.
        (tmp_path / "2004.02.12.10.32.39").write_text("0.1\t0.2\nnan\t0.4\n")
        (tmp_path / "2004.02.12.10.42.39").write_text("0.1\t0.2\n")
        with pytest.raises(ValueError) as excinfo:
            iterate_run_to_failure(tmp_path, 0, 20000.0)
        message = str(excinfo.value)
        assert "out of range" not in message
        assert "2004.02.12.10.32.39: sample row 2 of channel 0 is nan" in message
        assert "2004.02.12.10.42.39: signal needs at least 2 samples" in message

    def test_no_timestamped_name_cites_the_names(self, tmp_path):
        for name in ("a.txt", "b.txt", "c.txt", "d.txt"):
            make_snapshot(tmp_path / name, seed=3)
        with pytest.raises(FileNotFoundError) as excinfo:
            iterate_run_to_failure(tmp_path, 0, 20000.0)
        assert str(excinfo.value) == (
            f"no parseable snapshot files in {tmp_path}: "
            + "; ".join(f"{name}: filename does not encode a timestamp"
                        for name in ("a.txt", "b.txt", "c.txt"))
            + "; and 1 more")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            iterate_run_to_failure(tmp_path, 0, 20000.0)


class TestReadManifest:
    def test_byte_order_mark_before_header(self, tmp_path):
        make_snapshot(tmp_path / "a.txt", cols=1, seed=1)
        make_snapshot(tmp_path / "b.txt", cols=2, seed=2)
        (tmp_path / "runs.csv").write_bytes(
            b"\xef\xbb\xbfpath,label\r\n\r\na.txt, outer\r\nb.txt,inner\r\n")
        dataset = read_manifest(tmp_path / "runs.csv", 20000.0)
        assert dataset.labels == ["outer", "inner"]
        assert [len(s) for s in dataset.signals] == [16, 16]

    def test_missing_label_cites_line(self, tmp_path):
        (tmp_path / "runs.csv").write_text("a.txt,outer\n\nb.txt\n")
        make_snapshot(tmp_path / "a.txt", cols=1)
        with pytest.raises(SignalParseError, match="runs.csv: line 3: expected 'path,label'"):
            read_manifest(tmp_path / "runs.csv", 20000.0)


class TestSnapshotFiles:
    def test_the_sidecar_gives_the_rate_a_caller_leaves_out(self, tmp_path):
        make_snapshot(tmp_path / "a.txt", cols=2)
        (tmp_path / "a.txt.json").write_text('{"sample_rate_hz": 50000}')
        assert SnapshotFiles([tmp_path / "a.txt"], 1, None)[0].sample_rate_hz == 50000.0
        assert SnapshotFiles([tmp_path / "a.txt"], 1, 12000.0)[0].sample_rate_hz == 12000.0

    def test_a_given_rate_opens_no_sidecar(self, tmp_path):
        make_snapshot(tmp_path / "a.txt", cols=1)
        (tmp_path / "a.txt.json").write_text("[]")  # not an object: read, it would raise
        assert len(SnapshotFiles([tmp_path / "a.txt"], 0, 20000.0)[0]) == 16
        with pytest.raises(ValueError, match="^a.txt.json: sidecar is not a JSON object$"):
            SnapshotFiles([tmp_path / "a.txt"], 0, None)[0]

    def test_no_rate_names_the_file(self, tmp_path):
        make_snapshot(tmp_path / "a.txt", cols=1)
        (tmp_path / "b.txt.json").write_text('{"sample_rate_hz": 50000}')  # another file's
        with pytest.raises(ValueError, match="^a.txt: sample rate unknown; pass --sample-rate "
                                             "or provide a sidecar$"):
            SnapshotFiles([tmp_path / "a.txt"], 0, None)[0]
        with pytest.raises(FileNotFoundError):  # missing, whatever its rate
            SnapshotFiles([tmp_path / "missing.txt"], 0, None)[0]

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.inf, np.nan])
    def test_a_bad_rate_fails_before_any_read(self, tmp_path, rate):
        with pytest.raises(ValueError, match="^sample_rate_hz must be positive and finite$"):
            SnapshotFiles([tmp_path / "missing.txt"], 0, rate)
        make_snapshot(tmp_path / "2004.02.12.10.32.39")
        with pytest.raises(ValueError, match="^sample_rate_hz must be positive and finite$"):
            RunToFailureFiles(tmp_path, 0, rate)

    def test_run_files_without_a_rate_are_skipped(self, tmp_path):
        make_snapshot(tmp_path / "2004.02.12.10.32.39", cols=1, seed=1)
        (tmp_path / "2004.02.12.10.32.39.json").write_text('{"sample_rate_hz": 50000}')
        make_snapshot(tmp_path / "2004.02.12.10.42.39", cols=1, seed=2)
        files = RunToFailureFiles(tmp_path, 0, None)
        sequence = files.sequence([files[i] for i in range(len(files))])
        assert [s.sample_rate_hz for s in sequence.signals] == [50000.0]
        assert sequence.errors == [(str(tmp_path / "2004.02.12.10.42.39"),
                                    "2004.02.12.10.42.39: sample rate unknown; pass --sample-rate "
                                    "or provide a sidecar")]
