"""Readers for run-to-failure vibration snapshots.

The supported layout is the classic NASA/IMS one: plain-text files, one
row per sample, tab-separated sensor channels, and the acquisition
timestamp encoded in the filename as ``YYYY.MM.DD.HH.MM.SS``.  The same
reader and writer serve the CLI's one-column signal CSV, which adds a
``sample`` header line.  Files carry no sample rate, so the caller
supplies it.
"""

import io
import warnings
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .core_signal import Signal
from .errors import SignalParseError

__all__ = [
    "SnapshotFile",
    "read_ims_file",
    "write_ims_file",
    "iterate_run_to_failure",
    "RunToFailureSequence",
]

TIMESTAMP_FORMAT = "%Y.%m.%d.%H.%M.%S"


@dataclass
class SnapshotFile:
    """One parsed snapshot: channel matrix (rows = time) plus metadata."""

    path: Path
    channels: np.ndarray
    sample_rate_hz: float

    @property
    def n_channels(self):
        return self.channels.shape[1]

    def channel_signal(self, channel):
        if not (0 <= channel < self.n_channels):
            raise ValueError(
                f"channel {channel} out of range for {self.n_channels}-channel file"
            )
        return Signal(self.channels[:, channel], self.sample_rate_hz)


def _parse_timestamp(path):
    try:
        return datetime.strptime(Path(path).name, TIMESTAMP_FORMAT)
    except ValueError:
        return None


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _read_utf8(path):
    """Text of a file; bytes that are not UTF-8 raise :class:`SignalParseError` at their line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise SignalParseError(
            f"{path.name}: line {line_no} is not UTF-8 text", line=line_no
        ) from None


def _raise_at_bad_line(path):
    """Raise :class:`SignalParseError` at the first malformed line, if any.

    Runs only after the bulk parse failed: ``np.loadtxt`` numbers rows
    from 0 with blank lines left out, so its row is not the file line.
    """
    text = _read_utf8(path)
    width = None
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        stripped = line.strip()
        if not stripped or (line_no == 1 and not _is_number(stripped.split("\t")[0])):
            continue
        tokens = stripped.split("\t")
        if not all(map(_is_number, tokens)):
            raise SignalParseError(
                f"{path.name}: non-numeric content on line {line_no}", line=line_no
            )
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise SignalParseError(
                f"{path.name}: expected {width} columns on line {line_no}, got {len(tokens)}",
                line=line_no,
            )


def read_ims_file(path, sample_rate_hz):
    """Parse a tab-separated all-numeric snapshot file.

    Line 1 is taken as a header and skipped when its first field is not a
    number; blank and whitespace-only lines are skipped.  Any row count is
    accepted (real datasets contain truncated files).  A non-numeric token
    or a ragged row raises :class:`SignalParseError` carrying the offending
    1-based line number.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            has_header = not _is_number(fh.readline().strip().split("\t")[0])
            fh.seek(0)
            with warnings.catch_warnings():
                # An empty file is reported below as a SignalParseError.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                channels = np.loadtxt(
                    (line.strip() for line in fh), delimiter="\t", comments=None,
                    skiprows=int(has_header), ndmin=2,
                )
    except ValueError as exc:  # UnicodeDecodeError included
        _raise_at_bad_line(path)
        raise SignalParseError(f"{path.name}: {exc}") from None
    if channels.size == 0:
        raise SignalParseError(f"{path.name}: file contains no samples")
    return SnapshotFile(path=path, channels=channels, sample_rate_hz=float(sample_rate_hz))


def write_ims_file(path, channels, header=None):
    """Serialize a channel matrix in the same text layout, losslessly.

    Values print with ``%.17g`` so a parse/serialize round trip reproduces
    every float64 bit pattern.  ``header``, when given, is written as the
    first line.
    """
    channels = np.atleast_2d(np.asarray(channels, dtype=np.float64))
    row = "\t".join(["%.17g"] * channels.shape[1]) + "\n"
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.write(row * channels.shape[0] % tuple(channels.ravel()))


@dataclass
class RunToFailureSequence:
    """Chronologically ordered signals plus per-file failure notes."""

    signals: list
    paths: list
    errors: list  # (path, message) for files that failed to parse

    def __len__(self):
        return len(self.signals)


def iterate_run_to_failure(directory, channel, sample_rate_hz):
    """Read every snapshot in a directory in filename-timestamp order.

    Files whose names do not parse as timestamps, or whose contents fail
    to parse, are recorded in ``errors`` and skipped; iteration continues.
    A ``channel`` that no parsed file has raises ``ValueError``.  The
    sequence index of the result is the chronological "test file No.".
    """
    directory = Path(directory)
    entries = sorted(p for p in directory.iterdir() if p.is_file())
    if not entries:
        raise FileNotFoundError(f"no files found in {directory}")

    stamped, errors = [], []
    for path in entries:
        ts = _parse_timestamp(path)
        if ts is None:
            errors.append((str(path), "filename does not encode a timestamp"))
            continue
        stamped.append((ts, path))
    stamped.sort(key=lambda item: (item[0], item[1].name))

    signals, paths, n_parsed = [], [], 0
    for _, path in stamped:
        try:
            snapshot = read_ims_file(path, sample_rate_hz)
            n_parsed += 1
            signals.append(snapshot.channel_signal(channel))
            paths.append(path)
        except (ValueError, OSError) as exc:
            errors.append((str(path), str(exc)))
    if n_parsed and not signals:
        raise ValueError(
            f"channel {channel} is out of range in all {n_parsed} parseable snapshots in {directory}"
        )
    if not signals:
        raise FileNotFoundError(f"no parseable snapshot files in {directory}")
    return RunToFailureSequence(signals=signals, paths=paths, errors=errors)
