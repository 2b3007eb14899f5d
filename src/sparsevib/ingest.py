"""Readers for every text input: run-to-failure snapshots and the classify manifest.

Snapshots use the classic NASA/IMS layout: plain-text files, one row per
sample, tab-separated sensor channels, and the acquisition timestamp in
the filename as ``YYYY.MM.DD.HH.MM.SS``.  The same reader and writer serve
the CLI's one-column signal CSV, which adds a ``sample`` header line.
Files carry no sample rate, so the caller supplies it.  Every file is
decoded by ``_read_text`` and walked by ``_lines``.
"""

import codecs
import warnings
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .core_signal import Signal
from .errors import SignalParseError
from .simulate import LabeledDataset

__all__ = [
    "SnapshotFile",
    "read_ims_file",
    "write_ims_file",
    "iterate_run_to_failure",
    "RunToFailureSequence",
    "read_manifest",
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
        """One channel as a :class:`Signal` that owns its samples, not a view of the matrix.

        Every ``ValueError`` it raises names the file.
        """
        if not (0 <= channel < self.n_channels):
            raise ValueError(
                f"{self.path.name}: channel {channel} out of range for "
                f"{self.n_channels}-channel file"
            )
        samples = self.channels[:, channel].copy()
        bad = np.flatnonzero(~np.isfinite(samples))
        if bad.size:
            raise ValueError(f"{self.path.name}: sample row {bad[0] + 1} of channel {channel} "
                             f"is {samples[bad[0]]}, not a finite number")
        try:
            return Signal(samples, self.sample_rate_hz)
        except ValueError as exc:
            raise ValueError(f"{self.path.name}: {exc}") from None


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


def _read_text(path):
    """A file's text from one read of its bytes, every newline made ``\\n``.

    ``\\r\\n`` and ``\\r`` end a line too (universal newlines).  Bytes that
    are not UTF-8 raise at their line, counted with the same line ends.  A
    leading UTF-8 byte-order mark is dropped before decoding, so the offset
    of a decode error and the line ends counted before it refer to the same
    bytes.
    """
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise SignalParseError(
            f"{path.name}: line {line_no} is not UTF-8 text", line=line_no
        ) from None


def _lines(text):
    """``(line_no, stripped)`` for the non-blank lines of a ``_read_text`` text."""
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if stripped:
            yield line_no, stripped


def read_ims_file(path, sample_rate_hz):
    """Parse a tab-separated all-numeric snapshot file.

    Line 1 is taken as a header and skipped when its first field is not a
    number; blank and whitespace-only lines are skipped.  Any row count is
    accepted (real datasets contain truncated files).  A non-numeric token,
    a ragged row or a byte that is not UTF-8 raises
    :class:`SignalParseError` carrying the offending 1-based line number.
    """
    path = Path(path)
    text = _read_text(path)
    lines = text.split("\n")
    has_header = not _is_number(lines[0].strip().split("\t")[0])
    try:
        with warnings.catch_warnings():
            # An empty file is reported below as a SignalParseError.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            channels = np.loadtxt(
                (line.strip() for line in lines), delimiter="\t", comments=None,
                skiprows=int(has_header), ndmin=2,
            )
    except ValueError as exc:
        # np.loadtxt numbers rows from 0 with blank lines left out, so its row
        # is not the file line: walk the text to the first malformed line.
        width = None
        for line_no, stripped in _lines(text):
            if line_no == 1 and has_header:
                continue
            tokens = stripped.split("\t")
            if not all(map(_is_number, tokens)):
                raise SignalParseError(
                    f"{path.name}: non-numeric content on line {line_no}", line=line_no
                ) from None
            if width is None:
                width = len(tokens)
            elif len(tokens) != width:
                raise SignalParseError(
                    f"{path.name}: expected {width} columns on line {line_no}, "
                    f"got {len(tokens)}", line=line_no,
                ) from None
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
    When no parsed file gives a signal, ``ValueError`` says why: the
    ``channel`` is out of range in every one, or it cites their errors
    (a non-finite sample, too few rows).  The sequence index of the result
    is the chronological "test file No.".
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

    signals, paths, unusable = [], [], []  # unusable: (channel count, error) per parsed file
    for _, path in stamped:
        try:
            snapshot = read_ims_file(path, sample_rate_hz)
        except (ValueError, OSError) as exc:
            errors.append((str(path), str(exc)))
            continue
        try:
            signals.append(snapshot.channel_signal(channel))
        except ValueError as exc:
            errors.append((str(path), str(exc)))
            unusable.append((snapshot.n_channels, str(exc)))
        else:
            paths.append(path)
    if unusable and not signals:
        if all(not 0 <= channel < width for width, _ in unusable):
            raise ValueError(f"channel {channel} is out of range in all {len(unusable)} "
                             f"parseable snapshots in {directory}")
        more = f"; and {len(unusable) - 3} more" if len(unusable) > 3 else ""
        raise ValueError(f"no parseable snapshot in {directory} gives a signal on channel "
                         f"{channel}: " + "; ".join(e for _, e in unusable[:3]) + more)
    if not signals:
        raise FileNotFoundError(f"no parseable snapshot files in {directory}")
    return RunToFailureSequence(signals=signals, paths=paths, errors=errors)


def read_manifest(path, sample_rate_hz):
    """Channel 0 of each snapshot in a classify manifest of ``path,label`` lines, and its label.

    Paths are relative to the manifest; line 1 is a header when it starts
    with ``path``.  A malformed line raises :class:`SignalParseError` at it.
    """
    path = Path(path)
    signals, labels = [], []
    for line_no, stripped in _lines(_read_text(path)):
        if line_no == 1 and stripped.lower().startswith("path"):
            continue
        try:
            file_path, label = (t.strip() for t in stripped.split(",", 1))
        except ValueError:
            raise SignalParseError(f"{path.name}: line {line_no}: expected 'path,label'",
                                   line=line_no) from None
        signals.append(read_ims_file(path.parent / file_path, sample_rate_hz).channel_signal(0))
        labels.append(label)
    if not signals:
        raise SignalParseError(f"{path}: empty manifest")
    return LabeledDataset(signals=signals, labels=labels)
