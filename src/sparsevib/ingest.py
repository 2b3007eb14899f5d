"""Readers for every text input: run-to-failure snapshots and the classify manifest.

Snapshots use the classic NASA/IMS layout: plain-text files, one row per
sample, tab-separated sensor channels, and the acquisition timestamp in
the filename as ``YYYY.MM.DD.HH.MM.SS``.  The same reader and writer serve
the CLI's one-column signal CSV, which adds a ``sample`` header line.
A file's sample rate is the caller's, else its ``<name>.json`` sidecar's
(:class:`SnapshotFiles`).  Every file is read by ``_read_bytes``.  A
snapshot's fields are counted per line on its bytes, and then only the
column asked for is parsed (:func:`read_ims_file`); the manifest, and a
snapshot's lines when they need stripping or hold an error, are walked by
``_lines``.
"""

import codecs
import io
import json
import sys
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core_signal import Signal
from .errors import SignalParseError, naming
from .simulate import LabeledDataset

__all__ = [
    "SnapshotFile",
    "read_ims_file",
    "write_ims_file",
    "iterate_run_to_failure",
    "SnapshotFiles",
    "RunToFailureFiles",
    "RunToFailureSequence",
    "Skipped",
    "read_manifest",
]

TIMESTAMP_FORMAT = "%Y.%m.%d.%H.%M.%S"


@dataclass
class SnapshotFile:
    """One parsed snapshot: the columns read (rows = time), the file's width and metadata.

    ``channels`` holds every column when ``channel`` is None, else column
    ``channel`` alone, or no column when the file has no such column.
    """

    path: Path
    channels: np.ndarray
    sample_rate_hz: float
    n_channels: int
    channel: int | None = None

    def channel_signal(self, channel):
        """One channel as a :class:`Signal` that owns its samples, not a view of the matrix.

        Every ``ValueError`` it raises names the file.
        """
        with naming(self.path.name):
            if not (0 <= channel < self.n_channels):
                raise ValueError(f"channel {channel} out of range for "
                                 f"{self.n_channels}-channel file")
            if self.channel not in (None, channel):
                raise ValueError(f"channel {channel} was not read; channel {self.channel} was")
            samples = self.channels[:, 0 if self.channel is not None else channel].copy()
            bad = np.flatnonzero(~np.isfinite(samples))
            if bad.size:
                raise ValueError(f"sample row {bad[0] + 1} of channel {channel} "
                                 f"is {samples[bad[0]]}, not a finite number")
            return Signal(samples, self.sample_rate_hz)


def _parse_timestamp(path):
    try:
        return datetime.strptime(Path(path).name, TIMESTAMP_FORMAT)
    except ValueError:
        return None


def _is_number(token):
    """Whether ``np.loadtxt`` reads ``token`` as a float: ASCII once stripped, no ``_``."""
    token = token.strip()
    if not token.isascii() or "_" in token:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _read_bytes(path):
    """A file's bytes from one read, every line end made ``\\n``, checked to be UTF-8 text.

    ``\\r\\n`` and ``\\r`` end a line too (universal newlines).  Bytes that
    are not UTF-8 raise at their line.  A leading UTF-8 byte-order mark is
    dropped.  UTF-8 puts no ``\\r``, ``\\n`` or ``\\t`` byte inside a
    multi-byte character, so the bytes and their text have the same lines and
    tabs.  ASCII bytes are UTF-8 as they are; only others are decoded here.
    """
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    if b"\r" in data:  # a scan costs about a hundredth of the two rewrites
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = data.count(b"\n", 0, exc.start) + 1
            raise SignalParseError(f"line {line_no} is not UTF-8 text", line=line_no) from None
    return data


def _lines(text):
    """``(line_no, stripped)`` for the non-blank lines of a ``_read_bytes`` text."""
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if stripped:
            yield line_no, stripped


def _fields_per_line(data):
    """Each line's count of tab-separated fields, and whether some line needs stripping.

    A line needs stripping when it is blank or starts or ends with a byte that
    is not printable ASCII; only for lines that need none is the count the
    field count of the stripped line.  Works on the bytes, with no line list.
    """
    b = np.frombuffer(data, np.uint8)
    marks = np.flatnonzero(b <= 10)  # tabs and line ends, and the rare control byte
    kinds = b[marks]
    ends = marks[kinds == 10]
    if data and data[-1] != 10:  # the last line has no line end
        ends = np.append(ends, b.size)
    tabs = np.searchsorted(marks[kinds == 9], ends)  # tabs before each line end
    counts = np.diff(tabs, prepend=0) + 1
    starts = np.append(0, ends[:-1] + 1)[: ends.size]
    edges = b[np.concatenate([starts, ends - 1])]  # a blank line's first byte is its line end
    return counts, bool(((edges <= 32) | (edges >= 127)).any())


def read_ims_file(path, sample_rate_hz, channel=None):
    """Parse a tab-separated all-numeric snapshot file: every column, or only ``channel``.

    Line 1 is taken as a header and skipped when its first field is not a
    number; blank and whitespace-only lines are skipped, and each line is
    stripped.  Any row count is accepted (real datasets contain truncated
    files).  A ragged row, a byte that is not UTF-8 or a non-numeric token in
    a column that is read raises :class:`SignalParseError` carrying the
    offending 1-based line number.  With ``channel`` given, only that column
    is parsed: text in any other column is no error, and when the file has no
    such column none is parsed, and :meth:`SnapshotFile.channel_signal` says so.
    Every error it raises starts with the file's name.
    """
    path = Path(path)
    with naming(path.name):
        data = original = _read_bytes(path)
        end = data.find(b"\n")
        first = data[: end if end >= 0 else len(data)].decode().strip()
        has_header = bool(first) and not _is_number(first.split("\t")[0])
        counts, needs_strip = _fields_per_line(data)
        if needs_strip:
            data = "\n".join(stripped for _, stripped in _lines(data.decode())).encode()
            counts, _ = _fields_per_line(data)
        rows = counts[int(has_header):]
        if rows.size == 0:
            raise SignalParseError("file contains no samples")
        width = int(rows[0])
        in_range = channel is None or 0 <= channel < width
        try:
            if (rows != width).any():
                raise ValueError("ragged")  # the walk below finds the line
            channels = (np.loadtxt(io.BytesIO(data), delimiter="\t", comments=None,
                                   encoding="utf-8", skiprows=int(has_header), usecols=channel,
                                   ndmin=2)
                        if in_range else np.empty((rows.size, 0)))
        except ValueError as exc:
            # np.loadtxt numbers rows from 0 with blank lines left out, so its row
            # is not the file line: walk the text to the first malformed line.
            # The columns read: all, column ``channel``, or none when the file has no such column.
            read = slice(None) if channel is None else slice(channel, channel + in_range)
            for line_no, stripped in _lines(original.decode()):
                if line_no == 1 and has_header:
                    continue
                tokens = stripped.split("\t")
                if not all(map(_is_number, tokens[read])):
                    raise SignalParseError(f"non-numeric content on line {line_no}",
                                           line=line_no) from None
                if len(tokens) != width:
                    raise SignalParseError(f"expected {width} columns on line {line_no}, "
                                           f"got {len(tokens)}", line=line_no) from None
            raise SignalParseError(str(exc)) from None
        return SnapshotFile(path=path, channels=channels, sample_rate_hz=float(sample_rate_hz),
                            n_channels=width, channel=channel)


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


def _sample_rate(path, sample_rate_hz):
    """``sample_rate_hz``, or when None the rate in ``path``'s ``<name>.json`` sidecar."""
    if sample_rate_hz is not None:
        return sample_rate_hz
    sidecar = path.with_name(path.name + ".json")
    with naming(sidecar.name):
        try:
            meta = json.loads(sidecar.read_text(encoding="utf-8"))
        except FileNotFoundError:
            meta = {}
        except ValueError as exc:
            raise ValueError(f"sidecar is not valid JSON ({exc})") from None
        if not isinstance(meta, dict):
            raise ValueError("sidecar is not a JSON object")
        rate = meta.get("sample_rate_hz")
        if rate is not None and not (type(rate) in (int, float)
                                     and 0 < rate <= sys.float_info.max):
            raise ValueError(f"sample_rate_hz {rate!r} is not a positive finite number")
    if rate is None:
        path.stat()  # a missing file is reported as missing, not as one without a rate
        raise ValueError(f"{path.name}: sample rate unknown; pass --sample-rate or provide a sidecar")
    return rate


class SnapshotFiles:
    """Channel ``channel`` of each of ``paths``, read when indexed: ``files[i]`` reads file ``i``.

    Each read parses that column alone (``read_ims_file(path, rate, channel)``), so text in
    another column is no error.  A given ``sample_rate_hz`` is checked before any read; None
    takes each file's sidecar rate.
    """

    def __init__(self, paths, channel, sample_rate_hz):
        if sample_rate_hz is not None and not (0 < sample_rate_hz < np.inf):
            raise ValueError("sample_rate_hz must be positive and finite")
        self.paths = [Path(path) for path in paths]
        self.channel = channel
        self.sample_rate_hz = sample_rate_hz

    def __len__(self):
        return len(self.paths)

    def read(self, i):
        """File ``i`` as a :class:`SnapshotFile` that holds column ``channel`` alone."""
        return read_ims_file(self.paths[i], _sample_rate(self.paths[i], self.sample_rate_hz),
                             self.channel)

    def __getitem__(self, i):
        return self.read(i).channel_signal(self.channel)


@dataclass
class RunToFailureSequence:
    """Chronologically ordered signals plus per-file failure notes."""

    signals: list  # each file's Signal, or what the caller of ``sequence`` made of it
    paths: list
    errors: list  # (path, message) for files that failed to parse

    def __len__(self):
        return len(self.signals)


class Skipped(NamedTuple):
    """Why a snapshot file gives no signal; ``n_channels`` is None when the file did not parse."""

    message: str
    n_channels: int | None


class RunToFailureFiles(SnapshotFiles):
    """The snapshot files of a run-to-failure directory, in filename-timestamp order, unread.

    ``errors`` notes each name that is no timestamp, except the ``<name>.json`` sidecar of a
    timestamped ``<name>``.  ``files[i]`` gives a :class:`Skipped` where :class:`SnapshotFiles`
    raises, and :meth:`sequence` applies the skip rules to what came back.
    """

    def __init__(self, directory, channel, sample_rate_hz):
        self.directory = Path(directory)
        entries = sorted(p for p in self.directory.iterdir() if p.is_file())
        if not entries:
            raise FileNotFoundError(f"no files found in {self.directory}")
        stamped = [(_parse_timestamp(path), path) for path in entries]
        sidecars = {path.with_name(path.name + ".json") for ts, path in stamped if ts is not None}
        self.errors = [(str(path), "filename does not encode a timestamp")
                       for ts, path in stamped if ts is None and path not in sidecars]
        stamped = sorted((ts, path.name, path) for ts, path in stamped if ts is not None)
        super().__init__([path for *_, path in stamped], channel, sample_rate_hz)

    def __getitem__(self, i):
        try:
            snapshot = self.read(i)
        except (ValueError, OSError) as exc:
            return Skipped(str(exc), None)
        try:
            return snapshot.channel_signal(self.channel)
        except ValueError as exc:
            return Skipped(str(exc), snapshot.n_channels)

    def sequence(self, outcomes):
        """The files that gave a signal, given ``outcomes[i]``: ``files[i]``, or what was made of it.

        A :class:`Skipped` outcome is recorded in ``errors`` and left out.  With
        no signal the error says why: the ``channel`` is out of range in every
        parsed file, or it cites the first three files' errors, or, with no
        timestamped file, the first three names that are no timestamp.
        """
        pairs = list(zip(self.paths, outcomes))
        errors = self.errors + [(str(p), o.message) for p, o in pairs if isinstance(o, Skipped)]
        kept = [(p, o) for p, o in pairs if not isinstance(o, Skipped)]
        if kept:
            return RunToFailureSequence(signals=[o for _, o in kept], paths=[p for p, _ in kept],
                                        errors=errors)
        parsed = [outcome for outcome in outcomes if outcome.n_channels is not None]
        if parsed and all(not 0 <= self.channel < width for _, width in parsed):
            raise ValueError(f"channel {self.channel} is out of range in all {len(parsed)} "
                             f"parseable snapshots in {self.directory}")
        cited = ([message for message, _ in parsed or outcomes]
                 or [f"{Path(path).name}: {message}" for path, message in self.errors])
        more = f"; and {len(cited) - 3} more" if len(cited) > 3 else ""
        why = ": " + "; ".join(cited[:3]) + more
        if parsed:
            raise ValueError(f"no parseable snapshot in {self.directory} gives a signal on "
                             f"channel {self.channel}{why}")
        raise FileNotFoundError(f"no parseable snapshot files in {self.directory}{why}")


def iterate_run_to_failure(directory, channel, sample_rate_hz):
    """Read every snapshot in a directory in filename-timestamp order, one after another.

    The files that give no signal are recorded in ``errors`` and skipped (see
    :class:`RunToFailureFiles`); the index of the result is the "test file No.".
    """
    files = RunToFailureFiles(directory, channel, sample_rate_hz)
    return files.sequence([files[i] for i in range(len(files))])


def read_manifest(path, sample_rate_hz):
    """The snapshots of a classify manifest of ``path,label`` lines, unread, and their labels.

    Paths are relative to the manifest; line 1 is a header when it starts
    with ``path``.  A malformed line raises :class:`SignalParseError` at it,
    before any snapshot is read.  The signals are channel 0 of each file, a
    :class:`SnapshotFiles` at ``sample_rate_hz`` (None: each file's sidecar's).
    """
    path = Path(path)
    with naming(path.name):
        paths, labels = [], []
        for line_no, stripped in _lines(_read_bytes(path).decode()):
            if line_no == 1 and stripped.lower().startswith("path"):
                continue
            file_path, _, label = (t.strip() for t in stripped.partition(","))
            if not (file_path and label):
                raise SignalParseError(f"line {line_no}: expected 'path,label'", line=line_no)
            paths.append(path.parent / file_path)
            labels.append(label)
        if not paths:
            raise SignalParseError("empty manifest")
    return LabeledDataset(signals=SnapshotFiles(paths, 0, sample_rate_hz), labels=labels)
