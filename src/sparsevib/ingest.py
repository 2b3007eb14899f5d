"""Readers for every text input: run-to-failure snapshots and the classify manifest.

Snapshots use the classic NASA/IMS layout: plain-text files, one row per
sample, tab-separated sensor channels, and the acquisition timestamp in
the filename as ``YYYY.MM.DD.HH.MM.SS``.  The same reader and writer serve
the CLI's one-column signal CSV, which adds a ``sample`` header line.
A file's sample rate is the caller's, else its ``<name>.json`` sidecar's
(:class:`SnapshotFiles`).  Every file is decoded by ``_read_text`` and walked by ``_lines``.
"""

import codecs
import json
import sys
import warnings
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
        with naming(self.path.name):
            if not (0 <= channel < self.n_channels):
                raise ValueError(f"channel {channel} out of range for "
                                 f"{self.n_channels}-channel file")
            samples = self.channels[:, channel].copy()
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
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise SignalParseError(f"line {line_no} is not UTF-8 text", line=line_no) from None
    if "\r" in text:  # a scan costs about a hundredth of the two rewrites
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


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
    Every error it raises starts with the file's name.
    """
    path = Path(path)
    with naming(path.name):
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
                    raise SignalParseError(f"non-numeric content on line {line_no}",
                                           line=line_no) from None
                if width is None:
                    width = len(tokens)
                elif len(tokens) != width:
                    raise SignalParseError(f"expected {width} columns on line {line_no}, "
                                           f"got {len(tokens)}", line=line_no) from None
            raise SignalParseError(str(exc)) from None
        if channels.size == 0:
            raise SignalParseError("file contains no samples")
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

    A given ``sample_rate_hz`` is checked before any read; None takes each file's sidecar rate.
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
        """File ``i`` as a :class:`SnapshotFile`, every channel of it."""
        return read_ims_file(self.paths[i], _sample_rate(self.paths[i], self.sample_rate_hz))

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
        for line_no, stripped in _lines(_read_text(path)):
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
