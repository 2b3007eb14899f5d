"""Property tests: the snapshot writer and reader round-trip every float64 bit pattern, and a
one-channel read gives the all-column read's column."""

import codecs
import re

import numpy as np
import pytest

from sparsevib import SignalParseError, read_ims_file, write_ims_file

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            np.finfo(float).max, -np.finfo(float).max]

matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 40), st.integers(1, 4)),
    elements=st.floats(allow_nan=False, width=64) | st.sampled_from(EXTREMES),
)


@settings(max_examples=150, deadline=None)
@given(matrix=matrices, header=st.sampled_from([None, "sample"]))
def test_write_then_read_is_bit_exact(tmp_path_factory, matrix, header):
    path = tmp_path_factory.mktemp("roundtrip") / "2004.02.12.10.32.39"
    write_ims_file(path, matrix, header=header)
    channels = read_ims_file(path, 20000.0).channels
    assert channels.shape == matrix.shape
    assert np.array_equal(channels.view(np.uint64), matrix.view(np.uint64))


NUMBERS = (st.sampled_from(["nan", "1e309", "-inf", "-0", " 2.5", "3 "])
           | st.floats().map("{:.17g}".format))
TEXT = st.sampled_from(["x", "1_000", "١", "\x00", "1\x00", ""])


@st.composite
def mutated_snapshots(draw):
    """A small 2-4-column snapshot's bytes, with some of the mutations a reader must survive."""
    width = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(NUMBERS, min_size=width, max_size=width), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):  # text in a column, read or not
        draw(st.sampled_from(rows))[draw(st.integers(0, width - 1))] = draw(TEXT)
    if draw(st.booleans()):  # a ragged row
        row = draw(st.sampled_from(rows))
        row[:] = row[:-1] if draw(st.booleans()) else [*row, "1"]
    lines = ["\t".join(row) + draw(st.sampled_from(["", "", "\t"])) for row in rows]
    for _ in range(draw(st.integers(0, 2))):  # blank and whitespace-only lines
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t", " \t"])))
    if draw(st.booleans()):
        lines.insert(0, "sample\tb")
    ends = draw(st.lists(st.sampled_from(["\n", "\r", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    data = "".join(line + end for line, end in zip(lines, ends)).encode()
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    if draw(st.booleans()):  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    if draw(st.booleans()):  # a cut file
        data = data[: draw(st.integers(0, len(data)))]
    return data, width


def _parses(token):
    try:
        return np.loadtxt([token + "\t0"], delimiter="\t", comments=None).size == 2
    except ValueError:
        return False


@settings(max_examples=120, deadline=None, derandomize=True)
@given(snapshot=mutated_snapshots())
def test_one_channel_read_is_the_all_column_read_s_column(tmp_path_factory, snapshot):
    """Same bits, or the same parse error at the same line, but for the documented rule: text
    in a column that is not read is no error.  Where the all-column read stops at such text, it
    is replaced by 0 and the file read again; ``channel == width`` reads no column at all."""
    data, width = snapshot

    def fresh_path():
        return tmp_path_factory.mktemp("channels") / "2004.02.12.10.32.39"

    original = fresh_path()
    original.write_bytes(data)
    for channel in range(width + 1):
        try:
            got, got_error = read_ims_file(original, 20000.0, channel), None
        except SignalParseError as exc:
            got, got_error = None, exc
        path = original
        while True:
            try:
                whole = read_ims_file(path, 20000.0)
            except SignalParseError as exc:
                if "non-numeric content" in str(exc):
                    lines = re.split("\r\n|\r|\n", path.read_bytes().decode("utf-8-sig"))
                    tokens = lines[exc.line - 1].strip().split("\t")
                    if all(map(_parses, tokens[channel:channel + 1])):  # text left unread
                        lines[exc.line - 1] = "\t".join(
                            token if _parses(token) else "0" for token in tokens)
                        path = fresh_path()
                        path.write_text("\n".join(lines))
                        continue
                assert got is None, (channel, str(exc))
                assert (got_error.line, str(got_error)) == (exc.line, str(exc))
                break
            assert got is not None, (channel, str(got_error))
            assert got.n_channels == whole.n_channels
            if channel < whole.n_channels:
                assert np.array_equal(got.channels[:, 0].view(np.uint64),
                                      whole.channels[:, channel].view(np.uint64))
            else:
                assert got.channels.shape == (whole.channels.shape[0], 0)
            break
