"""Property test: the snapshot writer and reader round-trip every float64 bit pattern."""

import numpy as np
import pytest

from sparsevib import read_ims_file, write_ims_file

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
