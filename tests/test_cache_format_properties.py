"""Cache entry files: every write_arrays entry of int64 and float64 arrays
reads back bit for bit through read_arrays with its own layout, and the
same entry one byte short, one byte long or with one header byte flipped
is a ValueError."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from diffal.cache import read_arrays, write_arrays


@st.composite
def entries(draw):
    """1 to 4 named int64/float64 arrays of 1 to 3 dimensions, some with a
    side of length 0, some in Fortran order."""
    names = draw(st.lists(st.text("abcdefghij_", min_size=1, max_size=16),
                          min_size=1, max_size=4, unique=True))
    arrays = {}
    for name in names:
        dtype = draw(st.sampled_from([np.int64, np.float64]))
        value = draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=3,
                                                        min_side=0, max_side=5)))
        arrays[name] = np.asfortranarray(value) if draw(st.booleans()) else value
    return arrays


def _written(arrays):
    fd, path = tempfile.mkstemp(suffix=".bin")
    with os.fdopen(fd, "wb") as fh:
        write_arrays(fh, arrays)
    return path


@settings(max_examples=200, deadline=None)
@given(entries(), st.data())
def test_entry_round_trips_and_one_damaged_byte_is_refused(arrays, data):
    layout = [(name, value.dtype, value.shape) for name, value in arrays.items()]
    path = _written(arrays)
    try:
        loaded = read_arrays(path, layout)
        assert list(loaded) == list(arrays)
        for name, value in arrays.items():
            assert loaded[name].dtype == value.dtype
            assert loaded[name].shape == value.shape
            assert loaded[name].tobytes() == value.tobytes()
            assert loaded[name].flags.writeable

        with open(path, "rb") as fh:
            good = fh.read()
        header = len(good) - sum(value.nbytes for value in arrays.values())
        flip = data.draw(st.integers(0, header - 1))
        mask = data.draw(st.integers(1, 255))
        # one byte short, one byte appended, one header byte flipped
        for raw in (good[:-1], good + data.draw(st.binary(min_size=1, max_size=1)),
                    good[:flip] + bytes([good[flip] ^ mask]) + good[flip + 1:]):
            with open(path, "wb") as fh:
                fh.write(raw)
            with pytest.raises(ValueError):
                read_arrays(path, layout)
    finally:
        os.unlink(path)
