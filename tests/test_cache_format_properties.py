"""Cache entry files: every write_arrays entry of int64 and float64 arrays
reads back bit for bit through read_arrays with its own layout, and the
same entry one byte short, one byte long or with one header byte flipped
is a ValueError.  Each DiffusionCache kind saved then loaded comes back
bit for bit and aligned, its file starting with the magic and the padded
text line of its layout, and loaded with a shape off by one it is a miss."""

import os
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import diffal as da
from diffal.cache import NearestDenser, read_arrays, write_arrays


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 5), st.integers(1, 5), st.data())
def test_each_kind_round_trips_and_a_shape_off_by_one_is_a_miss(n, k, num_eigs, data):
    """shape is the one each load_* takes; the entry's fields are listed in
    the dataclass's order, so a loader listing them otherwise misses."""
    def array(dtype, shape):
        return data.draw(hnp.arrays(dtype, shape))

    kinds = {
        "neighbors": ((n, k), da.NeighborLists(
            indices=array(np.int64, (n, k)),
            distances=array(np.float64, (n, k)))),
        "spectrum": ((n, num_eigs), da.SpectralDecomposition(
            eigenvalues=array(np.float64, (num_eigs,)),
            basis=array(np.float64, (n, num_eigs)),
            stationary=array(np.float64, (n,)))),
        "rho": ((n,), NearestDenser(rho=array(np.float64, (n,)),
                                    nearest_higher=array(np.int64, (n,)))),
    }
    with tempfile.TemporaryDirectory() as directory:
        cache = da.DiffusionCache(directory)
        for kind, (shape, entry) in kinds.items():
            getattr(cache, f"save_{kind}")(kind, entry)
            load = getattr(cache, f"load_{kind}")
            loaded = load(kind, shape=shape)
            assert type(loaded) is type(entry)
            line = [4]
            for field in fields(entry):
                want, got = getattr(entry, field.name), getattr(loaded, field.name)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert got.flags.aligned
                line.append((field.name, want.dtype.str, want.shape))
            (name,) = [name for name in os.listdir(directory) if name.endswith(f"_{kind}.bin")]
            with open(os.path.join(directory, name), "rb") as fh:
                raw = fh.read()
            # the magic, the layout's line, then spaces to a multiple of 8 bytes
            head, end = b"DIFFALCA" + repr(line).encode(), raw.index(b"\n") + 1
            assert end % 8 == 0 and raw[:end] == head + b" " * (end - 1 - len(head)) + b"\n"

            side = data.draw(st.integers(0, len(shape) - 1))
            step = data.draw(st.sampled_from([-1, 1]))
            off = tuple(size + step * (i == side) for i, size in enumerate(shape))
            assert load(kind, shape=off) is None


def test_a_loaded_entry_sums_as_the_saved_one():
    """Loaded arrays are aligned, so numpy reduces them as it reduces the
    arrays saved; 9 000 rows put a column's mean past numpy's reduction
    buffer of 8 192 elements, where a misaligned copy rounds otherwise."""
    rng = np.random.default_rng(0)
    nb = da.NeighborLists(indices=rng.integers(0, 9000, (9000, 10)),
                          distances=np.sort(rng.random((9000, 10)), axis=1))
    with tempfile.TemporaryDirectory() as directory:
        cache = da.DiffusionCache(directory)
        cache.save_neighbors("key", nb)
        loaded = cache.load_neighbors("key", shape=(9000, 10))
    assert da.default_sigma(loaded) == da.default_sigma(nb)
