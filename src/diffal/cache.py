"""On-disk cache for neighbor lists, spectral decompositions and
nearest-denser results.

Entries are keyed by a content hash of the points plus the parameters that
produced them, stored as pickle-free files of named arrays (write_arrays)
whose header holds a magic, the format version (3), the array count and
each array's name, dtype, ndim and shape.  The reader is told the arrays it
expects (read_arrays), builds their header and compares the file's bytes
with it; it parses nothing.  An entry that differs in any byte or in length
is a miss and is overwritten by the recomputed result, so an entry written
in an older format, or whose arrays lack the shapes the caller expects from
n, k and num_eigs or the dtypes int64 (indices) and float64 (values), is
recomputed once.  Spectrum keys carry the eigensolver version, so spectra
cached by an older solver are recomputed.

A "rho" entry holds geometry.nearest_denser_points's two arrays at one
diffusion time, 16 bytes per point.  Its key hashes the points, k, sigma,
sigma0, num_eigs, the eigensolver version and repr(float(t)), so an
np.float64 grid time and the same --t typed as a number share one entry.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from .graph import NeighborLists, SpectralDecomposition

FORMAT_VERSION = 3

# An entry file is _header of its arrays, then every array's bytes in C
# order and header order, in the byte order its dtype string names.  Reading
# one is a single readinto and a view per array: 17-27 us for a rho entry of
# 1 460 points on one core of a shared 2-vCPU x86 machine, against 306 us
# for np.load of the same arrays as an .npz archive, whose zip directory and
# per-array headers dominate.
_MAGIC = b"DIFFALCA"
_ARRAY_HEAD = struct.Struct("<16s8sI")  # name, numpy dtype string, ndim
_INDEX_ARRAYS = ("indices", "nearest_higher")  # int64; every other array is float64


@dataclass(frozen=True)
class NearestDenser:
    """geometry.nearest_denser_points's (rho, nearest_higher) at one diffusion time."""

    rho: np.ndarray
    nearest_higher: np.ndarray


def points_hash(points: np.ndarray):
    """sha256 state after the points' shape and bytes, for params_key to extend."""
    arr = np.ascontiguousarray(points, dtype=np.float64)
    h = hashlib.sha256(str(arr.shape).encode())
    h.update(arr)
    return h


def params_key(points_state, **params) -> str:
    """Hex digest identifying the points hashed into points_state (see
    points_hash) and the sorted params; hashes a copy of the state."""
    h = points_state.copy()
    for name in sorted(params):
        h.update(f"|{name}={params[name]!r}".encode())
    return h.hexdigest()


def _header(layout) -> bytes:
    """The header of an entry holding the (name, dtype, shape) triples of
    layout: _MAGIC, FORMAT_VERSION and the array count, then one _ARRAY_HEAD
    and the shape per array, integers little-endian."""
    head = [_MAGIC, struct.pack("<2I", FORMAT_VERSION, len(layout))]
    for name, dtype, shape in layout:
        dtype = np.dtype(dtype)
        if len(name) > 16 or dtype.hasobject:
            raise ValueError(f"cannot store array {name!r} of dtype {dtype}")
        head.append(_ARRAY_HEAD.pack(name.encode("ascii"), dtype.str.encode("ascii"), len(shape)))
        head.append(struct.pack(f"<{len(shape)}q", *shape))
    return b"".join(head)


def write_arrays(fh, arrays: dict) -> None:
    """Write named numeric arrays to the binary file fh as one entry."""
    values = [np.ascontiguousarray(value) for value in arrays.values()]
    fh.write(_header([(name, value.dtype, value.shape) for name, value in zip(arrays, values)]))
    for value in values:
        fh.write(value.tobytes())


def read_arrays(path, layout) -> dict:
    """The arrays of the entry file at path by name, as writable arrays, when
    it holds exactly the (name, dtype, shape) triples of layout in that order.

    Raises OSError when the file cannot be read, and ValueError when its
    bytes are not that entry's header followed by that many array bytes.
    """
    head = _header(layout)
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for _, dtype, shape in layout]
    # one byte more than the entry needs, so an overlong file shows
    buf = bytearray(len(head) + sum(sizes) + 1)
    with open(path, "rb") as fh:
        size = fh.readinto(buf)
    if size != len(buf) - 1 or buf[:len(head)] != head:
        raise ValueError(f"{path} is not the entry its layout describes")
    arrays, pos = {}, len(head)
    for (name, dtype, shape), nbytes in zip(layout, sizes):
        arrays[name] = np.frombuffer(buf, dtype, math.prod(shape), pos).reshape(shape)
        pos += nbytes
    return arrays


class DiffusionCache:
    def __init__(self, directory):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.directory, f"{kind}_{key}.bin")

    def _load(self, kind: str, key: str, cls, shapes: dict):
        """The entry as a cls, or None unless it holds cls's fields in order,
        each of shape shapes[name] and of dtype int64 (_INDEX_ARRAYS) or
        float64."""
        layout = [(field.name, np.int64 if field.name in _INDEX_ARRAYS else np.float64,
                   shapes[field.name]) for field in fields(cls)]
        try:
            arrays = read_arrays(self._path(kind, key), layout)
        except (OSError, ValueError):
            return None
        return cls(**arrays)

    def _save(self, kind: str, key: str, entry) -> None:
        arrays = {field.name: getattr(entry, field.name) for field in fields(entry)}
        # a temp file of its own per writer, renamed into place atomically,
        # so concurrent writers of one entry never mix their bytes
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                write_arrays(fh, arrays)
            os.replace(tmp, self._path(kind, key))
        except BaseException:
            os.unlink(tmp)
            raise

    def load_neighbors(self, key: str, shape) -> NeighborLists | None:
        """The cached lists, or None; shape is the expected (n, k)."""
        return self._load("nb", key, NeighborLists,
                          dict.fromkeys(("indices", "distances"), tuple(shape)))

    def save_neighbors(self, key: str, nb: NeighborLists) -> None:
        self._save("nb", key, nb)

    def load_spectrum(self, key: str, shape) -> SpectralDecomposition | None:
        """The cached spectrum, or None; shape is the expected (n, num_eigs)."""
        n, num_eigs = shape
        return self._load("eig", key, SpectralDecomposition,
                          {"eigenvalues": (num_eigs,), "basis": (n, num_eigs), "stationary": (n,)})

    def save_spectrum(self, key: str, spec: SpectralDecomposition) -> None:
        self._save("eig", key, spec)

    def load_rho(self, key: str, shape) -> NearestDenser | None:
        """The cached nearest-denser result, or None; shape is the expected (n,)."""
        return self._load("rho", key, NearestDenser,
                          dict.fromkeys(("rho", "nearest_higher"), tuple(shape)))

    def save_rho(self, key: str, entry: NearestDenser) -> None:
        self._save("rho", key, entry)
