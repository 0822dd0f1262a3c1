"""On-disk cache for neighbor lists, spectral decompositions and
nearest-denser results.

Entries are keyed by a content hash of the points plus the parameters that
produced them, stored as pickle-free files of named arrays (write_arrays)
carrying a format version, so stale layouts are rejected instead of
misread.  An entry that cannot be trusted counts as a miss and is
overwritten by the recomputed result: one that cannot be read (truncated,
corrupt), that lacks an array, or whose arrays do not have the shapes the
caller expects from n, k and num_eigs and the dtypes int64 (indices) and
float64 (values).  Spectrum keys carry the eigensolver version, so spectra
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

FORMAT_VERSION = 2

# An entry file is _MAGIC, the number of arrays, one _ARRAY_HEAD plus its
# shape per array (integers little-endian), then every array's bytes in C
# order and header order, in the byte order its dtype string names.  Reading
# one is a single read and a view per array: 34 us for a rho entry of 1 460
# points on one core of a shared 2-vCPU x86 machine, against 306 us for
# np.load of the same arrays as an .npz archive, whose zip directory and
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


def write_arrays(fh, arrays: dict) -> None:
    """Write named numeric arrays to the binary file fh as one entry."""
    values = [np.ascontiguousarray(value) for value in arrays.values()]
    head = [_MAGIC, struct.pack("<I", len(values))]
    for name, value in zip(arrays, values):
        if len(name) > 16 or value.dtype.hasobject:
            raise ValueError(f"cannot store array {name!r} of dtype {value.dtype}")
        head.append(_ARRAY_HEAD.pack(name.encode("ascii"), value.dtype.str.encode("ascii"),
                                     value.ndim))
        head.append(struct.pack(f"<{value.ndim}q", *value.shape))
    fh.write(b"".join(head))
    for value in values:
        fh.write(value.tobytes())


def read_arrays(path) -> dict:
    """The named arrays of an entry file, as writable arrays.

    Raises OSError when the file cannot be read, and ValueError, TypeError
    or struct.error when its bytes are not one whole entry: a bad magic,
    a header past the end, a dtype that is not numeric, or a size other
    than the headers add up to.
    """
    with open(path, "rb") as fh:
        buf = bytearray(fh.read())
    if buf[:len(_MAGIC)] != _MAGIC:
        raise ValueError("not a cache entry")
    (count,) = struct.unpack_from("<I", buf, len(_MAGIC))
    pos = len(_MAGIC) + 4
    heads = []
    for _ in range(count):
        name, code, ndim = _ARRAY_HEAD.unpack_from(buf, pos)
        pos += _ARRAY_HEAD.size
        if ndim > 32:
            raise ValueError(f"array of {ndim} dimensions")
        shape = struct.unpack_from(f"<{ndim}q", buf, pos)
        pos += 8 * ndim
        dtype = np.dtype(code.rstrip(b"\0").decode("ascii"))
        if dtype.hasobject or any(size < 0 for size in shape):
            raise ValueError(f"array of dtype {dtype} and shape {shape}")
        heads.append((name.rstrip(b"\0").decode("ascii"), dtype, shape))
    arrays = {}
    for name, dtype, shape in heads:
        size = math.prod(shape)
        arrays[name] = np.frombuffer(buf, dtype, size, pos).reshape(shape)
        pos += size * dtype.itemsize
    if pos != len(buf):
        raise ValueError(f"entry of {len(buf)} bytes, its headers add up to {pos}")
    return arrays


class DiffusionCache:
    def __init__(self, directory):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.directory, f"{kind}_{key}.bin")

    def _load(self, kind: str, key: str, cls, shapes: dict):
        """The entry as a cls built from the arrays named in shapes, or None
        when it is missing, stale, unreadable, lacks one of those arrays or
        holds one whose shape is not shapes[name] or whose dtype is not
        int64 (_INDEX_ARRAYS) or float64."""
        try:
            arrays = read_arrays(self._path(kind, key))
        except (OSError, ValueError, TypeError, struct.error):
            return None
        version = arrays.get("format_version")
        if version is None or version.shape != (1,) or version[0] != FORMAT_VERSION:
            return None
        if any(name not in arrays or arrays[name].shape != want
               or arrays[name].dtype != (np.int64 if name in _INDEX_ARRAYS else np.float64)
               for name, want in shapes.items()):
            return None
        return cls(**{name: arrays[name] for name in shapes})

    def _save(self, kind: str, key: str, entry) -> None:
        arrays = {field.name: getattr(entry, field.name) for field in fields(entry)}
        arrays["format_version"] = np.array([FORMAT_VERSION], dtype=np.int64)
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
