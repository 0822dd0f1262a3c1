"""On-disk cache for neighbor lists, spectral decompositions and
nearest-denser results.

Entries are keyed by a content hash of the points plus the parameters that
produced them, stored as pickle-free .npz archives carrying a format
version, so stale layouts are rejected instead of misread.  An entry that
cannot be trusted counts as a miss and is overwritten by the recomputed
result: one that cannot be read (truncated, corrupt), that lacks an array,
or whose arrays do not have the shapes the caller expects from n, k and
num_eigs.  Spectrum keys carry the eigensolver version, so spectra cached
by an older solver are recomputed.

A "rho" entry holds geometry.nearest_denser_points's two arrays at one
diffusion time, 16 bytes per point.  Its key hashes the points, k, sigma,
sigma0, num_eigs, the eigensolver version and repr(float(t)), so an
np.float64 grid time and the same --t typed as a number share one entry.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from .graph import NeighborLists, SpectralDecomposition

FORMAT_VERSION = 1


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
    """content_key of the points hashed into points_state; hashes a copy."""
    h = points_state.copy()
    for name in sorted(params):
        h.update(f"|{name}={params[name]!r}".encode())
    return h.hexdigest()


def content_key(points: np.ndarray, **params) -> str:
    """Hex digest identifying (points, sorted params)."""
    return params_key(points_hash(points), **params)


class DiffusionCache:
    def __init__(self, directory):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.directory, f"{kind}_{key}.npz")

    def _load(self, kind: str, key: str, cls, shapes: dict):
        """The entry as a cls built from the arrays named in shapes, or None
        when it is missing, stale, unreadable, lacks one of those arrays or
        holds one whose shape is not shapes[name]."""
        path = self._path(kind, key)
        if not os.path.exists(path):
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                if int(data["format_version"][0]) != FORMAT_VERSION:
                    return None
                arrays = {name: data[name] for name in shapes}
        except (zipfile.BadZipFile, OSError, ValueError, KeyError):
            return None
        if any(arrays[name].shape != want for name, want in shapes.items()):
            return None
        return cls(**arrays)

    def _save(self, kind: str, key: str, entry) -> None:
        arrays = {field.name: getattr(entry, field.name) for field in fields(entry)}
        arrays["format_version"] = np.array([FORMAT_VERSION], dtype=np.int64)
        # a temp file of its own per writer, renamed into place atomically,
        # so concurrent writers of one entry never mix their bytes
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
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
