"""On-disk cache for neighbor lists and spectral decompositions.

Entries are keyed by a content hash of the points plus the parameters that
produced them, stored as pickle-free .npz archives carrying a format
version, so stale layouts are rejected instead of misread.  An entry that
cannot be read (truncated, corrupt) counts as a miss and is overwritten by
the recomputed result.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zipfile

import numpy as np

from .graph import NeighborLists, SpectralDecomposition

FORMAT_VERSION = 1


def content_key(points: np.ndarray, **params) -> str:
    """Hex digest identifying (points, sorted params)."""
    h = hashlib.sha256()
    arr = np.ascontiguousarray(points, dtype=np.float64)
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    for name in sorted(params):
        h.update(f"|{name}={params[name]!r}".encode())
    return h.hexdigest()


class DiffusionCache:
    def __init__(self, directory):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.directory, f"{kind}_{key}.npz")

    def _load(self, kind: str, key: str):
        """The entry's arrays, or None when it is missing, stale or unreadable."""
        path = self._path(kind, key)
        if not os.path.exists(path):
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                if int(data["format_version"][0]) != FORMAT_VERSION:
                    return None
                return {name: data[name] for name in data.files}
        except (zipfile.BadZipFile, OSError, ValueError, KeyError):
            return None

    def _save(self, kind: str, key: str, **arrays) -> None:
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

    def load_neighbors(self, key: str) -> NeighborLists | None:
        data = self._load("nb", key)
        if data is None:
            return None
        return NeighborLists(indices=data["indices"], distances=data["distances"])

    def save_neighbors(self, key: str, nb: NeighborLists) -> None:
        self._save("nb", key, indices=nb.indices, distances=nb.distances)

    def load_spectrum(self, key: str) -> SpectralDecomposition | None:
        data = self._load("eig", key)
        if data is None:
            return None
        return SpectralDecomposition(
            eigenvalues=data["eigenvalues"],
            basis=data["basis"],
            stationary=data["stationary"],
        )

    def save_spectrum(self, key: str, spec: SpectralDecomposition) -> None:
        self._save(
            "eig",
            key,
            eigenvalues=spec.eigenvalues,
            basis=spec.basis,
            stationary=spec.stationary,
        )
