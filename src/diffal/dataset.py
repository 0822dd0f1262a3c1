"""Point cloud and label containers plus file ingestion.

Conventions used throughout the package:
  * points are an (n, D) float64 array; row index identifies a point for
    the whole pipeline (index i always refers to the same point),
  * labels are a length-n int64 array; 0 means "unlabeled", classes are
    1..K; fully labeled vectors have no zeros,
  * hyperspectral cubes are raw band-sequential binaries with a plain-text
    sidecar header; pixel (r, c) flattens to point index r*cols + c.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class DataError(Exception):
    """Malformed input data or files."""


class _DataValueError(DataError, ValueError):
    """A data fault that the API raises as a ValueError: exit 3 in the CLI."""


@dataclass(frozen=True)
class PointCloud:
    """n points in D ambient dimensions, immutable after construction."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2:
            raise DataError(f"points must be a 2-d array, got shape {pts.shape}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DataError(f"need at least one point and one dimension, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            bad = int(np.argwhere(~np.isfinite(pts).all(axis=1))[0, 0])
            raise DataError(f"non-finite coordinate in point {bad}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.n


def validate_labels(labels, n: int | None = None, complete: bool = False) -> np.ndarray:
    """Coerce to a canonical int64 label vector and check the conventions.

    With complete=True every entry must be a positive class id (no zeros).
    """
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.size == 0:
        raise DataError(f"labels must be a non-empty 1-d array, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.floor(arr)):
            raise DataError("labels must be integers")
        arr = arr.astype(np.int64)
    arr = arr.astype(np.int64, copy=True)
    if np.any(arr < 0):
        bad = int(np.argmax(arr < 0))
        raise DataError(f"negative label at index {bad}")
    if n is not None and arr.shape[0] != n:
        raise DataError(f"label vector has length {arr.shape[0]}, expected {n}")
    if complete and np.any(arr == 0):
        bad = int(np.argmax(arr == 0))
        raise DataError(f"label vector must be fully labeled; index {bad} is 0")
    return arr


def _check_count(name: str, value: int, n: int) -> None:
    """The rule for a count of points, queries, clusters or eigenpairs: 1..n."""
    if not 1 <= value <= n:
        raise ValueError(f"need 1 <= {name} <= n, got {name}={value}, n={n}")


def _check_positive(name: str, value: float) -> None:
    """The rule for a kernel bandwidth: positive, so NaN fails too."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


@contextmanager
def _open_output(path):
    """path opened for writing UTF-8 text; an OSError of a write or of the
    closing flush (a full disk) names path, as one raised by open does."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        if exc.filename is not None:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _check_levels(levels, n: int) -> list:
    levels = list(levels)
    for ell in levels:
        _check_count("level", ell, n)
    return levels


def _read_lines(path, error=DataError, comments=False):
    """Yield (line number, stripped line) for each non-blank line of a UTF-8
    text file, read lazily, with `#` comments cut when asked.  Any failure to
    read it (missing, a directory, no permission, not UTF-8) raises `error`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if comments:
                    line = line.split("#", 1)[0]
                line = line.strip()
                if line:
                    yield lineno, line
    except FileNotFoundError:
        raise error(f"no such file: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_csv(path) -> PointCloud:
    """Load a comma-separated point file; row i becomes point index i."""
    rows: list[list[float]] = []
    width = None
    for lineno, line in _read_lines(path):
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise DataError(
                f"{path}: row {lineno} has {len(fields)} fields, expected {width}"
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise DataError(f"{path}: non-numeric field in row {lineno}") from None
    if not rows:
        raise DataError(f"{path}: file contains no data rows")
    return PointCloud(np.array(rows, dtype=np.float64))


def save_csv(path, cloud: PointCloud) -> None:
    with _open_output(path) as fh:
        for row in cloud.points:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def save_labels(path, labels) -> None:
    """Write one integer per line; line i is the label of point i."""
    arr = validate_labels(labels)
    with _open_output(path) as fh:
        for v in arr:
            fh.write(f"{int(v)}\n")


def load_labels(path) -> np.ndarray:
    values: list[int] = []
    for lineno, line in _read_lines(path):
        try:
            v = int(line)
        except ValueError:
            raise DataError(f"{path}: non-integer label in line {lineno}") from None
        if v < 0:
            raise DataError(f"{path}: negative label in line {lineno}")
        values.append(v)
    if not values:
        raise DataError(f"{path}: empty label file")
    return np.array(values, dtype=np.int64)


_HSI_DTYPES = {
    "uint8": np.uint8,
    "int16": np.int16,
    "uint16": np.uint16,
    "int32": np.int32,
    "float32": np.float32,
    "float64": np.float64,
}


@dataclass(frozen=True)
class HsiCubeHeader:
    """Sidecar description of a raw band-sequential hyperspectral cube."""

    rows: int
    cols: int
    bands: int
    dtype: str = "float32"
    byteorder: str = "little"

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1 or self.bands < 1:
            raise DataError("rows, cols, bands must all be positive")
        if self.dtype not in _HSI_DTYPES:
            raise DataError(f"unknown dtype tag {self.dtype!r}; known: {sorted(_HSI_DTYPES)}")
        if self.byteorder not in ("little", "big"):
            raise DataError(f"byteorder must be 'little' or 'big', got {self.byteorder!r}")

    @property
    def n_pixels(self) -> int:
        return self.rows * self.cols

    @property
    def np_dtype(self) -> np.dtype:
        order = "<" if self.byteorder == "little" else ">"
        return np.dtype(_HSI_DTYPES[self.dtype]).newbyteorder(order)

    @property
    def n_bytes(self) -> int:
        return self.rows * self.cols * self.bands * self.np_dtype.itemsize


def load_hsi_header(path) -> HsiCubeHeader:
    """Parse a header file with one `key value` pair per line."""
    fields: dict[str, str] = {}
    for lineno, line in _read_lines(path, comments=True):
        parts = line.replace("=", " ").split()
        if len(parts) != 2:
            raise DataError(f"{path}: malformed header line {lineno}: {line!r}")
        fields[parts[0].lower()] = parts[1]
    try:
        return HsiCubeHeader(
            rows=int(fields["rows"]),
            cols=int(fields["cols"]),
            bands=int(fields["bands"]),
            dtype=fields.get("dtype", "float32"),
            byteorder=fields.get("byteorder", "little"),
        )
    except KeyError as exc:
        raise DataError(f"{path}: missing header key {exc.args[0]!r}") from None
    except ValueError:
        raise DataError(f"{path}: non-integer rows/cols/bands value") from None


def save_hsi_header(path, header: HsiCubeHeader) -> None:
    with _open_output(path) as fh:
        fh.write(f"rows {header.rows}\n")
        fh.write(f"cols {header.cols}\n")
        fh.write(f"bands {header.bands}\n")
        fh.write(f"dtype {header.dtype}\n")
        fh.write(f"byteorder {header.byteorder}\n")


def load_hsi_cube(path, header: HsiCubeHeader, standardize: bool = False) -> PointCloud:
    """Load a raw band-sequential cube and flatten it to an (n_pixels, bands) cloud.

    The file holds bands * rows * cols values, band-major; pixel (r, c) maps
    to point index r*cols + c and its point is the D-band spectrum.  With
    standardize=True each band is shifted/scaled to zero mean, unit variance
    (constant bands are left centered only).
    """
    try:
        with open(path, "rb") as fh:
            actual = os.fstat(fh.fileno()).st_size
            if actual != header.n_bytes:
                raise DataError(
                    f"{path}: file is {actual} bytes but header implies "
                    f"{header.n_bytes} (rows*cols*bands*itemsize)"
                )
            raw = np.fromfile(fh, dtype=header.np_dtype)
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    cube = raw.reshape(header.bands, header.rows, header.cols)
    pts = np.moveaxis(cube, 0, -1).reshape(header.n_pixels, header.bands)
    pts = pts.astype(np.float64)
    if standardize:
        pts = pts - pts.mean(axis=0)
        sd = pts.std(axis=0)
        sd[sd == 0.0] = 1.0
        pts = pts / sd
    return PointCloud(pts)


def save_hsi_cube(path, cloud: PointCloud, header: HsiCubeHeader) -> None:
    """Inverse of load_hsi_cube (no standardization); used to build test cubes."""
    if cloud.n != header.n_pixels or cloud.dim != header.bands:
        raise DataError(
            f"cloud shape ({cloud.n}, {cloud.dim}) does not match header "
            f"({header.n_pixels} pixels, {header.bands} bands)"
        )
    flat = cloud.points.reshape(header.rows, header.cols, header.bands)
    cube = np.moveaxis(flat, -1, 0)
    np.ascontiguousarray(cube.astype(header.np_dtype)).tofile(path)
