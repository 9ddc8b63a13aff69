"""Datasets: synthetic generation, normalization, splitting, and binary persistence."""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .tensor import DenseTensor

DATASET_MAGIC = b"ML0T"
PARAMS_MAGIC = b"ML0W"
FORMAT_VERSION = 1
_FINITE_BLOCK = 1 << 16  # elements per np.isfinite call; sizes a DatasetStream chunk


class FormatError(ValueError):
    """Raised on malformed binary files; carries the failing byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _check_finite(X):
    """Raise unless every entry of a contiguous array is finite. Block by
    block, so the check allocates no bool array the size of X."""
    flat = X.reshape(-1)
    for start in range(0, flat.size, _FINITE_BLOCK):
        if not np.isfinite(flat[start : start + _FINITE_BLOCK]).all():
            raise ValueError("sample entries must be finite")


class Dataset:
    """Stacked samples of one shared shape with labels in {-1, +1}.

    Accepts samples as an (n, d_1, ..., d_p) array or a list of DenseTensor.
    Labels given as {0, 1} are mapped to {-1, +1} on ingestion.
    """

    __slots__ = ("_X", "_y")

    def __init__(self, samples, labels):
        if isinstance(samples, (list, tuple)):
            if not samples:
                raise ValueError("dataset needs at least one sample")
            arrays = [
                s.array if isinstance(s, DenseTensor) else np.asarray(s, dtype=np.float64)
                for s in samples
            ]
            dims = arrays[0].shape
            for i, a in enumerate(arrays):
                if a.shape != dims:
                    raise ValueError(
                        f"sample {i} has dims {a.shape}, expected {dims}"
                    )
            X = np.stack(arrays)
        else:
            X = np.asarray(samples, dtype=np.float64)
        if X.ndim < 2 or X.shape[0] < 1:
            raise ValueError("samples must form an (n, d_1, ..., d_p) array with n >= 1")
        if any(d < 1 for d in X.shape[1:]):
            raise ValueError(f"all feature extents must be >= 1, got {X.shape[1:]}")
        X = np.ascontiguousarray(X)
        _check_finite(X)

        y = np.asarray(labels, dtype=np.float64).reshape(-1)
        if y.size != X.shape[0]:
            raise ValueError(f"{X.shape[0]} samples but {y.size} labels")
        values = set(np.unique(y).tolist())
        if values <= {0.0, 1.0}:
            y = np.where(y == 0.0, -1.0, 1.0)
        elif not values <= {-1.0, 1.0}:
            raise ValueError(f"labels must be in {{-1,+1}} or {{0,1}}, got {sorted(values)}")

        X.setflags(write=False)
        y.setflags(write=False)
        self._X = X
        self._y = y

    @property
    def X(self):
        """Read-only (n, d_1, ..., d_p) sample array."""
        return self._X

    @property
    def y(self):
        """Read-only (n,) label array with values -1.0 or +1.0."""
        return self._y

    @property
    def n(self):
        return self._X.shape[0]

    @property
    def feature_dims(self):
        return self._X.shape[1:]

    @property
    def order(self):
        return self._X.ndim - 1

    def sample(self, i):
        return DenseTensor(self.feature_dims, self._X[i].reshape(-1))

    def subset(self, indices):
        indices = np.asarray(indices)
        return Dataset(self._X[indices], self._y[indices])


@dataclass(frozen=True)
class SyntheticConfig:
    """Planted-block matrix classification task.

    Samples are rows x cols with i.i.d. standard normal entries; the
    upper-left block x block corner of each sample is corrected so that the
    bilinear score v1' B v2 + 1 lands at or beyond +margin for one class
    and at or beyond -margin for the other.
    """

    rows: int = 200
    cols: int = 200
    block: int = 20
    per_class: int = 500
    margin: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.block > min(self.rows, self.cols):
            raise ValueError("planted block must fit inside the sample matrix")
        if self.block < 1 or self.rows < 1 or self.cols < 1:
            raise ValueError("dimensions must be positive")
        if self.per_class < 1:
            raise ValueError("per_class must be >= 1")
        if not self.margin > 0:
            raise ValueError("margin must be positive")


def generate_synthetic(cfg: SyntheticConfig):
    """Build the planted-block dataset; returns (dataset, (v1, v2)).

    Samples violating their class inequality receive the rank-1 correction
    c * v1 v2' / (|v1|^2 |v2|^2) with c twice the signed deficit, which
    reflects the bilinear score across the class boundary (clipping scores
    onto the boundary instead leaves the classes barely distinguishable).
    The +margin class gets label +1, the -margin class label -1. Classes are
    drawn in that order into the two halves of one array, then shuffled by
    the seed. The RNG is numpy's PCG64 so runs reproduce across platforms.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    v1 = rng.uniform(0.0, 1.0, size=cfg.block)
    v2 = rng.uniform(0.0, 1.0, size=cfg.block)
    while not v1.any():  # pragma: no cover - probability zero
        v1 = rng.uniform(0.0, 1.0, size=cfg.block)
    while not v2.any():  # pragma: no cover
        v2 = rng.uniform(0.0, 1.0, size=cfg.block)

    direction = np.outer(v1, v2) / (np.dot(v1, v1) * np.dot(v2, v2))

    # One array for both classes, each half drawn and corrected in place.
    per = cfg.per_class
    X = np.empty((2 * per, cfg.rows, cfg.cols))
    # label +1: score >= +margin; label -1: score <= -margin
    for half, lower, upper in ((X[:per], cfg.margin, math.inf),
                               (X[per:], -math.inf, -cfg.margin)):
        rng.standard_normal(out=half)
        corner = half[:, : cfg.block, : cfg.block]
        score = np.tensordot(corner, v2, axes=([2], [0])) @ v1 + 1.0
        # Reflect violators across the boundary; the extra hair keeps the
        # inequality true in floating point.
        raw = np.clip(score, lower, upper) - score
        deficit = np.where(raw != 0.0, 2.0 * raw + np.copysign(1e-9, raw), 0.0)
        corner += deficit[:, None, None] * direction
    y = np.concatenate([np.ones(per), -np.ones(per)])
    order = rng.permutation(2 * per)
    return Dataset(X[order], y[order]), (v1, v2)


@dataclass(frozen=True)
class FeatureScaler:
    """Per-coordinate affine map fitted on one dataset, reusable on held-out data."""

    center: np.ndarray
    halfrange: np.ndarray

    def apply(self, ds: Dataset) -> Dataset:
        if ds.feature_dims != self.center.shape:
            raise ValueError(
                f"scaler fitted on dims {self.center.shape}, dataset has {ds.feature_dims}"
            )
        safe = np.where(self.halfrange > 0.0, self.halfrange, 1.0)
        scaled = np.where(self.halfrange > 0.0, (ds.X - self.center) / safe, 0.0)
        return Dataset(scaled, ds.y)


def normalize_per_feature(ds: Dataset):
    """Affinely map each coordinate so its min over samples hits -1 and its
    max hits +1; constant coordinates map to 0. Returns (dataset, scaler)."""
    lo = ds.X.min(axis=0)
    hi = ds.X.max(axis=0)
    scaler = FeatureScaler(center=(hi + lo) / 2.0, halfrange=(hi - lo) / 2.0)
    return scaler.apply(ds), scaler


def split(ds: Dataset, train_fraction: float, seed: int):
    """Stratified seeded train/test split with class proportions kept up to rounding."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train fraction must lie in (0, 1), got {train_fraction}")
    rng = np.random.Generator(np.random.PCG64(seed))
    class_indices = [np.flatnonzero(ds.y == 1.0), np.flatnonzero(ds.y == -1.0)]
    for idx in class_indices:
        if idx.size < 2:
            raise ValueError("each class needs at least 2 samples to split")

    total_train = int(round(train_fraction * ds.n))
    targets = [train_fraction * idx.size for idx in class_indices]
    counts = [int(math.floor(t)) for t in targets]
    leftover = total_train - sum(counts)
    by_remainder = sorted(range(len(counts)), key=lambda c: targets[c] - counts[c], reverse=True)
    for c in by_remainder[:leftover]:
        counts[c] += 1

    train_parts, test_parts = [], []
    for idx, count in zip(class_indices, counts):
        if count < 1 or count >= idx.size:
            raise ValueError("split leaves an empty class in train or test")
        shuffled = idx[rng.permutation(idx.size)]
        train_parts.append(shuffled[:count])
        test_parts.append(shuffled[count:])
    train_idx = np.concatenate(train_parts)
    test_idx = np.concatenate(test_parts)
    train_idx = train_idx[rng.permutation(train_idx.size)]
    test_idx = test_idx[rng.permutation(test_idx.size)]
    return ds.subset(train_idx), ds.subset(test_idx)


class _Reader:
    """Reads a binary file front to back with small reads.

    Every read is checked against the file size taken once from `fstat`, so a
    header that declares more data than the file holds fails before anything
    of that size is allocated. A truncation reports the file size as its
    offset.
    """

    def __init__(self, fh, path):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.off = 0
        self.path = path

    def _need(self, size, what):
        if self.off + size > self.size:
            raise FormatError(f"{self.path}: truncated while reading {what}", self.size)

    def _fill(self, buf, what):
        # A short read means the file shrank after fstat; it ends where the read did.
        got = self.fh.readinto(buf)
        self.off += got
        if got != len(buf):
            raise FormatError(f"{self.path}: truncated while reading {what}", self.off)

    def take(self, size, what):
        self._need(size, what)
        buf = bytearray(size)
        self._fill(buf, what)
        return bytes(buf)

    def array(self, shape, what):
        """Read a little-endian float64 array straight into its final buffer."""
        self._need(8 * math.prod(shape), what)
        arr = np.empty(shape, dtype="<f8")
        self._fill(memoryview(arr).cast("B"), what)
        return arr

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]

    def done(self):
        if self.off != self.size:
            raise FormatError(f"{self.path}: trailing bytes after payload", self.off)


def _check_header(reader, magic, kind):
    start = reader.off
    got = reader.take(4, "magic")
    if got != magic:
        raise FormatError(
            f"{reader.path}: bad magic {got!r}, expected {magic!r} for a {kind} file", start
        )
    version_at = reader.off
    version = reader.u32("version")
    if version != FORMAT_VERSION:
        raise FormatError(
            f"{reader.path}: unsupported version {version}, expected {FORMAT_VERSION}",
            version_at,
        )


def _write_f8(fh, arr):
    """Write an array as C-ordered little-endian float64 without a bytes copy."""
    fh.write(np.ascontiguousarray(arr, dtype="<f8").data)


def save_dataset(ds: Dataset, path):
    """Write the little-endian binary dataset format."""
    dims = ds.feature_dims
    header = [
        DATASET_MAGIC,
        struct.pack("<I", FORMAT_VERSION),
        struct.pack("<I", len(dims)),
        struct.pack(f"<{len(dims)}Q", *dims),
        struct.pack("<Q", ds.n),
    ]
    with open(path, "wb") as fh:
        fh.write(b"".join(header))
        fh.write(ds.y.astype("<i1").data)
        _write_f8(fh, ds.X)


def _read_dataset_head(reader):
    """Parse a dataset file's header and labels; returns (dims, labels) with
    the labels as an int8 array of -1 and +1. The reader is left at the
    first byte of the sample data."""
    _check_header(reader, DATASET_MAGIC, "dataset")
    ndim = reader.u32("dim count")
    if ndim < 1:
        raise FormatError(f"{reader.path}: dim count must be >= 1", reader.off - 4)
    dims_at = reader.off
    dims = struct.unpack(f"<{ndim}Q", reader.take(8 * ndim, "dims"))
    if any(d < 1 for d in dims):
        raise FormatError(f"{reader.path}: zero extent in dims {dims}", dims_at)
    n_at = reader.off
    n = reader.u64("sample count")
    if n < 1:
        raise FormatError(f"{reader.path}: sample count must be >= 1", n_at)
    labels_at = reader.off
    labels = np.frombuffer(reader.take(n, "labels"), dtype="<i1")
    if not set(np.unique(labels).tolist()) <= {-1, 1}:
        raise FormatError(f"{reader.path}: labels must be -1 or +1", labels_at)
    return dims, labels


def load_dataset(path) -> Dataset:
    """Read the binary dataset format; raises FormatError with a byte offset.

    The sample data is read once, straight from the file into the array the
    returned Dataset holds.
    """
    with open(path, "rb") as fh:
        reader = _Reader(fh, str(path))
        dims, labels = _read_dataset_head(reader)
        X = reader.array((labels.size,) + dims, "sample data")
        reader.done()
    return Dataset(X, labels.astype(np.float64))


class DatasetStream:
    """A dataset file opened for one pass over its samples; a `with` block
    closes it.

    Opening reads the header and the labels (`feature_dims`, `n`, `y`).
    `chunks()` then reads the sample data into one reused buffer of
    `max(1, _FINITE_BLOCK // prod(dims))` samples (512 KiB, so a chunk fits
    in L2), checks each chunk for finiteness and yields (index of its first
    sample, chunk); a chunk is valid until the next is read. Every fault
    raises `load_dataset`'s message for the file, in file order.
    """

    def __init__(self, path):
        self._fh = open(path, "rb")
        try:
            self._reader = _Reader(self._fh, str(path))
            self.feature_dims, labels = _read_dataset_head(self._reader)
        except BaseException:
            self._fh.close()
            raise
        self.n = labels.size
        self.y = labels.astype(np.float64)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def chunks(self):
        reader, dims, n = self._reader, self.feature_dims, self.n
        size = math.prod(dims)
        reader._need(8 * n * size, "sample data")
        per = max(1, _FINITE_BLOCK // size)
        buf = np.empty((min(per, n),) + dims, dtype="<f8")
        for lo in range(0, n, per):
            chunk = buf[: min(per, n - lo)]
            reader._fill(memoryview(chunk).cast("B"), "sample data")
            _check_finite(chunk)
            yield lo, chunk
        reader.done()


def save_params(params, path):
    """Write weight blocks and bias with the same binary conventions."""
    dims = params.block_dims()
    header = [
        PARAMS_MAGIC,
        struct.pack("<I", FORMAT_VERSION),
        struct.pack("<I", len(dims)),
        struct.pack(f"<{len(dims)}Q", *dims),
    ]
    with open(path, "wb") as fh:
        fh.write(b"".join(header))
        for b in params.blocks:
            _write_f8(fh, b)
        fh.write(struct.pack("<d", params.bias))


def load_params(path):
    """Read a weights file written by save_params."""
    from .model import ModelParams

    with open(path, "rb") as fh:
        reader = _Reader(fh, str(path))
        _check_header(reader, PARAMS_MAGIC, "weights")
        p = reader.u32("block count")
        if p < 1:
            raise FormatError(f"{reader.path}: block count must be >= 1", reader.off - 4)
        dims_at = reader.off
        dims = struct.unpack(f"<{p}Q", reader.take(8 * p, "block dims"))
        if any(d < 1 for d in dims):
            raise FormatError(f"{reader.path}: zero extent in block dims {dims}", dims_at)
        blocks = [reader.array((d,), f"block {i}") for i, d in enumerate(dims)]
        bias = struct.unpack("<d", reader.take(8, "bias"))[0]
        reader.done()
    return ModelParams(blocks=tuple(blocks), bias=bias)
