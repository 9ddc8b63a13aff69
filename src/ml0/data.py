"""Datasets: synthetic generation, splitting, and binary persistence."""

import math
import operator
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .kernels import _each_range
from .tensor import (_FINITE_BLOCK, DenseTensor, _check_integer, _check_labels, _exclusive,
                     _first_non_finite, _frozen)

DATASET_MAGIC = b"ML0T"
PARAMS_MAGIC = b"ML0W"
FORMAT_VERSION = 1


class FormatError(ValueError):
    """Raised on malformed binary files; carries the failing byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Dataset:
    """Stacked samples of one shared shape with labels in {-1, +1}.

    Samples come as one (n, d_1, ..., d_p) array. Samples and labels are
    kept read-only as `DenseTensor` keeps its array: an array that owns its
    memory is marked read-only, one that a writable array can still reach
    is copied. Labels other than -1 and +1 raise ValueError, as they do in
    the dataset file and the metrics.
    """

    __slots__ = ("_X", "_y")

    def __init__(self, samples, labels):
        # y is frozen only once X passed, so a rejected call leaves the
        # caller's arrays writable.
        X = np.asarray(samples, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        y = _exclusive(y if y.ndim == 1 else y.reshape(-1))
        if X.ndim and y.size != X.shape[0]:
            raise ValueError(f"{X.shape[0]} samples but {y.size} labels")
        _check_labels(y)
        (X,) = _frozen((X,), 2)
        y.setflags(write=False)
        self._X, self._y = X, y

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

    @classmethod
    def _checked(cls, X, y):
        """A dataset of arrays that passed its checks, which it marks read-only."""
        ds = cls.__new__(cls)
        ds._X, ds._y = X, y
        X.setflags(write=False)
        y.setflags(write=False)
        return ds

    def sample(self, i):
        """Sample i as a DenseTensor viewing X, without a copy or a second check."""
        return DenseTensor._checked(self._X[operator.index(i)])

    def _read(self, product):
        """`DatasetStream._read` in memory: each range of `kernels._ranges`
        hands its samples to `product(lo, X[lo:hi])` as one chunk, under
        the stream's np.errstate. The samples were checked when the dataset
        was made."""

        def task(lo, hi):
            with np.errstate(invalid="ignore"):
                product(lo, self._X[lo:hi])

        _each_range(self.n, self._X[0].size, task)

    def subset(self, indices):
        """The samples a 1-D selection picks, one or more, without a second check."""
        indices = np.asarray(indices)
        y = self._y[indices]
        if y.ndim != 1 or not y.size:
            raise ValueError(f"subset needs a 1-D selection of samples, got {indices.shape}")
        return Dataset._checked(self._X[indices], y)


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
    block: int = field(default=20, metadata={"help": "planted block side length"})
    per_class: int = 500
    margin: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("rows", "cols", "block", "per_class"):
            _check_integer(name, getattr(self, name), 1)
        _check_integer("seed", self.seed, 0)
        if self.block > min(self.rows, self.cols):
            raise ValueError("planted block must fit inside the sample matrix")
        if not 0 < self.margin < math.inf:
            raise ValueError(f"margin must be positive and finite, got {self.margin}")


def generate_synthetic(cfg: SyntheticConfig):
    """Build the planted-block dataset; returns (dataset, (v1, v2)).

    Samples violating their class inequality receive the rank-1 correction
    c * v1 v2' / (|v1|^2 |v2|^2) with c twice the signed deficit, which
    reflects the bilinear score across the class boundary (clipping scores
    onto the boundary instead leaves the classes barely distinguishable).
    The +margin class gets label +1, the -margin class label -1. Classes are
    drawn in that order into the two halves of one array. numpy's
    `Generator.shuffle` then moves its rows in place, each sample one void
    item, and the labels under the same draws, so the dataset holds that one
    array. The RNG is numpy's PCG64 so runs reproduce across platforms.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    v1 = rng.uniform(0.0, 1.0, size=cfg.block)
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
    state = rng.bit_generator.state
    rng.shuffle(y)
    rng.bit_generator.state = state
    rng.shuffle(X.reshape(2 * per, -1).view(np.dtype((np.void, X[0].nbytes))).reshape(-1))
    return Dataset(X, y), (v1, v2)


def split(ds: Dataset, train_fraction: float, seed: int):
    """Stratified seeded train/test split with class proportions kept up to rounding."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train fraction must lie in (0, 1), got {train_fraction}")
    rng = np.random.Generator(np.random.PCG64(_check_integer("seed", seed, 0)))
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
    offset. `ident` (device, inode, size) tells whether a second handle
    opened from `path` reads the same file.
    """

    def __init__(self, fh, path):
        st = os.fstat(fh.fileno())
        self.fh = fh
        self.size = st.st_size
        self.ident = (st.st_dev, st.st_ino, st.st_size)
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

    def finite(self, size, what):
        """Read `size` little-endian float64 entries straight into their final
        buffer; raises at the offset of the first entry that is not finite."""
        at = self.off
        self._need(8 * size, what)
        arr = np.empty(size, dtype="<f8")
        self._fill(memoryview(arr).cast("B"), what)
        self.check(arr, at, what)
        return arr

    def check(self, arr, at, what):
        """Raise at the offset of the first entry of `arr`, a contiguous array
        read from byte `at`, that is not finite."""
        i = _first_non_finite(arr)
        if i is not None:
            raise FormatError(f"{self.path}: non-finite value {arr.flat[i]} in {what}", at + 8 * i)

    def unpack(self, fmt, what):
        """Read the fields of one little-endian `struct` format."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def done(self):
        if self.off != self.size:
            raise FormatError(f"{self.path}: trailing bytes after payload", self.off)


# By magic: the file kind and the names of its count and dims fields.
_HEADER_NAMES = {DATASET_MAGIC: ("dataset", "dim count", "dims"),
                 PARAMS_MAGIC: ("weights", "block count", "block dims")}


def _write_header(fh, magic, dims):
    """Write the header both file kinds share: magic, version, dim count, dims."""
    fh.write(magic + struct.pack(f"<II{len(dims)}Q", FORMAT_VERSION, len(dims), *dims))


def _read_header(reader, magic):
    """Parse and check the header `_write_header` writes; returns the dims."""
    kind, count_name, dims_name = _HEADER_NAMES[magic]
    got = reader.take(4, "magic")
    if got != magic:
        raise FormatError(
            f"{reader.path}: bad magic {got!r}, expected {magic!r} for a {kind} file", 0
        )
    (version,) = reader.unpack("<I", "version")
    if version != FORMAT_VERSION:
        raise FormatError(
            f"{reader.path}: unsupported version {version}, expected {FORMAT_VERSION}", 4
        )
    (count,) = reader.unpack("<I", count_name)
    if count < 1:
        raise FormatError(f"{reader.path}: {count_name} must be >= 1", 8)
    dims = reader.unpack(f"<{count}Q", dims_name)
    if any(d < 1 for d in dims):
        raise FormatError(f"{reader.path}: zero extent in {dims_name} {dims}", 12)
    return dims


def _write_f8(fh, arr):
    """Write an array as C-ordered little-endian float64 without a bytes copy."""
    fh.write(np.ascontiguousarray(arr, dtype="<f8").data)


def save_dataset(ds: Dataset, path):
    """Write the little-endian binary dataset format."""
    with open(path, "wb") as fh:
        _write_header(fh, DATASET_MAGIC, ds.feature_dims)
        fh.write(struct.pack("<Q", ds.n))
        fh.write(ds.y.astype("<i1").data)
        _write_f8(fh, ds.X)


def _read_dataset_head(reader):
    """Parse a dataset file's header and labels; returns (dims, labels) with
    the labels as a float64 array of -1.0 and +1.0. The reader is left at the
    first byte of the sample data."""
    dims = _read_header(reader, DATASET_MAGIC)
    (n,) = reader.unpack("<Q", "sample count")
    if n < 1:
        raise FormatError(f"{reader.path}: sample count must be >= 1", reader.off - 8)
    labels = np.frombuffer(reader.take(n, "labels"), dtype="<i1").astype(np.float64)
    try:
        _check_labels(labels)
    except ValueError as e:
        raise FormatError(f"{reader.path}: {e}", reader.off - n) from None
    return dims, labels


def load_dataset(path) -> Dataset:
    """Read the binary dataset format; raises FormatError with a byte offset.

    The sample data is read once, straight from the file into the array the
    returned Dataset holds, by `DatasetStream`'s one pass, which checks each
    chunk entry by entry as it lands. The first fault in file order is
    raised, a non-finite entry at its own offset.
    """
    with DatasetStream(path) as stream:
        X = stream._read()
    return Dataset._checked(X, stream.y)


class DatasetStream:
    """A dataset file opened for one pass over its samples; a `with` block
    closes it.

    Opening reads the header and the labels (`feature_dims`, `n`, `y`).
    `_read` is then the one pass over the samples, which `load_dataset` and
    `model.margins` make. It checks that the file holds the declared sample
    data before it allocates anything, and cuts the samples into the ranges
    of `kernels._ranges`, one thread each: the first reads through this
    stream's handle, each other through a handle of its own, checked to read
    the same file. A range reads its samples chunk by chunk,
    `max(1, _FINITE_BLOCK // prod(dims))` samples (512 KiB, so a chunk fits
    in L2), and the range that ends the samples checks that the file ends
    there too.

    Without a product the chunks land in a new X, are each checked entry by
    entry, and X is returned. With `product(lo, chunk)`, the chunks are read
    into one buffer per range, a chunk valid until the range's next, and
    each chunk is checked through the products `product` contracts it into:
    a NaN or inf entry makes the product of its row NaN or inf, so only a
    chunk with a non-finite product is scanned; a chunk that passes the scan
    overflowed in its products, which stand. Either way the first fault in
    file order raises FormatError, a non-finite entry at its own offset. A
    second pass raises ValueError: open the file again instead.
    """

    def __init__(self, path):
        self._fh = open(path, "rb")
        try:
            self._reader = _Reader(self._fh, path)
            self.feature_dims, labels = _read_dataset_head(self._reader)
        except BaseException:
            self._fh.close()
            raise
        self.n = labels.size
        self.y = labels
        self._spent = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def _read(self, product=None):
        reader, dims = self._reader, self.feature_dims
        if self._spent:
            raise ValueError(f"{reader.path}: stream was already read; it gives one pass")
        self._spent = True
        size = math.prod(dims)
        reader._need(8 * self.n * size, "sample data")
        X = np.empty((self.n,) + dims, dtype="<f8") if product is None else None
        per, start = max(1, _FINITE_BLOCK // size), reader.off

        def read(r, lo, hi):
            buf = None if product is None else np.empty((min(per, hi - lo),) + dims, dtype="<f8")
            # A non-finite entry makes its products NaN by design and raises
            # for itself; an overflow still warns.
            with np.errstate(invalid="ignore"):
                for at in range(lo, hi, per):
                    k = min(per, hi - at)
                    chunk = X[at : at + k] if buf is None else buf[:k]
                    r._fill(memoryview(chunk).cast("B"), "sample data")
                    if product is None or not np.isfinite(product(at, chunk)).all():
                        r.check(chunk, r.off - chunk.nbytes, "sample data")
            if hi == self.n:
                r.done()

        def task(lo, hi):
            if not lo:
                return read(reader, lo, hi)
            off = start + 8 * size * lo
            with open(reader.path, "rb") as fh:
                r = _Reader(fh, reader.path)
                if r.ident != reader.ident:
                    raise FormatError(f"{reader.path}: file changed while reading sample data", off)
                fh.seek(off)
                r.off = off
                read(r, lo, hi)

        _each_range(self.n, size, task)
        return X


def save_params(params, path):
    """Write weight blocks and bias with the same binary conventions."""
    with open(path, "wb") as fh:
        _write_header(fh, PARAMS_MAGIC, params.block_dims())
        for b in params.blocks:
            _write_f8(fh, b)
        fh.write(struct.pack("<d", params.bias))


def load_params(path):
    """Read a weights file written by save_params; raises FormatError with a
    byte offset, also at the first entry of a block or the bias that is not
    finite."""
    from .model import ModelParams

    with open(path, "rb") as fh:
        reader = _Reader(fh, path)
        dims = _read_header(reader, PARAMS_MAGIC)
        blocks = [reader.finite(d, f"block {i}") for i, d in enumerate(dims)]
        (bias,) = reader.finite(1, "bias")
        reader.done()
    return ModelParams(blocks=tuple(blocks), bias=bias)
