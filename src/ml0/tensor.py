"""Dense single-sample tensors and the full multilinear form that scores one."""

import math

import numpy as np

from .kernels import contract_mode


class DenseTensor:
    """Immutable dense numeric array with row-major flat storage.

    Parameters
    ----------
    dims : sequence of int
        Extents (d_1, ..., d_p), p >= 1, every extent >= 1.
    data : array-like
        Flat values of length prod(dims), row-major (last index fastest).
        All entries must be finite.
    """

    __slots__ = ("_dims", "_data")

    def __init__(self, dims, data):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"need one or more extents, all >= 1, got {dims}")
        flat = np.asarray(data, dtype=np.float64).reshape(-1)
        expected = math.prod(dims)
        if flat.size != expected:
            raise ValueError(
                f"data length {flat.size} does not match prod(dims)={expected} for dims {dims}"
            )
        if not np.all(np.isfinite(flat)):
            raise ValueError("tensor entries must be finite")
        flat = np.ascontiguousarray(flat)
        flat.setflags(write=False)
        self._dims = dims
        self._data = flat

    @classmethod
    def from_array(cls, arr):
        arr = np.asarray(arr, dtype=np.float64)
        return cls(arr.shape, arr.reshape(-1))

    @property
    def dims(self):
        return self._dims

    @property
    def order(self):
        return len(self._dims)

    @property
    def data(self):
        """Flat row-major view (read-only)."""
        return self._data

    @property
    def array(self):
        """Read-only ndarray view shaped to dims."""
        return self._data.reshape(self._dims)

    def __repr__(self):
        return f"DenseTensor(dims={self._dims})"


def _check_vector(v, extent, what):
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size != extent:
        raise ValueError(f"{what} must be a vector of length {extent}, got shape {v.shape}")
    return v


def contract_full(t, blocks):
    """Full multilinear form: contract every mode with its block vector."""
    if len(blocks) != t.order:
        raise ValueError(f"expected {t.order} block vectors, got {len(blocks)}")
    vecs = [_check_vector(blocks[k], t.dims[k], f"block {k}") for k in range(t.order)]
    out = t.array
    for k in reversed(range(t.order)):
        out = contract_mode(out, vecs[k], k)
    return float(out)
