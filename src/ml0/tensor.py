"""Dense single-sample tensors and the full multilinear form that scores one."""

import numpy as np

from .kernels import contract_mode


def _exclusive(a):
    """`a` as a C-contiguous float64 array whose memory no writable array can
    reach: taken as it is when it owns its memory or views a read-only array
    that does (numpy points a view's `base` at the array owning the memory),
    copied otherwise."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    base = a.base
    if base is None or (isinstance(base, np.ndarray) and base.base is None
                        and not base.flags.writeable):
        return a
    return a.copy()


class DenseTensor:
    """Immutable dense sample: an array of order p >= 1, every extent >= 1,
    every entry finite.

    `DenseTensor(array)` keeps `array` as read-only float64 (`.array`). An
    array that owns its memory is kept and marked read-only, and so is a
    view of read-only memory, as `Dataset.sample` passes; any other input
    is copied, so no writable array can change the sample after its check.
    """

    __slots__ = ("_array",)

    def __init__(self, array):
        a = np.asarray(array, dtype=np.float64)
        if not a.ndim or 0 in a.shape:
            raise ValueError(f"need one or more extents, all >= 1, got {a.shape}")
        a = _exclusive(a)
        if not np.isfinite(a).all():
            raise ValueError("tensor entries must be finite")
        a.setflags(write=False)
        self._array = a

    @property
    def array(self):
        """Read-only ndarray shaped to dims."""
        return self._array

    @property
    def dims(self):
        return self._array.shape

    @property
    def order(self):
        return self._array.ndim

    def __repr__(self):
        return f"DenseTensor(dims={self.dims})"


def contract_full(t, blocks):
    """Full multilinear form: contract every mode with its block vector."""
    if len(blocks) != t.order:
        raise ValueError(f"expected {t.order} block vectors, got {len(blocks)}")
    out = t.array
    for k in reversed(range(t.order)):
        v = np.ascontiguousarray(blocks[k], dtype=np.float64)
        if v.shape != out.shape[-1:]:
            raise ValueError(f"block {k} must be a vector of length {out.shape[-1]}, "
                             f"got shape {v.shape}")
        out = contract_mode(out, v, k)
    return float(out)
