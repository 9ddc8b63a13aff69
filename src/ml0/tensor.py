"""Dense single-sample tensors, the check every sample array and weight block
passes, and the full multilinear form that scores one sample."""

import numpy as np

_FINITE_BLOCK = 1 << 16  # elements per np.isfinite call; sizes a DatasetStream chunk
_F64 = np.dtype(np.float64)


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


def _check_finite(a):
    """Raise unless every entry of a contiguous array is finite. Block by
    block, so the check allocates no bool array the size of `a`."""
    flat = a.reshape(-1)
    for start in range(0, flat.size, _FINITE_BLOCK):
        if not np.isfinite(flat[start : start + _FINITE_BLOCK]).all():
            raise ValueError("entries must be finite")


def _frozen(arrays, min_ndim):
    """Each array as a read-only float64 array of `min_ndim` or more axes,
    every extent >= 1 and every entry finite; taken or copied as `_exclusive`
    does. All are checked before any is marked read-only, so a rejected call
    leaves the caller's arrays writable."""
    checked = []
    for a in arrays:
        a = np.asarray(a, dtype=np.float64)
        if a.ndim < min_ndim or 0 in a.shape:
            raise ValueError(f"need {min_ndim} or more axes, all extents >= 1, got shape {a.shape}")
        a = _exclusive(a)
        _check_finite(a)
        checked.append(a)
    for a in checked:
        a.setflags(write=False)
    return tuple(checked)


class DenseTensor:
    """Immutable dense sample: an array of order p >= 1, every extent >= 1,
    every entry finite.

    `DenseTensor(array)` keeps `array` as read-only float64 (`.array`). An
    array that owns its memory is kept and marked read-only, and so is a
    view of read-only memory; any other input is copied, so no writable
    array can change the sample after its check.
    """

    __slots__ = ("_array",)

    def __init__(self, array):
        (self._array,) = _frozen((array,), 1)

    @classmethod
    def _checked(cls, array):
        """A sample holding a read-only array that already passed `_frozen`."""
        t = cls.__new__(cls)
        t._array = array
        return t

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
    """Full multilinear form: contract mode p first, then p-1, down to 1,
    each as one product over the remaining sample. That is the product
    `kernels.contract_samples` gives each sample of a batch, so a sample
    scored alone has the bits of its margin in the batch.

    A block that is already a C-contiguous float64 ndarray is used as it is;
    any other (a list, ints) is converted first, as `np.ascontiguousarray`
    converts it."""
    out = t.array
    dims = out.shape
    if len(blocks) != len(dims):
        raise _shape_mismatch(blocks, dims)
    for k in range(len(dims) - 1, -1, -1):
        w = blocks[k]
        if type(w) is not np.ndarray or w.dtype is not _F64 or not w.flags.c_contiguous:
            w = np.ascontiguousarray(w, dtype=np.float64)
        d = dims[k]
        if w.shape != (d,):
            raise _shape_mismatch(blocks, dims)
        out = out.reshape(-1, d) @ w
    return float(out[0])


def _shape_mismatch(blocks, dims):
    shapes = [np.ascontiguousarray(b, dtype=np.float64).shape for b in blocks]
    return ValueError(f"block shapes {shapes} do not match sample dims {dims}")
