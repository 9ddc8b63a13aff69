"""Dense single-sample tensors, the checks every sample array, weight block,
label array and integer input passes, and the full multilinear form that
scores one sample, from only the rows its sparse weights select once the
sample is large."""

import operator

import numpy as np

_FINITE_BLOCK = 1 << 16  # elements per np.isfinite call; sizes a DatasetStream chunk

# From this many elements per sample (a 128x128 sample holds 16,384), scoring
# reads only the rows the leading weight blocks select: one thread reads the
# bytes at about the same rate gathered or whole, so reading a fraction of
# them wins. Below, the gather costs more than the bytes it saves (see README
# "Performance").
_GATHER_MIN_SAMPLE = 1 << 14


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


def _first_non_finite(a):
    """Flat index of the first entry of a contiguous array that is not
    finite, or None. Block by block, so the scan allocates no bool array the
    size of `a`."""
    flat = a.reshape(-1)
    for start in range(0, flat.size, _FINITE_BLOCK):
        ok = np.isfinite(flat[start : start + _FINITE_BLOCK])
        if not ok.all():
            return start + int(ok.argmin())
    return None


def _check_finite(a):
    """Raise unless every entry of a contiguous array is finite."""
    if _first_non_finite(a) is not None:
        raise ValueError("entries must be finite")


def _check_integer(name, value, low):
    """`value` as an int when it is an integer, as `operator.index` takes it
    (a bool is not), and >= `low`; raises ValueError otherwise."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _check_labels(y):
    """Raise unless every entry of `y` is -1 or +1, in any numeric dtype.
    Elementwise, O(n): the distinct bad values are sorted only on failure,
    and at most 5 are named."""
    ok = (y == 1) | (y == -1)
    if not ok.all():
        bad = np.unique(y[~ok]).tolist()
        more = f" and {len(bad) - 5} more" if len(bad) > 5 else ""
        raise ValueError(f"labels must be -1 or +1, found {bad[:5]}{more}")


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

    From `_GATHER_MIN_SAMPLE` elements the sample is read only on the rows
    the supports S_k of the leading blocks select (`_support`; only they can
    reach the margin): each of those rows is contracted with the full last
    block in a product of its own (`_row_dots`), and the result with each
    w_k[S_k]; the margin is 0.0 when some S_k is empty. `model.margins` gives
    each sample of that size the same products.

    The blocks are taken as a `ModelParams` holds them, C-contiguous float64
    vectors, and used as they are: nothing is converted. A block count or
    length that does not match the sample raises ValueError; a sample that
    is not a DenseTensor raises TypeError."""
    try:
        x = t.array
    except AttributeError:
        raise TypeError(
            f"a sample must be a DenseTensor, got {type(t).__name__}: wrap an array"
            " as ml0.DenseTensor(x), or take ds.sample(i) from a Dataset") from None
    dims = x.shape
    if len(blocks) != len(dims):
        raise _shape_mismatch(blocks, dims)
    for w, d in zip(blocks, dims):
        if w.shape != (d,):
            raise _shape_mismatch(blocks, dims)
    rows, lead = _support(blocks, x.size)
    if lead is None:
        return 0.0
    out = x.reshape(-1, dims[-1])
    if rows is None:
        out = out @ blocks[-1]
    else:
        out = _row_dots(out.take(rows, axis=0), blocks[-1])
    for v in reversed(lead):
        out = out.reshape(-1, v.size) @ v
    return float(out[0])


def _row_dots(arr, v, out=None):
    """Each row of `arr` (its last axis as long as v) contracted with v in a
    `dot` of its own, into `out` (of any shape with one entry per row) when
    given; returns the (rows, 1) result. A row's result does not depend on
    which rows share the call, so a sample's selected rows give the same
    bits gathered alone as among all of its rows."""
    return np.matmul(arr.reshape(-1, 1, v.size), v, out=None if out is None else out.reshape(-1, 1))


def _support(blocks, size):
    """The rows a sample of `size` elements is scored from, and the leading
    blocks w_1..w_{p-1} (float64 vectors) it is then contracted with:
    (rows, [w_1, ..., w_{p-1}]), as row indices of the sample's
    (d_1 ... d_{p-1}, d_p) view.

    Below `_GATHER_MIN_SAMPLE` elements, and wherever every support S_k is
    its whole block, the rows are None (every row) and the blocks w_k
    themselves. Otherwise the rows are the C-order flat indices of
    S_1 x ... x S_{p-1}, so the gathered rows stack as
    (|S_1|, ..., |S_{p-1}|, d_p), and the blocks are the w_k[S_k]. The
    blocks are None when some S_k is empty: every product of the sample is
    then 0."""
    if size < _GATHER_MIN_SAMPLE:
        return None, blocks[:-1]
    rows, lead, whole = None, [], True
    for w in blocks[:-1]:
        s = w.nonzero()[0]
        if not s.size:
            return None, None
        if s.size == w.size:
            lead.append(w)
        else:
            whole = False
            lead.append(w[s])
        rows = s if rows is None else (rows[:, None] * w.size + s).reshape(-1)
    return (None if whole else rows), lead


def _shape_mismatch(blocks, dims):
    shapes = [np.shape(b) for b in blocks]
    return ValueError(f"block shapes {shapes} do not match sample dims {dims}")
