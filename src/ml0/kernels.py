"""Mode contraction kernel.

Every batch margin and gradient in this package reduces to the same
primitive: contract one axis of a dense row-major array of stacked samples
with a vector (a mode-n product). There is one implementation, a numpy
`matmul` on a reshaped view, so BLAS does the arithmetic and the array is
never copied: the last axis is one matrix-vector product over the flattened
leading axes, any other axis a stacked vector-matrix product over the
(outer, d, inner) view. A single sample does not come here: `predict`
scores it with `tensor.contract_full`, one product per mode.

Every pass over the samples is cut by one rule, `_ranges`: below
`_SPLIT_MIN_PASS` elements in all it is one range, from there on one
contiguous range of samples per usable core, with at least two samples in
each. `_each_range` runs a pass's ranges itself, the first on the calling
thread and each other on a short-lived thread of its own, joined before it
returns, so no pool outlives a call or a `fork`. It is the one function in
the package that starts a thread. numpy releases the interpreter lock
inside `matmul`, so the ranges stream X in parallel.
The contractions (`contract_mode` off axis 0, `contract_samples`) and the
one read of a dataset's samples (`data.DatasetStream._read`, and
`Dataset._read` in memory) all split this way, and no range splits again.

Below the cutoff `contract_mode` is the single call. From it, a non-last
axis writes each range's rows of one preallocated output and gives the
bits of the single call, and the last axis is `contract_samples`, a stack
of per-sample products that OpenBLAS runs on the calling thread at these
sizes (a multithreaded gemv would leave BLAS worker threads spinning on the
cores the other ranges need). Each sample is summed in its own product, so
the bits do not depend on the core count.

`contract_samples` is that last-axis path at any size, so a sample's result
has the same bits whichever samples share the call; the model's margins
use it. `_stacked` is the same product into a given output on the calling
thread: the model's margins contract a range's chunks with it. From
`tensor._GATHER_MIN_SAMPLE` elements per sample, a range contracts each row
of its chunks in a product of its own instead (`tensor._row_dots`), so a
sample's margin can be taken from the rows its sparse weights select; the
solver's passes are unchanged.
"""

import math
import os
import threading

import numpy as np

# Below this many elements in all, a pass over the samples is too short for
# a second range to pay for its thread (see the timings in README
# "Performance").
_SPLIT_MIN_PASS = 1 << 21


def _usable_cores():
    # Without an affinity call (macOS, Windows) every pass is one range.
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _ranges(n, size):
    """Sample bounds of the ranges of a pass over n samples of `size`
    elements each: one range below `_SPLIT_MIN_PASS` elements in all, else
    one contiguous range per usable core with at least two samples each."""
    parts = max(1, min(_usable_cores(), n // 2)) if n * size >= _SPLIT_MIN_PASS else 1
    return [n * i // parts for i in range(parts + 1)]


def _each_range(n, size, task):
    """Call task(lo, hi) for each range of `_ranges(n, size)`: the first on
    this thread, each other on a short-lived thread of its own (none for one
    range). Re-raises the first error in range order after every thread
    that started has finished."""
    bounds = _ranges(n, size)
    errors = [None] * (len(bounds) - 1)

    def work(i):
        try:
            task(bounds[i], bounds[i + 1])
        except Exception as exc:  # handed back to the calling thread below
            errors[i] = exc

    threads = []
    try:
        for i in range(1, len(errors)):
            t = threading.Thread(target=work, args=(i,))
            t.start()
            threads.append(t)
        work(0)
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc


def contract_mode(arr, v, axis):
    """Contract one axis of a C-contiguous float64 array with a vector.

    Returns an array whose shape is arr.shape with `axis` removed.
    """
    shape = arr.shape
    d = shape[axis]
    last = axis == len(shape) - 1
    if not axis or arr.size < _SPLIT_MIN_PASS:
        if last:
            return (arr.reshape(-1, d) @ v).reshape(shape[:-1])
        out = v @ arr.reshape(math.prod(shape[:axis]), d, math.prod(shape[axis + 1 :]))
        return out.reshape(shape[:axis] + shape[axis + 1 :])
    if last:
        return contract_samples(arr, v)
    out = np.empty(shape[:axis] + shape[axis + 1 :], dtype=np.result_type(arr, v))
    inner = math.prod(shape[axis + 1 :])
    _each_range(shape[0], arr.size // shape[0], lambda lo, hi: np.matmul(
        v, arr[lo:hi].reshape(-1, d, inner), out=out[lo:hi].reshape(-1, inner)))
    return out


def contract_samples(arr, v):
    """Contract the last axis of each sample along axis 0 in its own stacked
    product, so a sample's result does not depend on which other samples
    share the call. Cut into the ranges of `_ranges`; returns an array of
    shape arr.shape[:-1]."""
    out = np.empty(arr.shape[:-1], dtype=np.result_type(arr, v))
    _each_range(len(arr), math.prod(arr.shape[1:]),
                lambda lo, hi: _stacked(arr[lo:hi], v, out[lo:hi]))
    return out


def _stacked(arr, v, out):
    """`contract_samples` of arr into `out` on the calling thread, never split:
    what a thread that already runs one part of a split calls."""
    n, d = arr.shape[0], arr.shape[-1]
    np.matmul(arr.reshape(n, -1, d), v, out=out.reshape(n, -1))


def contract_down(arr, blocks, skip=None):
    """Contract axis k+1 of stacked samples with `blocks[k]` for every k but
    `skip`, highest axis first, so the lower axes keep their indices."""
    for k in reversed(range(len(blocks))):
        if k != skip:
            arr = contract_mode(arr, blocks[k], k + 1)
    return arr
