"""Mode contraction kernel.

Every batch margin and gradient in this package reduces to the same
primitive, `contract_mode`: contract one axis of a dense row-major array of
stacked samples with a vector (a mode-n product). It is a numpy `matmul` on
reshaped views, so BLAS does the arithmetic and the array is never copied.
Axis 0, the sample axis, is one vector-matrix product. The last axis is a
stack of per-sample products (`_stacked`): each sample is summed in a
product of its own, so its result has the same bits whichever samples share
the call, and OpenBLAS runs the stack on the calling thread (a multithreaded
gemv would leave BLAS worker threads spinning on the cores the other ranges
need). Any other axis is a stacked vector-matrix product over the (outer, d,
inner) view. A single sample does not come here: `predict` scores it with
`tensor.contract_full`, one product per mode, which gives it the bits of
its margin in a batch.

Every pass over the samples is cut by one rule, `_ranges`: below
`_SPLIT_MIN_PASS` elements in all it is one range, from there on one
contiguous range of samples per usable core, with at least two samples in
each. `_each_range` runs a pass's ranges itself, the first on the calling
thread and each other on a short-lived thread of its own, joined before it
returns, so no pool outlives a call or a `fork`. It is the one function in
the package that starts a thread. numpy releases the interpreter lock
inside `matmul`, so the ranges stream X in parallel.
`contract_mode` off axis 0 and the one read of a dataset's samples
(`data.DatasetStream._read`, and `Dataset._read` in memory) all split this
way, and no range splits again. Off axis 0 each range writes its rows of one
preallocated output, so the bits do not depend on the core count.

The model's margins contract a range's chunks with `_stacked` as they are
read. From `tensor._GATHER_MIN_SAMPLE` elements per sample, a range
contracts each row of its chunks in a product of its own instead
(`tensor._row_dots`), so a sample's margin can be taken from the rows its
sparse weights select. From the same size on, the solver's two passes per
iteration contract compact copies of X that hold only the slabs the
supports select (`solver._Passes`), through `contract_mode` like any other
array.
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
    d, inner = shape[axis], math.prod(shape[axis + 1 :])
    if not axis:
        return (v @ arr.reshape(1, d, inner)).reshape(shape[1:])
    out = np.empty(shape[:axis] + shape[axis + 1 :], dtype=np.result_type(arr, v))
    if axis == len(shape) - 1:
        def task(lo, hi):
            _stacked(arr[lo:hi], v, out[lo:hi])
    else:
        outer = math.prod(shape[1:axis])  # per sample; explicit, as -1 fails on empty arrays

        def task(lo, hi):
            np.matmul(v, arr[lo:hi].reshape((hi - lo) * outer, d, inner),
                      out=out[lo:hi].reshape((hi - lo) * outer, inner))
    _each_range(shape[0], math.prod(shape[1:]), task)
    return out


def _stacked(arr, v, out):
    """The last axis of each sample of arr contracted with v in a product of
    its own, into `out` on the calling thread, never split: what a thread
    that already runs one part of a split calls."""
    n, rows, d = arr.shape[0], math.prod(arr.shape[1:-1]), arr.shape[-1]
    np.matmul(arr.reshape(n, rows, d), v, out=out.reshape(n, rows))


def contract_down(arr, blocks, skip=None):
    """Contract axis k+1 of stacked samples with `blocks[k]` for every k but
    `skip`, highest axis first, so the lower axes keep their indices."""
    for k in reversed(range(len(blocks))):
        if k != skip:
            arr = contract_mode(arr, blocks[k], k + 1)
    return arr
