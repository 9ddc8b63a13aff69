"""Mode contraction kernel.

Every batch margin and gradient in this package reduces to the same
primitive: contract one axis of a dense row-major array of stacked samples
with a vector (a mode-n product). There is one implementation, a numpy
`matmul` on a reshaped view, so BLAS does the arithmetic and the array is
never copied: the last axis is one matrix-vector product over the flattened
leading axes, any other axis a stacked vector-matrix product over the
(outer, d, inner) view. A single sample does not come here: `predict`
scores it with `tensor.contract_full`, one product per mode.

Large sample arrays are split by sample. When each sample along axis 0 holds
at least `_SPLIT_MIN_SAMPLE` elements and the contracted axis is not axis 0,
the samples are cut into contiguous slabs, one per usable core but at least
two samples each, and each slab runs the same `matmul` on its own thread,
writing its rows of one preallocated output. numpy releases the interpreter
lock inside `matmul`, so the slabs stream X in parallel. Every slab, the last
axis included, runs as a stack of per-sample products, which OpenBLAS runs on
the calling thread at these sizes; a multithreaded gemv would leave BLAS
worker threads spinning on the cores the other slabs need. The path is the
same on any core count, one slab included, so the bits do not depend on it:
a non-last axis gives the bits of the single call, and the last axis sums
each sample in its own gemv. Worker threads are started per call and joined
before it returns, so no pool outlives a call or a `fork`, and they call
nothing but numpy.

`contract_samples` is that last-axis path at any size, so a sample's result
has the same bits whichever samples share the call; the model's margins
use it. `_stacked` is the same product into a given output, never split:
the one pass over a dataset's samples (`data.DatasetStream._read`, and
`Dataset._read` in memory) is cut into ranges (`_ranges`), one thread each
(`_run_split`), and the model's margins contract a range's chunks with it,
so no thread starts another. From
`tensor._GATHER_MIN_SAMPLE` elements per sample, a range contracts each row
of its chunks in a product of its own instead (`tensor._row_dots`), so a
sample's margin can be taken from the rows its sparse weights select; the
solver's passes are unchanged.
"""

import math
import os
import threading
from functools import partial

import numpy as np

# Below this many elements per sample a pass over X is too short for the
# split to pay for its threads (see the timings in README "Performance").
_SPLIT_MIN_SAMPLE = 1 << 14

# Below this many elements in all, a pass that reads, checks and contracts
# samples (`model.margins`, `data.load_dataset`) runs as one range on the
# calling thread (see the timings in README "Performance").
_SPLIT_MIN_PASS = 1 << 21


def _usable_cores():
    # Without an affinity call (macOS, Windows) every contraction is one call.
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _slabs(n):
    """Sample bounds of one contiguous slab per usable core, with at least
    two samples in each slab and at least one slab."""
    slabs = max(1, min(_usable_cores(), n // 2))
    return [n * i // slabs for i in range(slabs + 1)]


def _ranges(n, size):
    """Sample bounds of the ranges of a pass that reads, checks and contracts
    n samples of `size` elements each: one range below `_SPLIT_MIN_PASS`
    elements in all, `_slabs(n)` from there on."""
    return _slabs(n) if n * size >= _SPLIT_MIN_PASS else [0, n]


def _run_split(tasks):
    """Call each task: the first on this thread, the rest on one short-lived
    thread each (none for one task). Re-raises the first error in task order
    after every thread that started has finished."""
    errors = [None] * len(tasks)

    def work(i):
        try:
            tasks[i]()
        except Exception as exc:  # handed back to the calling thread below
            errors[i] = exc

    threads = []
    try:
        for i in range(1, len(tasks)):
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
    if not axis or arr.size < _SPLIT_MIN_SAMPLE * shape[0]:
        if last:
            return (arr.reshape(-1, d) @ v).reshape(shape[:-1])
        out = v @ arr.reshape(math.prod(shape[:axis]), d, math.prod(shape[axis + 1 :]))
        return out.reshape(shape[:axis] + shape[axis + 1 :])
    if last:
        return contract_samples(arr, v)
    bounds = _slabs(shape[0])
    out = np.empty(shape[:axis] + shape[axis + 1 :], dtype=np.result_type(arr, v))
    inner = math.prod(shape[axis + 1 :])
    _run_split([partial(np.matmul, v, arr[lo:hi].reshape(-1, d, inner),
                        out=out[lo:hi].reshape(-1, inner))
                for lo, hi in zip(bounds, bounds[1:])])
    return out


def contract_samples(arr, v):
    """Contract the last axis of each sample along axis 0 in its own stacked
    product, so a sample's result does not depend on which other samples
    share the call. Split into slabs like `contract_mode` at or above the
    cutoff; returns an array of shape arr.shape[:-1]."""
    n = arr.shape[0]
    out = np.empty(arr.shape[:-1], dtype=np.result_type(arr, v))
    if arr.size < _SPLIT_MIN_SAMPLE * n:
        _stacked(arr, v, out)
        return out
    bounds = _slabs(n)
    _run_split([partial(_stacked, arr[lo:hi], v, out[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
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
