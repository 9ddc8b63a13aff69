"""Mode contraction kernel.

Every prediction and gradient in this package reduces to the same primitive:
contract one axis of a dense row-major array with a vector (a mode-n product).
There is one implementation, a numpy `matmul` on a reshaped view, so BLAS does
the arithmetic and the array is never copied: the last axis is one
matrix-vector product over the flattened leading axes, any other axis a
stacked vector-matrix product over the (outer, d, inner) view.

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
use it.
"""

import math
import os
import threading

import numpy as np

# Below this many elements per sample a pass over X is too short for the
# split to pay for its threads (see the timings in README "Performance").
_SPLIT_MIN_SAMPLE = 1 << 14


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


def _run_split(products):
    """Run each (a, b, out) as `np.matmul(a, b, out=out)`: the first on this
    thread, the rest on one short-lived thread each (none for one product).
    Re-raises the first error in slab order after every thread has finished."""
    errors = [None] * len(products)

    def work(i):
        a, b, out = products[i]
        try:
            np.matmul(a, b, out=out)
        except Exception as exc:  # handed back to the calling thread below
            errors[i] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, len(products))]
    for t in threads:
        t.start()
    try:
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
    _run_split([(v, arr[lo:hi].reshape(-1, d, inner), out[lo:hi].reshape(-1, inner))
                for lo, hi in zip(bounds, bounds[1:])])
    return out


def contract_samples(arr, v):
    """Contract the last axis of each sample along axis 0 in its own stacked
    product, so a sample's result does not depend on which other samples
    share the call. Split into slabs like `contract_mode` at or above the
    cutoff; returns an array of shape arr.shape[:-1]."""
    n, d = arr.shape[0], arr.shape[-1]
    if arr.size < _SPLIT_MIN_SAMPLE * n:
        return (arr.reshape(n, -1, d) @ v).reshape(arr.shape[:-1])
    bounds = _slabs(n)
    out = np.empty(arr.shape[:-1], dtype=np.result_type(arr, v))
    _run_split([(arr[lo:hi].reshape(hi - lo, -1, d), v, out[lo:hi].reshape(hi - lo, -1))
                for lo, hi in zip(bounds, bounds[1:])])
    return out


def contract_down(arr, vectors, axes):
    """Contract several axes with paired vectors, highest axis first.

    Processing in descending axis order keeps the remaining axis indices
    valid while the array shrinks.
    """
    order = sorted(range(len(axes)), key=axes.__getitem__, reverse=True)
    out = arr
    for i in order:
        out = contract_mode(out, vectors[i], axes[i])
    return out
