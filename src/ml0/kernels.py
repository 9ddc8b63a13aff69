"""Mode contraction kernel.

Every prediction and gradient in this package reduces to the same primitive:
contract one axis of a dense row-major array with a vector (a mode-n product).
There is one implementation, a numpy `matmul` on a reshaped view, so BLAS does
the arithmetic and the array is never copied: the last axis is one
matrix-vector product over the flattened leading axes, any other axis a
stacked vector-matrix product over the (outer, d, inner) view.

Large sample arrays are split by sample. When each sample along axis 0 holds
at least `_SPLIT_MIN_SAMPLE` elements, the contracted axis is not axis 0, and
there are at least two samples per usable core, the samples are cut into one
contiguous slab per core and each slab runs the same `matmul` on its own
thread, writing its rows of one preallocated output. numpy releases the
interpreter lock inside `matmul`, so the slabs stream X in parallel. Every
slab, the last axis included, runs as a stack of per-sample products, which
OpenBLAS runs on the calling thread at these sizes; a multithreaded gemv would
leave BLAS worker threads spinning on the cores the other slabs need. A
non-last axis gives the same bits as the single call; the last axis sums each
sample in its own gemv, so it may differ from the single gemv in the last
bits. Worker threads are started per call and joined before it returns, so
no pool outlives a call or a `fork`, and they call nothing but numpy.
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
    """Sample bounds of one slab per usable core, or None to run one call."""
    cores = _usable_cores()
    if cores < 2 or n < 2 * cores:
        return None
    return [n * i // cores for i in range(cores + 1)]


def _run_split(products):
    """Run each (a, b, out) as `np.matmul(a, b, out=out)`: the first on this
    thread, the rest on one short-lived thread each. Re-raises the first
    error in slab order after every thread has finished."""
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
    bounds = None
    if axis and arr.size >= _SPLIT_MIN_SAMPLE * shape[0]:
        bounds = _slabs(shape[0])
    if bounds is None:
        if last:
            out = arr.reshape(-1, d) @ v
        else:
            out = v @ arr.reshape(math.prod(shape[:axis]), d, math.prod(shape[axis + 1 :]))
        return out.reshape(shape[:axis] + shape[axis + 1 :])
    out = np.empty(shape[:axis] + shape[axis + 1 :], dtype=np.result_type(arr, v))
    inner = math.prod(shape[axis + 1 :])
    products = []
    for lo, hi in zip(bounds, bounds[1:]):
        slab, rows = arr[lo:hi], out[lo:hi]
        if last:
            products.append((slab.reshape(hi - lo, -1, d), v, rows.reshape(hi - lo, -1)))
        else:
            products.append((v, slab.reshape(-1, d, inner), rows.reshape(-1, inner)))
    _run_split(products)
    return out


def contract_down(arr, vectors, axes):
    """Contract several axes with paired vectors, highest axis first.

    Processing in descending axis order keeps the remaining axis indices
    valid while the array shrinks.
    """
    order = sorted(range(len(axes)), key=lambda i: axes[i], reverse=True)
    out = arr
    for i in order:
        out = contract_mode(out, vectors[i], axes[i])
    return out
