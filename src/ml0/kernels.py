"""Mode contraction kernel.

Every prediction and gradient in this package reduces to the same primitive:
contract one axis of a dense row-major array with a vector (a mode-n product).
There is one implementation, a numpy `matmul` on a reshaped view, so BLAS does
the arithmetic and the array is never copied: the last axis is one
matrix-vector product over the flattened leading axes, any other axis a
stacked vector-matrix product over the (outer, d, inner) view.
"""

import math


def contract_mode(arr, v, axis):
    """Contract one axis of a C-contiguous float64 array with a vector.

    Returns an array whose shape is arr.shape with `axis` removed.
    """
    shape = arr.shape
    d = shape[axis]
    if axis == len(shape) - 1:
        out = arr.reshape(-1, d) @ v
    else:
        out = v @ arr.reshape(math.prod(shape[:axis]), d, math.prod(shape[axis + 1 :]))
    return out.reshape(shape[:axis] + shape[axis + 1 :])


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
