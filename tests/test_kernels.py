import string

import numpy as np

from ml0 import kernels


def test_contract_mode_reduces_axis():
    rng = np.random.default_rng(9)
    # Extent-1 axes put outer == 1 and inner == 1 on the non-last branch.
    shapes = [(5,), (1,), (3, 4), (1, 4), (4, 1), (3, 4, 2), (1, 3, 1), (2, 1, 3),
              (2, 3, 4, 5), (1, 2, 1, 3), (3, 1, 2, 1)]
    for shape in shapes:
        arr = np.ascontiguousarray(rng.standard_normal(shape))
        idx = string.ascii_lowercase[: len(shape)]
        for axis, d in enumerate(shape):
            v = rng.standard_normal(d)
            out = kernels.contract_mode(arr, v, axis)
            assert out.shape == shape[:axis] + shape[axis + 1 :]
            want = np.einsum(f"{idx},{idx[axis]}->{idx.replace(idx[axis], '')}", arr, v)
            np.testing.assert_allclose(out, want, rtol=1e-13)


def test_contract_down_descending_fold():
    rng = np.random.default_rng(10)
    arr = np.ascontiguousarray(rng.standard_normal((2, 3, 4)))
    vs = [rng.standard_normal(d) for d in (3, 4)]
    out = kernels.contract_down(arr, vs, [1, 2])
    want = np.einsum("ijk,j,k->i", arr, vs[0], vs[1])
    np.testing.assert_allclose(out, want, rtol=1e-13)
