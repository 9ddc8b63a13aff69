import re

import numpy as np
import pytest

import ml0.tensor
from ml0 import DenseTensor
from ml0.kernels import contract_down, contract_mode
from ml0.tensor import contract_full


def random_tensor(rng, max_order=4, max_dim=6):
    order = rng.integers(1, max_order + 1)
    dims = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(order))
    return DenseTensor(rng.standard_normal(dims))


class TestDenseTensor:
    def test_basic_construction(self):
        t = DenseTensor(np.arange(6.0).reshape(2, 3))
        assert t.dims == (2, 3)
        assert t.order == 2
        assert t.array[1, 2] == 5.0
        assert DenseTensor([1, 2]).array.dtype == np.float64

    def test_data_is_readonly(self):
        t = DenseTensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.array[0] = 3.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DenseTensor([1.0, np.nan])
        with pytest.raises(ValueError, match="finite"):
            DenseTensor([[np.inf], [0.0]])

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError, match="extents"):
            DenseTensor(np.zeros((2, 0)))
        with pytest.raises(ValueError, match="extents"):
            DenseTensor(4.5)

    def test_writes_through_a_view_of_writable_memory_do_not_reach_it(self):
        base = np.ones((3, 2, 2))
        view = base[1]
        t = DenseTensor(view)
        view[0, 0] = np.nan
        base[1, 1, 1] = np.inf
        assert not np.shares_memory(t.array, base)
        np.testing.assert_array_equal(t.array, np.ones((2, 2)))

    def test_an_owned_array_is_kept_and_made_readonly(self):
        a = np.ones((2, 2))
        t = DenseTensor(a)
        assert t.array is a
        with pytest.raises(ValueError):
            a[0, 0] = np.nan

    def test_a_view_of_readonly_memory_is_kept(self):
        base = np.ones((3, 2))
        base.setflags(write=False)
        assert np.shares_memory(DenseTensor(base[1:]).array, base)
        # read-only views of writable memory are copied
        view = np.ones((3, 2))[1:]
        view.setflags(write=False)
        assert not np.shares_memory(DenseTensor(view).array, view)


class TestContractFull:
    def test_coordinate_pick(self):
        t = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        assert contract_full(t, [[1.0, 0.0], [0.0, 1.0]]) == 2.0

    def test_sum_of_entries(self):
        t = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        assert contract_full(t, [[1.0, 1.0], [1.0, 1.0]]) == 10.0

    def test_zero_block_gives_zero(self):
        rng = np.random.default_rng(3)
        t = DenseTensor(rng.standard_normal((2, 3, 2)))
        blocks = [rng.standard_normal(d) for d in t.dims]
        blocks[1] = np.zeros(3)
        assert contract_full(t, blocks) == 0.0

    @pytest.mark.parametrize("shapes", [[(2,)], [(2,), (4,)], [(2,), (3, 1)], [(2,), (3,), (1,)]])
    def test_block_shapes_must_match_the_sample(self, shapes):
        t = DenseTensor(np.ones((2, 3)))
        with pytest.raises(ValueError, match="do not match sample dims"):
            contract_full(t, [np.ones(s) for s in shapes])

    @pytest.mark.parametrize("dims, blocks, shapes", [
        ((2, 3), [], "[]"),
        ((2, 3), [np.ones(2)], "[(2,)]"),
        ((2, 3), [np.ones(2), np.ones(3), np.ones(1)], "[(2,), (3,), (1,)]"),
        ((2, 3), [np.ones(2), np.ones((3, 1))], "[(2,), (3, 1)]"),
        ((2, 3), [np.ones((1, 2)), np.ones(3)], "[(1, 2), (3,)]"),
        ((2, 3), [[1.0, 2.0], [1.0, 2.0]], "[(2,), (2,)]"),
        ((2, 3), [[1, 2], 3], "[(2,), (1,)]"),
        ((4,), [np.ones(3)], "[(3,)]"),
        ((4,), [np.ones(4), np.ones(1)], "[(4,), (1,)]"),
        ((2, 3, 4), [np.ones(2), np.ones(4), np.ones(3)], "[(2,), (4,), (3,)]"),
        ((2, 3, 4), [np.ones(2), [0, 1, 2], np.ones(5, dtype=np.float32)], "[(2,), (3,), (5,)]"),
    ])
    def test_mismatch_names_every_block_shape_and_the_dims(self, dims, blocks, shapes):
        t = DenseTensor(np.ones(dims))
        want = f"block shapes {shapes} do not match sample dims {dims}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            contract_full(t, blocks)

    def test_any_block_form_has_the_bits_of_float64_vectors(self):
        """Lists, ints, float32, other byte orders and strided views are
        converted as `np.ascontiguousarray` converts them."""
        rng = np.random.default_rng(23)
        for dims in [(5,), (1,), (3, 4), (2, 1, 3), (2, 3, 4)]:
            t = DenseTensor(rng.standard_normal(dims))
            ints = [rng.integers(-3, 4, d) for d in dims]
            floats = [rng.standard_normal(d) for d in dims]
            forms = [
                [b.tolist() for b in ints],
                ints,
                [b.astype(np.int8) for b in ints],
                [b.tolist() for b in floats],
                [b.astype(np.float32) for b in floats],
                [b.astype(">f8") for b in floats],
                [np.repeat(b, 2)[::2] for b in floats],
                tuple(floats),
            ]
            if dims == (1,):
                forms.append([int(ints[0][0])])
            for blocks in forms:
                vectors = [np.ascontiguousarray(b, dtype=np.float64) for b in blocks]
                want = float(contract_down(t.array[None], vectors).reshape(()))
                assert contract_full(t, blocks).hex() == want.hex()

    def test_the_gathered_path_takes_any_block_form_and_names_a_mismatch(self, monkeypatch):
        """With every sample above the gather cutoff, block forms keep the
        bits of float64 vectors and a mismatch raises the same message."""
        monkeypatch.setattr(ml0.tensor, "_GATHER_MIN_SAMPLE", 1)
        rng = np.random.default_rng(24)
        for dims in [(5,), (3, 4), (2, 1, 3), (4, 3, 5)]:
            t = DenseTensor(rng.standard_normal(dims))
            ints = [rng.integers(-1, 2, d) for d in dims]
            for blocks in ([b.tolist() for b in ints], ints, [b.astype(np.float32) for b in ints],
                           [b.astype(">f8") for b in ints], [np.repeat(b, 2)[::2] for b in ints]):
                vectors = [np.ascontiguousarray(b, dtype=np.float64) for b in blocks]
                assert contract_full(t, blocks).hex() == contract_full(t, vectors).hex()
        t = DenseTensor(np.ones((2, 3, 4)))
        want = "block shapes [(2,), (4,), (3,)] do not match sample dims (2, 3, 4)"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            contract_full(t, [np.ones(2), np.ones(4), np.ones(3)])

    def test_order_independence(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            t = random_tensor(rng)
            blocks = [rng.standard_normal(d) for d in t.dims]
            want = contract_full(t, blocks)
            perm = rng.permutation(t.order)
            # contract one mode at a time in a random order
            cur = t.array
            remaining = list(range(t.order))
            for mode in perm:
                pos = remaining.index(mode)
                cur = contract_mode(cur, blocks[mode], pos)
                remaining.pop(pos)
            np.testing.assert_allclose(float(cur), want, rtol=1e-12, atol=1e-12)

    def test_bitwise_equal_to_descending_fold(self):
        rng = np.random.default_rng(19)
        for order in range(1, 5):
            for _ in range(25):
                dims = tuple(int(d) for d in rng.integers(1, 7, size=order))
                t = DenseTensor(rng.standard_normal(dims))
                blocks = [rng.standard_normal(d) for d in dims]
                want = float(contract_down(t.array[None], blocks).reshape(()))
                assert contract_full(t, blocks).hex() == want.hex()

    def test_linearity_in_each_block(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            t = random_tensor(rng)
            blocks = [rng.standard_normal(d) for d in t.dims]
            j = int(rng.integers(t.order))
            u = rng.standard_normal(t.dims[j])
            v = rng.standard_normal(t.dims[j])
            a, b = rng.standard_normal(2)
            mixed = list(blocks)
            mixed[j] = a * u + b * v
            with_u = list(blocks)
            with_u[j] = u
            with_v = list(blocks)
            with_v[j] = v
            lhs = contract_full(t, mixed)
            rhs = a * contract_full(t, with_u) + b * contract_full(t, with_v)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
