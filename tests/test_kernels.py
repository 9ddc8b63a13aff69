import importlib
import inspect
import os
import signal
import string
import threading
import time

import numpy as np
import pytest

import ml0
from ml0 import kernels


def test_contract_mode_reduces_axis():
    rng = np.random.default_rng(9)
    # Extent-1 axes put outer == 1 and inner == 1 on the non-last branch;
    # extent-0 axes give empty results of the right shape.
    shapes = [(5,), (1,), (3, 4), (1, 4), (4, 1), (3, 4, 2), (1, 3, 1), (2, 1, 3),
              (2, 3, 4, 5), (1, 2, 1, 3), (3, 1, 2, 1), (0, 3, 4), (2, 0, 4), (2, 3, 0)]
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
    out = kernels.contract_down(arr, vs)
    want = np.einsum("ijk,j,k->i", arr, vs[0], vs[1])
    np.testing.assert_allclose(out, want, rtol=1e-13)


# The sample split. Tests reach it on small arrays by patching the private
# cutoff and the usable core count.


def _single(arr, v, axis):
    d = arr.shape[axis]
    if axis == arr.ndim - 1:
        out = arr.reshape(-1, d) @ v
    else:
        out = v @ arr.reshape(int(np.prod(arr.shape[:axis])), d, -1)
    return out.reshape(arr.shape[:axis] + arr.shape[axis + 1 :])


@pytest.fixture
def range_calls(monkeypatch):
    """Record the range count of every contraction that goes through
    `kernels._each_range`."""
    calls = []
    each_range = kernels._each_range

    def counting(n, size, task):
        calls.append(len(kernels._ranges(n, size)) - 1)
        return each_range(n, size, task)

    monkeypatch.setattr(kernels, "_each_range", counting)
    return calls


@pytest.fixture
def split_calls(range_calls, monkeypatch):
    """As range_calls, with the split forced on passes of any size."""
    monkeypatch.setattr(kernels, "_SPLIT_MIN_PASS", 1)
    return range_calls


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_split_matches_single_call(split_calls, monkeypatch, workers):
    monkeypatch.setattr(kernels, "_usable_cores", lambda: workers)
    rng = np.random.default_rng(11)
    # n = 2 * workers + 1 is never a multiple of the worker count; the d=130
    # last axis is where stacked per-sample gemvs and one gemv round apart.
    shapes = [(2 * workers + 1, 7), (2 * workers + 1, 130), (2 * workers + 1, 5, 130),
              (2 * workers + 1, 3, 4, 5), (2 * workers + 1, 1, 6, 1), (23, 4, 3)]
    for shape in shapes:
        arr = np.ascontiguousarray(rng.standard_normal(shape))
        idx = string.ascii_lowercase[: len(shape)]
        for axis, d in enumerate(shape):
            v = rng.standard_normal(d)
            before = len(split_calls)
            out = kernels.contract_mode(arr, v, axis)
            assert out.shape == shape[:axis] + shape[axis + 1 :]
            assert len(split_calls) - before == (0 if axis == 0 else 1)
            if axis < len(shape) - 1:
                np.testing.assert_array_equal(out, _single(arr, v, axis))
            else:
                want = np.einsum(f"{idx},{idx[axis]}->{idx.replace(idx[axis], '')}", arr, v)
                np.testing.assert_allclose(out, want, rtol=1e-13)
            np.testing.assert_array_equal(out, kernels.contract_mode(arr, v, axis))
    assert set(split_calls) == {workers}


def test_split_bits_do_not_depend_on_worker_count(split_calls, monkeypatch):
    rng = np.random.default_rng(12)
    arr = rng.standard_normal((13, 6, 130))
    for axis in (1, 2):
        v = rng.standard_normal(arr.shape[axis])
        outs = []
        for workers in (2, 3, 5):
            monkeypatch.setattr(kernels, "_usable_cores", lambda w=workers: w)
            outs.append(kernels.contract_mode(arr, v, axis))
        for out in outs[1:]:
            np.testing.assert_array_equal(out, outs[0])
    assert split_calls == [2, 3, 5, 2, 3, 5]


@pytest.mark.parametrize("workers,n", [(1, 40), (2, 3), (4, 7)])
def test_unsplit_with_one_core_or_few_samples(split_calls, monkeypatch, workers, n):
    """One core, or fewer than two samples per core, gives the bits of a
    single call: as many slabs as two samples each allow, at most one per
    core, and no thread started for a single slab."""
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    monkeypatch.setattr(kernels, "_usable_cores", lambda: workers)
    rng = np.random.default_rng(13)
    arr = rng.standard_normal((n, 4, 5))
    for axis in (1, 2):
        v = rng.standard_normal(arr.shape[axis])
        np.testing.assert_array_equal(kernels.contract_mode(arr, v, axis), _single(arr, v, axis))
    slabs = max(1, min(workers, n // 2))
    assert split_calls == [slabs, slabs]
    assert len(started) == 2 * (slabs - 1)


def test_bits_do_not_depend_on_core_count(split_calls, monkeypatch):
    """Above the cutoff every core count takes the slab path, one slab
    included, so every axis gives the same bits on 1 to 4 cores."""
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    rng = np.random.default_rng(13)
    # The d=130 last axis is where stacked per-sample gemvs and one gemv round
    # apart; extent-1 axes put outer == 1 and inner == 1 on the other axes.
    tails = [(130,), (5, 130), (3, 4, 5), (1, 6, 1)]
    for n in range(1, 2 * 4 + 2):
        for tail in tails:
            arr = np.ascontiguousarray(rng.standard_normal((n,) + tail))
            for axis in range(1, arr.ndim):
                v = rng.standard_normal(arr.shape[axis])
                outs = {}
                for cores in (1, 2, 3, 4):
                    monkeypatch.setattr(kernels, "_usable_cores", lambda c=cores: c)
                    del split_calls[:], started[:]
                    outs[cores] = kernels.contract_mode(arr, v, axis)
                    assert split_calls == [max(1, min(cores, n // 2))]
                    assert len(started) == split_calls[0] - 1
                for out in outs.values():
                    np.testing.assert_array_equal(out, outs[1])
                if axis < arr.ndim - 1:
                    np.testing.assert_array_equal(outs[1], _single(arr, v, axis))


def test_one_cutoff_splits_only_large_passes(range_calls, monkeypatch):
    """Off axis 0 every contraction runs through `_each_range`: one range on
    the calling thread below `_SPLIT_MIN_PASS` elements in all, one range
    per core from there on. Desk and score training X (160x30x30) and a few
    large samples (12x130x130) take one range; 2400x30x30 and the large X
    (800x200x200) take one per core."""
    monkeypatch.setattr(kernels, "_usable_cores", lambda: 2)
    cases = {(160, 30, 30): [0, 160], (12, 130, 130): [0, 12],
             (2400, 30, 30): [0, 1200, 2400], (800, 200, 200): [0, 400, 800]}
    recorded = []
    with monkeypatch.context() as m:
        # Count the ranges without running them, so the calloc'd zeros of
        # the large X are never touched.
        m.setattr(kernels, "_each_range", lambda n, size, task: recorded.append(
            len(kernels._ranges(n, size)) - 1))
        for shape, bounds in cases.items():
            assert kernels._ranges(shape[0], shape[1] * shape[2]) == bounds
            arr = np.zeros(shape)
            for axis, d in enumerate(shape):
                del recorded[:]
                kernels.contract_mode(arr, np.ones(d), axis)
                assert recorded == ([len(bounds) - 1] if axis else []), shape
    # Run for real: off the last axis the bits of the single call, on the
    # last axis those of one product per sample, the same on any core count,
    # one core included; below the cutoff no thread starts.
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    rng = np.random.default_rng(16)
    for shape in list(cases)[:3]:
        arr = rng.standard_normal(shape)
        for axis in (1, 2):
            v = rng.standard_normal(shape[axis])
            outs = []
            for cores in (1, 2, 3, 4):
                monkeypatch.setattr(kernels, "_usable_cores", lambda c=cores: c)
                del started[:]
                outs.append(kernels.contract_mode(arr, v, axis))
                assert len(started) == (cores - 1 if shape[0] == 2400 else 0)
            for out in outs[1:]:
                assert out.tobytes() == outs[0].tobytes()
            want = _single(arr, v, axis) if axis == 1 else _per_sample(arr, v)
            assert outs[0].tobytes() == want.tobytes()
    assert range_calls == [1] * 16 + [1, 2, 3, 4] * 2


def test_wrong_vector_length_raises_as_single_call(split_calls, monkeypatch):
    monkeypatch.setattr(kernels, "_usable_cores", lambda: 2)
    arr = np.ones((9, 4, 5))
    for axis in (1, 2):
        v = np.ones(arr.shape[axis] + 1)
        with pytest.raises(ValueError) as single:
            _single(arr, v, axis)
        with pytest.raises(ValueError) as split:
            kernels.contract_mode(arr, v, axis)
        assert str(split.value) == str(single.value)
    assert split_calls == [2, 2]


@pytest.mark.parametrize("failing", ["main", "worker"])
def test_slab_error_reaches_caller_after_every_slab_ends(split_calls, monkeypatch, failing):
    monkeypatch.setattr(kernels, "_usable_cores", lambda: 3)
    matmul = np.matmul
    main = threading.main_thread()
    finished = []

    def flaky(*args, **kwargs):
        on_main = threading.current_thread() is main
        if not on_main:
            time.sleep(0.05)  # the main thread's slab ends first
        try:
            if on_main == (failing == "main"):
                raise ValueError(f"{failing} slab failed")
            return matmul(*args, **kwargs)
        finally:
            if not on_main:
                finished.append(threading.current_thread())

    monkeypatch.setattr(np, "matmul", flaky)
    arr = np.ones((9, 4, 5))
    for axis in (1, 2):
        finished.clear()
        with pytest.raises(ValueError, match=f"{failing} slab failed"):
            kernels.contract_mode(arr, np.ones(arr.shape[axis]), axis)
        assert len(finished) == 2
        assert not any(t.is_alive() for t in finished)
    assert split_calls == [3, 3]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_contracts_after_parent_split(split_calls, monkeypatch):
    monkeypatch.setattr(kernels, "_usable_cores", lambda: 2)
    rng = np.random.default_rng(14)
    arr = rng.standard_normal((9, 6, 7))
    v = rng.standard_normal(6)
    want = _single(arr, v, 1)
    np.testing.assert_array_equal(kernels.contract_mode(arr, v, 1), want)
    assert split_calls == [2]
    pid = os.fork()
    if pid == 0:  # child: exit 0 only if the split contraction completes correctly
        code = 1
        try:
            ok = np.array_equal(kernels.contract_mode(arr, v, 1), want) and split_calls == [2, 2]
            code = 0 if ok else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child hung in contract_mode")
        time.sleep(0.01)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


@pytest.mark.parametrize("passes", ["dense", "compact"])
def test_solve_above_cutoff_calls_ml0_on_main_thread(range_calls, monkeypatch, passes):
    """Every public ml0 function runs on the main thread during a solve whose
    passes take the split, over X itself or over its compact copies, so a
    single-threaded wrapper (such as a span tracer) around them stays
    consistent."""
    monkeypatch.setattr(kernels, "_usable_cores", lambda: 2)
    layers = ("cli", "data", "model", "kernels", "tensor", "prox", "solver", "metrics")
    modules = [importlib.import_module(f"ml0.{name}") for name in layers]
    threads, names = [], set()
    wrappers = {}
    for mod in modules:
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                def wrapper(*args, _fn=fn, **kwargs):
                    threads.append(threading.current_thread())
                    names.add(_fn.__qualname__)
                    return _fn(*args, **kwargs)
                wrappers[fn] = wrapper
    for mod in [ml0, *modules]:
        for attr, fn in list(vars(mod).items()):
            if inspect.isfunction(fn) and fn in wrappers:
                monkeypatch.setattr(mod, attr, wrappers[fn])

    rng = np.random.default_rng(15)
    n, dims = 8, (130, 130)
    if passes == "dense":
        monkeypatch.setattr(ml0.tensor, "_GATHER_MIN_SAMPLE", 1 << 62)
        cutoff = n * dims[0] * dims[1]  # X takes the split
    else:  # each copy keeps 20 of the 130 indices of its axis, and takes the split
        assert ml0.tensor._gathers(dims[0] * dims[1])
        cutoff = n * 20 * dims[1]
    monkeypatch.setattr(kernels, "_SPLIT_MIN_PASS", cutoff)
    sizes = []
    each_range = kernels._each_range

    def sized(n, size, task):
        sizes.append(n * size)
        return each_range(n, size, task)

    monkeypatch.setattr(kernels, "_each_range", sized)
    data = ml0.Dataset(rng.standard_normal((n,) + dims), np.array([1.0, -1.0] * (n // 2)))
    problem = ml0.Problem(ridge=(1e-3, 1e-3), sparsity=(20, 20))
    init = ml0.random_init(dims, problem.sparsity, seed=3)
    result = ml0.run(problem, data, init, ml0.SolverConfig(max_iters=4))
    assert len(result.trace) >= 2
    # The passes over X, and over its copies once they are built, take 2
    # ranges; every other contraction (of a partial, n x 130) takes 1.
    copies = set() if passes == "dense" else {n * 20 * dims[1]}
    assert {s for s in sizes if s >= cutoff} == {data.X.size} | copies
    assert range_calls == [2 if s >= cutoff else 1 for s in sizes]
    assert 1 in range_calls
    assert {"contract_mode", "margin_batch", "project_l0"} <= names
    assert all(t is threading.main_thread() for t in threads)


def _per_sample(arr, v):
    """Each sample's last axis contracted in a product of its own."""
    d = arr.shape[-1]
    return np.stack([a.reshape(-1, d) @ v for a in arr]).reshape(arr.shape[:-1])


@pytest.mark.parametrize("split", [False, True], ids=["whole", "slabs"])
def test_last_axis_bits_do_not_depend_on_the_batch(range_calls, monkeypatch, split):
    """A sample's last-axis result is the same whichever samples share the
    call, in a whole call or in slabs, at any offset into a buffer."""
    if split:
        monkeypatch.setattr(kernels, "_SPLIT_MIN_PASS", 1)
    monkeypatch.setattr(kernels, "_usable_cores", lambda: 2)
    rng = np.random.default_rng(21)
    for tail in [(7,), (130,), (3, 5), (30, 30), (5, 3, 7), (1, 6, 1)]:
        arr = rng.standard_normal((13,) + tail)
        v = rng.standard_normal(tail[-1])
        axis = len(tail)
        out = kernels.contract_mode(arr, v, axis)
        assert out.shape == arr.shape[:-1]
        assert out.tobytes() == _per_sample(arr, v).tobytes()
        for lo, hi in [(0, 1), (2, 5), (5, 13), (12, 13)]:
            assert kernels.contract_mode(arr[lo:hi], v, axis).tobytes() == out[lo:hi].tobytes()
        shifted = np.empty(arr.size + 1)[1:].reshape(arr.shape)  # off a 16-byte boundary
        shifted[...] = arr
        assert kernels.contract_mode(shifted, v, axis).tobytes() == out.tobytes()
    assert max(range_calls) == (2 if split else 1)


@pytest.mark.parametrize("split", [False, True], ids=["whole", "slabs"])
def test_contract_mode_last_axis_is_one_product_per_sample(range_calls, monkeypatch, split):
    """Below the cutoff and above it, the last axis gives the bits of one
    product per sample."""
    monkeypatch.setattr(kernels, "_usable_cores", lambda: 2)
    rng = np.random.default_rng(22)
    arr = rng.standard_normal((5, 130, 130))
    v = rng.standard_normal(130)
    monkeypatch.setattr(kernels, "_SPLIT_MIN_PASS", arr.size if split else arr.size + 1)
    out = kernels.contract_mode(arr, v, 2)
    assert out.tobytes() == _per_sample(arr, v).tobytes()
    assert range_calls == [2 if split else 1]
