import hashlib
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ml0.data
import ml0.tensor
from ml0 import (
    Dataset,
    DatasetStream,
    FormatError,
    ModelParams,
    SyntheticConfig,
    accuracy,
    auc,
    generate_synthetic,
    load_dataset,
    load_params,
    margins,
    save_dataset,
    save_params,
    split,
)


def traced_peak(fn, *args):
    """Peak bytes Python and numpy allocate while fn(*args) runs, and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


def packed_dataset(X, y):
    """The dataset format packed by hand from the README layout."""
    dims = X.shape[1:]
    return (
        b"ML0T"
        + struct.pack("<II", 1, len(dims))
        + struct.pack(f"<{len(dims)}Q", *dims)
        + struct.pack("<Q", X.shape[0])
        + struct.pack(f"<{len(y)}b", *[int(v) for v in y])
        + struct.pack(f"<{X.size}d", *X.reshape(-1).tolist())
    )


def packed_params(blocks, bias):
    return (
        b"ML0W"
        + struct.pack("<II", 1, len(blocks))
        + struct.pack(f"<{len(blocks)}Q", *[b.size for b in blocks])
        + b"".join(struct.pack(f"<{b.size}d", *b.tolist()) for b in blocks)
        + struct.pack("<d", bias)
    )


def corner_scores(ds, v1, v2):
    block = len(v1)
    corner = ds.X[:, :block, :block]
    return np.tensordot(corner, v2, axes=([2], [0])) @ v1 + 1.0


class TestDataset:
    def test_zero_one_labels_rejected(self):
        with pytest.raises(ValueError, match=re.escape("labels must be -1 or +1, found [0.0]")):
            Dataset(np.zeros((2, 3)), [0.0, 1.0])

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.zeros((2, 3)), [1.0, 2.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[np.inf, 0.0]]), [1.0])

    @pytest.mark.parametrize("where", [0, 2**16 - 1, 2**16, 2 * 2**16 + 2])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_found_in_every_block(self, where, bad):
        X = np.zeros((3, 2**16 + 1))
        X.reshape(-1)[where] = bad
        with pytest.raises(ValueError, match="finite"):
            Dataset(X, [1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.asfortranarray(X), [1.0, -1.0, 1.0])

    def test_writes_through_a_view_of_writable_memory_do_not_reach_it(self):
        base = np.ones((4, 2, 3))
        labels = np.array([1.0, -1.0, 1.0, -1.0, 0.0])
        ds = Dataset(base[:], labels[:4])
        base[0, 0, 0] = np.inf
        labels[0] = 7.0
        assert not np.shares_memory(ds.X, base) and not np.shares_memory(ds.y, labels)
        np.testing.assert_array_equal(ds.X, np.ones((4, 2, 3)))
        np.testing.assert_array_equal(ds.y, [1.0, -1.0, 1.0, -1.0])

    def test_owned_arrays_are_kept_and_made_readonly(self):
        X, y = np.ones((2, 3)), np.array([1.0, -1.0])
        ds = Dataset(X, y)
        assert ds.X is X and ds.y is y
        with pytest.raises(ValueError):
            X[0, 0] = np.inf
        with pytest.raises(ValueError):
            y[0] = 7.0

    @pytest.mark.parametrize("labels", [[1.0, 2.0], [1.0, -1.0, 1.0]])
    def test_a_rejected_call_leaves_the_arrays_writable(self, labels):
        X, y = np.ones((2, 3)), np.array(labels)
        with pytest.raises(ValueError, match="labels"):
            Dataset(X, y)
        assert X.flags.writeable and y.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_rejected_sample_check_leaves_the_labels_writable(self, bad):
        X, y = np.array([[[bad]], [[1.0]]]), np.array([1.0, -1.0])
        with pytest.raises(ValueError, match="entries must be finite"):
            Dataset(X, y)
        assert X.flags.writeable and y.flags.writeable
        y[0] = -1.0

    def test_sample_views_the_dataset(self):
        ds = Dataset(np.arange(12.0).reshape(3, 2, 2), [1.0, -1.0, 1.0])
        for i in range(ds.n):
            t = ds.sample(i)
            assert np.shares_memory(t.array, ds.X)
            np.testing.assert_array_equal(t.array, ds.X[i])

    def test_subset(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((5, 2)), [1.0, -1.0, 1.0, -1.0, 1.0])
        sub = ds.subset([0, 4])
        assert sub.n == 2
        np.testing.assert_array_equal(sub.y, [1.0, 1.0])

    @pytest.mark.parametrize("indices", [np.arange(0), np.zeros(5, dtype=bool), [[0, 1]], 2],
                             ids=["no-index", "all-false-mask", "2-d", "scalar"])
    def test_subset_needs_a_nonempty_1d_selection(self, indices):
        ds = Dataset(np.ones((5, 2)), [1.0, -1.0, 1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="1-D selection"):
            ds.subset(indices)

    def test_sample_and_subset_reuse_the_checked_arrays(self, monkeypatch):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.standard_normal((6, 3, 2)), [1.0, -1.0] * 3)

        def scanned(a):
            raise AssertionError("checked memory was scanned again")

        monkeypatch.setattr(ml0.tensor, "_check_finite", scanned)
        sub = ds.subset(np.array([4, 1, 4]))
        np.testing.assert_array_equal(sub.X, ds.X[[4, 1, 4]])
        np.testing.assert_array_equal(sub.y, [1.0, -1.0, 1.0])
        mask = ds.subset(ds.y > 0)
        assert mask.n == 3 and (mask.y == 1.0).all()
        for a in (sub.X, sub.y, ds.sample(np.int64(2)).array):
            assert not a.flags.writeable
        with pytest.raises(TypeError):
            ds.sample(np.array([0, 1]))
        with pytest.raises(TypeError):
            ds.sample(1.0)


class TestGenerateSynthetic:
    def test_desk_scale_constraints_hold_for_all_samples(self):
        cfg = SyntheticConfig(rows=30, cols=30, block=5, per_class=100, margin=0.5, seed=3)
        ds, (v1, v2) = generate_synthetic(cfg)
        scores = corner_scores(ds, v1, v2)
        pos = scores[ds.y == 1.0]
        neg = scores[ds.y == -1.0]
        assert pos.size == neg.size == 100
        assert np.all(pos >= 0.5)
        assert np.all(neg <= -0.5)

    def test_default_config_matches_first_mode_shape(self):
        cfg = SyntheticConfig()
        assert (cfg.rows, cfg.cols, cfg.block, cfg.per_class) == (200, 200, 20, 500)
        assert cfg.margin == 0.5

    def test_shapes_and_balance(self):
        cfg = SyntheticConfig(rows=8, cols=6, block=3, per_class=12, seed=1)
        ds, (v1, v2) = generate_synthetic(cfg)
        assert ds.X.shape == (24, 8, 6)
        assert int(np.sum(ds.y == 1.0)) == 12
        assert v1.shape == v2.shape == (3,)
        assert np.all(v1 >= 0.0) and np.all(v1 <= 1.0)

    def test_seed_reproducibility(self):
        cfg = SyntheticConfig(rows=6, cols=6, block=2, per_class=5, seed=9)
        a, _ = generate_synthetic(cfg)
        b, _ = generate_synthetic(cfg)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_block_must_fit(self):
        with pytest.raises(ValueError, match="block"):
            SyntheticConfig(rows=4, cols=4, block=5, per_class=1)

    @pytest.mark.parametrize("fields, match", [
        ({"rows": 0, "block": 0}, "dimensions must be positive"),
        ({"rows": 4, "cols": 4, "block": 0}, "dimensions must be positive"),
        ({"rows": 4, "cols": -1, "block": -2}, "dimensions must be positive"),
        ({"per_class": 0}, "per_class"),
        ({"margin": 0.0}, "margin"),
        ({"margin": -0.5}, "margin"),
        ({"margin": float("inf")}, "margin must be positive and finite, got inf"),
        ({"margin": float("nan")}, "margin must be positive and finite, got nan"),
    ])
    def test_invalid_config_rejected(self, fields, match):
        with pytest.raises(ValueError, match=match):
            SyntheticConfig(**fields)

    def test_bits_pinned_and_peak_is_one_copy_of_x(self):
        # Digests of the generator that concatenated the two classes (numpy
        # 2.4.6, OpenBLAS): drawing both into one array and shuffling its
        # rows in place must keep every bit. The corner scores go through
        # BLAS, so another BLAS may move them.
        cfg = SyntheticConfig(rows=30, cols=30, block=5, per_class=1000, margin=0.5, seed=2)
        generate_synthetic(replace(cfg, per_class=1))  # keeps first-call imports out of the peak
        peak, (ds, _) = traced_peak(generate_synthetic, cfg)
        assert hashlib.sha256(ds.X.tobytes()).hexdigest() == (
            "0ec61f51b28bf9b71f75de9fa5aae4b3acef27f6eb09fda678073b7ddb2e4168")
        assert hashlib.sha256(ds.y.tobytes()).hexdigest() == (
            "588607c5d48c2f1f8ddeb4320ad74acbc5d4a053ec9301f2a53a772b62717942")
        # X itself and one chunk of the in-place shuffle, whose band is a
        # mapping that tracemalloc does not see (the resident test below
        # does); a shuffled copy would show as 2x.
        size = ds.X.nbytes
        assert peak <= 1.15 * size, f"peak {peak} B is {peak / size:.2f}x X"

    def test_resident_peak_is_one_copy_of_x(self):
        # tracemalloc sees numpy's allocations but not what the process
        # holds resident; ru_maxrss does. The same import without the
        # generation is the baseline.
        src = str(Path(ml0.data.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        head = "import resource, ml0\n"
        rss = "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)\n"
        gen = ("ds, _ = ml0.generate_synthetic(ml0.SyntheticConfig("
               "rows=30, cols=30, block=5, per_class=10000, seed=0))\n")

        def child(code):
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True, timeout=60).stdout
            return int(out)

        grown = child(head + gen + rss) - child(head + rss)
        size = 20000 * 30 * 30 * 8
        assert grown <= 1.25 * size, f"resident growth {grown} B is {grown / size:.2f}x X"


class TestPermuteRows:
    @staticmethod
    def check(X, order):
        want = X[order]
        ml0.data._permute_rows(X, order)
        assert X.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(7, 3, 5), (1, 4, 4), (9, 1), (6, 1, 1), (11, 17),
                                       (40, 35), (1500, 900)],
                             ids=["3-way", "n=1", "one-element", "one-element-3-way",
                                  "17-columns", "35-columns", "two-chunks"])
    def test_equals_fancy_indexing(self, shape):
        # 17 and 35 columns: bands of 1 and 2 columns, the last band short
        # for 35; one element per sample: a single one-column band; 900
        # columns: bands of 56 columns gathered in two chunks of rows.
        rng = np.random.default_rng(sum(shape))
        X = rng.standard_normal(shape)
        n = shape[0]
        orders = [np.arange(n), np.arange(n)[::-1].copy(), np.roll(np.arange(n), 1)]
        orders += [rng.permutation(n) for _ in range(3)]
        for order in orders:
            self.check(X.copy(), order)

    def test_traced_peak_is_one_chunk(self):
        # tracemalloc sees the chunk temporaries but not the band, which is
        # a mapping of its own; test_resident_peak_is_one_copy_of_x sees both.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((2000, 30, 30))
        order = rng.permutation(X.shape[0])
        want = X[order]
        band = X.nbytes // 16
        chunk = 8 * ml0.tensor._FINITE_BLOCK
        peak, _ = traced_peak(ml0.data._permute_rows, X, order)
        assert X.tobytes() == want.tobytes()
        assert peak <= 1.1 * chunk < band, f"peak {peak} B is {peak / chunk:.2f} chunks"


class TestOneLabelRule:
    """Every way in, in memory or from a file, takes labels -1 and +1 only
    and names what it found in the same words."""

    # (labels, the values the message names); a file holds int8 labels, so no NaN.
    BAD = [([1, 0, 1, 0], "[0.0]"), ([1, -1, 2, -1], "[2.0]"),
           ([1, -1, 3, 3], "[3.0]"), ([1, -1, -128, 1], "[-128.0]")]
    IN_MEMORY = {
        "Dataset": lambda y: Dataset(np.ones((len(y), 2)), y),
        "accuracy": lambda y: accuracy(np.ones(len(y)), y),
        "auc": lambda y: auc(np.ones(len(y)), y),
    }
    FROM_FILE = {"load_dataset": load_dataset, "DatasetStream": DatasetStream}

    @pytest.mark.parametrize("labels, found", BAD + [([1.0, -1.0, np.nan, 1.0], "[nan]")])
    @pytest.mark.parametrize("entry", IN_MEMORY)
    def test_in_memory(self, entry, labels, found):
        with pytest.raises(ValueError, match=re.escape(f"labels must be -1 or +1, found {found}")):
            self.IN_MEMORY[entry](labels)

    @pytest.mark.parametrize("labels, found", BAD)
    @pytest.mark.parametrize("entry", FROM_FILE)
    def test_from_file_at_the_offset_of_the_labels(self, tmp_path, entry, labels, found):
        path = tmp_path / "t.ml0t"
        path.write_bytes(packed_dataset(np.ones((len(labels), 3, 2)), labels))
        with pytest.raises(FormatError) as err:
            self.FROM_FILE[entry](path)
        # magic 0-3, version 4-7, dim count 8-11, dims 12-27, sample count 28-35
        assert str(err.value) == f"{path}: labels must be -1 or +1, found {found} (byte offset 36)"
        assert err.value.offset == 36

    def test_swapped_metric_arguments_name_at_most_five_values(self):
        rng = np.random.default_rng(0)
        m, y = rng.standard_normal(20000), rng.choice([-1.0, 1.0], 20000)
        with pytest.raises(ValueError) as err:
            auc(y, m)
        msg = str(err.value)
        named = re.fullmatch(r"labels must be -1 or \+1, found \[(.*)\] and 19995 more", msg)
        assert named and len(named[1].split(", ")) == 5 and len(msg) < 200, msg


class TestSplit:
    def make(self, n_pos, n_neg, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_pos + n_neg, 2))
        y = np.array([1.0] * n_pos + [-1.0] * n_neg)
        return Dataset(X, y)

    def test_eighty_twenty_balanced(self):
        ds = self.make(50, 50)
        train, test = split(ds, 0.8, seed=1)
        assert train.n == 80 and test.n == 20
        assert int(np.sum(train.y == 1.0)) == 40
        assert int(np.sum(test.y == 1.0)) == 10

    def test_same_seed_same_split(self):
        ds = self.make(20, 20)
        a_train, a_test = split(ds, 0.7, seed=5)
        b_train, b_test = split(ds, 0.7, seed=5)
        assert np.array_equal(a_train.X, b_train.X)
        assert np.array_equal(a_test.X, b_test.X)

    def test_half_split_of_ten_balanced_up_to_rounding(self):
        ds = self.make(5, 5)
        train, test = split(ds, 0.5, seed=2)
        assert train.n == 5 and test.n == 5
        assert int(np.sum(train.y == 1.0)) in (2, 3)
        assert int(np.sum(test.y == 1.0)) in (2, 3)

    def test_tiny_class_rejected(self):
        ds = self.make(1, 10)
        with pytest.raises(ValueError, match="at least 2"):
            split(ds, 0.5, seed=0)

    def test_empty_class_side_rejected(self):
        ds = self.make(2, 2)
        with pytest.raises(ValueError, match="empty class"):
            split(ds, 0.1, seed=0)

    def test_bad_fraction_rejected(self):
        ds = self.make(5, 5)
        with pytest.raises(ValueError, match="fraction"):
            split(ds, 1.0, seed=0)


class TestDatasetIO:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(6)
        ds = Dataset(rng.standard_normal((5, 3, 1, 2)), rng.choice([-1.0, 1.0], 5))
        path = tmp_path / "t.ml0t"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.X.tobytes() == ds.X.tobytes()
        assert np.array_equal(back.y, ds.y)

    def test_round_trip_unit_extents(self, tmp_path):
        rng = np.random.default_rng(7)
        ds = Dataset(rng.standard_normal((3, 1)), [1.0, -1.0, 1.0])
        path = tmp_path / "t.ml0t"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.feature_dims == (1,)
        assert back.X.tobytes() == ds.X.tobytes()

    def test_truncated_file_reports_offset(self, tmp_path):
        rng = np.random.default_rng(8)
        ds = Dataset(rng.standard_normal((4, 2)), rng.choice([-1.0, 1.0], 4))
        path = tmp_path / "t.ml0t"
        save_dataset(ds, path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.ml0t"
        cut.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(FormatError, match="truncated") as err:
            load_dataset(cut)
        assert err.value.offset == len(raw) - 10

    def test_bad_magic_names_expected(self, tmp_path):
        path = tmp_path / "bad.ml0t"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError, match="ML0T"):
            load_dataset(path)

    def test_bad_version_rejected(self, tmp_path):
        rng = np.random.default_rng(9)
        ds = Dataset(rng.standard_normal((2, 2)), [1.0, -1.0])
        path = tmp_path / "t.ml0t"
        save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(10)
        ds = Dataset(rng.standard_normal((2, 2)), [1.0, -1.0])
        path = tmp_path / "t.ml0t"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_dataset(path)

    def test_bad_label_byte_rejected(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = Dataset(rng.standard_normal((2, 2)), [1.0, -1.0])
        path = tmp_path / "t.ml0t"
        save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        # header: 4 magic + 4 version + 4 ndim + 8 dims + 8 count
        raw[28] = 3
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="labels"):
            load_dataset(path)

    @pytest.mark.parametrize("shape", [(2000, 128), (500, 8, 64), (250, 4, 8, 32)])
    def test_save_matches_hand_packed_bytes_without_copies(self, tmp_path, shape):
        rng = np.random.default_rng(14)
        ds = Dataset(rng.standard_normal(shape), rng.choice([-1.0, 1.0], shape[0]))
        path = tmp_path / "t.ml0t"
        peak, _ = traced_peak(save_dataset, ds, path)
        size = path.stat().st_size
        assert path.read_bytes() == packed_dataset(ds.X, ds.y)
        assert peak <= 0.1 * size, f"save peak {peak} B for a {size} B file"

        blocks = tuple(rng.standard_normal(d) for d in shape[1:])
        wpath = tmp_path / "w.ml0w"
        save_params(ModelParams(blocks=blocks, bias=0.25), wpath)
        assert wpath.read_bytes() == packed_params(blocks, 0.25)

    def test_load_peak_is_one_copy_of_the_file(self, tmp_path):
        rng = np.random.default_rng(15)
        ds = Dataset(rng.standard_normal((1100, 30, 30)), rng.choice([-1.0, 1.0], 1100))
        path = tmp_path / "t.ml0t"
        save_dataset(ds, path)
        size = path.stat().st_size
        peak, back = traced_peak(load_dataset, path)
        assert back.X.tobytes() == ds.X.tobytes()
        assert peak <= 1.1 * size, f"load peak {peak} B is {peak / size:.2f}x the file size"

    # Layout of the file below: magic 0-3, version 4-7, dim count 8-11, dims
    # 12-27, sample count 28-35, labels 36-39, sample data 40-231.
    @pytest.mark.parametrize(
        "cut, what",
        [(0, "magic"), (2, "magic"), (6, "version"), (9, "dim count"), (20, "dims"),
         (31, "sample count"), (38, "labels"), (40, "sample data"), (231, "sample data")],
    )
    def test_truncation_in_each_section_reports_file_size(self, tmp_path, cut, what):
        rng = np.random.default_rng(16)
        ds = Dataset(rng.standard_normal((4, 3, 2)), [1.0, -1.0, -1.0, 1.0])
        path = tmp_path / "t.ml0t"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(FormatError, match=f"truncated while reading {what} ") as err:
            load_dataset(path)
        assert err.value.offset == cut

    def test_trailing_bytes_report_end_of_payload(self, tmp_path):
        rng = np.random.default_rng(17)
        ds = Dataset(rng.standard_normal((4, 3, 2)), [1.0, -1.0, -1.0, 1.0])
        path = tmp_path / "t.ml0t"
        save_dataset(ds, path)
        end = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00" * 5)
        with pytest.raises(FormatError, match="trailing") as err:
            load_dataset(path)
        assert err.value.offset == end

    @pytest.mark.parametrize("count, dims, n, match, offset", [
        (0, (), 1, "dim count must be >= 1", 8),
        (2, (3, 0), 1, "zero extent in dims", 12),
        (2, (0, 2), 1, "zero extent in dims", 12),
        (2, (3, 2), 0, "sample count must be >= 1", 28),
    ], ids=["zero-dim-count", "zero-last-extent", "zero-first-extent", "zero-samples"])
    def test_empty_header_field_rejected(self, tmp_path, count, dims, n, match, offset):
        header = b"ML0T" + struct.pack(f"<II{len(dims)}Q", 1, count, *dims)
        path = tmp_path / "empty.ml0t"
        path.write_bytes(header + struct.pack("<Q", n) + b"\x01" * 64)
        with pytest.raises(FormatError, match=match) as err:
            load_dataset(path)
        assert err.value.offset == offset

    @pytest.mark.parametrize(
        "dims, n, what", [((3, 2), 2**40, "labels"), ((2**31, 2**31), 1, "sample data")]
    )
    def test_huge_declared_size_fails_before_allocating(self, tmp_path, dims, n, what):
        header = b"ML0T" + struct.pack("<II", 1, 2) + struct.pack("<2Q", *dims)
        raw = header + struct.pack("<Q", n) + b"\x01" + b"\x00" * 63
        path = tmp_path / "huge.ml0t"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=f"truncated while reading {what}") as err:
            load_dataset(path)
        assert err.value.offset == len(raw)

    def test_short_read_reports_truncation(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(18)
        ds = Dataset(rng.standard_normal((4, 3, 2)), [1.0, -1.0, -1.0, 1.0])
        path = tmp_path / "t.ml0t"
        save_dataset(ds, path)

        class ShortReads:
            """Reads past 64 bytes stop halfway, as if the file shrank after fstat."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def fileno(self):
                return self.fh.fileno()

            def readinto(self, buf):
                view = memoryview(buf)
                return self.fh.readinto(view[: len(view) // 2] if len(view) > 64 else view)

        real_open = open
        monkeypatch.setattr(ml0.data, "open", lambda *a: ShortReads(real_open(*a)), raising=False)
        with pytest.raises(FormatError, match="truncated while reading sample data") as err:
            load_dataset(path)
        assert err.value.offset == 40 + 4 * 3 * 2 * 8 // 2


class TestDatasetStream:
    """The streaming reader of a dataset file: header and labels on open,
    then the sample data once, in chunks of one reused buffer."""

    def test_header_known_before_the_samples(self, tmp_path):
        rng = np.random.default_rng(19)
        ds = Dataset(rng.standard_normal((5, 3, 2)), [1.0, -1.0, -1.0, 1.0, 1.0])
        path = tmp_path / "t.ml0t"
        save_dataset(ds, path)
        with DatasetStream(path) as stream:
            assert (stream.n, stream.feature_dims) == (5, (3, 2))
            assert stream.y.tobytes() == ds.y.tobytes()

    @pytest.mark.parametrize("n", [1, 6, 7, 8, 20])
    def test_chunks_cover_the_samples_once_in_one_buffer(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr(ml0.data, "_FINITE_BLOCK", 7 * 6)  # 7 samples of 3x2
        rng = np.random.default_rng(20)
        ds = Dataset(rng.standard_normal((n, 3, 2)), rng.choice([-1.0, 1.0], n))
        path = tmp_path / "t.ml0t"
        save_dataset(ds, path)
        with DatasetStream(path) as stream:
            chunks = [(lo, chunk.copy(), chunk) for lo, chunk in stream.chunks()]
        assert [lo for lo, _, _ in chunks] == list(range(0, n, 7))
        assert np.concatenate([c for _, c, _ in chunks]).tobytes() == ds.X.tobytes()
        first = chunks[0][2]
        assert all(np.shares_memory(view, first) for _, _, view in chunks)
        assert len(first) == min(n, 7)

    def test_a_sample_larger_than_a_chunk_is_one_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ml0.data, "_FINITE_BLOCK", 4)
        ds = Dataset(np.arange(18.0).reshape(3, 3, 2), [1.0, -1.0, 1.0])
        path = tmp_path / "t.ml0t"
        save_dataset(ds, path)
        with DatasetStream(path) as stream:
            assert [chunk.shape for _, chunk in stream.chunks()] == [(1, 3, 2)] * 3

    def test_file_closed_on_every_path(self, tmp_path, monkeypatch):
        good, bad_magic, short = (tmp_path / f"{name}.ml0t" for name in ("t", "magic", "short"))
        save_dataset(Dataset(np.ones((2, 3)), [1.0, -1.0]), good)
        bad_magic.write_bytes(b"NOPE" + b"\x00" * 20)
        short.write_bytes(good.read_bytes()[:-1])
        opened = []
        real_open = open

        def recording(*args):
            opened.append(real_open(*args))
            return opened[-1]

        monkeypatch.setattr(ml0.data, "open", recording, raising=False)
        with DatasetStream(good) as stream:
            list(stream.chunks())
        with pytest.raises(FormatError, match="ML0T"):
            DatasetStream(bad_magic)
        with pytest.raises(FormatError, match="truncated while reading sample data"):
            with DatasetStream(short) as stream:
                next(stream.chunks())
        assert len(opened) == 3 and all(fh.closed for fh in opened)

    def test_a_second_pass_is_refused(self, tmp_path):
        """A second pass over one open stream used to read past the sample
        data and report an intact file as truncated."""
        path = tmp_path / "t.ml0t"
        save_dataset(Dataset(np.ones((3, 2)), [1.0, -1.0, 1.0]), path)
        params = ModelParams(blocks=(np.ones(2),), bias=0.0)
        with DatasetStream(path) as stream:
            np.testing.assert_array_equal(margins(params, stream), [2.0, 2.0, 2.0])
            with pytest.raises(ValueError, match="already read"):
                margins(params, stream)
        with DatasetStream(path) as stream:
            next(stream.chunks())
            with pytest.raises(ValueError, match="already read"):
                next(stream.chunks())


class TestParamsIO:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(12)
        params = ModelParams(
            blocks=(rng.standard_normal(4), rng.standard_normal(1)), bias=-0.75
        )
        path = tmp_path / "w.ml0w"
        save_params(params, path)
        back = load_params(path)
        assert back.bias == params.bias
        for a, b in zip(back.blocks, params.blocks):
            assert a.tobytes() == b.tobytes()

    def test_wrong_magic_for_kind(self, tmp_path):
        rng = np.random.default_rng(13)
        ds = Dataset(rng.standard_normal((2, 2)), [1.0, -1.0])
        path = tmp_path / "t.ml0t"
        save_dataset(ds, path)
        with pytest.raises(FormatError, match="ML0W"):
            load_params(path)

    def test_truncated_params(self, tmp_path):
        params = ModelParams(blocks=(np.arange(3.0),), bias=0.0)
        path = tmp_path / "w.ml0w"
        save_params(params, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_params(path)

    # Layout: magic 0-3, version 4-7, block count 8-11, block dims 12-27,
    # block 0 28-51, block 1 52-67, bias 68-75.
    @pytest.mark.parametrize(
        "cut, what",
        [(3, "magic"), (10, "block count"), (27, "block dims"), (30, "block 0"),
         (60, "block 1"), (75, "bias")],
    )
    def test_truncation_in_each_section_reports_file_size(self, tmp_path, cut, what):
        params = ModelParams(blocks=(np.arange(3.0), np.ones(2)), bias=0.5)
        path = tmp_path / "w.ml0w"
        save_params(params, path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(FormatError, match=f"truncated while reading {what} ") as err:
            load_params(path)
        assert err.value.offset == cut

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("offset, what", [(28, "block 0"), (44, "block 0"), (60, "block 1"),
                                              (68, "bias")])
    def test_a_non_finite_entry_names_the_file_the_block_and_its_offset(self, tmp_path, value,
                                                                        offset, what):
        """Layout as above. The bias is made non-finite too, so the error is
        the first bad entry in file order."""
        params = ModelParams(blocks=(np.arange(3.0), np.ones(2)), bias=0.5)
        path = tmp_path / "w.ml0w"
        save_params(params, path)
        raw = bytearray(path.read_bytes())
        raw[68:76] = struct.pack("<d", np.nan)
        raw[offset : offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            load_params(path)
        assert str(err.value) == f"{path}: non-finite value {value} in {what} (byte offset {offset})"
        assert err.value.offset == offset
