import re

import numpy as np
import pytest

from ml0 import accuracy, auc, metrics


def pairwise_auc(margins, labels):
    """Quadratic-time count of positive-beats-negative pairs, ties half."""
    m = np.asarray(margins, dtype=float)
    y = np.asarray(labels, dtype=float)
    pos = m[y == 1.0]
    neg = m[y == -1.0]
    wins = float(np.sum(pos[:, None] > neg[None, :]))
    ties = float(np.sum(pos[:, None] == neg[None, :]))
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def loop_average_ranks(x):
    """Reference ranks: a walk over the sorted values, one tie group at a time."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    xs = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and xs[j + 1] == xs[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([2.0, -0.1, 5.0], [1.0, -1.0, 1.0]) == 1.0

    def test_all_wrong(self):
        assert accuracy([-1.0, 1.0], [1.0, -1.0]) == 0.0

    def test_half_right(self):
        assert accuracy([2.0, -1.0, -3.0, 4.0], [1.0, 1.0, -1.0, -1.0]) == 0.5

    def test_zero_margin_counts_as_positive(self):
        assert accuracy([0.0], [1.0]) == 1.0
        assert accuracy([0.0], [-1.0]) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal(40)
        y = rng.choice([-1.0, 1.0], 40)
        assert accuracy(m, y) == accuracy(17.3 * m, y)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            accuracy([1.0], [1.0, -1.0])

    @pytest.mark.parametrize("metric", [accuracy, auc])
    def test_empty_input_rejected(self, metric):
        with pytest.raises(ValueError, match="at least one sample"):
            metric([], [])

    @pytest.mark.parametrize("metric", [accuracy, auc])
    @pytest.mark.parametrize("labels, found", [
        ([1, 0, 1, 0], "[0.0]"),
        ([1, -1, 2, -2], "[-2.0, 2.0]"),
        ([1.0, -1.0, np.nan, 1.0], "[nan]"),
        ([0.5, -1.0, 1.0, 1.0], "[0.5]"),
    ])
    def test_labels_outside_plus_minus_one_rejected(self, metric, labels, found):
        with pytest.raises(ValueError, match=re.escape(f"labels must be -1 or +1, found {found}")):
            metric([1.0, -1.0, 2.0, -2.0], labels)

    @pytest.mark.parametrize("metric", [accuracy, auc])
    def test_nan_margins_rejected(self, metric):
        with pytest.raises(ValueError, match="margins must not be NaN, found 2 NaN of 4"):
            metric([np.nan, 1.0, -np.nan, -1.0], [1.0, -1.0, 1.0, -1.0])

    def test_infinite_margins_accepted(self):
        m, y = [np.inf, -np.inf, np.inf, 0.0], [1.0, -1.0, 1.0, -1.0]
        assert accuracy(m, y) == 0.75
        assert auc(m, y) == 1.0


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, -0.5, -0.7], [1.0, 1.0, -1.0, -1.0]) == 1.0

    def test_all_ties(self):
        assert auc([3.0, 3.0, 3.0, 3.0], [1.0, -1.0, 1.0, -1.0]) == 0.5

    def test_three_of_four_pairs(self):
        assert auc([0.9, 0.8, 0.3, 0.1], [1.0, -1.0, 1.0, -1.0]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            auc([1.0, 2.0], [1.0, 1.0])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal(60)
        y = rng.choice([-1.0, 1.0], 60)
        assert auc(m, y) == auc(np.exp(m), y)
        assert auc(m, y) == auc(3.0 * m + 11.0, y)

    def test_flip_symmetry_without_ties(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal(50)
        y = rng.choice([-1.0, 1.0], 50)
        np.testing.assert_allclose(auc(m, y) + auc(-m, y), 1.0, rtol=1e-14)

    def test_rank_method_equals_pairwise_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(2, 80))
            y = rng.choice([-1.0, 1.0], n)
            if len(set(y.tolist())) < 2:
                continue
            # quantized margins force plenty of ties
            m = np.round(rng.standard_normal(n), 1)
            assert auc(m, y) == pairwise_auc(m, y)

    def test_ranks_and_auc_bitwise_equal_loop_reference(self, monkeypatch):
        rng = np.random.default_rng(4)
        draws = [np.array([2.5]), np.array([1.0, 1.0]), np.array([3.0, -1.0])]
        for k in (3, 4, 5):
            for n in (2, 7, 100, 20000):
                draws.append(rng.integers(0, k, n).astype(np.float64))
        draws.append(np.full(500, -0.75))
        draws.append(rng.choice([0.0, -0.0, 1.0], 300))
        draws.append(rng.choice([-np.inf, np.inf, 0.0, -0.0, 1.5], 3000))
        draws.append(np.array([0.0, -0.0, np.inf, -0.0, -np.inf, 0.0, np.inf, -np.inf, -0.0]))
        draws.append(np.where(rng.random(20000) < 0.5, 0.0, -0.0))
        draws.append(rng.standard_normal(20000))
        draws.append(np.round(rng.standard_normal(20000), 2))
        for m in draws:
            fast = metrics._average_ranks(m)
            assert fast.tobytes() == loop_average_ranks(m).tobytes()
            y = np.where(np.arange(m.size) % 2 == 0, 1.0, -1.0)
            if m.size < 2:
                continue
            got = auc(m, y)
            with monkeypatch.context() as patch:
                patch.setattr(metrics, "_average_ranks", loop_average_ranks)
                want = auc(m, y)
            assert got == want
