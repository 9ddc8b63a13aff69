import itertools

import numpy as np
import pytest

from ml0 import project_l0, prox_block_step


def support_distance_sq(v, kept_indices):
    """Squared distance to v after zeroing everything outside kept_indices."""
    sq = v * v
    return float(np.sum(sq)) - float(np.sum(sq[list(kept_indices)]))


def exhaustive_min_distance_sq(v, s):
    """Minimum over every support of size <= s, enumerated explicitly."""
    d = len(v)
    best = np.inf
    for support in itertools.combinations(range(d), min(s, d)):
        best = min(best, support_distance_sq(v, support))
    return best


def two_pass_project_l0(v, s):
    """Reference for `project_l0`: a zero vector, filled first with the
    entries above the cutoff and then with the lowest-index ties."""
    v = np.asarray(v, dtype=np.float64)
    d = v.size
    mag = np.abs(v)
    if s >= d or np.count_nonzero(v) <= s:
        return v.copy()
    cutoff = mag[np.argpartition(mag, d - s)[d - s :]].min()
    out = np.zeros_like(v)
    above = mag > cutoff
    out[above] = v[above]
    n_free = s - int(np.count_nonzero(above))
    if n_free > 0:
        tied = np.flatnonzero(mag == cutoff)[:n_free]
        out[tied] = v[tied]
    return out


class TestProjectL0:
    def test_keeps_largest_magnitude(self):
        np.testing.assert_array_equal(
            project_l0(np.array([3.0, -5.0, 1.0]), 1), [0.0, -5.0, 0.0]
        )

    def test_inactive_when_s_covers_length(self):
        v = np.array([0.3, -0.2, 0.9])
        np.testing.assert_array_equal(project_l0(v, 3), v)
        np.testing.assert_array_equal(project_l0(v, 7), v)

    def test_tie_keeps_lowest_index(self):
        np.testing.assert_array_equal(
            project_l0(np.array([2.0, -2.0, 0.0]), 1), [2.0, 0.0, 0.0]
        )
        np.testing.assert_array_equal(
            project_l0(np.array([-1.0, 3.0, 3.0, -3.0]), 2), [0.0, 3.0, 3.0, 0.0]
        )

    def test_fewer_nonzeros_than_s_unchanged(self):
        v = np.array([0.0, 4.0, 0.0, 0.0, -1.0])
        np.testing.assert_array_equal(project_l0(v, 3), v)

    def test_returns_copy(self):
        v = np.array([1.0, 2.0])
        out = project_l0(v, 2)
        out[0] = 99.0
        assert v[0] == 1.0

    def test_invalid_s_raises(self):
        with pytest.raises(ValueError, match="sparsity"):
            project_l0(np.array([1.0]), 0)

    @pytest.mark.parametrize("s", [-1, 2.7, 2.0, np.float64(2.0), True, np.True_, "2", None])
    def test_non_integer_or_negative_s_raises(self, s):
        match = "must be >= 1, got -1" if s == -1 else "must be an integer"
        with pytest.raises(ValueError, match="sparsity level " + match):
            project_l0(np.array([1.0, 2.0, 3.0]), s)

    def test_numpy_integer_s_accepted(self):
        # A uint8 level on a block longer than 255 overflowed in `d - s`.
        for v in (np.array([1.0, -3.0, 2.0]), np.arange(300.0)):
            for s in (np.int64(2), np.uint8(2), np.intp(2)):
                assert project_l0(v, s).tobytes() == project_l0(v, 2).tobytes()

    def test_bitwise_equal_to_two_pass_form(self):
        rng = np.random.default_rng(29)
        for _ in range(20000):
            d = int(rng.integers(1, 13))
            if rng.random() < 0.5:
                v = rng.integers(-3, 4, size=d).astype(np.float64)  # many ties
            else:
                v = rng.standard_normal(d)
            special = rng.random(d)
            v[special < 0.05] = np.nan
            v[(special >= 0.05) & (special < 0.15)] = -0.0
            s = int(rng.integers(1, d + 2))
            assert project_l0(v, s).tobytes() == two_pass_project_l0(v, s).tobytes()

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            d = int(rng.integers(3, 13))
            v = rng.standard_normal(d)
            for s in range(1, d + 1):
                out = project_l0(v, s)
                kept = np.flatnonzero(out)
                assert len(kept) <= s
                got = support_distance_sq(v, kept)
                assert got == exhaustive_min_distance_sq(v, s)

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            v = rng.standard_normal(10)
            s = int(rng.integers(1, 11))
            once = project_l0(v, s)
            twice = project_l0(once, s)
            assert np.array_equal(once, twice)

    def test_survivors_keep_exact_values(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            v = rng.standard_normal(9)
            out = project_l0(v, 4)
            kept = np.flatnonzero(out)
            assert np.array_equal(out[kept], v[kept])

    def test_permutation_equivariance_distinct_magnitudes(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            # exponent spacing guarantees distinct magnitudes
            v = rng.standard_normal(8) * np.logspace(0, 2, 8)
            perm = rng.permutation(8)
            s = int(rng.integers(1, 8))
            direct = project_l0(v[perm], s)
            permuted = project_l0(v, s)[perm]
            assert np.array_equal(direct, permuted)


class TestProxBlockStep:
    def test_zero_gradient_is_pure_projection(self):
        w = np.array([3.0, -5.0, 1.0])
        np.testing.assert_array_equal(
            prox_block_step(w, np.zeros(3), 2.0, 1), project_l0(w, 1)
        )

    def test_gradient_step_then_projection(self):
        tau = 2.5
        grad = -tau * np.array([3.0, -5.0, 1.0])
        out = prox_block_step(np.zeros(3), grad, tau, 1)
        np.testing.assert_array_equal(out, [0.0, -5.0, 0.0])

    def test_inactive_projection_is_plain_step(self):
        rng = np.random.default_rng(37)
        w = rng.standard_normal(4)
        grad = rng.standard_normal(4)
        out = prox_block_step(w, grad, 1.5, 4)
        np.testing.assert_array_equal(out, w - grad / 1.5)

    @pytest.mark.parametrize("tau", [0.0, np.nan], ids=["zero", "nan"])
    def test_nonpositive_tau_raises(self, tau):
        with pytest.raises(ValueError, match="positive"):
            prox_block_step(np.ones(2), np.ones(2), tau, 1)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            prox_block_step(np.ones(2), np.ones(3), 1.0, 1)
