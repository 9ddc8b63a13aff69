"""Binary classification metrics on raw margins and {-1,+1} labels."""

import numpy as np


def _as_arrays(margins, labels):
    m = np.asarray(margins, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if m.size != y.size:
        raise ValueError(f"{m.size} margins but {y.size} labels")
    if m.size < 1:
        raise ValueError("need at least one sample")
    # Elementwise, O(n): no sort on the path of a valid call.
    if not (np.abs(y) == 1.0).all():
        found = np.unique(y[np.abs(y) != 1.0]).tolist()
        raise ValueError(f"labels must be -1 or +1, found {found}")
    if np.isnan(m).any():
        nans = np.count_nonzero(np.isnan(m))
        raise ValueError(f"margins must not be NaN, found {nans} NaN of {m.size}")
    return m, y


def accuracy(margins, labels) -> float:
    """Fraction of samples whose margin sign matches the label.

    A margin of exactly 0 counts as a +1 prediction.
    """
    m, y = _as_arrays(margins, labels)
    predicted = np.where(m >= 0.0, 1.0, -1.0)
    return float(np.mean(predicted == y))


def _average_ranks(x):
    """1-based ranks with ties sharing their group's average rank. Every
    member of a run of equal values gets the run's rank, so the order the
    sort leaves within a run does not reach the ranks: no stable sort needed
    (NaN, which equals nothing, is rejected before)."""
    order = np.argsort(x)
    xs = x[order]
    # Runs of equal sorted values [start, end] share the rank (start + end) / 2 + 1.
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], x.size) - 1
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def auc(margins, labels) -> float:
    """Probability a positive sample outranks a negative one, ties counting half.

    Computed from average ranks in O(n log n); equals the pairwise
    (#wins + ties/2) / (n_pos * n_neg) count exactly.
    """
    m, y = _as_arrays(margins, labels)
    n_pos = int(np.sum(y == 1.0))
    n_neg = int(np.sum(y == -1.0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    ranks = _average_ranks(m)
    pos_rank_sum = float(np.sum(ranks[y == 1.0]))
    wins = pos_rank_sum - n_pos * (n_pos + 1) / 2.0
    return wins / (n_pos * n_neg)
