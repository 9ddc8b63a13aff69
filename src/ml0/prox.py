"""Hard thresholding: Euclidean projection onto the sparsity ball ||w||_0 <= s."""

import numpy as np

from .tensor import _check_integer


def project_l0(v, s):
    """Keep the s largest-magnitude entries of v, zero the rest.

    Surviving entries keep their exact floating values, so the result is the
    closest point (in the 2-norm) with at most s nonzeros. When magnitudes
    tie at the cutoff the lowest index wins, which makes runs reproducible.
    A vector with at most s nonzeros is returned unchanged (as a copy).
    """
    s = _check_integer("sparsity level", s, 1)
    v = np.asarray(v, dtype=np.float64)
    d = v.size
    if s >= d or np.count_nonzero(v) <= s:
        return v.copy()
    mag = np.abs(v)
    # Partial selection: entries beyond position d-s are the s largest.
    cutoff = mag[np.argpartition(mag, d - s)[d - s :]].min()
    keep = mag >= cutoff
    if np.count_nonzero(keep) > s:
        # Too many ties at the cutoff: fill from them, lowest index first.
        keep = mag > cutoff
        keep[np.flatnonzero(mag == cutoff)[: s - np.count_nonzero(keep)]] = True
    return np.where(keep, v, 0.0)


def prox_block_step(w, grad, tau, s):
    """One proximal gradient step: project w - grad/tau onto the l0 ball."""
    if not tau > 0:  # NaN too
        raise ValueError(f"step-size constant must be positive, got {tau}")
    w = np.asarray(w, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != w.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match weights {w.shape}")
    return project_l0(w - grad / tau, s)
