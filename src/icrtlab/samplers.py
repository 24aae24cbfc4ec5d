"""Seeded samplers for marks, exchangeable bridges, their excursion
transforms, p-trees, and the truncated stable-jump surrogate.

All samplers take an explicit numpy Generator (see rng.make_generator) and
are deterministic in it.
"""
from __future__ import annotations

import numpy as np

from .paths import (COLLISION_TOL, END_TOL, AmbiguousInfimumError, StepPath,
                    _vervaat_at, infimum_point)
from .theta import ThetaParam, stable_constants
from .trees import lifo_tree

RESAMPLE_CAP = 100


def sample_marks(k, rng, path: StepPath | None = None):
    """k i.i.d. uniform points on (0, 1), sorted.

    When a companion path is given, points colliding with its jump times
    (within COLLISION_TOL) are redrawn.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    u = rng.random(k)
    if path is not None:
        for _ in range(RESAMPLE_CAP):
            i = np.searchsorted(path.times, u)
            near_right = (i < path.times.size) & (np.abs(path.times[np.minimum(i, path.times.size - 1)] - u) <= COLLISION_TOL)
            near_left = (i > 0) & (np.abs(path.times[np.maximum(i - 1, 0)] - u) <= COLLISION_TOL)
            bad = near_right | near_left
            if not bad.any():
                break
            u[bad] = rng.random(int(bad.sum()))
        else:
            raise RuntimeError("mark resampling cap exceeded")
    u.sort()
    return u


def _bridge_from_sizes(sizes_by_label, rng, drift=None):
    """Bridge with the given jump sizes at i.i.d. uniform times.

    Returns (path, order) where order[j] is the label (index into
    sizes_by_label) of the j-th jump in time order.
    """
    n = len(sizes_by_label)
    chi = rng.random(n)
    order = np.argsort(chi)
    times = chi[order]
    sizes = np.asarray(sizes_by_label, dtype=float)[order]
    if drift is None:
        # drift balancing the jumps exactly, so eval(1) == 0 in floats
        drift = -float(np.cumsum(sizes)[-1])
    path = StepPath(1.0, drift, times, sizes, kind="bridge")
    return path, order


def sample_Y_theta(theta: ThetaParam, rng):
    """Bridge with jumps theta_i at i.i.d. uniform times, drift -sum(theta)."""
    if len(theta) == 0:
        raise ValueError("theta has no atoms")
    path, _ = _bridge_from_sizes(theta.atoms, rng)
    return path


def sample_Y_n(p, rng):
    """Bridge with n jumps of sizes p(i) at i.i.d. uniform times, drift -1."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be positive and sum to 1")
    path, _ = _bridge_from_sizes(p, rng, drift=-1.0)
    return path


def _excursion_from(sample_bridge, rng):
    for _ in range(RESAMPLE_CAP):
        y = sample_bridge(rng)
        try:
            rho, _ = infimum_point(y)
            return _vervaat_at(y, rho), rho
        except AmbiguousInfimumError:
            continue
    raise RuntimeError("excursion resampling cap exceeded")


def sample_X_theta(theta: ThetaParam, rng):
    """(excursion, rho): the cyclic shift of sample_Y_theta at its infimum."""
    return _excursion_from(lambda g: sample_Y_theta(theta, g), rng)


def sample_X_n(p, rng):
    """(excursion, rho): the cyclic shift of sample_Y_n at its infimum."""
    return _excursion_from(lambda g: sample_Y_n(p, g), rng)


def sample_ptree(p, rng):
    """Parent tuple (1-based labels, 0 at the root) of a p-tree.

    The tree is the LIFO genealogy of the excursion of a bridge with jumps
    p(i) (sample_Y_n), with each jump keeping its label i through the cyclic
    shift; its law is cayley_pmf(p).  The weights are not validated.
    """
    for _ in range(RESAMPLE_CAP):
        try:
            bridge, order = _bridge_from_sizes(p, rng, drift=-1.0)
            rho, _ = infimum_point(bridge)
            exc = _vervaat_at(bridge, rho)
        except (AmbiguousInfimumError, ValueError):
            continue
        j0 = int(np.searchsorted(bridge.times, rho, side="left"))
        labels = np.concatenate((order[j0:], order[:j0])).tolist()
        parent = [0] * len(labels)
        for label, pj in zip(labels, lifo_tree(exc).parent.tolist()):
            parent[label] = 0 if pj < 0 else labels[pj] + 1
        return tuple(parent)
    raise RuntimeError("bridge resampling cap exceeded")


def _bad_times(times, sizes):
    """Rows that StepPath's time and size checks reject (domain_end 1)."""
    return ((np.diff(times, axis=1) <= 0).any(axis=1) | (times[:, 0] < 0)
            | (times[:, -1] >= 1.0) | (sizes <= 0).any(axis=1))


def ptree_rows(p, chi):
    """sample_ptree's first attempt on each row of chi, an (R, n) array of
    the uniforms that attempt draws.

    Returns (parent, retry).  parent is an (R, n) int array whose row r is
    the parent tuple sample_ptree returns when its first attempt on chi[r]
    succeeds.  retry[r] is True where that attempt raises and sample_ptree
    draws again, or where a value is not finite; parent[r] is then
    meaningless.  Every float and check is the one _bridge_from_sizes,
    StepPath, infimum_point, _vervaat_at and lifo_tree compute, row by row.
    """
    p = np.asarray(p, dtype=float)
    R, n = chi.shape
    if n == 0:
        return np.zeros((R, 0), dtype=np.int64), np.ones(R, dtype=bool)
    rows = np.arange(R)[:, None]
    order = np.argsort(chi, axis=1)
    times = chi[rows, order]
    sizes = p[order]
    csum = np.zeros((R, n + 1))
    np.cumsum(sizes, axis=1, out=csum[:, 1:])
    end = -1.0 + csum[:, -1]
    end[np.abs(end) <= END_TOL] = 0.0
    values = np.concatenate((-1.0 * times + csum[:, :-1], end[:, None]), axis=1)
    low2 = np.sort(values, axis=1)[:, :2]
    retry = (_bad_times(times, sizes) | ~np.isfinite(values).all(axis=1)
             | (low2[:, 1] - low2[:, 0] <= COLLISION_TOL))
    # cyclic shift at the first argmin: jump j0 moves to time 0
    j0 = np.argmin(values, axis=1)[:, None]
    rho = np.where(j0 < n, times[rows, np.minimum(j0, n - 1)], 1.0)
    idx = (np.arange(n) + j0) % n
    shifted = times[rows, idx]
    shifted = np.where(np.arange(n) < n - j0, shifted - rho, shifted + (1.0 - rho))
    sizes = sizes[rows, idx]
    np.cumsum(sizes, axis=1, out=csum[:, 1:])
    lefts = -1.0 * shifted + csum[:, :-1]
    retry |= (_bad_times(shifted, sizes) | ~np.isfinite(lefts).all(axis=1)
              | (lefts < -COLLISION_TOL).any(axis=1)
              | (np.abs(-1.0 + csum[:, -1]) > END_TOL))
    # lifo_tree: the parent is the nearest earlier, strictly smaller left limit
    up = np.full((R, n), -1)
    for j in range(1, n):
        smaller = lefts[:, :j] < lefts[:, j:j + 1]
        up[:, j] = np.where(smaller.any(axis=1), j - 1 - np.argmax(smaller[:, ::-1], axis=1), -1)
    labels = order[rows, idx]
    parent = np.empty((R, n), dtype=np.int64)
    parent[rows, labels] = np.where(up < 0, 0, labels[rows, up] + 1)
    return parent, retry


def sample_stable_jump_surrogate(alpha, delta, rng):
    """Ranked atoms of a Poisson process with intensity c_alpha x^{-1-alpha}
    on [delta, inf).

    The count is Poisson with mean (c_alpha/alpha) * delta^-alpha and sizes
    are drawn by inverse CDF, x = delta * U^{-1/alpha}.  tail_l2 records the
    analytic mean squared mass of the dropped jumps below delta,
    c_alpha * delta^{2-alpha} / (2-alpha).
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (1, 2)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    consts = stable_constants(alpha)
    lam = consts.c_alpha / alpha * delta ** (-alpha)
    n = int(rng.poisson(lam))
    sizes = delta * rng.random(n) ** (-1.0 / alpha)
    sizes[::-1].sort()
    tail_l2 = consts.c_alpha * delta ** (2.0 - alpha) / (2.0 - alpha)
    return ThetaParam(sizes, tail_l2=tail_l2, nominal_alpha=alpha)
