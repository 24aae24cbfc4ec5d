"""Finite-jump cadlag paths with linear drift, and their path functionals.

A StepPath is x(t) = drift*t + sum of the jump sizes at times <= t, with
x(0-) = 0.  All jumps are positive and the drift is a single global rate, so
between jumps the path is a straight line.  This module provides exact
evaluation, running minima, first-passage scans, the cyclic-shift transform
between bridge-type and excursion-type paths, and record-jump (ancestor)
extraction.  All functions are pure; StepPath instances are immutable.
"""
from __future__ import annotations

import json
import math

import numpy as np

COLLISION_TOL = 1e-12
END_TOL = 1e-9


def _is_number(value):
    """True for a JSON number as json.load returns it (not a boolean)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class PathDomainError(ValueError):
    """Argument outside the path's time domain, or malformed interval."""


class AmbiguousInfimumError(RuntimeError):
    """Two infimum candidates tie within tolerance; caller should resample."""


class StepPath:
    """Piecewise-linear path with positive jumps on [0, domain_end].

    kind is "bridge" (starts and ends at 0) or "excursion" (additionally
    nonnegative).  Jump times are strictly increasing and live in
    [0, domain_end).
    """

    __slots__ = ("domain_end", "drift", "times", "sizes", "kind", "_csum", "_lefts")

    def __init__(self, domain_end, drift, times=(), sizes=(), kind="bridge", validate=True):
        T = float(domain_end)
        times = np.array(times, dtype=float).reshape(-1)
        sizes = np.array(sizes, dtype=float).reshape(-1)
        if validate:
            if not T > 0:
                raise ValueError("domain_end must be positive")
            if times.shape != sizes.shape:
                raise ValueError("times and sizes must have equal length")
            if times.size:
                if np.any(np.diff(times) <= 0):
                    raise ValueError("jump times must be strictly increasing")
                if times[0] < 0 or times[-1] >= T:
                    raise ValueError("jump times must lie in [0, domain_end)")
                if np.any(sizes <= 0):
                    raise ValueError("jump sizes must be positive")
            if kind not in ("bridge", "excursion"):
                raise ValueError("kind must be 'bridge' or 'excursion'")
        self.domain_end = T
        self.drift = float(drift)
        self.times = times
        self.sizes = sizes
        self.kind = kind
        csum = np.concatenate(([0.0], np.cumsum(sizes)))
        lefts = drift * times + csum[:-1]
        self._csum = csum
        self._lefts = lefts
        for a in (times, sizes, csum, lefts):
            a.flags.writeable = False
        if validate and kind == "excursion":
            if times.size == 0 or np.any(lefts < -COLLISION_TOL):
                raise ValueError("excursion path has a negative left limit")
            end = self.drift * T + csum[-1]
            if abs(end) > END_TOL:
                raise ValueError("excursion path does not end at 0")

    # -- evaluation ---------------------------------------------------------

    def _check_domain(self, t):
        if not 0.0 <= t <= self.domain_end:
            raise PathDomainError(f"time {t} outside [0, {self.domain_end}]")

    def eval(self, t):
        """Right-continuous value x(t)."""
        self._check_domain(t)
        i = np.searchsorted(self.times, t, side="right")
        v = self.drift * t + self._csum[i]
        if t == self.domain_end and abs(v) <= END_TOL:
            return 0.0
        return float(v)

    def eval_left(self, t):
        """Left limit x(t-); equals 0 at t = 0."""
        self._check_domain(t)
        i = np.searchsorted(self.times, t, side="left")
        return float(self.drift * t + self._csum[i])

    @property
    def jumps(self):
        return list(zip(self.times.tolist(), self.sizes.tolist()))

    def __repr__(self):
        return (f"StepPath(T={self.domain_end}, drift={self.drift}, "
                f"n_jumps={self.times.size}, kind={self.kind!r})")

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "domain_end": self.domain_end,
            "drift": self.drift,
            "jumps": [[t, s] for t, s in self.jumps],
            "kind": self.kind,
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("path must be a JSON object")
        missing = [k for k in ("domain_end", "drift", "kind") if k not in obj]
        if missing:
            raise ValueError(f"missing path keys: {', '.join(missing)}")
        for key in ("domain_end", "drift"):
            if not _is_number(obj[key]):
                raise ValueError(f"path key {key!r} must be a number, got {obj[key]!r}")
        jumps = obj.get("jumps", [])
        if not (isinstance(jumps, list) and all(
                isinstance(j, list) and len(j) == 2 and all(map(_is_number, j)) for j in jumps)):
            raise ValueError("path jumps must be a list of [time, size] number pairs")
        times = [j[0] for j in jumps]
        sizes = [j[1] for j in jumps]
        return cls(obj["domain_end"], obj["drift"], times, sizes, kind=obj["kind"])

    @classmethod
    def load(cls, fp):
        return cls.from_json(json.load(fp))


# -- interval functionals ----------------------------------------------------


def running_min(path: StepPath, s, t):
    """Infimum of the path over [s, t].

    Attained at s, at t, or at a left limit of a jump in (s, t].
    """
    path._check_domain(s)
    path._check_domain(t)
    if s > t:
        raise PathDomainError("reversed interval")
    m = min(path.eval(s), path.eval(t))
    i0 = np.searchsorted(path.times, s, side="right")
    i1 = np.searchsorted(path.times, t, side="right")
    if i1 > i0:
        m = min(m, float(path._lefts[i0:i1].min()))
    return m


def tau(path: StepPath, t, r):
    """Smallest s <= t with running_min(s, t) >= r; +inf if none, else a time.

    Right-to-left scan: the answer is the latest jump time whose left limit
    falls below r (taking s there excludes that left limit from [s, t]), or 0
    when no left limit in (0, t] is below r.
    """
    path._check_domain(t)
    if path.eval(t) < r:
        return math.inf
    i1 = np.searchsorted(path.times, t, side="right")
    lefts = path._lefts[:i1]
    below = np.nonzero(lefts < r)[0]
    if below.size == 0:
        return 0.0
    return float(path.times[below[-1]])


def _first_passage(path: StepPath, after, level, strict):
    """First time u > after with x(u) < level (strict) or x(u) <= level.

    Returns +inf when the level is not reached by domain_end.  With negative
    drift the crossing happens inside a linear segment, at the exact solution
    of drift*u + csum = level, or at a jump time whose left limit equals the
    level (non-strict case).
    """
    times, csum, drift, T = path.times, path._csum, path.drift, path.domain_end
    i0 = np.searchsorted(times, after, side="right")
    lefts = path._lefts[i0:]
    hit = np.nonzero(lefts < level)[0] if strict else np.nonzero(lefts <= level)[0]
    if hit.size:
        j = i0 + int(hit[0])
        if not strict and path._lefts[j] == level:
            return float(times[j])
        # crossing inside the segment that ends at jump j
        return (level - csum[j]) / drift
    end = drift * T + csum[-1]
    if (end < level) if strict else (end <= level):
        u = (level - csum[-1]) / drift
        return min(float(u), T)
    return math.inf


def sigma(path: StepPath, s):
    """Departure time: inf{t > s : x(t) < x(s-)}, clipped to domain_end."""
    path._check_domain(s)
    if s >= path.domain_end:
        raise PathDomainError("sigma requires s < domain_end")
    level = path.eval_left(s)
    u = _first_passage(path, s, level, strict=True)
    return min(u, path.domain_end)


def g_d(path: StepPath, t):
    """Subexcursion interval of t above the running minimum m over [0, t].

    m is the minimum of x on [0, t] ignoring the left limit of a jump sitting
    exactly at time 0 (that jump is the root of the whole excursion, so its
    left limit belongs to no subexcursion).  g is the last jump time in (0, t]
    whose left limit attains m (or t itself when the jump at t does); d is the
    first passage back to m after t, clipped to domain_end.  A point on the
    descending trunk (x(t) = m) gives g = d = t.
    """
    path._check_domain(t)
    lo = int(np.searchsorted(path.times, 0.0, side="right"))
    return _g_d_window(path, lo, 0.0, path.domain_end, t)


def _g_d_window(path: StepPath, lo_idx, b_time, e_time, t):
    """(g, d) for mark t inside the window [b_time, e_time].

    lo_idx is the index of the first jump strictly after b_time; the window
    minimum ignores the left limit at b_time itself (it belongs to the
    enclosing window).  All returned breakpoints are shared float
    computations, so marks in the same subexcursion get bitwise-equal (g, d).
    """
    times, csum, drift = path.times, path._csum, path.drift
    i1 = np.searchsorted(times, t, side="right")
    jump_at_t = i1 > lo_idx and times[i1 - 1] == t
    lefts = path._lefts[lo_idx:i1]
    vt = drift * t + csum[i1]
    m = vt
    if lefts.size:
        m = min(m, float(lefts.min()))
    if jump_at_t and float(path._lefts[i1 - 1]) == m:
        g = t
    elif vt == m:
        return t, t
    else:
        at_min = np.nonzero(lefts == m)[0]
        if at_min.size == 0:
            raise AmbiguousInfimumError(
                "window minimum not attained at a jump left limit or at the mark")
        g = float(times[lo_idx + int(at_min[-1])])
    d = _first_passage(path, t, m, strict=False)
    return g, min(d, e_time)


def infimum_point(path: StepPath):
    """(rho, min_value): first time the path infimum is attained.

    Candidates are the left limits at jump times and the terminal value.
    A tie within COLLISION_TOL between the two smallest candidates raises
    AmbiguousInfimumError (callers resample).
    """
    n = path.times.size
    values = np.concatenate((path._lefts, [path.eval(path.domain_end)]))
    cand_times = np.concatenate((path.times, [path.domain_end]))
    if values.size < 2:
        raise AmbiguousInfimumError("no jumps: infimum point undefined")
    i = int(np.argmin(values))
    if np.partition(values, 1)[1] - values[i] <= COLLISION_TOL:
        raise AmbiguousInfimumError("tied infimum candidates")
    return float(cand_times[i]), float(values[i])


def vervaat(bridge: StepPath):
    """Cyclic shift of a bridge at its infimum point; yields an excursion.

    The jump whose left limit attains the infimum moves to time 0; the jump
    multiset is preserved and the drift is unchanged.
    """
    rho, _ = infimum_point(bridge)
    return _vervaat_at(bridge, rho)


def _vervaat_at(bridge: StepPath, rho):
    T = bridge.domain_end
    times, sizes = bridge.times, bridge.sizes
    j0 = np.searchsorted(times, rho, side="left")
    new_times = np.concatenate((times[j0:] - rho, times[:j0] + (T - rho)))
    new_sizes = np.concatenate((sizes[j0:], sizes[:j0]))
    return StepPath(T, bridge.drift, new_times, new_sizes, kind="excursion")


def vervaat_inverse(excursion: StepPath, rho):
    """Split the excursion at domain_end - rho to recover the original bridge.

    Left inverse of vervaat: vervaat_inverse(vervaat(y), rho_y) reproduces y
    exactly (same jump times, sizes and drift).
    """
    T = excursion.domain_end
    if not 0.0 <= rho < T:
        raise PathDomainError("rho must lie in [0, domain_end)")
    split = T - rho
    times, sizes = excursion.times, excursion.sizes
    j0 = np.searchsorted(times, split, side="left")
    new_times = np.concatenate((times[j0:] - split, times[:j0] + rho))
    new_sizes = np.concatenate((sizes[j0:], sizes[:j0]))
    return StepPath(T, excursion.drift, new_times, new_sizes, kind="bridge")


def _ancestor_indices(path: StepPath, t):
    """Indices of the jumps at times s <= t with x(s-) < min over [s, t].

    This is the LIFO ancestor line, root first, of the customer in service at
    time t.  For jumps i < j <= t the condition x(s_i-) < min(x(s_m-), i < m
    <= j) is lifo_tree's parent rule, comparison for comparison; empty when
    no left limit up to t lies below x(t) (the root is then in service).
    """
    path._check_domain(t)
    i1 = np.searchsorted(path.times, t, side="right")
    if i1 == 0:
        return np.empty(0, dtype=np.intp)
    lefts = path._lefts[:i1]
    vt = path.eval(t)
    # suffix minima of the left limits strictly after each jump, then the
    # terminal value of the interval
    suffix = np.empty(i1)
    suffix[-1] = vt
    if i1 > 1:
        rev = np.minimum.accumulate(np.minimum(lefts[1:], vt)[::-1])[::-1]
        suffix[:-1] = rev
    return np.nonzero(lefts < suffix)[0]


def record_ancestors(path: StepPath, t, eps=0.0):
    """Jump times s <= t with x(s-) < min over [s, t] and jump size > eps.

    For eps = 0 this is the LIFO ancestor line of the customer in service at
    time t; the jump at t itself (if any) is always included.
    """
    idx = _ancestor_indices(path, t)
    return path.times[idx[path.sizes[idx] > eps]].tolist()
