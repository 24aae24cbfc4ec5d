"""Verification drivers: one experiment per acceptance property.

Each driver splits into a per-replicate function (deterministic in
(seed, stream, replicate index) through its own generator substream) and an
order-independent aggregation step, so reports are identical for any worker
count.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from time import perf_counter

import numpy as np

from .linebreak import (branch_count_on_path, branch_degree, reduced_tree,
                        sample_line_breaking)
from .paths import (AmbiguousInfimumError, StepPath, _is_number, _vervaat_at,
                    infimum_point, record_ancestors, sigma, vervaat_inverse)
from .ptree import cayley_pmf, enumerate_rooted_trees
from .recovery import estimate_distance, icrt_normalizer
from .rng import generator_block, make_generator
from .samplers import (RESAMPLE_CAP, ptree_rows, sample_marks, sample_ptree,
                       sample_stable_jump_surrogate, sample_X_n, sample_X_theta)
from .stats import chi_square_gof, chi_square_two_sample, ks_two_sample, ks_uniform
from .theta import (ThetaParam, gamma_coverage, parse_theta_spec, psi, psi_inv,
                    stable_constants, stable_phi_integral)
from .trees import (CEMETERY, extract_tree, lifo_tree, spanning_from_marks,
                    spanning_from_projection, to_labelled)

_THETA_DEFAULT = "polynomial:1,1,50"


@lru_cache(maxsize=16)
def _theta(spec):
    return parse_theta_spec(spec)


def _number_or_null(value):
    return value is None or _is_number(value)


# JSON value type of each report key, as (description, check)
_REPORT_TYPES = {
    "name": ("a string", lambda v: isinstance(v, str)),
    "parameters": ("an object", lambda v: isinstance(v, dict)),
    "statistic": ("a number", _is_number),
    "p_value": ("a number or null", _number_or_null),
    "max_deviation": ("a number or null", _number_or_null),
    "threshold": ("a number", _is_number),
    "passed": ("a boolean", lambda v: isinstance(v, bool)),
    "replicate_count": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "wall_time": ("a number", _is_number),
}


@dataclass
class ExperimentReport:
    """Pass/fail record of one verification experiment.

    Exactly one of p_value / max_deviation is set; passed is equivalent to
    p_value > threshold, respectively max_deviation < threshold.
    """

    name: str
    parameters: dict
    statistic: float
    p_value: float | None
    max_deviation: float | None
    threshold: float
    passed: bool
    replicate_count: int
    wall_time: float

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("report must be a JSON object")
        keys = [f.name for f in fields(cls)]
        unknown = sorted(set(obj) - set(keys))
        missing = [k for k in keys if k not in obj]
        if unknown:
            raise ValueError(f"unknown report keys: {', '.join(unknown)}")
        if missing:
            raise ValueError(f"missing report keys: {', '.join(missing)}")
        for key, (kind, ok) in _REPORT_TYPES.items():
            if not ok(obj[key]):
                raise ValueError(f"report key {key!r} must be {kind}, got {obj[key]!r}")
        return cls(**obj)

    @staticmethod
    def csv_header():
        return "name,passed,statistic,p_value,max_deviation,threshold,replicates,wall_time"

    def csv_line(self):
        pv = "" if self.p_value is None else f"{self.p_value:.6g}"
        dev = "" if self.max_deviation is None else f"{self.max_deviation:.6g}"
        return (f"{self.name},{int(self.passed)},{self.statistic:.6g},{pv},{dev},"
                f"{self.threshold:.6g},{self.replicate_count},{self.wall_time:.3f}")


# -- shared sampling helpers -------------------------------------------------


def _random_weights(rng, n):
    w = rng.random(n) + 0.01
    return w / w.sum()


# -- 1: exact tree law of the projected excursion ----------------------------


def _cayley_block(cfg, seed, stream, lo, hi):
    # replicate r draws with make_generator(seed, stream, 1, r); rows that
    # sample_ptree would redraw are rerun through it on that generator
    out = []
    n3 = cfg["reps_n3"]
    for tag, p, a, b in ((3, np.asarray(cfg["p3"], dtype=float), lo, min(hi, n3)),
                         (4, np.full(4, 0.25), max(lo, n3), hi)):
        if b <= a:
            continue
        chi = np.empty((b - a, p.size))
        for row, rng in zip(chi, generator_block(seed, stream, (1,), a, b)):
            rng.random(out=row)
        parent, retry = ptree_rows(p, chi)
        rows = parent.tolist()
        for i in np.flatnonzero(retry).tolist():
            rows[i] = sample_ptree(p, make_generator(seed, stream, 1, a + i))
        out += [(tag, tuple(row)) for row in rows]
    return out


def _cayley_agg(results, cfg):
    p_values, statistics = {}, {}
    for tag, p in ((3, cfg["p3"]), (4, (0.25,) * 4)):
        obs = Counter(parent for t, parent in results if t == tag)
        expected = {tr.parent: float(cayley_pmf(list(p), tr))
                    for tr in enumerate_rooted_trees(tag)}
        s, pv = chi_square_gof(obs, expected)
        statistics[f"n={tag}"] = s
        p_values[f"n={tag}"] = pv
    p_min = min(p_values.values())
    thr = cfg["threshold"]
    return (max(statistics.values()), p_min, None, thr, p_min > thr,
            {"p_values": p_values})


# -- 2: marked extraction vs queue genealogy vs nesting oracle ---------------


def _lifo_rep(cfg, seed, stream, rep):
    rng = make_generator(seed, stream, 2, rep)
    n = int(rng.integers(1, cfg["n_max"] + 1))
    exc, _ = sample_X_n(_random_weights(rng, n), rng)
    gen = lifo_tree(exc)
    ok = extract_tree(exc, exc.times) == gen.to_ordered()
    if ok:
        # brute-force interval nesting: parent of j is the latest earlier
        # arrival whose service interval still covers j's arrival
        for j in range(n):
            parent = -1
            for i in range(j):
                if exc.times[j] < sigma(exc, float(exc.times[i])):
                    parent = i
            if parent != gen.parent[j]:
                ok = False
                break
    return ok


def _count_failures(results, cfg):
    failures = sum(1 for ok in results if not ok)
    return (float(failures), None, float(failures), 1.0, failures == 0,
            {"failures": failures})


# -- 3: direct extraction vs genealogy projection ----------------------------


def _coupling_rep(cfg, seed, stream, rep):
    rng = make_generator(seed, stream, 3, rep)
    n, k = cfg["n"], cfg["k"]
    exc, _ = sample_X_n(np.full(n, 1.0 / n), rng)
    marks = sample_marks(k, rng, exc)
    perm = list(range(1, k + 1))
    ta = spanning_from_marks(exc, marks, perm)
    tb = spanning_from_projection(exc, marks, perm)
    if ta is CEMETERY and tb is CEMETERY:
        return "match"
    if ta == tb:
        return "match"
    if ta is CEMETERY:
        return "a_cemetery"
    if tb is CEMETERY:
        return "b_cemetery"
    return "shape"


def _coupling_agg(results, cfg):
    counts = Counter(results)
    rate = counts["match"] / len(results)
    thr = cfg["threshold"]
    return (rate, None, 1.0 - rate, thr, 1.0 - rate < thr,
            {"match_rate": rate, "mismatches": {c: n for c, n in counts.items()
                                                if c != "match"}})


# -- 4: glued-segment route vs excursion route, same truncation --------------


def _two_route_rep(cfg, seed, stream, rep):
    theta = _theta(cfg["theta"])
    out = []
    for k in cfg["ks"]:
        k = int(k)
        ra = make_generator(seed, stream, 4, rep, k, 0)
        ca = reduced_tree(sample_line_breaking(theta, k, ra), k).canonical()
        rb = make_generator(seed, stream, 4, rep, k, 1)
        exc, _ = sample_X_theta(theta, rb)
        marks = rb.random(k)
        cb = to_labelled(extract_tree(exc, marks), list(range(1, k + 1))).canonical()
        out.append((k, ca, cb))
    return tuple(out)


def _two_route_agg(results, cfg):
    p_values, statistics = {}, {}
    for k in cfg["ks"]:
        k = int(k)
        a = Counter(ca for row in results for kk, ca, _ in row if kk == k)
        b = Counter(cb for row in results for kk, _, cb in row if kk == k)
        s, pv = chi_square_two_sample(a, b)
        statistics[f"k={k}"] = s
        p_values[f"k={k}"] = pv
    p_min = min(p_values.values())
    thr = cfg["threshold"]
    return (max(statistics.values()), p_min, None, thr, p_min > thr,
            {"p_values": p_values})


# -- 5: degree of the first atom's branch point ------------------------------


def _degree_rep(cfg, seed, stream, rep):
    rng = make_generator(seed, stream, 5, rep)
    theta = _theta(cfg["theta"])
    tree = sample_line_breaking(theta, cfg["k"], rng)
    return branch_degree(tree, 1, cfg["k"])


def _degree_agg(results, cfg):
    theta = _theta(cfg["theta"])
    norm = psi_inv(theta, float(cfg["k"]))
    med = float(np.median(results)) / norm
    dev = abs(med / theta.atoms[0] - 1.0)
    thr = cfg["threshold"]
    return (med, None, dev, thr, dev < thr,
            {"median_normalized_degree": med, "degree_norm": norm,
             "target": float(theta.atoms[0])})


# -- 6: distance from normalized branch counts -------------------------------


def _distance_rep(cfg, seed, stream, rep):
    rng = make_generator(seed, stream, 6, rep)
    theta = _theta(cfg["theta"])
    tree = sample_line_breaking(theta, 1, rng)
    eta1 = tree.etas[0]
    count = branch_count_on_path(tree, 0.0, eta1, cfg["eps"])
    est = estimate_distance(count, cfg["eps"], icrt_normalizer(theta))
    return est, eta1


def _distance_agg(results, cfg):
    band = cfg["band"]
    hits = sum(1 for est, exact in results if abs(est - exact) <= band * exact)
    rate = hits / len(results)
    thr = cfg["threshold"]
    return (rate, None, 1.0 - rate, thr, 1.0 - rate < thr, {"hit_rate": rate})


# -- 7: normalization asymptotics of the truncated jump surrogate ------------


def _asymptotics_rep(cfg, seed, stream, rep):
    rng = make_generator(seed, stream, 7, rep)
    theta = sample_stable_jump_surrogate(cfg["alpha"], cfg["cutoff"], rng)
    return psi(theta, cfg["t"]), gamma_coverage(theta, cfg["eps"])


def _asymptotics_agg(results, cfg):
    alpha, t, eps = cfg["alpha"], cfg["t"], cfg["eps"]
    consts = stable_constants(alpha)
    # mean contribution of the jumps between the declared floor and the
    # storage cutoff, added analytically (its fluctuation is negligible here)
    completion = stable_phi_integral(alpha, t, cfg["delta"], cfg["cutoff"])
    r_psi = [(v + completion) / t ** alpha for v, _ in results]
    r_gam = [eps ** (alpha - 1.0) * g / consts.gamma_limit for _, g in results]
    band = cfg["band"]
    rate_psi = sum(1 for r in r_psi if abs(r - 1.0) <= band) / len(r_psi)
    rate_gam = sum(1 for r in r_gam if abs(r - 1.0) <= band) / len(r_gam)
    rate = min(rate_psi, rate_gam)
    thr = cfg["threshold"]
    return (rate, None, 1.0 - rate, thr, 1.0 - rate < thr,
            {"psi_pass_rate": rate_psi, "gamma_pass_rate": rate_gam,
             "psi_mean_ratio": float(np.mean(r_psi)),
             "gamma_mean_ratio": float(np.mean(r_gam)),
             "analytic_completion": completion})


# -- 8: distance scaling under parameter doubling ----------------------------


def _scaling_rep(cfg, seed, stream, rep):
    theta = _theta(cfg["theta"])
    theta2 = ThetaParam(theta.atoms * 2.0, theta.tail_l2 * 4.0, theta.nominal_alpha)
    r1 = make_generator(seed, stream, 8, rep, 0)
    d1 = sample_line_breaking(theta, 1, r1).etas[0]
    r2 = make_generator(seed, stream, 8, rep, 1)
    d2 = sample_line_breaking(theta2, 1, r2).etas[0]
    return d1, d2


def _scaling_agg(results, cfg):
    d1 = [a for a, _ in results]
    d2x = [2.0 * b for _, b in results]
    s, pv = ks_two_sample(d2x, d1)
    thr = cfg["threshold"]
    return (s, pv, None, thr, pv > thr, {})


# -- 9: cyclic shift round trip and uniform shift location -------------------


def _vervaat_rep(cfg, seed, stream, rep):
    rng = make_generator(seed, stream, 9, rep)
    if rep < cfg["bridge_reps"]:
        for _ in range(RESAMPLE_CAP):
            n = int(rng.integers(2, cfg["n_max"] + 1))
            times = np.sort(rng.random(n))
            sizes = rng.random(n) + 0.01
            try:
                bridge = StepPath(1.0, -float(np.cumsum(sizes)[-1]), times, sizes)
                rho, _ = infimum_point(bridge)
                exc = _vervaat_at(bridge, rho)
            except (AmbiguousInfimumError, ValueError):
                continue
            back = vervaat_inverse(exc, rho)
            exact = (np.array_equal(back.times, bridge.times)
                     and np.array_equal(back.sizes, bridge.sizes)
                     and back.drift == bridge.drift)
            return "roundtrip", bool(exact)
        raise RuntimeError("bridge resampling cap exceeded")
    _, rho = sample_X_theta(_theta(cfg["theta"]), rng)
    return "rho", float(rho)


def _vervaat_agg(results, cfg):
    failures = sum(1 for kind, v in results if kind == "roundtrip" and not v)
    rhos = [v for kind, v in results if kind == "rho"]
    s, pv = ks_uniform(rhos)
    thr = cfg["threshold"]
    return (s, pv, None, thr, pv > thr and failures == 0,
            {"roundtrip_failures": failures})


# -- 10: queue depth equals the record-jump count ----------------------------


def _height_rep(cfg, seed, stream, rep):
    rng = make_generator(seed, stream, 10, rep)
    n = int(rng.integers(1, cfg["n_max"] + 1))
    exc, _ = sample_X_n(_random_weights(rng, n), rng)
    gen = lifo_tree(exc)
    return all(gen.depth(v) == len(record_ancestors(exc, float(exc.times[v]), 0.0))
               for v in range(gen.n))


# -- registry and runner -----------------------------------------------------


def _sum_of(*keys):
    return lambda cfg: sum(cfg[k] for k in keys)


@dataclass(frozen=True)
class _Driver:
    """count(cfg) replicates, reduced by agg.  Replicate r is rep(cfg, seed,
    stream, r); a kernel computes a block of them at once and returns what
    the rep loop would."""

    count: callable
    agg: callable
    defaults: dict
    rep: callable = None
    kernel: callable = None

    def block(self, cfg, seed, stream, lo, hi):
        """Results of replicates lo, ..., hi - 1, in order."""
        if self.kernel is not None:
            return self.kernel(cfg, seed, stream, lo, hi)
        return [self.rep(cfg, seed, stream, r) for r in range(lo, hi)]


EXPERIMENTS = {
    "cayley": _Driver(_sum_of("reps_n3", "reps_n4"), _cayley_agg, {
        "reps_n3": 100000, "reps_n4": 100000,
        "p3": (0.5, 0.25, 0.25), "threshold": 1e-3}, kernel=_cayley_block),
    "lifo": _Driver(_sum_of("reps"), _count_failures, {
        "reps": 10000, "n_max": 8}, rep=_lifo_rep),
    "coupling": _Driver(_sum_of("reps"), _coupling_agg, {
        "reps": 1000, "n": 10000, "k": 3, "threshold": 0.01}, rep=_coupling_rep),
    "two_route": _Driver(_sum_of("reps"), _two_route_agg, {
        "reps": 50000, "ks": (3, 4), "theta": _THETA_DEFAULT,
        "threshold": 1e-3}, rep=_two_route_rep),
    "degree": _Driver(_sum_of("seeds"), _degree_agg, {
        "seeds": 100, "k": 2000, "theta": _THETA_DEFAULT, "threshold": 0.15},
        rep=_degree_rep),
    "distance": _Driver(_sum_of("seeds"), _distance_agg, {
        "seeds": 100, "eps": 0.02, "band": 0.10, "theta": _THETA_DEFAULT,
        "threshold": 0.2}, rep=_distance_rep),
    "asymptotics": _Driver(_sum_of("seeds"), _asymptotics_agg, {
        "seeds": 200, "alpha": 1.5, "delta": 1e-6, "cutoff": 1e-4,
        "t": 100.0, "eps": 1e-3, "band": 0.1, "threshold": 0.05},
        rep=_asymptotics_rep),
    "scaling": _Driver(_sum_of("reps"), _scaling_agg, {
        "reps": 10000, "theta": _THETA_DEFAULT, "threshold": 1e-3},
        rep=_scaling_rep),
    "vervaat": _Driver(_sum_of("bridge_reps", "rho_reps"), _vervaat_agg, {
        "bridge_reps": 1000, "rho_reps": 10000, "n_max": 50,
        "theta": _THETA_DEFAULT, "threshold": 1e-3}, rep=_vervaat_rep),
    "height": _Driver(_sum_of("reps"), _count_failures, {
        "reps": 1000, "n_max": 100}, rep=_height_rep),
}


def _rep_chunk(args):
    name, cfg, seed, stream, lo, hi = args
    return EXPERIMENTS[name].block(cfg, seed, stream, lo, hi)


def _run_reps(name, cfg, seed, stream, n, workers):
    if workers <= 1:
        return _rep_chunk((name, cfg, seed, stream, 0, n))
    from concurrent.futures import ProcessPoolExecutor
    bounds = np.linspace(0, n, 4 * workers + 1).astype(int)
    args = [(name, cfg, seed, stream, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        parts = list(ex.map(_rep_chunk, args))
    return [r for part in parts for r in part]


def run_experiment(name, config=None, seed=0, stream=0, workers=1):
    """Run one named experiment; deterministic in (seed, stream) for any
    worker count."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment: {name!r}")
    driver = EXPERIMENTS[name]
    cfg = dict(driver.defaults)
    if config:
        unknown = set(config) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys for {name}: {sorted(unknown)}")
        cfg.update(config)
    n = driver.count(cfg)
    t0 = perf_counter()
    results = _run_reps(name, cfg, seed, stream, n, workers)
    statistic, p_value, max_dev, threshold, passed, extra = driver.agg(results, cfg)
    wall = perf_counter() - t0
    params = {"seed": seed, "stream": stream}
    params.update({k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items()})
    params.update(extra)
    return ExperimentReport(
        name=name, parameters=params, statistic=float(statistic),
        p_value=p_value, max_deviation=max_dev, threshold=float(threshold),
        passed=bool(passed), replicate_count=int(n), wall_time=wall)
