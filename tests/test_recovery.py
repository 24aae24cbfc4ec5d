import math

import numpy as np
import pytest

from icrtlab.paths import StepPath
from icrtlab.recovery import (EstimateResult, Normalizer, estimate_distance,
                              estimate_local_time, icrt_normalizer,
                              path_distance_estimate, stable_normalizer)
from icrtlab.rng import make_generator
from icrtlab.theta import ThetaParam, gamma_coverage, psi, psi_inv


class TestNormalizers:
    def test_stable_degree_norm(self):
        n = stable_normalizer(1.5)
        assert n.degree_norm(100.0) == pytest.approx(100.0 ** (2.0 / 3.0))

    def test_stable_distance_norm(self):
        n = stable_normalizer(1.5)
        pref = math.gamma(0.5) / 1.5
        assert n.distance_norm(0.01) == pytest.approx(pref * 0.1)

    def test_icrt_norms(self):
        th = ThetaParam(np.array([1.0]))
        n = icrt_normalizer(th)
        y = psi(th, 2.0)
        assert n.degree_norm(y) == pytest.approx(2.0, abs=1e-8)
        assert n.distance_norm(0.5) == pytest.approx(1.0 / gamma_coverage(th, 0.5))

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            stable_normalizer(1.5).distance_norm(0.0)


class TestEstimators:
    def test_local_time_value(self):
        n = Normalizer("test", lambda k: k ** (2.0 / 3.0), lambda e: e)
        r = estimate_local_time([(100, 10)], n)
        assert isinstance(r, EstimateResult)
        assert r.value == pytest.approx(10.0 / 100.0 ** (2.0 / 3.0))

    def test_local_time_trajectory_sorted(self):
        n = Normalizer("test", lambda k: float(k), lambda e: e)
        r = estimate_local_time([(4, 8), (2, 2), (8, 8)], n)
        assert [k for k, _ in r.trajectory] == [2, 4, 8]
        assert r.value == 1.0

    def test_empty_rejected(self):
        n = Normalizer("test", lambda k: float(k), lambda e: e)
        with pytest.raises(ValueError):
            estimate_local_time([], n)

    def test_estimate_distance(self):
        # 50 branch points at eps = 0.01 under the stable norm
        n = stable_normalizer(1.5)
        pref = math.gamma(0.5) / 1.5
        assert estimate_distance(50, 0.01, n) == pytest.approx(50 * pref * 0.1)

    def test_estimate_distance_icrt(self):
        th = ThetaParam(np.array([2.0, 1.0, 0.5]))
        n = icrt_normalizer(th)
        assert estimate_distance(6, 0.7, n) == pytest.approx(2.0)


class TestPathDistance:
    @pytest.fixture
    def exc(self):
        return StepPath(1.0, -1.0, [0.0, 0.25], [0.4, 0.6], kind="excursion")

    def test_zero_at_equal_times(self, exc):
        n = Normalizer("test", lambda k: k, lambda e: 1.0)
        assert path_distance_estimate(exc, 0.3, 0.3, 0.01, n) == 0.0

    def test_symmetric(self, exc):
        n = Normalizer("test", lambda k: k, lambda e: 1.0)
        a = path_distance_estimate(exc, 0.3, 0.9, 0.01, n)
        b = path_distance_estimate(exc, 0.9, 0.3, 0.01, n)
        assert a == b

    def test_hand_value(self, exc):
        # t=0.3 has ancestors {0, 0.25}, t=0.9 has {0}; common ancestor is
        # the root jump, so d = 2 + 1 - 2*1 = 1 in record-count units
        n = Normalizer("test", lambda k: k, lambda e: 1.0)
        assert path_distance_estimate(exc, 0.3, 0.9, 0.01, n) == pytest.approx(1.0)

    def test_triangle_inequality(self):
        rng = make_generator(23)
        times = np.sort(rng.random(60))
        sizes = rng.random(60) * 0.02 + 0.001
        total = float(np.cumsum(sizes)[-1])
        p = StepPath(1.0, -total, times, sizes)
        n = Normalizer("test", lambda k: k, lambda e: 1.0)
        ts = [0.15, 0.4, 0.8]
        d = {(a, b): path_distance_estimate(p, ts[a], ts[b], 1e-4, n)
             for a in range(3) for b in range(3)}
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    assert d[(a, b)] <= d[(a, c)] + d[(c, b)] + 1e-9
