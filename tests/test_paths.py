import math

import numpy as np
import pytest

from icrtlab.paths import (COLLISION_TOL, AmbiguousInfimumError,
                           PathDomainError, StepPath, g_d, infimum_point,
                           record_ancestors, running_min, sigma, tau, vervaat,
                           vervaat_inverse)
from icrtlab.rng import make_generator


@pytest.fixture
def exc():
    # excursion: jumps 0.4 at t=0 and 0.6 at t=0.25, drift -1 on [0, 1]
    return StepPath(1.0, -1.0, [0.0, 0.25], [0.4, 0.6], kind="excursion")


@pytest.fixture
def bridge():
    # the bridge whose cyclic shift at the infimum is the excursion above
    return StepPath(1.0, -1.0, [0.25, 0.5], [0.4, 0.6], kind="bridge")


class TestEval:
    def test_right_continuous_value(self, bridge):
        assert bridge.eval(0.3) == pytest.approx(0.10, abs=1e-12)

    def test_left_limit(self, bridge):
        assert bridge.eval_left(0.25) == pytest.approx(-0.25, abs=1e-12)

    def test_value_at_zero_with_jump(self, exc):
        assert exc.eval(0.0) == pytest.approx(0.4)
        assert exc.eval_left(0.0) == 0.0

    def test_end_clamped_to_zero(self, exc):
        assert exc.eval(1.0) == 0.0

    def test_domain_errors(self, exc):
        with pytest.raises(PathDomainError):
            exc.eval(-0.1)
        with pytest.raises(PathDomainError):
            exc.eval(1.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepPath(1.0, -1.0, [0.5, 0.25], [1.0, 1.0])
        with pytest.raises(ValueError):
            StepPath(1.0, -1.0, [0.25], [-1.0])
        with pytest.raises(ValueError):
            StepPath(1.0, -1.0, [1.0], [1.0])
        with pytest.raises(ValueError):
            # does not end at 0: cannot be an excursion
            StepPath(1.0, -1.0, [0.0], [2.0], kind="excursion")

    def test_json_round_trip(self, exc):
        again = StepPath.from_json(exc.to_json())
        assert np.array_equal(again.times, exc.times)
        assert np.array_equal(again.sizes, exc.sizes)
        assert again.drift == exc.drift
        assert again.kind == exc.kind


class TestIntervalFunctionals:
    def test_running_min(self, bridge):
        assert running_min(bridge, 0.3, 0.6) == pytest.approx(-0.10, abs=1e-12)

    def test_running_min_endpoints_only(self, exc):
        assert running_min(exc, 0.05, 0.2) == pytest.approx(exc.eval(0.2))

    def test_tau_on_excursion(self, exc):
        assert tau(exc, 0.1, 0.15) == 0.0

    def test_tau_unreachable(self, exc):
        assert tau(exc, 0.1, 0.35) == math.inf

    def test_tau_root_jump(self, exc):
        # serving the root: level below everything on (0, t]
        assert tau(exc, 0.3, 0.5) == 0.25

    def test_sigma(self, exc):
        assert sigma(exc, 0.0) == 1.0
        assert sigma(exc, 0.25) == pytest.approx(0.85, abs=1e-12)

    def test_g_d_nested_jump(self, exc):
        g, d = g_d(exc, 0.3)
        assert (g, d) == (0.25, pytest.approx(0.85, abs=1e-12))

    def test_g_d_trunk_point_degenerate(self, exc):
        assert g_d(exc, 0.1) == (0.1, 0.1)

    def test_g_d_shared_bitwise(self, exc):
        # two marks inside the same subexcursion share (g, d) bitwise
        assert g_d(exc, 0.3) == g_d(exc, 0.6)


class TestVervaat:
    def test_infimum_point(self, bridge):
        rho, m = infimum_point(bridge)
        assert rho == 0.25
        assert m == pytest.approx(-0.25, abs=1e-12)

    def test_vervaat_jumps(self, bridge):
        x = vervaat(bridge)
        assert x.kind == "excursion"
        assert x.jumps == [(0.0, 0.4), (0.25, 0.6)]

    def test_round_trip_exact(self):
        rng = make_generator(7)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            times = np.sort(rng.random(n))
            sizes = rng.random(n) + 0.01
            y = StepPath(1.0, -float(np.cumsum(sizes)[-1]), times, sizes)
            try:
                rho, _ = infimum_point(y)
            except AmbiguousInfimumError:
                continue
            back = vervaat_inverse(vervaat(y), rho)
            assert np.array_equal(back.times, y.times)
            assert np.array_equal(back.sizes, y.sizes)

    def test_infimum_point_matches_stable_argsort(self):
        def reference(path):
            values = np.concatenate((path._lefts, [path.eval(path.domain_end)]))
            cand = np.concatenate((path.times, [path.domain_end]))
            order = np.argsort(values, kind="stable")
            if values[order[1]] - values[order[0]] <= COLLISION_TOL:
                raise AmbiguousInfimumError("tie")
            return float(cand[order[0]]), float(values[order[0]])

        # dyadic grid times and sizes: exact ties are frequent
        rng = make_generator(11)
        ties = 0
        for _ in range(300):
            n = int(rng.integers(1, 12))
            times = np.sort(rng.choice(16, size=n, replace=False)) / 16
            sizes = rng.integers(1, 4, size=n) / 4
            y = StepPath(1.0, -float(sizes.sum()), times, sizes)
            try:
                expected = reference(y)
            except AmbiguousInfimumError:
                ties += 1
                with pytest.raises(AmbiguousInfimumError):
                    infimum_point(y)
                continue
            assert infimum_point(y) == expected
        assert 0 < ties < 300

    def test_ambiguous_tie(self):
        # two left limits both at the minimum -1 within tolerance
        y = StepPath(1.0, -1.0, [0.3, 0.6], [0.3, 1.4])
        # lefts: -0.3 and -0.3: tie
        with pytest.raises(AmbiguousInfimumError):
            infimum_point(y)


class TestRecordAncestors:
    def test_includes_own_jump(self, exc):
        assert record_ancestors(exc, 0.25) == [0.0, 0.25]

    def test_trunk_point(self, exc):
        assert record_ancestors(exc, 0.9) == [0.0]

    def test_eps_filter(self, exc):
        assert record_ancestors(exc, 0.25, eps=0.5) == [0.25]

    def test_monotone_in_eps(self):
        rng = make_generator(3)
        times = np.sort(rng.random(40))
        sizes = rng.random(40) + 0.01
        y = StepPath(1.0, -float(np.cumsum(sizes)[-1]), times, sizes)
        t = 0.7
        prev = set(record_ancestors(y, t, 0.0))
        for eps in (0.1, 0.3, 0.6):
            cur = set(record_ancestors(y, t, eps))
            assert cur <= prev
            prev = cur
