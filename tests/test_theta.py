import json
import math

import numpy as np
import pytest

from icrtlab.rng import make_generator
from icrtlab.theta import (ThetaParam, check_asymptotics, gamma_coverage,
                           parse_theta_spec, psi, psi_inv, stable_constants,
                           stable_phi_integral)


class TestThetaParam:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThetaParam(np.array([1.0, 2.0]))  # increasing
        with pytest.raises(ValueError):
            ThetaParam(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            ThetaParam(np.array([1.0]), tail_l2=-1.0)

    def test_json_round_trip(self, tmp_path):
        th = ThetaParam(np.array([2.0, 1.0]), tail_l2=0.5, nominal_alpha=1.5)
        f = tmp_path / "theta.json"
        with open(f, "w") as fp:
            json.dump(th.to_json(), fp)
        with open(f) as fp:
            again = ThetaParam.from_json(json.load(fp))
        assert np.array_equal(again.atoms, th.atoms)
        assert again.tail_l2 == th.tail_l2
        assert again.nominal_alpha == th.nominal_alpha


class TestPsi:
    def test_single_atom(self):
        assert psi(ThetaParam(np.array([1.0])), 1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-12)

    def test_zero(self):
        assert psi(ThetaParam(np.array([3.0, 1.0])), 0.0) == 0.0

    def test_two_atoms(self):
        v = psi(ThetaParam(np.array([2.0, 1.0])), 0.5)
        assert v == pytest.approx(0.474410, abs=1e-6)

    def test_tail_bound(self):
        th = ThetaParam(np.array([1.0]), tail_l2=0.3)
        _, bound = psi(th, 2.0, with_bound=True)
        assert bound == pytest.approx(0.3 * 4.0 / 2.0)

    def test_convex_increasing(self):
        th = ThetaParam(np.array([1.5, 0.7, 0.2]))
        ts = np.linspace(0.0, 5.0, 50)
        vs = [psi(th, t) for t in ts]
        assert all(b >= a for a, b in zip(vs, vs[1:]))
        mid = [(vs[i - 1] + vs[i + 1]) / 2 for i in range(1, len(vs) - 1)]
        assert all(m >= v - 1e-12 for m, v in zip(mid, vs[1:-1]))


class TestPsiInv:
    def test_single_atom(self):
        th = ThetaParam(np.array([1.0]))
        assert psi_inv(th, math.exp(-1.0)) == pytest.approx(1.0, abs=1e-8)

    def test_zero(self):
        assert psi_inv(ThetaParam(np.array([2.0])), 0.0) == 0.0

    def test_round_trip_random(self):
        rng = make_generator(11)
        for _ in range(200):
            atoms = np.sort(rng.random(int(rng.integers(1, 6))) + 0.05)[::-1]
            th = ThetaParam(atoms.copy())
            y = float(rng.random() * 10)
            assert psi(th, psi_inv(th, y)) == pytest.approx(y, abs=1e-8)

    def test_monotone(self):
        th = ThetaParam(np.array([2.0, 1.0]))
        vals = [psi_inv(th, y) for y in (0.1, 1.0, 10.0, 100.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestGamma:
    def test_strictly_above(self):
        th = ThetaParam(np.array([2.0, 1.0, 0.5]))
        assert gamma_coverage(th, 0.7) == 3.0
        assert gamma_coverage(th, 1.0) == 2.0  # strict: the atom at 1 excluded
        assert gamma_coverage(th, 5.0) == 0.0

    def test_truncation_warning(self):
        th = ThetaParam(np.array([1.0, 0.5]), tail_l2=0.1)
        with pytest.warns(RuntimeWarning):
            gamma_coverage(th, 0.1)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            gamma_coverage(ThetaParam(np.array([1.0])), 0.0)


class TestStableConstants:
    def test_values(self):
        c = stable_constants(1.5)
        assert c.c_alpha == pytest.approx(0.75 / math.sqrt(math.pi), rel=1e-12)
        assert c.gamma_limit == pytest.approx(1.5 / math.sqrt(math.pi), rel=1e-12)
        assert c.gamma_limit * c.height_prefactor == pytest.approx(1.0, rel=1e-12)

    def test_range(self):
        for bad in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(ValueError):
                stable_constants(bad)

    def test_phi_integral_full_line(self):
        # over (0, inf) the integral collapses to t^alpha
        for alpha in (1.2, 1.5, 1.8):
            for t in (0.5, 1.0, 3.0):
                v = stable_phi_integral(alpha, t, 0.0, np.inf)
                assert v == pytest.approx(t ** alpha, rel=1e-6)


class TestAsymptotics:
    def test_requires_nominal_alpha(self):
        with pytest.raises(ValueError):
            check_asymptotics(ThetaParam(np.array([1.0])), [1.0], [0.5])

    def test_surrogate_ratios_near_one(self):
        from icrtlab.samplers import sample_stable_jump_surrogate
        rng = make_generator(5)
        th = sample_stable_jump_surrogate(1.5, 1e-4, rng)
        rep = check_asymptotics(th, t_grid=[100.0], eps_grid=[1e-2],
                                small_jump_floor=(1e-6, 1e-4))
        assert rep.max_deviation() < 0.5


class TestParseSpec:
    def test_geometric(self):
        th = parse_theta_spec("geometric:0.5,4")
        assert np.allclose(th.atoms, [1.0, 0.5, 0.25, 0.125])

    def test_polynomial(self):
        th = parse_theta_spec("polynomial:1,1,3")
        assert np.allclose(th.atoms, [1.0, 0.5, 1.0 / 3.0])

    def test_stable_inline_seed(self):
        th = parse_theta_spec("stable:1.5,0.01,3")
        again = parse_theta_spec("stable:1.5,0.01,3")
        assert th.nominal_alpha == 1.5
        assert np.array_equal(th.atoms, again.atoms)

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_theta_spec("weird:1,2")
