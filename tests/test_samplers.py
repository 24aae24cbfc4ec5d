import numpy as np
import pytest

from icrtlab.paths import (AmbiguousInfimumError, StepPath, _vervaat_at,
                           infimum_point)
from icrtlab.rng import make_generator
from icrtlab.samplers import (RESAMPLE_CAP, ptree_rows, sample_marks, sample_ptree,
                              sample_stable_jump_surrogate, sample_X_n,
                              sample_X_theta, sample_Y_n, sample_Y_theta)
from icrtlab.theta import ThetaParam, stable_constants
from icrtlab.trees import lifo_tree


class TestMarks:
    def test_sorted_in_unit_interval(self):
        u = sample_marks(5, make_generator(1))
        assert u.shape == (5,)
        assert np.all(np.diff(u) >= 0)
        assert np.all((u > 0) & (u < 1))

    def test_collision_redraw(self):
        path = sample_Y_theta(ThetaParam(np.array([1.0, 0.5])), make_generator(2))
        u = sample_marks(4, make_generator(3), path)
        assert np.min(np.abs(u[:, None] - path.times[None, :])) > 1e-12

    def test_deterministic(self):
        a = sample_marks(3, make_generator(9))
        b = sample_marks(3, make_generator(9))
        assert np.array_equal(a, b)


class TestBridges:
    def test_single_atom(self):
        y = sample_Y_theta(ThetaParam(np.array([1.0])), make_generator(4))
        assert y.times.size == 1
        assert y.drift == -1.0
        assert y.eval(1.0) == 0.0

    def test_ends_at_zero_exactly(self):
        th = ThetaParam(np.array([2.0, 1.0]))
        for seed in range(30):
            y = sample_Y_theta(th, make_generator(seed))
            assert y.drift * 1.0 + np.cumsum(y.sizes)[-1] == 0.0

    def test_jump_multiset_preserved(self):
        th = ThetaParam(np.array([3.0, 2.0, 1.0]))
        y = sample_Y_theta(th, make_generator(5))
        assert sorted(y.sizes.tolist(), reverse=True) == th.atoms.tolist()

    def test_Y_n_weights(self):
        y = sample_Y_n([0.6, 0.4], make_generator(6))
        assert y.drift == -1.0
        assert sorted(y.sizes.tolist()) == [0.4, 0.6]
        with pytest.raises(ValueError):
            sample_Y_n([0.6, 0.5], make_generator(6))


class TestExcursions:
    def test_single_atom_excursion(self):
        x, rho = sample_X_theta(ThetaParam(np.array([1.0])), make_generator(7))
        assert x.jumps == [(0.0, 1.0)]
        assert x.drift == -1.0
        assert 0.0 <= rho < 1.0

    def test_nonnegative(self):
        x, _ = sample_X_n([0.25] * 4, make_generator(8))
        assert x.kind == "excursion"
        grid = np.linspace(0, 1, 101)
        assert min(x.eval(t) for t in grid) >= -1e-12

    def test_deterministic(self):
        th = ThetaParam(np.array([1.0, 0.5, 0.25]))
        x1, r1 = sample_X_theta(th, make_generator(10))
        x2, r2 = sample_X_theta(th, make_generator(10))
        assert np.array_equal(x1.times, x2.times)
        assert r1 == r2


def _reference_ptree(p, rng):
    """Stand-alone p-tree sampler: labelled bridge built by hand, jump labels
    carried through the cyclic shift."""
    n = p.size
    for _ in range(RESAMPLE_CAP):
        chi = rng.random(n)
        order = np.argsort(chi, kind="stable")
        times = chi[order]
        sizes = p[order]
        try:
            bridge = StepPath(1.0, -1.0, times, sizes, kind="bridge")
            rho, _ = infimum_point(bridge)
            exc = _vervaat_at(bridge, rho)
        except (AmbiguousInfimumError, ValueError):
            continue
        j0 = int(np.searchsorted(times, rho, side="left"))
        labels = np.concatenate((order[j0:], order[:j0])) + 1
        gen = lifo_tree(exc)
        parent = [0] * n
        for j in range(n):
            pj = int(gen.parent[j])
            parent[labels[j] - 1] = 0 if pj < 0 else int(labels[pj])
        return tuple(parent)
    raise RuntimeError("bridge resampling cap exceeded")


class TestPTree:
    @pytest.mark.parametrize("p", [(0.5, 0.25, 0.25), (0.25,) * 4,
                                   (0.1, 0.2, 0.3, 0.15, 0.25)])
    def test_matches_reference(self, p):
        p = np.asarray(p)
        ra, rb = make_generator(13), make_generator(13)
        for _ in range(500):
            assert sample_ptree(p, ra) == _reference_ptree(p, rb)
        assert ra.random() == rb.random()


class _Retried(Exception):
    pass


class _OneRow:
    """Generator stub: the first random(n) returns row; a second call means
    the sampler's first attempt raised and it drew again."""

    def __init__(self, row):
        self.row, self.calls = row, 0

    def random(self, n):
        self.calls += 1
        if self.calls > 1:
            raise _Retried
        assert n == len(self.row)
        return np.array(self.row, dtype=float)


def _first_attempt(p, row):
    try:
        return sample_ptree(p, _OneRow(row))
    except _Retried:
        return None


class TestPTreeRows:
    """ptree_rows against sample_ptree's first attempt on the same uniforms."""

    @staticmethod
    def check(p, chi):
        p, chi = np.asarray(p, dtype=float), np.asarray(chi, dtype=float)
        parent, retry = ptree_rows(p, chi)
        for row, got, again in zip(chi, parent.tolist(), retry.tolist()):
            want = _first_attempt(p, row)
            assert again == (want is None), row
            if want is not None:
                assert tuple(got) == want, row
        return retry

    @pytest.mark.parametrize("p", [(0.5, 0.25, 0.25), (0.25,) * 4,
                                   (0.1, 0.2, 0.3, 0.15, 0.25)])
    def test_random_rows(self, p):
        chi = make_generator(31).random((2000, len(p)))
        assert not self.check(p, chi).any()

    def test_repeated_chi(self):
        assert self.check((0.5, 0.25, 0.25), [[0.3, 0.7, 0.3]]).all()

    def test_tied_left_limits(self):
        assert self.check((0.25,) * 4, [[0.1, 0.35, 0.6, 0.85]]).all()

    @pytest.mark.parametrize("p", [(0.5, 0.25, 0.25), (0.25,) * 4])
    def test_dyadic_grid(self, p):
        chi = make_generator(32).integers(0, 8, (500, len(p))) / 8
        retry = self.check(p, chi)
        assert retry.any() and not retry.all()

    def test_zero_weight(self):
        p = np.array([0.5, 0.5, 0.0])
        assert self.check(p, make_generator(33).random((20, 3))).all()
        with pytest.raises(RuntimeError, match="bridge resampling cap exceeded"):
            sample_ptree(p, make_generator(33))


class TestStableSurrogate:
    def test_ranked_and_bounded(self):
        th = sample_stable_jump_surrogate(1.5, 0.01, make_generator(11))
        assert np.all(np.diff(th.atoms) <= 0)
        assert np.all(th.atoms >= 0.01)
        assert th.nominal_alpha == 1.5

    def test_tail_l2(self):
        c = stable_constants(1.5).c_alpha
        th = sample_stable_jump_surrogate(1.5, 0.01, make_generator(12))
        assert th.tail_l2 == pytest.approx(c * 0.01 ** 0.5 / 0.5)

    def test_count_scale(self):
        # mean count is (c_alpha/alpha) * delta^-alpha
        c = stable_constants(1.5)
        lam = c.c_alpha / 1.5 * 0.01 ** -1.5
        counts = [len(sample_stable_jump_surrogate(1.5, 0.01, make_generator(s)))
                  for s in range(60)]
        assert abs(np.mean(counts) - lam) < 4 * np.sqrt(lam / 60)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_stable_jump_surrogate(2.5, 0.01, make_generator(1))
        with pytest.raises(ValueError):
            sample_stable_jump_surrogate(1.5, 2.0, make_generator(1))


class TestStreams:
    def test_stream_independence(self):
        a = make_generator(1, 0).random(4)
        b = make_generator(1, 1).random(4)
        assert not np.array_equal(a, b)

    def test_subkeys(self):
        a = make_generator(1, 0, 5).random(4)
        b = make_generator(1, 0, 5).random(4)
        c = make_generator(1, 0, 6).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
