"""The experiment runner: block kernels equal the per-replicate loop, and
every experiment's replicate count is the one the benchmark checker asks
for."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from icrtlab import experiments
from icrtlab.experiments import EXPERIMENTS, run_experiment
from icrtlab.rng import make_generator
from icrtlab.samplers import ptree_rows, sample_ptree

CAYLEY = {**EXPERIMENTS["cayley"].defaults, "reps_n3": 300, "reps_n4": 300}


def _scalar_cayley(cfg, seed, stream, lo, hi):
    """The per-replicate cayley loop that the block kernel replaces."""
    out = []
    for r in range(lo, hi):
        tag, p = (3, cfg["p3"]) if r < cfg["reps_n3"] else (4, (0.25,) * 4)
        out.append((tag, sample_ptree(np.asarray(p, dtype=float),
                                      make_generator(seed, stream, 1, r))))
    return out


@pytest.mark.parametrize("seed,stream", [(1, 0), (3, 1), (601, 5)])
def test_cayley_block_equals_scalar_loop(seed, stream):
    block = EXPERIMENTS["cayley"].block
    whole = block(CAYLEY, seed, stream, 0, 600)
    assert whole == _scalar_cayley(CAYLEY, seed, stream, 0, 600)
    rng = np.random.default_rng(seed)
    splits = [[0, 299, 301, 600], [0, 250, 350, 600],
              *(sorted({0, 600, *rng.integers(1, 600, 4).tolist()}) for _ in range(4))]
    for cuts in splits:
        parts = [r for lo, hi in zip(cuts, cuts[1:]) for r in block(CAYLEY, seed, stream, lo, hi)]
        assert parts == whole


def test_cayley_block_reruns_retry_rows(monkeypatch):
    def every_third_retried(p, chi):
        parent, retry = ptree_rows(p, chi)
        parent[::3] = -7
        retry[::3] = True
        return parent, retry

    monkeypatch.setattr(experiments, "ptree_rows", every_third_retried)
    got = EXPERIMENTS["cayley"].block(CAYLEY, 3, 1, 100, 500)
    assert got == _scalar_cayley(CAYLEY, 3, 1, 100, 500)


def test_cayley_zero_weight_raises_like_scalar():
    cfg = {"reps_n3": 3, "reps_n4": 3, "p3": [0.5, 0.5, 0.0]}
    with pytest.raises(RuntimeError, match="bridge resampling cap exceeded"):
        run_experiment("cayley", cfg, seed=1)


def test_cayley_independent_of_workers():
    cfg = {"reps_n3": 700, "reps_n4": 700}
    a = run_experiment("cayley", cfg, seed=2, stream=3, workers=1).to_json()
    b = run_experiment("cayley", cfg, seed=2, stream=3, workers=2).to_json()
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b


def _benchmark_checker():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checker.py"
    spec = importlib.util.spec_from_file_location("perfbench_checker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_count_matches_benchmark_checker(name):
    defaults = EXPERIMENTS[name].defaults
    assert EXPERIMENTS[name].count(defaults) == _benchmark_checker().asked_count(name, defaults)
