"""Fixed-input layer table: minimum microseconds per call of the layer
functions the experiments are built from.

Inputs come from fixed seeds, so every run times the same calls.  Samplers
get a fresh generator per call, made before the clock starts.  HAND_TIMED_US
holds the values the ROADMAP quotes, timed by hand with timeit (min of 3) on
a 2-core box before this benchmark existed.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

from icrtlab.linebreak import reduced_tree, sample_line_breaking
from icrtlab.paths import StepPath
from icrtlab.rng import make_generator
from icrtlab.samplers import sample_marks, sample_X_n, sample_X_theta
from icrtlab.theta import parse_theta_spec
from icrtlab.trees import extract_tree, lifo_tree, spanning_from_projection, to_labelled

HAND_TIMED_US = {
    "make_generator": 28.0, "StepPath": 31.0, "lifo_tree": 8900.0,
    "spanning_from_projection": 10300.0, "sample_line_breaking": 111.0,
    "sample_X_theta": 131.0, "extract_tree": 228.0, "to_labelled": 39.0,
    "reduced_tree": 48.0,
}

REPEATS = 5
SEED = 1


def _min_us(fn, args, calls):
    """Least mean microseconds per call over REPEATS timed loops; args(i)
    gives the arguments of call i."""
    best = float("inf")
    for _ in range(REPEATS):
        batch = [args(i) for i in range(calls)]
        t0 = perf_counter()
        for a in batch:
            fn(*a)
        best = min(best, (perf_counter() - t0) / calls)
    return best * 1e6


def layer_table():
    """{function name: minimum µs per call} on fixed inputs."""
    theta = parse_theta_spec("polynomial:1,1,50")
    big, _ = sample_X_n(np.full(10_000, 1e-4), make_generator(SEED, 1))
    big_marks = sample_marks(3, make_generator(SEED, 2), big)
    exc, _ = sample_X_theta(theta, make_generator(SEED, 3))
    marks = make_generator(SEED, 4).random(4)
    ordered = extract_tree(exc, marks)
    broken = sample_line_breaking(theta, 4, make_generator(SEED, 5))
    times = np.sort(make_generator(SEED, 6).random(4))
    sizes = np.full(4, 0.25)

    def fixed(*a):
        return lambda i: a

    def fresh(stream, *a):
        return lambda i: (*a, make_generator(SEED, stream, i))

    cases = {
        "make_generator": (make_generator, lambda i: (SEED, 7, i), 500),
        "StepPath": (StepPath, fixed(1.0, -1.0, times, sizes), 500),
        "lifo_tree": (lifo_tree, fixed(big), 3),
        "spanning_from_projection": (spanning_from_projection, fixed(big, big_marks, [1, 2, 3]), 3),
        "sample_line_breaking": (sample_line_breaking, fresh(8, theta, 4), 200),
        "sample_X_theta": (sample_X_theta, fresh(9, theta), 200),
        "extract_tree": (extract_tree, fixed(exc, marks), 100),
        "to_labelled": (to_labelled, fixed(ordered, [1, 2, 3, 4]), 500),
        "reduced_tree": (reduced_tree, fixed(broken, 4), 500),
    }
    return {name: _min_us(fn, args, calls) for name, (fn, args, calls) in cases.items()}
