"""Tests of the benchmark harness: self-time arithmetic, tracing leaves the
reports unchanged, worker-count independence of the sweep, and the report
checker."""
import copy
import math

import numpy as np
import pytest

import icrtlab
from icrtlab import trees
from checker import asked_count, problems
from tracing import Recorder, layer_metrics, self_times
from workloads import THETA, WORKLOADS, Workload, run_op

SMALL = {
    "census": Workload({"cayley": {"reps_n3": 60, "reps_n4": 60, "threshold": 1e-6}}),
    "shapes": Workload({"two_route": {"reps": 12, "ks": [3, 4], "theta": THETA,
                                      "threshold": 1e-6}}),
    "genealogy": Workload({"coupling": {"reps": 6, "n": 400, "k": 3}}),
}

SMALL_SWEEP = Workload({
    "lifo": {"reps": 20, "n_max": 8},
    "height": {"reps": 10, "n_max": 100},
    "vervaat": {"bridge_reps": 10, "rho_reps": 20, "n_max": 50, "theta": THETA,
                "threshold": 1e-6},
    "scaling": {"reps": 20, "theta": THETA, "threshold": 1e-6},
    "degree": {"seeds": 2, "k": 200, "theta": THETA},
    "distance": {"seeds": 2, "theta": THETA},
    "asymptotics": {"seeds": 2},
}, workers=2, via_cli=True)


def without_wall_time(reports):
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in reports]


def test_self_times_nested_and_overlapping():
    # 0 [0, 10] has children 1 [1, 4] and 2 [3, 6], which overlap, and
    # 4 [8, 12], which overruns its parent; 3 [1.5, 2.5] is a child of 1
    parent = [-1, 0, 0, 1, 0]
    start = [0.0, 1.0, 3.0, 1.5, 8.0]
    end = [10.0, 4.0, 6.0, 2.5, 12.0]
    assert np.allclose(self_times(parent, start, end), [3.0, 2.0, 3.0, 1.0, 4.0])


def test_recorder_parents_and_layer_totals():
    rec = Recorder()
    rec.install()
    try:
        rep = icrtlab.experiments.run_experiment("coupling", {"reps": 2, "n": 50, "k": 3})
    finally:
        rec.uninstall()
    name_id, parent, start, end = rec.arrays()
    assert rec.names[name_id[0]] == "experiments.run_experiment" and parent[0] == -1
    assert (parent[1:] >= 0).all()
    # every span lies inside its parent, so self times add up to the root
    assert math.isclose(self_times(parent, start, end).sum(), end[0] - start[0])
    m = layer_metrics(rec, rep.replicate_count)
    assert m["trees.calls"] > 0 and m["cli.calls"] == 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_leaves_reports_unchanged(name):
    plain, _ = run_op(SMALL[name], seed=3, stream=1)
    lifo_tree = trees.lifo_tree
    rec = Recorder()
    rec.install()
    try:
        traced, _ = run_op(SMALL[name], seed=3, stream=1)
        assert trees.lifo_tree is not lifo_tree
    finally:
        rec.uninstall()
    assert trees.lifo_tree is lifo_tree
    assert len(rec) > 0
    assert without_wall_time(traced) == without_wall_time(plain)


def test_sweep_reports_independent_of_workers():
    one, _ = run_op(SMALL_SWEEP, seed=5, stream=2, workers=1)
    two, _ = run_op(SMALL_SWEEP, seed=5, stream=2, workers=2)
    assert [r["name"] for r in one] == list(SMALL_SWEEP.configs)
    assert without_wall_time(one) == without_wall_time(two)


def test_workload_configs_state_every_count():
    for workload in WORKLOADS.values():
        for name, cfg in workload.configs.items():
            assert asked_count(name, cfg) > 0


def _tamper_verdict(r):
    r["passed"] = not r["passed"]


def _tamper_count(r):
    r["replicate_count"] += 1


def _tamper_p_value(r):
    r["parameters"]["p_values"]["n=3"] = 1.5


def _tamper_nan(r):
    r["p_value"] = math.nan


@pytest.mark.parametrize("tamper", [_tamper_verdict, _tamper_count, _tamper_p_value, _tamper_nan])
def test_checker_counts_tampered_report(tamper):
    (report,), (found,) = run_op(SMALL["census"], seed=3, stream=1)
    assert found == []
    bad = copy.deepcopy(report)
    tamper(bad)
    assert problems(bad, "cayley", SMALL["census"].configs["cayley"])


def test_checker_counts_mismatches_not_summing():
    workload = SMALL["genealogy"]
    (report,), (found,) = run_op(workload, seed=3, stream=1)
    bad = copy.deepcopy(report)
    bad["parameters"]["mismatches"]["b_cemetery"] = (
        bad["parameters"]["mismatches"].get("b_cemetery", 0) + 1)
    assert len(problems(bad, "coupling", workload.configs["coupling"])) == len(found) + 1
