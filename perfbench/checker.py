"""Checks on each experiment report the benchmark receives.

A report fails when its oracle verdict differs from the expected verdict
for that experiment, or when an invariant breaks: the replicate count is
the count asked for, coupling's mismatch counts and matches sum to it, and
every p-value lies in [0, 1].
"""
from __future__ import annotations

# coupling, distance and asymptotics fail by design at every replicate
# count the benchmark uses (see the README's acceptance-suite notes)
EXPECTED_VERDICT = {
    "cayley": True, "lifo": True, "coupling": False, "two_route": True,
    "degree": True, "distance": False, "asymptotics": False,
    "scaling": True, "vervaat": True, "height": True,
}

# config keys whose sum is an experiment's replicate count
COUNT_KEYS = {
    "cayley": ("reps_n3", "reps_n4"),
    "vervaat": ("bridge_reps", "rho_reps"),
    "degree": ("seeds",), "distance": ("seeds",), "asymptotics": ("seeds",),
}


def count_keys(name):
    return COUNT_KEYS.get(name, ("reps",))


def asked_count(name, config):
    return sum(int(config[key]) for key in count_keys(name))


def problems(report, name, config):
    """What is wrong with one report (a to_json dict) of experiment `name`
    run with `config`; empty when the report is correct."""
    out = []
    if report.get("name") != name:
        return [f"report for {report.get('name')!r}, asked for {name!r}"]
    if report["passed"] is not EXPECTED_VERDICT[name]:
        out.append(f"{name}: passed={report['passed']}, expected {EXPECTED_VERDICT[name]}")
    count = asked_count(name, config)
    if report["replicate_count"] != count:
        out.append(f"{name}: {report['replicate_count']} replicates, asked for {count}")
    params = report["parameters"]
    if "mismatches" in params:
        matched = round(params["match_rate"] * count)
        if matched + sum(params["mismatches"].values()) != count:
            out.append(f"{name}: matches and mismatches do not sum to {count}")
    p_values = [report["p_value"], *params.get("p_values", {}).values()]
    for p in p_values:
        if p is not None and not 0.0 <= p <= 1.0:  # also rejects NaN
            out.append(f"{name}: p-value {p!r} outside [0, 1]")
    return out
