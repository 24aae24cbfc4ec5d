"""The benchmark's workloads and the closed-loop operation each one repeats.

An operation is one call into icrtlab's public entry points: one
experiments.run_experiment call, or for sweep one cli.main verify call.
Every report it returns is checked.  Operation i of a run uses
(seed, stream=i), so a seed fixes the inputs of every operation.

Replicate counts are sized so that one operation takes about 0.5-2.5 s on
a 2-core x86 box.  p-value oracles use threshold 1e-6 instead of their
acceptance value 1e-3: a benchmark evaluation runs a few thousand reports,
and at 1e-3 a correct program would fail about one report in 500 by chance.
Coupling runs 150 replicates, so that its designed failure (about 8%
mismatches) cannot turn into a pass by chance.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass

from icrtlab import cli, experiments

from checker import EXPECTED_VERDICT, count_keys, problems

THETA = "polynomial:1,1,50"


@dataclass(frozen=True)
class Workload:
    configs: dict  # experiment name -> config overrides, every count key set
    workers: int = 1
    via_cli: bool = False

    def resolved(self):
        """Full config of each experiment: its defaults with the overrides."""
        return {name: {**experiments.EXPERIMENTS[name].defaults, **cfg}
                for name, cfg in self.configs.items()}

    def warm_up_configs(self):
        """The workload's configs at two replicates per count key (one would
        give scaling's KS test a degenerate sample)."""
        return {name: {**cfg, **{key: 2 for key in count_keys(name)}}
                for name, cfg in self.configs.items()}


WORKLOADS = {
    "census": Workload({"cayley": {
        "reps_n3": 2000, "reps_n4": 2000, "threshold": 1e-6}}),
    "shapes": Workload({"two_route": {
        "reps": 500, "ks": [3, 4], "theta": THETA, "threshold": 1e-6}}),
    "genealogy": Workload({"coupling": {"reps": 150, "n": 10000, "k": 3}}),
    # one fifth of each experiment's default replicate count
    "sweep": Workload({
        "lifo": {"reps": 2000, "n_max": 8},
        "height": {"reps": 200, "n_max": 100},
        "vervaat": {"bridge_reps": 200, "rho_reps": 2000, "n_max": 50,
                    "theta": THETA, "threshold": 1e-6},
        "scaling": {"reps": 2000, "theta": THETA, "threshold": 1e-6},
        "degree": {"seeds": 20, "k": 2000, "theta": THETA},
        "distance": {"seeds": 20, "theta": THETA},
        "asymptotics": {"seeds": 40},
    }, workers=2, via_cli=True),
}


def _verify(configs, seed, stream, workers):
    argv = ["--seed", str(seed), "--stream", str(stream), "--workers", str(workers),
            "--format", "json", "verify", *configs]
    for name, cfg in configs.items():
        for key, value in cfg.items():
            argv += ["--param", f"{name}.{key}={json.dumps(value)}"]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return json.loads(out.getvalue()), code


def run_op(workload, seed, stream, workers=None, configs=None):
    """Reports (to_json dicts) of one operation, and the problems found in
    each of them."""
    configs = workload.configs if configs is None else configs
    workers = workload.workers if workers is None else workers
    expected_code = 0
    if workload.via_cli:
        reports, code = _verify(configs, seed, stream, workers)
        expected_code = 0 if all(EXPECTED_VERDICT[name] for name in configs) else 1
    else:
        reports = [experiments.run_experiment(name, cfg, seed=seed, stream=stream,
                                              workers=workers).to_json()
                   for name, cfg in configs.items()]
        code = 0
    if len(reports) != len(configs):
        raise RuntimeError(f"{len(reports)} reports for {len(configs)} experiments")
    checks = []
    for report, (name, cfg) in zip(reports, configs.items()):
        found = problems(report, name, cfg)
        if code != expected_code:
            found.append(f"cli exit code {code}, expected {expected_code}")
        checks.append(found)
    return reports, checks
