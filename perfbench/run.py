"""Replicate-throughput benchmark for icrtlab.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from the repository root; icrtlab is imported from ./src.  A run sets
up (imports icrtlab and runs a two-replicate warm-up of each experiment), then
repeats the workload's operation in a closed loop for --seconds, checks
every report, prints each metric with its unit and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}.  Rates are scaled to a
reference machine speed (see REFERENCE_HZ).

--trace 0 gives the end-to-end metrics of BENCHMARK.json.  --trace 1 gives
its per-layer metrics: every second operation of the loop runs traced,
and the fixed-input layer table follows.
--workload all runs every workload in a process of its own and prints all
their metrics.  A manifest per run, and the spans of a traced run, are
written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# fresh processes timed for setup_s besides the run's own set-up
SETUP_PROBES = 2
SWEEP_OUTER = ("cli", "experiments")
# On a shared host the CPU speed drifts by 20-50% over minutes (other
# tenants, frequency scaling), and every rate moves with it.  Rates are
# therefore scaled to a machine on which a fixed pure-Python kernel runs at
# REFERENCE_HZ, by the kernel's speed measured before and after each
# operation.  130 Hz is the kernel's median speed on the 2-core x86 box the
# benchmark was tuned on.  Raw rates are printed and go to the manifest.
# Set-up time is not scaled: it is mostly imports, and did not follow the
# kernel's speed.
REFERENCE_HZ = 130.0


def _reference_kernel():
    d = {}
    for i in range(30000):
        k = i % 97
        d[k] = d.get(k, 0) + i * i
    return sorted(d.items()), sorted((i * 7919) % 10007 for i in range(5000))


def speed():
    """Current speed of the reference kernel over REFERENCE_HZ."""
    t0 = perf_counter()
    _reference_kernel()
    _reference_kernel()
    return 2.0 / (perf_counter() - t0) / REFERENCE_HZ


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def declared_units(trace):
    """{metric: unit} of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Tally:
    """Reports attempted and failed, over every operation of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, checks):
        self.attempted += len(checks)
        self.failed += sum(1 for found in checks if found)
        for found in checks:
            self.problems.extend(found)
            for problem in found:
                print(f"check failed: {problem}", file=sys.stderr)


@dataclass
class Loop:
    """Per-operation figures of a closed loop.  Rates are replicates per
    second divided by the machine speed (see speed) measured around the
    operation; raw rates are undivided."""

    rates: list = field(default_factory=list)
    traced_rates: list = field(default_factory=list)
    raw_rates: list = field(default_factory=list)
    speeds: list = field(default_factory=list)
    traced_replicates: int = 0


def closed_loop(workload, seed, seconds, tally, run_op, recorder=None, layers=()):
    """Repeat the workload's operation for `seconds`, the next one starting
    when the last returns.  With a recorder, every second operation runs
    traced, so traced and untraced operations see the same machine load."""
    loop = Loop()
    deadline = perf_counter() + seconds
    stream = 1
    while stream <= (2 if recorder else 1) or perf_counter() < deadline:
        traced = recorder is not None and stream % 2 == 0
        before = speed()
        if traced:
            recorder.install(layers)
        t0 = perf_counter()
        try:
            reports, checks = run_op(workload, seed, stream)
            elapsed = perf_counter() - t0
        except Exception:  # the operation fails; the run goes on
            traceback.print_exc()
            tally.add([["operation raised"]] * len(workload.configs))
        else:
            reps = sum(r["replicate_count"] for r in reports)
            machine = (before + speed()) / 2
            loop.speeds.append(machine)
            if traced:
                loop.traced_rates.append(reps / elapsed / machine)
                loop.traced_replicates += reps
            else:
                loop.rates.append(reps / elapsed / machine)
                loop.raw_rates.append(reps / elapsed)
            tally.add(checks)
        finally:
            if traced:
                recorder.uninstall()
        stream += 1
    return loop


def median_rate(rates):
    return statistics.median(rates) if rates else 0.0


def peak_rss_mib(workers):
    """This process's peak RSS plus, per pool worker, the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def setup_probe(args):
    """Set-up seconds of a fresh process doing this run's set-up and
    nothing else."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def end_to_end(args, workload, run_op, own_setup, tally):
    """(metrics, raw figures before speed scaling)."""
    loop = closed_loop(workload, args.seed, args.seconds, tally, run_op)
    rss = peak_rss_mib(workload.workers)
    setup = statistics.median([own_setup] + [setup_probe(args) for _ in range(SETUP_PROBES)])
    metrics = {"reps_per_s": median_rate(loop.rates), "setup_s": setup, "peak_rss_mb": rss}
    return metrics, {"reps_per_s": median_rate(loop.raw_rates),
                     "speed": median_rate(loop.speeds)}


def traced(args, workload, run_op, tally):
    from micro import layer_table
    from tracing import LAYERS, Recorder, counter_metrics, layer_metrics

    outer = SWEEP_OUTER if workload.workers > 1 else LAYERS
    rec = Recorder()
    loop = closed_loop(workload, args.seed, args.seconds, tally, run_op, rec, outer)
    replicates = loop.traced_replicates
    metrics = layer_metrics(rec, replicates, outer)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    rec.save(f"{stem}.spans.npz")
    if workload.workers > 1:
        # pool workers are not traced: time the other layers on one
        # operation at workers=1
        inner_layers = tuple(layer for layer in LAYERS if layer not in SWEEP_OUTER)
        rec = Recorder()
        rec.install(inner_layers)
        try:
            reports, checks = run_op(workload, args.seed, 1, workers=1)
        finally:
            rec.uninstall()
        tally.add(checks)
        replicates = sum(r["replicate_count"] for r in reports)
        metrics.update(layer_metrics(rec, replicates, inner_layers))
        rec.save(f"{stem}.inner.spans.npz")
    metrics.update(counter_metrics(rec.counts, replicates))
    metrics["trace.overhead"] = median_rate(loop.traced_rates) / median_rate(loop.rates)
    metrics.update({f"micro.{name}_us": us for name, us in layer_table().items()})
    return metrics, {}


def git_revision():
    """Commit of the checkout, read from .git; None when there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, workload, metrics, raw, tally):
    import icrtlab
    import numpy
    import scipy
    from micro import HAND_TIMED_US
    out = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "icrtlab": icrtlab.__version__,
        "git_revision": git_revision(), "workers": workload.workers,
        "config": workload.resolved(), "metrics": metrics,
        "reference_hz": REFERENCE_HZ, "raw": raw,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems,
    }
    if args.trace:
        out["micro_hand_timed_us"] = HAND_TIMED_US
    return out


def run_one(args, t0):
    from workloads import WORKLOADS, run_op
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all",
              file=sys.stderr)
        return 2
    run_op(workload, args.seed, 0, workers=1, configs=workload.warm_up_configs())
    setup = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0

    units = declared_units(args.trace)
    tally = Tally()
    if args.trace:
        values, raw = traced(args, workload, run_op, tally)
    else:
        values, raw = end_to_end(args, workload, run_op, setup, tally)
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(manifest(args, workload, metrics, raw, tally), indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, value in raw.items():
        print(f"  {name + ' (raw)':<40} {value:>14.6g} {units.get(name, '')}")
    print(f"  {'fail_rate':<40} {tally.failed / tally.attempted:>14.6g} "
          f"({tally.failed} of {tally.attempted} reports)")
    print(f"  manifest: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process; the JSON line merges their results
    with metric names prefixed by the workload."""
    from workloads import WORKLOADS
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None):
    t0 = perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "icrtlab" / "__init__.py").is_file():
        print(f"error: icrtlab source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args, t0)


if __name__ == "__main__":
    sys.exit(main())
