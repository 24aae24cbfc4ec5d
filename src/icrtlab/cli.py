"""Command-line interface.

Commands: sample (icrt | ptree | path | theta), extract, verify, report.
Global flags mirror config-file keys one to one; a JSON config file supplies
defaults and explicit flags override it.  Exit codes: 0 success / all
experiments pass, 1 experiment failure, 2 usage or validation error.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .experiments import EXPERIMENTS, ExperimentReport, run_experiment
from .linebreak import sample_line_breaking
from .paths import COLLISION_TOL, PathDomainError, StepPath
from .ptree import PTree
from .rng import make_generator
from .samplers import sample_marks, sample_ptree, sample_X_n, sample_X_theta
from .theta import parse_theta_spec
from .trees import CEMETERY, spanning_from_marks


def _add_global_flags(p):
    # registered on the root parser and on every subcommand, so the flags
    # work in either position; SUPPRESS keeps a later parse from clobbering
    # a value given earlier
    p.add_argument("--config", default=argparse.SUPPRESS,
                   help="JSON config file; flags override its keys")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--stream", type=int, default=argparse.SUPPRESS)
    p.add_argument("--workers", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)


def _build_parser():
    ap = argparse.ArgumentParser(prog="icrtlab")
    _add_global_flags(ap)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="draw and serialize one artifact")
    _add_global_flags(sp)
    sp.add_argument("kind", choices=("icrt", "ptree", "path", "theta"))
    sp.add_argument("--theta", help="parameter spec, e.g. polynomial:1,1,50")
    sp.add_argument("--k", type=int, help="number of sampled leaves")
    sp.add_argument("--n", type=int, help="number of vertices")
    sp.add_argument("--weights", help="comma-separated vertex weights")
    sp.add_argument("--spec", help="theta spec (sample theta)")
    sp.add_argument("--stable", help="alpha,delta shorthand for stable:... specs")

    ep = sub.add_parser("extract", help="labelled spanning tree from a path file")
    _add_global_flags(ep)
    ep.add_argument("--path", required=True, help="serialized path file")
    ep.add_argument("--k", type=int, help="number of uniform marks to draw")
    ep.add_argument("--marks", help="explicit comma-separated mark times")

    vp = sub.add_parser("verify", help="run verification experiments")
    _add_global_flags(vp)
    vp.add_argument("names", nargs="+",
                    help=f"experiment names or 'all'; known: {', '.join(EXPERIMENTS)}")
    vp.add_argument("--param", action="append", default=[],
                    help="experiment config override, name.key=value")

    rp = sub.add_parser("report", help="summarize saved experiment reports as CSV")
    _add_global_flags(rp)
    rp.add_argument("files", nargs="+")
    return ap


def _merge_config(args):
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fp:
            cfg = json.load(fp)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
    for key, default in (("seed", 0), ("stream", 0), ("workers", 1),
                         ("out", None), ("format", "json")):
        flag = getattr(args, key, None)
        setattr(args, key, flag if flag is not None else cfg.get(key, default))
    if not isinstance(args.workers, int) or args.workers < 1:
        raise ValueError(f"workers must be a positive integer, got {args.workers!r}")
    return cfg


def _emit(args, obj, manifest):
    text = json.dumps(obj, indent=2)
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(text + "\n")
        with open(args.out + ".manifest.json", "w") as fp:
            json.dump(manifest, fp, indent=2)
    else:
        print(text)


def _manifest(args, **params):
    return {"command": args.command, "seed": args.seed, "stream": args.stream,
            "parameters": params}


def _cmd_sample(args):
    rng = make_generator(args.seed, args.stream)
    kind = args.kind
    if kind == "icrt":
        if not args.theta or not args.k:
            raise ValueError("sample icrt needs --theta and --k")
        theta = parse_theta_spec(args.theta, rng)
        tree = sample_line_breaking(theta, args.k, rng)
        _emit(args, tree.to_json(), _manifest(args, kind=kind, theta=args.theta, k=args.k))
    elif kind == "ptree":
        if not args.n or not args.weights:
            raise ValueError("sample ptree needs --n and --weights")
        p = np.array([float(w) for w in args.weights.split(",")])
        if p.size != args.n:
            raise ValueError("--weights length must equal --n")
        if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        parent = sample_ptree(p, rng)
        _emit(args, PTree(args.n, parent).to_json(),
              _manifest(args, kind=kind, n=args.n, weights=args.weights))
    elif kind == "path":
        if args.theta:
            theta = parse_theta_spec(args.theta, rng)
            exc, _ = sample_X_theta(theta, rng)
            params = {"kind": kind, "theta": args.theta}
        elif args.weights:
            p = np.array([float(w) for w in args.weights.split(",")])
            exc, _ = sample_X_n(p, rng)
            params = {"kind": kind, "weights": args.weights}
        else:
            raise ValueError("sample path needs --theta or --weights")
        _emit(args, exc.to_json(), _manifest(args, **params))
    else:
        spec = args.spec or args.theta
        if args.stable:
            spec = "stable:" + args.stable
        if not spec:
            raise ValueError("sample theta needs --spec, --theta or --stable")
        theta = parse_theta_spec(spec, rng)
        _emit(args, theta.to_json(), _manifest(args, kind=kind, spec=spec))
    return 0


def _cmd_extract(args):
    with open(args.path) as fp:
        path = StepPath.load(fp)
    if args.marks:
        marks = np.array([float(m) for m in args.marks.split(",")])
        for m in marks:
            if np.any(np.abs(path.times - m) <= COLLISION_TOL):
                raise ValueError(f"mark {m} collides with a jump time")
    elif args.k:
        rng = make_generator(args.seed, args.stream)
        marks = sample_marks(args.k, rng, path)
    else:
        raise ValueError("extract needs --k or --marks")
    tree = spanning_from_marks(path, marks, list(range(1, marks.size + 1)))
    obj = {"cemetery": True} if tree is CEMETERY else tree.to_json()
    _emit(args, obj, _manifest(args, path=args.path, marks=marks.tolist()))
    return 0


def _cmd_verify(args):
    names = list(args.names)
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment(s): {', '.join(unknown)}")
    overrides = {}
    for item in args.param:
        key, _, value = item.partition("=")
        name, _, field = key.partition(".")
        if name not in EXPERIMENTS or not field or not value:
            raise ValueError(f"bad --param {item!r}; expected name.key=value")
        overrides.setdefault(name, {})[field] = json.loads(value)
    reports = []
    for name in names:
        rep = run_experiment(name, overrides.get(name), seed=args.seed,
                             stream=args.stream, workers=args.workers)
        reports.append(rep)
        if args.out:
            import os
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, f"{name}.json"), "w") as fp:
                json.dump(rep.to_json(), fp, indent=2)
    if args.format == "csv":
        print(ExperimentReport.csv_header())
        for rep in reports:
            print(rep.csv_line())
    else:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_report(args):
    print(ExperimentReport.csv_header())
    ok = True
    for fname in args.files:
        with open(fname) as fp:
            rep = ExperimentReport.from_json(json.load(fp))
        print(rep.csv_line())
        ok = ok and rep.passed
    return 0 if ok else 1


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        _merge_config(args)
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "extract":
            return _cmd_extract(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_report(args)
    except (ValueError, KeyError, PathDomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
