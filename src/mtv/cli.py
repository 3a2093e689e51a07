"""Command line front end.

Exit codes: 0 all suites pass / operation succeeded, 1 a suite failed,
2 invalid configuration or input.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import MtvError, ValidationError
from .hilbert import hilb_to_u, u_to_hilb
from .serialize import (
    jetscheme_from_json,
    jetscheme_to_json,
    uclass_from_json,
    uclass_to_json,
    wpoint_to_json,
)
from .uspace import glue
from .verify import (
    SUITE_NAMES,
    Report,
    SuiteConfig,
    run_suite,
    sample_jetscheme,
    sample_uclass,
    sample_wpoint,
    trial_rng,
)


def _report_to_json(report: Report) -> dict:
    config = dataclasses.asdict(report.config)
    config["suites"] = list(config["suites"])
    return {
        "version": report.version,
        "config": config,
        "pass": bool(report.passed),
        "suites": [
            {
                "name": s.name,
                "trials": int(s.trials),
                "max_residual": float(s.max_residual),
                "tolerance": float(s.tolerance),
                "negative_residual": float(s.negative_residual),
                "pass": bool(s.passed),
                "seconds": float(s.seconds),
                "details": {k: float(v) for k, v in s.details.items()},
            }
            for s in report.suites
        ],
    }


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _dump_json(data, path: str | None):
    text = json.dumps(data, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_verify(args) -> int:
    suites = tuple(args.suite)
    if "all" in suites:
        suites = SUITE_NAMES
    config = SuiteConfig(
        k=args.k,
        trials=args.trials,
        seed=args.seed,
        suites=suites,
    )
    report = run_suite(config)
    print(json.dumps(_report_to_json(report), indent=2))
    for s in report.suites:
        status = "pass" if s.passed else "FAIL"
        print(
            f"[{status}] {s.name}: {s.trials} trials, max residual "
            f"{s.max_residual:.3e} (tol {s.tolerance:.1e}), negative "
            f"{s.negative_residual:.3e}, {s.seconds:.2f}s",
            file=sys.stderr,
        )
    print(
        f"overall: {'pass' if report.passed else 'FAIL'}", file=sys.stderr
    )
    return 0 if report.passed else 1


def _cmd_glue(args) -> int:
    m1 = uclass_from_json(_load_json(args.in1))
    m2 = uclass_from_json(_load_json(args.in2))
    result = glue(m1, args.out_index, m2, args.in_index)
    _dump_json(uclass_to_json(result), args.out)
    return 0


def _cmd_hilb(args) -> int:
    if args.direction == "to-u":
        d = jetscheme_from_json(_load_json(args.infile))
        _dump_json(uclass_to_json(hilb_to_u(d)), args.out)
    else:
        m = uclass_from_json(_load_json(args.infile))
        _dump_json(jetscheme_to_json(u_to_hilb(m)), args.out)
    return 0


def _cmd_sample(args) -> int:
    if args.k < 1 or args.seed < 0:
        raise ValidationError("k must be positive and seed non-negative")
    rng = trial_rng(args.seed, f"sample-{args.kind}", 0)
    if args.kind == "wpoint":
        p = sample_wpoint(args.k, args.orientation, rng)
        _dump_json(wpoint_to_json(p), args.out)
    elif args.kind == "uclass":
        m = sample_uclass(args.k, args.b, args.bprime, rng)
        _dump_json(uclass_to_json(m), args.out)
    else:
        d = sample_jetscheme(args.k, args.b, args.bprime, rng)
        _dump_json(jetscheme_to_json(d), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtv",
        description="verify and manipulate glued symplectic variety data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run randomized verification suites")
    p_verify.add_argument("--k", type=int, default=3)
    p_verify.add_argument("--trials", type=int, default=50)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument(
        "--suite",
        action="append",
        default=None,
        help="suite name or 'all' (repeatable)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_glue = sub.add_parser("glue", help="glue two class files")
    p_glue.add_argument("--in1", required=True)
    p_glue.add_argument("--out-index", type=int, required=True, dest="out_index")
    p_glue.add_argument("--in2", required=True)
    p_glue.add_argument("--in-index", type=int, required=True, dest="in_index")
    p_glue.add_argument("--out", default=None)
    p_glue.set_defaults(func=_cmd_glue)

    p_hilb = sub.add_parser("hilb", help="jet scheme <-> class correspondence")
    p_hilb.add_argument("direction", choices=["to-u", "from-u"])
    p_hilb.add_argument("--in", required=True, dest="infile")
    p_hilb.add_argument("--out", default=None)
    p_hilb.set_defaults(func=_cmd_hilb)

    p_sample = sub.add_parser("sample", help="generate sample data files")
    p_sample.add_argument("--kind", choices=["wpoint", "uclass", "jetscheme"], required=True)
    p_sample.add_argument("--k", type=int, default=3)
    p_sample.add_argument("--b", type=int, default=1)
    p_sample.add_argument("--bprime", type=int, default=0)
    p_sample.add_argument("--orientation", choices=["in", "out"], default="in")
    p_sample.add_argument("--seed", type=int, default=42)
    p_sample.add_argument("--out", default=None)
    p_sample.set_defaults(func=_cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "suite", "missing") is None:
        args.suite = ["all"]
    try:
        return args.func(args)
    except (MtvError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
