"""Digests of the outputs that a refactor of `mtv` must keep bit for bit.

Prints one line per output set: its name, the number of outputs and a
SHA-256 digest of a canonical form that keeps every float's bits (signed
zeros included), every array's dtype, shape and bytes, and every refusal's
type and message.  Timing fields are left out.  To compare two checkouts,
run the script once per checkout and `diff` the two printouts:

    python3 tools/same_outputs.py --root ../parent > parent.txt
    python3 tools/same_outputs.py > change.txt
    diff parent.txt change.txt

`--root` names the checkout whose `src/` and `perfbench/` are imported (by
default the one holding this script), so a parent commit without this file
can be digested by this copy.  `--set NAME` (repeatable) runs some sets only.

The sets:
  run-sh          the 12 `mtv verify --suite all` reports of seeds 1, 2, 42
                  and 1370273968 at (k, trials) = (2, 3), (3, 5) and (5, 50),
                  each with its exit code
  verify-k5       verify-k5's op reports for the first 32 op seeds of each
                  benchmark seed 101-110 (320 reports)
  replay-fitting  the fitting_orbits ops of verify-replay-k3 among the first
                  4096 ops of seeds 101 and 102 (744 reports)
  engine-mix      one output per pool input of engine-mix seeds 101-113,
                  every kind and refusal included (3536 outputs)
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys

# one BLAS thread, as `mtv` and perfbench set it, before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_SH_SEEDS = (1, 2, 42, 1370273968)
RUN_SH_SIZES = ((2, 3), (3, 5), (5, 50))


def canonical(obj) -> bytes:
    """A byte string that two outputs share iff they are equal bit for bit."""
    if isinstance(obj, float):
        return b"f" + float(obj).hex().encode()
    if isinstance(obj, complex):
        return b"c" + canonical(obj.real) + canonical(obj.imag)
    if isinstance(obj, (bool, int, str, type(None))):
        return repr((type(obj).__name__, obj)).encode()
    if isinstance(obj, (np.ndarray, np.generic)):
        arr = np.ascontiguousarray(obj)
        return f"a{arr.dtype.str}{arr.shape}".encode() + arr.tobytes()
    if isinstance(obj, BaseException):
        return repr(("raise", type(obj).__name__, str(obj))).encode()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        items = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
        return canonical((type(obj).__name__, dict(items)))
    if isinstance(obj, dict):
        return b"{" + b",".join(canonical(k) + b":" + canonical(v) for k, v in obj.items()) + b"}"
    if isinstance(obj, (list, tuple)):
        return b"[" + b",".join(canonical(x) for x in obj) + b"]"
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        data = canonical(out)
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def report_output(report) -> dict:
    """A verify report without its timing fields, with the CLI's exit code."""
    import workloads
    return {"exit": 0 if report.passed else 1, "report": workloads.report_fields(report)}


def run_sh():
    from mtv import verify
    for seed in RUN_SH_SEEDS:
        for k, trials in RUN_SH_SIZES:
            yield report_output(verify.run_suite(verify.SuiteConfig(k=k, trials=trials, seed=seed)))


def verify_k5():
    import workloads
    for seed in range(101, 111):
        wl = workloads.VerifyK5(seed)
        for i in range(32):
            yield report_output(wl.run(i))


def replay_fitting():
    import workloads
    from mtv import verify
    every = len(verify.SUITE_NAMES)
    for seed in (101, 102):
        wl = workloads.VerifyReplayK3(seed)
        for i in range(verify.SUITE_NAMES.index("fitting_orbits"), wl.n_seeds, every):
            yield report_output(wl.run(i))


def engine_mix():
    import workloads
    from mtv.errors import MtvError
    for seed in range(101, 114):
        wl = workloads.EngineMix(seed)
        for kind, pool in wl.inputs.items():
            call = workloads._ENGINE_OPS[workloads.KINDS[kind][2]]
            for inp, _ in pool:
                try:
                    yield call(inp)
                except MtvError as exc:  # typed refusals are outputs too
                    yield exc


SETS = {"run-sh": run_sh, "verify-k5": verify_k5, "replay-fitting": replay_fitting,
        "engine-mix": engine_mix}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT, help="checkout to import src/ and perfbench/ from")
    parser.add_argument("--set", action="append", choices=sorted(SETS), dest="sets")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    for name in args.sets or SETS:
        outputs = list(SETS[name]())
        print(f"{name} {len(outputs)} {digest(outputs)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
