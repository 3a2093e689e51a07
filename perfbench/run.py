"""Benchmark of the mtv engine and verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
One process, one closed-loop client, no extra threads.  Workloads are
described in `perfbench/README.md`; metric names, units and bounds are read
from `BENCHMARK.json` at the root.

With `--trace 0` the run executes ops for S seconds of wall time and reports
the end-to-end metrics.  With `--trace 1` it runs a fixed number of ops
twice, untraced and traced in alternating blocks, and reports the per-layer
metrics; the fixed count makes the `.calls` counts repeat exactly for a seed.

Op and set-up times are CPU seconds, not wall time: the package is
single-threaded and CPU-bound, and on a shared host the wall clock also
counts the time the hypervisor gives the CPU to other guests.  Ops are timed
with the CPU clock of the thread that runs them (`time.thread_time`), set-up
with that of the process.  The reported timings are these CPU seconds scaled
to reference seconds with the host speed that `speed.py` samples during the
run; the raw figures are printed alongside.  Every op's output is checked outside the timed region,
and the last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.
"""
import os

# One BLAS thread for both commits, fixed before numpy is first imported here
# or in a child; the machine's OpenBLAS would otherwise start up to 64.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# No bytecode is written, here or in a child: the run leaves the checkout
# and the installed packages as it found them.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse
import importlib.machinery
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array

sys.dont_write_bytecode = True


class _SourceLoader(importlib.machinery.SourceFileLoader):
    def get_code(self, fullname):
        path = self.get_filename(fullname)
        return compile(self.get_data(path), path, "exec", dont_inherit=True)


class _CompileFromSource:
    """Finds `mtv` and the benchmark's own modules as usual, but always
    compiles them from source.  A `__pycache__` that an earlier test run
    left in the checkout is never read, so set-up time does not depend on
    what ran before; numpy and scipy load as installed."""

    TOP = frozenset({"mtv", "workloads", "tracer", "speed"})

    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name.partition(".")[0] not in cls.TOP:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is not None and isinstance(spec.loader, importlib.machinery.SourceFileLoader):
            spec.loader = _SourceLoader(spec.loader.name, spec.loader.path)
        return spec


sys.meta_path.insert(0, _CompileFromSource)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUPS = 5  # set-up samples per run: this process, then SETUPS - 1 children
SETUP_SPEED_SAMPLES = 20  # host-speed samples taken right after each set-up
TRACE_BLOCKS = 8
WORKLOAD_NAMES = ("verify-k5", "verify-replay-k3", "engine-mix")


class BenchError(Exception):
    """The benchmark cannot run here."""


def setup(workload: str, seed: int):
    """Import the package, warm its per-size caches and build the inputs;
    returns the workload and the CPU seconds this took, raw and in
    reference seconds."""
    t0 = time.process_time()
    if not os.path.isfile(os.path.join(SRC, "mtv", "__init__.py")):
        raise BenchError(f"no package source at {SRC}/mtv")
    sys.path.insert(0, SRC)
    import mtv
    import workloads

    if os.path.dirname(os.path.abspath(mtv.__file__)) != os.path.join(SRC, "mtv"):
        raise BenchError(f"imported mtv from {mtv.__file__}, not from {SRC}")
    workloads.warm_caches()
    wl = workloads.WORKLOADS[workload](seed)
    raw_s = time.process_time() - t0
    from speed import Speedometer  # imports numpy, so only after the clock stops

    speed = Speedometer()
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    return wl, (raw_s, raw_s * speed.scale())


def child_setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE, check=True, timeout=170, text=True,
    )
    raw_s, ref_s = proc.stdout.strip().splitlines()[-1].split()
    return float(raw_s), float(ref_s)


class Outcomes:
    """Checks ops against the first outcome seen for the same input, and
    each first outcome against the workload's correctness check."""

    def __init__(self, wl):
        self.wl = wl
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def _fail(self, n: int, msg: str) -> None:
        self.failed += n
        if len(self.messages) < 20:
            self.messages.append(msg)

    def add(self, i: int, out, unexpected: bool) -> None:
        self.attempted += 1
        if unexpected:
            self._fail(1, f"op {i}: unexpected {out!r}")
            return
        key = self.wl.key(i)
        entry = self.first.get(key)
        if entry is None:
            self.first[key] = [i, out, 1]
        elif self.wl.same(entry[1], out):
            entry[2] += 1
        else:
            self._fail(1, f"op {i}: output differs from op {entry[0]} on the same input")

    def finish(self) -> None:
        for i, out, n in self.first.values():
            msg = self.wl.check(i, out)
            if msg is not None:
                self._fail(n, f"op {i}: {msg}")


def run_ops(wl, outcomes: Outcomes, ops, seconds: float | None = None):
    """Closed loop over the op indices `ops`, stopping early once `seconds`
    of wall time have passed.  Returns the thread CPU clock at each op's
    start and end; outputs are recorded after the clock stops."""
    starts, ends = array("d"), array("d")
    clock = time.thread_time
    deadline = None if seconds is None else time.perf_counter() + seconds
    for i in ops:
        t0 = clock()
        try:
            out, unexpected = wl.run(i), False
        except Exception as exc:  # an op that crashes is a failed op
            out, unexpected = exc, True
        t1 = clock()
        starts.append(t0)
        ends.append(t1)
        outcomes.add(i, out, unexpected)
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return starts, ends


def durations(starts, ends) -> list[float]:
    return [e - s for s, e in zip(starts, ends)]


def percentile_ms(latencies, q: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def end_to_end(wl, seconds: float, setup_s: float, outcomes: Outcomes) -> dict:
    """Op timings in reference seconds; the raw CPU-time figures ride along
    under `raw.` names for the printed lines."""
    from speed import Speedometer

    with Speedometer() as speed:
        spans = run_ops(wl, outcomes, itertools.count(), seconds=seconds)
    outcomes.finish()
    raw, scaled = speed.op_times(*spans)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "fail_ratio": outcomes.failed / outcomes.attempted,
        "ops": len(raw),
        "speed_scale": sum(scaled) / sum(raw),
    }
    for prefix, lat in (("raw.", raw), ("", scaled)):
        out[prefix + "ops_per_s"] = len(lat) / sum(lat)
        out[prefix + "op_p50_ms"] = percentile_ms(lat, 50) if len(lat) > 1 else lat[0] * 1e3
        out[prefix + "op_p99_ms"] = percentile_ms(lat, 99) if len(lat) > 1 else lat[0] * 1e3
    return out


def per_layer(wl, seconds: float, outcomes: Outcomes, declared):
    import workloads
    from tracer import LAYERS, Tracer

    n = max(1, round(seconds * wl.trace_ops_per_second))
    tracer = Tracer()
    untraced, traced = [], []
    # untraced and traced blocks of the same ops alternate, so that host
    # speed drift mostly cancels in the overhead ratio
    blocks = min(n, TRACE_BLOCKS)
    for b in range(blocks):
        ops = range(b * n // blocks, (b + 1) * n // blocks)
        untraced += durations(*run_ops(wl, outcomes, ops))
        tracer.install()
        try:
            traced += durations(*run_ops(wl, outcomes, ops))
        finally:
            tracer.uninstall()
    outcomes.finish()
    per_name, per_size = tracer.aggregate()
    traced_s = sum(traced)
    out = {"trace.overhead_ratio": traced_s / sum(untraced), "ops": n}
    for layer in LAYERS:
        rows = [row for name, row in per_name.items() if name.startswith(layer + ".")]
        out[f"{layer}.calls"] = sum(r[0] for r in rows)
        out[f"{layer}.errors"] = sum(r[1] for r in rows)
        out[f"{layer}.self_s"] = sum(r[2] for r in rows)
        out[f"{layer}.share"] = out[f"{layer}.self_s"] / traced_s
    for name, (calls, _, self_s) in per_name.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_us"] = self_s / calls * 1e6 if calls else 0.0
    attempts = tracer.children_of("verify.sample_jetscheme", "hilbert.JetScheme.init")
    sampled = per_name.get("verify.sample_jetscheme", [0, 0, 0.0])
    out["verify.sample_jetscheme.accept_ratio"] = (
        (sampled[0] - sampled[1]) / attempts if attempts else 0.0)
    out["hilbert.u_to_hilb.refusals"] = per_name.get("hilbert.u_to_hilb", [0, 0, 0.0])[1]
    # per-suite wall seconds as the untraced reports give them
    runs: dict[str, list[float]] = {name: [] for name in workloads.verify.SUITE_NAMES}
    for _, report, _ in outcomes.first.values():
        for suite in getattr(report, "suites", ()):
            runs.setdefault(suite.name, []).append(suite.seconds)
    for name, secs in runs.items():
        out[f"verify.suite.{name}.s"] = statistics.fmean(secs) if secs else 0.0
    missing = [m["name"] for m in declared if m["name"] not in out]
    if missing:  # renamed or removed in the package: never read as 0
        raise BenchError(f"no traced function gives {', '.join(missing)}")
    return out, per_size


def print_kernel_table(per_size) -> None:
    from tracer import SIZED

    print("per-call kernel times from the traced run (inclusive / self, us):",
          file=sys.stderr)
    for name in sorted(SIZED):
        for k in (3, 5):
            calls, self_s, incl_s = per_size.get((name, k), (0, 0.0, 0.0))
            if calls:
                print(f"  {name:34s} k={k} calls={calls:7d} "
                      f"{incl_s / calls * 1e6:10.1f} / {self_s / calls * 1e6:10.1f}",
                      file=sys.stderr)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up; print its raw and reference seconds")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        if args.setup_only:
            print(*setup(args.workload, args.seed)[1])
            return 0
        wl, own_setup = setup(args.workload, args.seed)
        setup_samples = [own_setup] + [child_setup_seconds(args.workload, args.seed)
                                       for _ in range(SETUPS - 1)]
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    outcomes = Outcomes(wl)
    if args.trace:
        declared = spec["per_layer"]
        try:
            values, per_size = per_layer(wl, args.seconds, outcomes, declared)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        values = end_to_end(wl, args.seconds,
                            statistics.median(ref for _, ref in setup_samples), outcomes)
        declared = spec["end_to_end"]

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: {values['ops']} ops, {outcomes.failed} failed")
    if not args.trace:
        print("setup samples (raw / reference s): "
              + ", ".join(f"{raw:.3f} / {ref:.3f}" for raw, ref in setup_samples))
        print(f"speed scale: {values['speed_scale']:.4f}; raw CPU-time ops_per_s "
              f"{values['raw.ops_per_s']:.6g}, op_p50_ms {values['raw.op_p50_ms']:.6g}, "
              f"op_p99_ms {values['raw.op_p99_ms']:.6g}")
        print(f"fail_ratio: {values['fail_ratio']:.6g} ratio "
              f"({outcomes.failed} of {outcomes.attempted} ops)")
    for m in declared:
        print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")
    print("environment: " + json.dumps(environment()))
    if args.trace:
        print_kernel_table(per_size)
    for msg in outcomes.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
