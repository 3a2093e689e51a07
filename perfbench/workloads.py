"""The three workloads: their inputs, their ops and the checks of each op.

Every op is called through a module attribute of the package (for example
`hilbert.hilb_to_u`), so the tracer's patches take effect.  Inputs come from
the workload seed only.  Engine inputs are built here from public
constructors, never from the samplers in `mtv.verify`, so a refactor of the
verifier cannot change the engine workload.
"""
from __future__ import annotations

import dataclasses
import random

import numpy as np
from scipy.linalg import expm

from mtv import errors, hilbert, lie, serialize, slodowy, uspace, verify, wspace

KS = (2, 3, 4, 5)
MAX_PIECE = 3  # longest piece of a generated scheme: roots repeat up to 3 times
TOL = 1e-9


def warm_caches() -> None:
    """Fill the write-once per-size caches (triples, slice bases, trace
    pivots, opposite-slice conjugators) for every size the workloads use."""
    rng = np.random.default_rng(0)
    for k in KS:
        slodowy.principal_triple(k)
        wspace.opposite_slice_conjugator(k)
        slodowy.slice_representative(rng.standard_normal((k, k)) + 0j)


def op_seeds(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(31) for _ in range(n)]


def report_fields(report) -> dict:
    """A verify report without its timing fields."""
    fields = dataclasses.asdict(report)
    for suite in fields["suites"]:
        suite.pop("seconds")
    return fields


# ----------------------------------------------------------------------
# verify workloads


class _Verify:
    """Shared by the verify workloads: one `run_suite` call per op, each at
    its own seed."""

    def __init__(self, seed: int):
        self.seeds = op_seeds(seed, self.n_seeds)

    def key(self, i: int):
        cfg = self.config(i, self.seeds[i % len(self.seeds)])
        return cfg.seed, cfg.suites

    def run(self, i: int):
        return verify.run_suite(self.config(i, self.seeds[i % len(self.seeds)]))

    def check(self, i: int, report) -> str | None:
        names = [s.name for s in report.suites]
        if names != list(self.config(i, 0).suites):
            return f"suites run: {names}"
        failed = [s.name for s in report.suites if not s.passed]
        return f"suites failed: {failed}" if failed else None

    @staticmethod
    def same(a, b) -> bool:
        return report_fields(a) == report_fields(b)


class VerifyK5(_Verify):
    """One op: every suite at k = 5 with 50 trials, as `mtv verify --k 5
    --trials 50`."""

    name = "verify-k5"
    n_seeds = 256
    trace_ops_per_second = 0.1

    def config(self, i: int, seed: int):
        return verify.SuiteConfig(k=5, trials=50, seed=seed)


class VerifyReplayK3(_Verify):
    """One op: one suite, one trial, k = 3; ops cycle through the suites in
    the package's order."""

    name = "verify-replay-k3"
    n_seeds = 4096
    trace_ops_per_second = 30.0

    def config(self, i: int, seed: int):
        suites = verify.SUITE_NAMES
        return verify.SuiteConfig(k=3, trials=1, seed=seed, suites=(suites[i % len(suites)],))


# ----------------------------------------------------------------------
# engine inputs, built from public constructors


def disc(rng, *shape) -> np.ndarray:
    """Uniform samples from the complex unit disc."""
    return np.sqrt(rng.uniform(size=shape)) * np.exp(2j * np.pi * rng.uniform(size=shape))


def group(rng, k: int) -> np.ndarray:
    return expm(0.5 * disc(rng, k, k) / np.sqrt(k))


def slice_point(rng, k: int) -> slodowy.SlicePoint:
    """Coefficients scaled per f-power so the embedded matrix stays O(1)."""
    f = slodowy.principal_triple(k).f
    scales = [1.0 / max(1.0, float(np.max(np.abs(np.linalg.matrix_power(f, j)))))
              for j in range(k)]
    return slodowy.SlicePoint(k=k, coeffs=disc(rng, k) * scales)


def uclass(rng, k: int, b: int, bp: int) -> uspace.UClass:
    x = slice_point(rng, k)
    return uspace.UClass(b=b, bprime=bp, gs=tuple(group(rng, k) for _ in range(b + bp)), X=x)


def centralizer_element(rng, x: np.ndarray) -> np.ndarray:
    """exp of a norm-bounded polynomial in X: invertible and commutes with X."""
    k = x.shape[0]
    c = sum(complex(disc(rng)[()]) * np.linalg.matrix_power(x, j) for j in range(k))
    return expm(0.5 * c / max(1.0, float(np.linalg.norm(c, 2))))


def lengths(rng, k: int) -> list[int]:
    """A random composition of k into parts of at most MAX_PIECE."""
    out = []
    while sum(out) < k:
        out.append(int(rng.integers(1, min(MAX_PIECE, k - sum(out)) + 1)))
    return out


def conditioned_jets(rng, k: int, ls: list[int]) -> list[np.ndarray]:
    """One factor's jets at pieces of lengths `ls`, redrawn until the k x k
    matrix they stack into has a condition number below 10."""
    while True:
        jets = []
        for l in ls:
            jet = disc(rng, l, k)
            jet[0] = jet[0] / max(np.linalg.norm(jet[0]), 1e-3) * rng.uniform(0.5, 1.0)
            jets.append(jet)
        sv = np.linalg.svd(np.concatenate(jets, axis=0).T, compute_uv=False)
        if sv[-1] > 0.1 * sv[0]:
            return jets


def jet_scheme(rng, k: int, b: int, bp: int, zs=None) -> hilbert.JetScheme:
    """A transverse scheme whose per-factor jet matrices are well
    conditioned.  Base points are `zs` with pieces of length 1, or separated
    random points with pieces of random length."""
    ls = lengths(rng, k) if zs is None else [1] * k
    if zs is None:
        base = 1.6 * np.arange(len(ls)) + 0.4 * disc(rng, len(ls))
        base = base - base.mean()
    else:
        base = np.asarray(zs, dtype=complex)
    factors = [conditioned_jets(rng, k, ls) for _ in range(b + bp)]
    pieces = tuple(
        hilbert.LocalPiece(z=complex(z), length=l, jets=tuple(f[i] for f in factors))
        for i, (z, l) in enumerate(zip(base, ls)))
    return hilbert.JetScheme(k=k, b=b, bprime=bp, pieces=pieces)


def scheme_distance(d1, d2) -> float:
    """Largest difference of base points and jets, relative to the size of
    d2: normalization can scale jets far from 1."""
    if [p.length for p in d1.pieces] != [p.length for p in d2.pieces]:
        return float("inf")
    err, scale = 0.0, 1.0
    for p1, p2 in zip(d1.pieces, d2.pieces):
        err = max(err, abs(p1.z - p2.z))
        scale = max(scale, abs(p2.z))
        for j1, j2 in zip(p1.jets, p2.jets):
            err = max(err, float(np.max(np.abs(j1 - j2))))
            scale = max(scale, float(np.max(np.abs(j2))))
    return err / scale


def non_regular(rng, k: int) -> np.ndarray:
    """A diagonalizable matrix with a repeated eigenvalue: its centralizer has
    dimension k + 2, so it is not regular."""
    eig = disc(rng, k)
    eig[1] = eig[0]
    g = group(rng, k)
    return g @ np.diag(eig) @ np.linalg.inv(g)


# ----------------------------------------------------------------------
# engine workload


SIGS = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3))
GLUE_SIGS = (((1, 1), (1, 0)), ((0, 1), (2, 0)), ((1, 2), (1, 1)), ((2, 1), (2, 2)),
             ((1, 1), (3, 1)), ((0, 2), (1, 2)))
FOUR = ((2, 2), (3, 1), (1, 3), (4, 0))

# The mix rule: refusals take a fixed 2% of ops per refusal kind, and the
# seven call kinds share the rest equally.  No traffic data exists to weight
# the calls by, so none is favoured.
REFUSAL_SHARE = 0.02
CALL_SHARE = (1.0 - 3 * REFUSAL_SHARE) / 7

# kind: (share of ops, inputs in the pool, call, expected refusal or None)
KINDS = {
    "hilb_to_u": (CALL_SHARE, 32, "hilb_to_u", None),
    "hilb_from_u": (CALL_SHARE, 32, "hilb_from_u", None),
    "glue": (CALL_SHARE, 32, "glue", None),
    "slice_representative": (CALL_SHARE, 32, "slice_representative", None),
    "u11_from_tstar": (CALL_SHARE, 32, "u11_from_tstar", None),
    "phi_e_class": (CALL_SHARE, 32, "phi_e_class", None),
    "u_symplectic": (CALL_SHARE, 32, "u_symplectic", None),
    "non_regular_slice": (REFUSAL_SHARE, 16, "slice_representative", errors.RegularityError),
    "non_regular_tstar": (REFUSAL_SHARE, 16, "u11_from_tstar", errors.RegularityError),
    "clustered_from_u": (REFUSAL_SHARE, 16, "hilb_from_u", errors.ConditioningError),
}


class EngineMix:
    """A seeded stream of CLI-shaped engine calls on inputs generated
    beforehand: k in 2..5, up to four boundary factors, pieces of length up
    to 3, and a few inputs that must be refused with a typed error."""

    name = "engine-mix"
    trace_ops_per_second = 500.0
    stream_length = 8192

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 0xE6])
        self.inputs = {kind: [self._make(kind, i, rng) for i in range(spec[1])]
                       for kind, spec in KINDS.items()}
        kinds = list(KINDS)
        shares = np.array([KINDS[kind][0] for kind in kinds])
        picks = rng.choice(len(kinds), size=self.stream_length, p=shares / shares.sum())
        self.stream = [(kinds[c], int(rng.integers(0, KINDS[kinds[c]][1]))) for c in picks]

    @staticmethod
    def _make(kind: str, i: int, rng):
        k = KS[i % len(KS)]
        if kind in ("hilb_to_u", "hilb_from_u"):
            d = jet_scheme(rng, k, *SIGS[(i // len(KS)) % len(SIGS)])
            if kind == "hilb_to_u":
                return serialize.jetscheme_to_json(d), d
            return serialize.uclass_to_json(hilbert.hilb_to_u(d)), d
        if kind == "glue":
            sig1, sig2 = GLUE_SIGS[(i // len(KS)) % len(GLUE_SIGS)]
            m1 = uclass(rng, k, *sig1)
            p_out = sig1[0] + int(rng.integers(0, sig1[1]))
            q_in = int(rng.integers(0, sig2[0]))
            z = centralizer_element(rng, m1.X.matrix())
            gs2 = [group(rng, k) for _ in range(sum(sig2))]
            gs2[q_in] = np.linalg.inv(m1.gs[p_out]) @ z
            m2 = uspace.UClass(b=sig2[0], bprime=sig2[1], gs=tuple(gs2), X=m1.X)
            args = (serialize.uclass_to_json(m1), p_out, serialize.uclass_to_json(m2), q_in)
            return args, (sig1[0] + sig2[0] - 1, sig1[1] + sig2[1] - 1)
        if kind == "slice_representative":
            return disc(rng, k, k), None
        if kind == "u11_from_tstar":
            return (group(rng, k), disc(rng, k, k)), None
        if kind == "phi_e_class":
            return uclass(rng, k, *FOUR[(i // len(KS)) % len(FOUR)]), None
        if kind == "u_symplectic":
            m = uclass(rng, k, *FOUR[(i // len(KS)) % len(FOUR)])
            u, v = (uspace.UTangent(a_list=tuple(disc(rng, k, k) for _ in range(4)),
                                    dc=disc(rng, k)) for _ in range(2))
            return (m, u, v), None
        if kind == "non_regular_slice":
            return non_regular(rng, k), None
        if kind == "non_regular_tstar":
            return (group(rng, k), non_regular(rng, k)), None
        # two base points 0.02 apart: a valid scheme whose class has an
        # eigenvalue pair too close for the spectral clustering to resolve
        z0 = complex(disc(rng)[()])
        zs = [z0, z0 + 0.02] + [z0 + 1.5 * (j + 1) for j in range(k - 2)]
        d = jet_scheme(rng, k, 1, 1, zs=zs)
        return serialize.uclass_to_json(hilbert.hilb_to_u(d)), None

    def key(self, i: int):
        return self.stream[i % self.stream_length]

    def run(self, i: int):
        kind, idx = self.stream[i % self.stream_length]
        _, _, call, refusal = KINDS[kind]
        try:
            return _ENGINE_OPS[call](self.inputs[kind][idx][0])
        except errors.MtvError as exc:
            if refusal is None:
                raise
            return exc

    def check(self, i: int, out) -> str | None:
        kind, idx = self.stream[i % self.stream_length]
        inp, aux = self.inputs[kind][idx]
        _, _, call, refusal = KINDS[kind]
        if refusal is not None:
            if isinstance(out, refusal):
                return None
            return f"{kind}: expected {refusal.__name__}, got {out!r}"
        err = _ENGINE_CHECKS[call](inp, aux, out)
        return None if err <= TOL else f"{kind}[{idx}]: residual {err:.3e}"

    @staticmethod
    def same(a, b) -> bool:
        if isinstance(a, BaseException):
            return type(a) is type(b)
        if isinstance(a, slodowy.SlicePoint):
            return np.array_equal(a.coeffs, b.coeffs)
        if isinstance(a, uspace.UClass):
            return (a.b, a.bprime) == (b.b, b.bprime) and np.array_equal(
                a.X.coeffs, b.X.coeffs) and all(map(np.array_equal, a.gs, b.gs))
        return a == b


def _glue(args):
    d1, p_out, d2, q_in = args
    m = uspace.glue(serialize.uclass_from_json(d1), p_out, serialize.uclass_from_json(d2), q_in)
    return serialize.uclass_to_json(m)


_ENGINE_OPS = {
    "hilb_to_u": lambda d: serialize.uclass_to_json(hilbert.hilb_to_u(serialize.jetscheme_from_json(d))),
    "hilb_from_u": lambda m: serialize.jetscheme_to_json(hilbert.u_to_hilb(serialize.uclass_from_json(m))),
    "glue": _glue,
    "slice_representative": lambda x: slodowy.slice_representative(x),
    "u11_from_tstar": lambda gy: uspace.u11_from_tstar(*gy),
    "phi_e_class": lambda m: uspace.phi_e_class(m),
    "u_symplectic": lambda muv: uspace.u_symplectic(*muv),
}


def _rel(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / max(1.0, float(np.max(np.abs(b))))


def _check_to_u(inp, d, out) -> float:
    back = hilbert.u_to_hilb(serialize.uclass_from_json(out))
    return scheme_distance(back, hilbert.normalize_scheme(d))


def _check_from_u(inp, d, out) -> float:
    return scheme_distance(serialize.jetscheme_from_json(out), hilbert.normalize_scheme(d))


def _check_glue(inp, sig, out) -> float:
    m = serialize.uclass_from_json(out)
    if (m.b, m.bprime) != sig:
        return float("inf")
    return uspace.axiom_d_residual(m)


def _check_slice_rep(x, _, s) -> float:
    return _rel(lie.power_traces(s.matrix()), lie.power_traces(x))


def _check_u11(gy, _, m) -> float:
    g, y = gy
    gg, yy = uspace.u11_to_tstar(m)
    return max(_rel(gg, g), _rel(yy, y))


def _check_phi_e(m, _, q) -> float:
    kept = m.gs[: m.b - 1] + m.gs[m.b:]
    if (q.b, q.bprime) != (m.b - 1, m.bprime + 1) or not all(
            map(np.array_equal, q.gs[:-1], kept)):
        return float("inf")
    return max(_rel(q.X.coeffs, m.X.coeffs), uspace.axiom_d_residual(q))


def _check_u_symplectic(muv, _, w) -> float:
    """Antisymmetry, and agreement with the package's independent coding of
    the same form."""
    m, u, v = muv
    scale = max(1.0, abs(w))
    return max(abs(w + uspace.u_symplectic(m, v, u)),
               abs(w - uspace.u_symplectic_single_slice_form(m, u, v))) / scale


_ENGINE_CHECKS = {
    "hilb_to_u": _check_to_u,
    "hilb_from_u": _check_from_u,
    "glue": _check_glue,
    "slice_representative": _check_slice_rep,
    "u11_from_tstar": _check_u11,
    "phi_e_class": _check_phi_e,
    "u_symplectic": _check_u_symplectic,
}

WORKLOADS = {w.name: w for w in (VerifyK5, VerifyReplayK3, EngineMix)}
