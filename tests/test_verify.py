import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet

from mtv import slodowy, uspace, verify
from mtv.cli import main
from mtv.errors import DimensionMismatchError, ValidationError
from mtv.hilbert import FTangent, f_presymplectic
from mtv.lie import as_matrix, pairing
from mtv.slodowy import slice_embed
from mtv.verify import (
    SUITE_NAMES,
    FChart,
    SuiteConfig,
    UChart,
    fd_exterior_derivative,
    fd_moment_conditions,
    jordan_configurations,
    run_suite,
    sample_disc,
    sample_jetscheme,
    sample_uclass,
    sample_utangent,
    sample_wpoint,
    symmetrized_form_value,
    trial_rng,
)
from mtv.uspace import UClass, u_build, u_symplectic
from mtv.wspace import INCOMING, WPoint

from conftest import one


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            SuiteConfig(trials=0)
        with pytest.raises(ValidationError):
            SuiteConfig(suites=())
        with pytest.raises(ValidationError):
            SuiteConfig(suites=("no_such_suite",))
        # k, trials and seed must be ints: bools and floats are refused,
        # never truncated or run as 1
        for field in ("k", "trials", "seed"):
            for bad in (2.5, 1.5, True, False, "3", None):
                with pytest.raises(ValidationError):
                    SuiteConfig(**{field: bad})

    def test_numpy_integers_become_ints(self):
        cfg = SuiteConfig(k=np.int64(2), trials=np.int32(3), seed=np.uint8(7))
        assert (cfg.k, cfg.trials, cfg.seed) == (2, 3, 7)
        assert all(type(v) is int for v in (cfg.k, cfg.trials, cfg.seed))


class TestSampling:
    def test_deterministic_wpoint(self):
        rng1 = trial_rng(5, "s", 0)
        rng2 = trial_rng(5, "s", 0)
        p1 = sample_wpoint(3, INCOMING, rng1)
        p2 = sample_wpoint(3, INCOMING, rng2)
        np.testing.assert_array_equal(p1.g, p2.g)
        np.testing.assert_array_equal(p1.X.coeffs, p2.X.coeffs)

    def test_different_trials_differ(self):
        p1 = sample_wpoint(3, INCOMING, trial_rng(5, "s", 0))
        p2 = sample_wpoint(3, INCOMING, trial_rng(5, "s", 1))
        assert np.max(np.abs(p1.g - p2.g)) > 1e-6

    def test_sampled_slice_point_regular(self):
        from mtv.lie import is_regular
        from mtv.slodowy import slice_embed

        for k in (2, 3, 4, 5):
            p = sample_wpoint(k, INCOMING, trial_rng(1, "reg", k))
            assert is_regular(slice_embed(p.X))

    def test_sampled_group_invertible(self):
        for k in (2, 3, 4, 5):
            p = sample_wpoint(k, INCOMING, trial_rng(2, "inv", k))
            assert abs(np.linalg.det(p.g)) > 1e-6

    def test_sampled_scheme_nondegenerate(self):
        from mtv.hilbert import nondegenerate

        d = sample_jetscheme(4, 2, 1, trial_rng(3, "nd", 0))
        assert nondegenerate(d)


class TestFiniteDifferences:
    def test_constant_form_closed(self):
        rng = trial_rng(2, "fd", 0)
        m = u_build([sample_wpoint(2, INCOMING, rng)])
        chart = UChart(one(m))
        tans = one([sample_utangent(m.X.k, m.n_factors, rng) for _ in range(3)])

        def const_form(point, u, v):
            # constant coefficients in the (untransported) slice coordinates,
            # one value per point of the stack
            return u.dc[..., 0] * v.dc[..., 1] - u.dc[..., 1] * v.dc[..., 0]

        assert abs(fd_exterior_derivative(const_form, chart, *tans)[0]) < 1e-10

    def test_weighted_pairing_form_not_closed(self):
        # deliberately broken form: the curvature term paired through a
        # non-invariant weight loses closedness
        rng = trial_rng(4, "fd", 0)
        m = u_build([sample_wpoint(3, INCOMING, rng)])
        chart = UChart(one(m))
        tans = one([sample_utangent(m.X.k, m.n_factors, rng) for _ in range(3)])
        weight = np.diag([1.0, 2.0, 3.0]).astype(complex)

        def broken(point, u, v):
            from mtv.slodowy import slice_embed
            from mtv.wspace import slice_direction

            x = slice_embed(point.X)
            dxu = slice_direction(point.X, u.dc)
            dxv = slice_direction(point.X, v.dc)
            (au,), (av,) = u.a_list, v.a_list
            comm = au @ av - av @ au

            def tr(m):  # one trace per point of the stack
                return np.trace(m, axis1=-2, axis2=-1)

            return tr(au @ dxv) - tr(av @ dxu) + tr(weight @ x @ comm)

        assert abs(fd_exterior_derivative(broken, chart, *tans)[0]) > 1e-2

    def test_residual_scales_quadratically(self, monkeypatch):
        # halving the step cuts passing-suite residuals by about 4
        rng = trial_rng(3, "fd", 0)
        m = u_build([sample_wpoint(3, INCOMING, rng)])
        chart = UChart(one(m))
        tans = one([sample_utangent(m.X.k, m.n_factors, rng) for _ in range(3)])
        monkeypatch.setattr(verify, "FD_STEP", 2e-4)
        r1 = abs(fd_exterior_derivative(u_symplectic, chart, *tans)[0])
        monkeypatch.setattr(verify, "FD_STEP", 1e-4)
        r2 = abs(fd_exterior_derivative(u_symplectic, chart, *tans)[0])
        assert r2 < r1
        assert r1 / r2 == pytest.approx(4.0, rel=0.35)

    @pytest.mark.parametrize("i", [0, 1], ids=["incoming", "outgoing"])
    def test_moment_conditions_scale_quadratically(self, i, monkeypatch):
        # halving the step cuts the group and the abelian residual by about 4
        rng = trial_rng(3, "fd-moment", i)
        m = one(sample_uclass(3, 1, 1, rng))
        v, xi = one(sample_utangent(3, 2, rng)), one(sample_disc(rng, 3, 3))
        residuals = []
        for step in (2e-4, 1e-4):
            monkeypatch.setattr(verify, "FD_STEP", step)
            (lhs, dmu), (lhs_a, dp) = fd_moment_conditions(m, i, v, xi=xi, degree=[3])
            residuals.append((abs(lhs[0] - pairing(dmu, xi)[0]), abs(lhs_a[0] - dp[0])))
        for r1, r2 in zip(*residuals):
            assert r1 / r2 == pytest.approx(4.0, rel=0.35)


def _symmetrized_by_permutations(x, y, degree):
    """p(X, ..., X, Y) as the plain average of trace products over all m!
    argument orders."""
    args = [x] * (degree - 1) + [y]
    perms = list(itertools.permutations(range(degree)))
    total = 0.0 + 0.0j
    for perm in perms:
        prod = np.eye(x.shape[0], dtype=complex)
        for idx in perm:
            prod = prod @ args[idx]
        total += np.trace(prod)
    return total / len(perms)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_symmetrization_matches_permutation_sum(k):
    rng = trial_rng(7, "symmetrization", k)
    x = sample_disc(rng, k, k)
    y = sample_disc(rng, k, k)
    for m in range(1, k + 1):
        ref = _symmetrized_by_permutations(x, y, m)
        assert abs(symmetrized_form_value(x, y, m) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize(
    "x, y", [(np.eye(2), np.eye(3)), (np.eye(3), np.ones((4, 3, 2)))], ids=["matrix", "stack"]
)
def test_symmetrization_refuses_size_mismatch(x, y):
    with pytest.raises(DimensionMismatchError):
        symmetrized_form_value(x, y, 2)


@pytest.mark.parametrize("left", [False, True], ids=["right", "left"])
@pytest.mark.parametrize("norm", [1e-4, 1.0])
def test_exp_transport_matches_frechet(norm, left):
    # e^s and e^(-s) L(s, a) (right chart) or L(s, a) e^(-s) (left chart)
    rng = trial_rng(8, "transport", int(left))
    for k in (1, 2, 3, 5):
        s = sample_disc(rng, k, k)
        s *= norm / np.linalg.norm(s, 2)
        dirs = (sample_disc(rng, k, k), sample_disc(rng, k, k))
        es, moved = verify._exp_transport(s, dirs, left=left)
        assert np.max(np.abs(es - expm(s))) < 1e-13
        for a, t in zip(dirs, moved):
            frechet = expm_frechet(s, a, compute_expm=False)
            ref = frechet @ expm(-s) if left else expm(-s) @ frechet
            assert np.max(np.abs(t - ref)) < 1e-13


def test_suite_names_keep_their_order():
    # the benchmark's op cycling and the replay-fitting set index this tuple
    assert SUITE_NAMES == (
        "polarization", "hamiltonian_w", "closedness", "form_identity", "axiom_d", "gluing",
        "theorem_2_4_i", "axiom_e", "hilbert_round_trip", "fitting_orbits", "free_action")


def test_jordan_types_are_counted_by_a001970():
    assert [len(jordan_configurations(k)) for k in range(1, 6)] == [1, 3, 6, 14, 27]


# The Jordan types that fitting_orbits listed by hand before they were
# generated, as (base point index, block length) per block.
_LISTED_JORDAN_TYPES = {
    2: (((0, 1), (1, 1)), ((0, 2),), ((0, 1), (0, 1))),
    3: (((0, 1), (1, 1), (2, 1)), ((0, 2), (1, 1)), ((0, 3),), ((0, 1), (0, 1), (1, 1)),
        ((0, 2), (0, 1)), ((0, 1), (0, 1), (0, 1))),
}


@pytest.mark.parametrize("k", sorted(_LISTED_JORDAN_TYPES))
def test_generated_jordan_types_match_the_listed_ones(k):
    # each type as the multiset of block lengths per eigenvalue
    def per_eigenvalue(blocks):
        lengths = {}
        for z, l in blocks:
            lengths.setdefault(z, []).append(l)
        return tuple(sorted(tuple(sorted(ls, reverse=True)) for ls in lengths.values()))

    generated = Counter(tuple(sorted(c)) for c in jordan_configurations(k))
    assert generated == Counter(map(per_eigenvalue, _LISTED_JORDAN_TYPES[k]))


@pytest.mark.parametrize("fold", ["max", "min", "sum"])
def test_nan_residual_makes_its_part_nan(fold, monkeypatch):
    # Python's max and min keep their other argument against a NaN; the
    # runner must not, wherever the NaN comes in the case order
    for values in ([1.0, math.nan, 2.0], [math.nan, 1.0, 2.0], [2.0, 1.0, math.nan]):
        suite = verify._Suite(lambda k, rngs, cases: [[("", 0.0), ("part", v)] for v in values],
                              lambda rng: 1.0, 10.0, 0.0,
                              parts=(("", "max", None), ("part", fold, 0.5)))
        monkeypatch.setitem(verify._SUITES, "axiom_d", suite)
        res = run_suite(SuiteConfig(k=2, trials=3, seed=1, suites=("axiom_d",))).suites[0]
        assert math.isnan(res.details["part"]) and not res.passed, values
        assert math.isnan(res.max_residual) == (fold != "min")


def _nan_per_class(m, *_):
    """NaN for each class of a stack, as a residual of one class or a stack of them."""
    return np.full(np.shape(m.gs[0])[:-2], np.nan)[()]


@pytest.mark.parametrize("routine, names", [
    ("axiom_d_residual", ("axiom_d",)),
    ("u_equivalence_residual", ("theorem_2_4_i", "gluing")),
], ids=["axiom_d_residual", "u_equivalence_residual"])
def test_nan_residual_fails_its_suite(routine, names, monkeypatch):
    # the report reads NaN, the suite fails and `mtv verify` exits 1
    monkeypatch.setattr(verify, routine, _nan_per_class)
    for res in run_suite(SuiteConfig(k=3, trials=6, seed=1, suites=names)).suites:
        assert math.isnan(res.max_residual) and not res.passed, res.name
    argv = ["verify", "--suite", names[0], "--k", "3", "--trials", "6", "--seed", "1"]
    assert main(argv) == 1


class TestRunSuite:
    def test_all_suites_pass_smoke(self):
        cfg = SuiteConfig(k=3, trials=5, seed=11)
        report = run_suite(cfg)
        assert report.passed
        assert [s.name for s in report.suites] == list(SUITE_NAMES)

    def test_deterministic_reports(self):
        cfg = SuiteConfig(k=3, trials=4, seed=9)
        r1, r2 = run_suite(cfg), run_suite(cfg)
        fields = [dataclasses.asdict(r) for r in (r1, r2)]
        for report in fields:
            for s in report["suites"]:
                s.pop("seconds")
        assert [s["name"] for s in fields[0]["suites"]] == list(SUITE_NAMES)
        assert fields[0] == fields[1]

    def test_hilbert_round_trip_relative_jet_error(self):
        # trial 16 at this seed normalizes jets to ~2.4e5, where a relative
        # error of 2.5e-14 is 6e-9 in absolute terms
        cfg = SuiteConfig(k=5, trials=17, seed=1370273968, suites=("hilbert_round_trip",))
        res = run_suite(cfg).suites[0]
        assert res.passed
        assert res.max_residual < 1e-9

    @pytest.mark.parametrize("seed, trials", [(590150768, 23), (199741200, 11)])
    def test_hilbert_round_trip_relative_product_error(self, seed, trials):
        # the last trial has signature (2,1) and one piece of length k (4, 3);
        # its normalized jets make the outgoing factor ratio u_i reach 8.6e6
        # (3.6e6), where |prod u_i - 1| read absolutely is 8.7e-9 (1.1e-9) of
        # roundoff
        cfg = SuiteConfig(k=5, trials=trials, seed=seed, suites=("hilbert_round_trip",))
        res = run_suite(cfg).suites[0]
        assert res.passed
        assert res.max_residual < 1e-9

    def test_single_suite_selection(self):
        cfg = SuiteConfig(k=3, trials=3, seed=1, suites=("polarization",))
        report = run_suite(cfg)
        assert len(report.suites) == 1
        assert report.suites[0].name == "polarization"

    def test_negative_controls_present(self):
        cfg = SuiteConfig(k=3, trials=3, seed=2)
        report = run_suite(cfg)
        for s in report.suites:
            assert s.negative_residual > s.tolerance


# Each negative control must run the routine its suite checks: with that
# routine stubbed out, the control must stop exceeding its threshold.
@pytest.mark.parametrize(
    "name, routine, stub",
    [
        ("axiom_d", "_invariant_spread", lambda moments: 0.0),
        ("theorem_2_4_i", "u11_to_tstar", lambda m: (np.eye(m.X.k), slice_embed(m.X))),
        ("free_action", "_accepts_first_factor", lambda m, g: 0.0),
    ],
    ids=["axiom_d", "theorem_2_4_i", "free_action"],
)
def test_negative_control_runs_guarded_routine(name, routine, stub, monkeypatch):
    suite = verify._SUITES[name]
    assert suite.negative(trial_rng(2, f"{name}-neg", 0)) > suite.neg_threshold
    monkeypatch.setattr(verify, routine, stub)
    assert suite.negative(trial_rng(2, f"{name}-neg", 0)) < suite.neg_threshold


def test_free_action_fails_without_singular_refusal(monkeypatch):
    # with the determinant check gone, a class takes a singular first factor
    monkeypatch.setattr(uspace, "_group_element", as_matrix)
    res = run_suite(SuiteConfig(k=3, trials=3, seed=1, suites=("free_action",))).suites[0]
    assert res.max_residual == 1.0 and not res.passed


def _jet_noise():
    """An action on jets that ignores its group elements and adds noise to every jet."""
    noise = np.random.default_rng(0)
    return lambda d, gs: dataclasses.replace(d, pieces=tuple(
        dataclasses.replace(p, jets=tuple(j + noise.standard_normal(j.shape) for j in p.jets))
        for p in d.pieces))


def test_jet_noise_in_the_action_fails_both_scheme_suites(monkeypatch):
    # fitting_orbits' equivariance parts see it, and hilbert_round_trip on
    # every scheme
    monkeypatch.setattr(verify, "act_on_scheme", _jet_noise())
    cfg = SuiteConfig(k=3, trials=5, seed=1, suites=("fitting_orbits", "hilbert_round_trip"))
    for res in run_suite(cfg).suites:
        assert res.max_residual > res.tolerance and not res.passed, res.name


def test_jet_noise_in_the_action_is_counted_on_every_jordan_type(monkeypatch):
    # the action's own definition, G(g0 . d) = g0 G(d) on the first factor,
    # counts each of the 3 + 6 Jordan types at k = 2, 3; the moment's
    # equivariance counts all but the one type per size whose moment is z I
    # whatever the jets, ((1, 1),) and ((1, 1, 1),)
    monkeypatch.setattr(verify, "act_on_scheme", _jet_noise())
    suite = verify._SUITES["fitting_orbits"]
    counts = [suite.check(k, [trial_rng(1, "fitting_orbits", k)], [k])[0] for k in suite.sizes]
    assert counts == [[("mispredictions", 3 + 2)], [("mispredictions", 6 + 5)]]


def test_non_regular_image_fails_theorem_2_4_i(monkeypatch, capsys):
    # an image that the inverse cannot take fails its case with residual 1.0:
    # the suite reports it, and `mtv verify` exits 1, not 2 (the bad-input code)
    def never(x):
        return np.zeros(np.shape(x)[:-2], dtype=bool)

    monkeypatch.setattr(verify, "is_regular", never)
    monkeypatch.setattr(slodowy, "is_regular", never)
    res = run_suite(SuiteConfig(k=3, trials=5, seed=1, suites=("theorem_2_4_i",))).suites[0]
    assert res.max_residual == 1.0 and not res.passed
    argv = ["verify", "--suite", "theorem_2_4_i", "--k", "3", "--trials", "5", "--seed", "1"]
    assert main(argv) == 1


# The suites whose check draws every case of a group as one stack (gluing then
# evaluates case by case).
_STACKED_SUITES = ("polarization", "hamiltonian_w", "closedness", "form_identity", "gluing",
                   "theorem_2_4_i", "axiom_e")


def _streams(name, trials):
    """The streams and the trial indices of a group, the two last arguments of a check."""
    return [trial_rng(9, name, t) for t in trials], list(trials)


def _bytes(values):
    return np.array(values, dtype=complex).tobytes()


def test_stacked_checks_build_once_per_key_and_evaluation(monkeypatch):
    # a W check or its negative control builds each key's class or point once
    # from the stacked draws, and a chart-displaced class once per evaluation:
    # no construction holds a single member
    built = []
    for cls in (UClass, WPoint):
        def counted(self, init=cls.__post_init__):
            built.append(np.ndim(self.gs[0] if isinstance(self, UClass) else self.g))
            init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    # the bounds are keys times constructions per key.  hamiltonian_w: 2 W
    # signatures, each built and moved along its tangent; closedness: 2 W and
    # 4 class signatures, each built and displaced by the chart; form_identity:
    # 2 W points and 6 class signatures, each built once.  A negative control
    # has one key: hamiltonian_w's class built and moved, closedness' built,
    # displaced and read as a W point, form_identity's one W point.
    checks = {"hamiltonian_w": (2 * 2, 2), "closedness": ((2 + 4) * 2, 3),
              "form_identity": (2 + 6, 1)}
    for name, (in_check, in_negative) in checks.items():
        suite = verify._SUITES[name]
        for run, bound in ((lambda: suite.check(3, *_streams(name, range(24))), in_check),
                           (lambda: suite.negative(trial_rng(9, f"{name}-neg", 0)), in_negative)):
            built.clear()
            run()
            assert 0 < len(built) <= bound and set(built) == {3}, (name, built)


def test_partly_regular_group_matches_groups_of_one(monkeypatch):
    # a group whose images are regular in part: the regular cases keep their
    # residuals and the others report 1.0, each as in a group of one
    regular = verify.is_regular

    def some(x):
        return regular(x) & (np.trace(x, axis1=-2, axis2=-1).real > 0)

    monkeypatch.setattr(verify, "is_regular", some)
    monkeypatch.setattr(slodowy, "is_regular", some)
    check = verify._SUITES["theorem_2_4_i"].check
    alone = [check(3, *_streams("theorem_2_4_i", [t]))[0] for t in range(24)]
    assert check(3, *_streams("theorem_2_4_i", range(24))) == alone
    assert 0 < sum(pairs[2] == ("", 1.0) for pairs in alone) < 24


@pytest.mark.parametrize("k", range(1, 6))
def test_grouped_cases_match_groups_of_one(k):
    # every stacked suite: a group of n cases of size k gives, value for
    # value, the residuals of n groups of one, each drawn from its own stream
    for name in _STACKED_SUITES:
        check = verify._SUITES[name].check
        alone = [check(k, *_streams(name, [t]))[0] for t in range(24)]
        assert check(k, *_streams(name, range(24))) == alone
    # the stacked routines against one call per class, at every signature
    # (every factor for the moment conditions) and every piece pattern
    rng = trial_rng(9, "stacked-fd", k)
    for b, bp in verify._SIGNATURES:
        ms = [sample_uclass(k, b, bp, rng) for _ in range(3)]
        tans = [[sample_utangent(m.X.k, m.n_factors, rng) for _ in range(3)] for m in ms]
        stacked = fd_exterior_derivative(
            u_symplectic, UChart(verify._stack(ms)), *verify._stack(tans))
        alone = [fd_exterior_derivative(u_symplectic, UChart(one(m)), *one(t))[0]
                 for m, t in zip(ms, tans)]
        assert _bytes(stacked) == _bytes(alone)
        for i in range(b + bp):
            xis = [sample_disc(rng, k, k) for _ in ms]
            degrees = [int(rng.integers(1, k + 1)) for _ in ms]
            stacked = fd_moment_conditions(verify._stack(ms), i, verify._stack([t[0] for t in tans]),
                                           xi=np.stack(xis), degree=degrees)
            for j, m in enumerate(ms):
                alone = fd_moment_conditions(one(m), i, one(tans[j][0]), xi=one(xis[j]),
                                             degree=[degrees[j]])
                for (lhs, d), (lhs_j, d_j) in zip(stacked, alone):
                    assert _bytes(lhs[j]) == _bytes(lhs_j[0]) and _bytes(d[j]) == _bytes(d_j[0])
    for cuts in itertools.product((False, True), repeat=k - 1):
        ends = [i + 1 for i, cut in enumerate(cuts) if cut] + [k]
        lengths = [e - s for s, e in zip([0] + ends[:-1], ends)]
        ds = [sample_jetscheme(k, 1, 0, rng, lengths=lengths) for _ in range(3)]
        tans = [[FTangent(rho=sample_disc(rng, k, k), dz=sample_disc(rng, len(lengths)))
                 for _ in range(3)] for _ in ds]
        stacked = fd_exterior_derivative(
            f_presymplectic, FChart(verify._stack(ds)), *verify._stack(tans))
        alone = [fd_exterior_derivative(f_presymplectic, FChart(one(d)), *one(t))[0]
                 for d, t in zip(ds, tans)]
        assert _bytes(stacked) == _bytes(alone)
