import dataclasses

import numpy as np
import pytest

from mtv.errors import ValidationError
from mtv.verify import (
    SUITE_NAMES,
    SuiteConfig,
    WChart,
    fd_exterior_derivative,
    run_suite,
    sample_jetscheme,
    sample_wpoint,
    sample_wtangent,
    trial_rng,
)
from mtv.wspace import INCOMING, w_symplectic


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            SuiteConfig(trials=0)
        with pytest.raises(ValidationError):
            SuiteConfig(suites=())
        with pytest.raises(ValidationError):
            SuiteConfig(suites=("no_such_suite",))


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
    def test_step_underflow(self):
        rng = trial_rng(1, "fd", 0)
        p = sample_wpoint(2, INCOMING, rng)
        chart = WChart(p)
        tans = [sample_wtangent(2, rng) for _ in range(3)]
        with pytest.raises(ValidationError):
            fd_exterior_derivative(w_symplectic, chart, *tans, 1e-9)

    def test_constant_form_closed(self):
        rng = trial_rng(2, "fd", 0)
        p = sample_wpoint(2, INCOMING, rng)
        chart = WChart(p)
        tans = [sample_wtangent(2, rng) for _ in range(3)]

        def const_form(point, u, v):
            # constant coefficients in the (untransported) slice coordinates
            return u.dc[0] * v.dc[1] - u.dc[1] * v.dc[0]

        assert abs(fd_exterior_derivative(const_form, chart, *tans, 1e-4)) < 1e-10

    def test_weighted_pairing_form_not_closed(self):
        # deliberately broken form: the curvature term paired through a
        # non-invariant weight loses closedness
        rng = trial_rng(4, "fd", 0)
        p = sample_wpoint(3, INCOMING, rng)
        chart = WChart(p)
        tans = [sample_wtangent(3, rng) for _ in range(3)]
        weight = np.diag([1.0, 2.0, 3.0]).astype(complex)

        def broken(point, u, v):
            from mtv.slodowy import slice_embed
            from mtv.wspace import slice_direction

            x = slice_embed(point.X)
            dxu = slice_direction(point.X, u.dc)
            dxv = slice_direction(point.X, v.dc)
            comm = u.a @ v.a - v.a @ u.a
            return (
                np.trace(u.a @ dxv)
                - np.trace(v.a @ dxu)
                + np.trace(weight @ x @ comm)
            )

        assert abs(fd_exterior_derivative(broken, chart, *tans, 1e-4)) > 1e-2

    def test_residual_scales_quadratically(self):
        # halving the step cuts passing-suite residuals by about 4
        rng = trial_rng(3, "fd", 0)
        p = sample_wpoint(3, INCOMING, rng)
        chart = WChart(p)
        tans = [sample_wtangent(3, rng) for _ in range(3)]
        r1 = abs(fd_exterior_derivative(w_symplectic, chart, *tans, 2e-4))
        r2 = abs(fd_exterior_derivative(w_symplectic, chart, *tans, 1e-4))
        assert r2 < r1
        assert r1 / r2 == pytest.approx(4.0, rel=0.35)


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
