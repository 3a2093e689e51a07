"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing a pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Every expected value is produced by the randomized suites in mtv.verify,
which carry their own independent oracles (multilinear symmetrization,
finite differences) and negative controls.
"""
from mtv.verify import SuiteConfig, run_suite

SEED = 20260808


def _run(name: str, **cfg_kwargs) -> object:
    cfg = SuiteConfig(seed=SEED, suites=(name,), **cfg_kwargs)
    return run_suite(cfg).suites[0]


def _report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_polarization():
    res = _run("polarization", k=5, trials=100)
    identity = res.details["identity_residual"]
    bracket = res.details["bracket_residual"]
    ok = identity < 1e-9 and bracket < 1e-10 and res.negative_residual > 1e-9
    _report(
        "polarization",
        ok,
        f"defining identity {identity:.2e} < 1e-9, "
        f"gradient commutator {bracket:.2e} < 1e-10 "
        f"(negative control {res.negative_residual:.2e})",
    )


def test_criterion_02_hamiltonian_w():
    res = _run("hamiltonian_w", k=4, trials=100)
    ok = res.max_residual < 1e-5 and res.negative_residual > 1e-2
    _report(
        "hamiltonian_w",
        ok,
        f"moment-condition residual {res.max_residual:.2e} < 1e-5 at step 1e-4, "
        f"negative control {res.negative_residual:.2e} > 1e-2",
    )


def test_criterion_03_closedness():
    res = _run("closedness", k=3, trials=50)
    ok = (
        res.details["w"] < 1e-4
        and res.details["u"] < 1e-4
        and res.details["f"] < 1e-4
    )
    _report(
        "closedness",
        ok,
        "exterior-derivative residuals "
        f"w={res.details['w']:.2e}, u={res.details['u']:.2e}, "
        f"f={res.details['f']:.2e} all < 1e-4",
    )


def test_criterion_04_form_identity():
    res = _run("form_identity", k=4, trials=100)
    ok = res.max_residual < 1e-10
    _report(
        "form_identity",
        ok,
        f"quotient-form codings {res.details['u_two_codings']:.2e}, "
        f"building-block codings {res.details['w_two_codings']:.2e}, "
        f"recorded wedge-discrepancy identity "
        f"{res.details['literal_discrepancy_identity']:.2e}, all < 1e-10",
    )


def test_criterion_05_axiom_d():
    res = _run("axiom_d", k=5, trials=200)
    ok = res.max_residual < 1e-10
    _report(
        "axiom_d",
        ok,
        f"invariant-spread residual {res.max_residual:.2e} < 1e-10 "
        f"over 200 classes with up to four boundary factors",
    )


def test_criterion_06_gluing():
    res = _run("gluing", k=4, trials=50)
    ok = res.passed
    _report(
        "gluing",
        ok,
        f"signatures correct; re-gauging/redistribution equivalence residual "
        f"{res.max_residual:.2e} < 1e-9; cylinder composition reproduced; "
        f"mismatch rejected (control {res.negative_residual:.1f})",
    )


def test_criterion_07_theorem_2_4_i():
    res = _run("theorem_2_4_i", k=4, trials=50)
    ok = res.passed
    _report(
        "theorem_2_4_i",
        ok,
        f"class-invariance/round-trip residual {res.max_residual:.2e} < 1e-9, "
        f"pairwise image separation {res.details['min_pair_separation']:.2e}, "
        f"images regular",
    )


def test_criterion_08_axiom_e():
    res = _run("axiom_e", k=4, trials=50)
    ok = res.max_residual < 1e-10 and res.negative_residual > 1e-2
    _report(
        "axiom_e",
        ok,
        f"anti-equivariance residual {res.max_residual:.2e} < 1e-10 "
        f"(conjugated involution; plain transpose control "
        f"{res.negative_residual:.2e}); conjugated opposite-slice basis "
        f"stays in the slice",
    )


def test_criterion_09_hilbert_round_trip():
    res = _run("hilbert_round_trip", k=4, trials=50)
    ok = res.max_residual < 1e-9
    _report(
        "hilbert_round_trip",
        ok,
        f"round-trip and equivariance residual {res.max_residual:.2e} < 1e-9 "
        f"over 50 schemes, k <= 4, up to three boundary factors",
    )


def test_criterion_10_fitting_orbits():
    res = _run("fitting_orbits", k=3, trials=1)
    ok = res.details["mispredictions"] == 0 and res.negative_residual > 1.0
    _report(
        "fitting_orbits",
        ok,
        f"orbit bijection exact on the Jordan enumeration for k <= 3 "
        f"({int(res.details['mispredictions'])} mispredictions); presymplectic "
        f"kernel trivial on split nondegenerate data and nontrivial on "
        f"colliding locally-nondegenerate data",
    )


def test_criterion_11_free_action():
    res = _run("free_action", k=4, trials=25)
    ok = res.passed and res.max_residual == 0
    _report(
        "free_action",
        ok,
        f"the action is free because every factor is invertible: {res.max_residual:.0f} "
        f"of 25 classes over the 14 signatures took a singular first factor",
    )
