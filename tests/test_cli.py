import json

import numpy as np
import pytest

from mtv.cli import main
from mtv.hilbert import u_to_hilb
from mtv.serialize import jetscheme_to_json, uclass_from_json, uclass_to_json
from mtv.uspace import UClass, glue, u_equivalent
from mtv.verify import (
    sample_centralizer_element,
    sample_group,
    sample_uclass,
    trial_rng,
)
from mtv.slodowy import slice_embed


def matched_pair(k=3):
    rng = trial_rng(17, "cli", 0)
    m1 = sample_uclass(k, 1, 1, rng)
    x = slice_embed(m1.X)
    z = sample_centralizer_element(x, rng)
    h_q = np.linalg.inv(m1.gs[1]) @ z
    m2 = UClass(b=1, bprime=1, gs=(h_q, sample_group(k, rng)), X=m1.X)
    return m1, m2


def test_verify_exit_codes(capsys):
    code = main(["verify", "--k", "2", "--trials", "3", "--seed", "4",
                 "--suite", "axiom_d", "--suite", "polarization"])
    out = capsys.readouterr()
    assert code == 0
    report = json.loads(out.out)
    assert report["pass"] is True
    assert [s["name"] for s in report["suites"]] == ["axiom_d", "polarization"]
    assert "overall: pass" in out.err


def test_verify_default_all(capsys):
    code = main(["verify", "--k", "2", "--trials", "2", "--seed", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(report["suites"]) == 11


def test_verify_rejects_unknown_suite(capsys):
    code = main(["verify", "--suite", "bogus"])
    assert code == 2


def test_verify_rejects_removed_knobs(capsys):
    # --b, --bprime and --tol-alg never took effect in verify; the
    # finite-difference step and tolerance are fixed
    assert main(["verify", "--tol-alg", "1e-10"]) == 2
    assert main(["verify", "--b", "2"]) == 2
    assert main(["verify", "--bprime", "1"]) == 2
    assert main(["verify", "--tol-fd", "1e-4"]) == 2
    assert main(["verify", "--fd-step", "1e-4"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--k", "2", "--trials", "1", "--seed", "-1", "--suite", "axiom_d"],
        ["sample", "--kind", "wpoint", "--seed", "-5"],
        ["sample", "--kind", "wpoint", "--k", "-1"],
    ],
)
def test_invalid_seed_or_size_exit_2(argv):
    assert main(argv) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "wpoint", "--b", "1"],
        ["--kind", "wpoint", "--bprime", "1"],
        ["--kind", "uclass", "--orientation", "in"],
        ["--kind", "jetscheme", "--orientation", "out"],
    ],
)
def test_sample_rejects_flags_its_kind_ignores(argv, capsys):
    assert main(["sample", *argv]) == 2
    assert "does not apply" in capsys.readouterr().err


def test_glue_round_trip(tmp_path, capsys):
    m1, m2 = matched_pair()
    f1 = tmp_path / "m1.json"
    f2 = tmp_path / "m2.json"
    fo = tmp_path / "out.json"
    f1.write_text(json.dumps(uclass_to_json(m1)))
    f2.write_text(json.dumps(uclass_to_json(m2)))
    code = main(["glue", "--in1", str(f1), "--out-index", "1",
                 "--in2", str(f2), "--in-index", "0", "--out", str(fo)])
    assert code == 0
    result = uclass_from_json(json.loads(fo.read_text()))
    assert u_equivalent(result, glue(m1, 1, m2, 0))


def test_glue_mismatch_exit_2(tmp_path, capsys):
    rng = trial_rng(18, "cli", 0)
    m1 = sample_uclass(2, 1, 1, rng)
    m2 = sample_uclass(2, 1, 1, rng)
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    f1.write_text(json.dumps(uclass_to_json(m1)))
    f2.write_text(json.dumps(uclass_to_json(m2)))
    code = main(["glue", "--in1", str(f1), "--out-index", "1",
                 "--in2", str(f2), "--in-index", "0"])
    assert code == 2


def test_hilb_round_trip(tmp_path, capsys):
    code = main(["sample", "--kind", "uclass", "--k", "3", "--b", "1",
                 "--bprime", "1", "--seed", "6", "--out", str(tmp_path / "m.json")])
    assert code == 0
    code = main(["hilb", "from-u", "--in", str(tmp_path / "m.json"),
                 "--out", str(tmp_path / "d.json")])
    assert code == 0
    code = main(["hilb", "to-u", "--in", str(tmp_path / "d.json"),
                 "--out", str(tmp_path / "m2.json")])
    assert code == 0
    m = uclass_from_json(json.loads((tmp_path / "m.json").read_text()))
    m2 = uclass_from_json(json.loads((tmp_path / "m2.json").read_text()))
    assert u_equivalent(m, m2)


def test_sample_deterministic(tmp_path):
    for name in ("x.json", "y.json"):
        assert main(["sample", "--kind", "jetscheme", "--k", "3", "--b", "2",
                     "--bprime", "1", "--seed", "12",
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "x.json").read_text() == (tmp_path / "y.json").read_text()


def test_sample_wpoint(tmp_path):
    for name in ("x.json", "y.json"):
        assert main(["sample", "--kind", "wpoint", "--k", "3", "--orientation", "out",
                     "--seed", "12", "--out", str(tmp_path / name)]) == 0
    text = (tmp_path / "x.json").read_text()
    assert text == (tmp_path / "y.json").read_text()
    data = json.loads(text)
    assert (data["X"]["k"], data["orientation"]) == (3, "out")


def test_verify_at_k_1(capsys):
    # every draw suite degrades to k = 1
    code = main(["verify", "--k", "1", "--trials", "2", "--seed", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["pass"] is True
    assert len(report["suites"]) == 11


def test_bad_input_file(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    assert main(["hilb", "to-u", "--in", str(f)]) == 2


@pytest.mark.parametrize(
    "direction, data",
    [
        ("from-u", {"b": "x", "bprime": 1, "gs": [], "X": {"k": 1, "coeffs": [[0, 0]]}}),
        ("to-u", {"k": 2, "b": 1, "bprime": 0, "pieces": 5}),
        ("to-u", [1, 2]),
        ("from-u", [1, 2]),
        ("to-u", {"k": 1, "b": 1, "bprime": 0,
                  "pieces": [{"z": [0.5, 0], "len": 1, "jets": [[[[float("nan"), 0]]]]}]}),
        ("to-u", {"k": 1, "b": 1.9, "bprime": 0,
                  "pieces": [{"z": [0.5, 0], "len": 1, "jets": [[[[1, 0]]]]}]}),
        ("to-u", {"k": 3, "b": 1, "bprime": 0,
                  "pieces": [{"z": [0.5, 0], "len": 3.2,
                              "jets": [[[[float(i == j), 0] for j in range(3)] for i in range(3)]]}]}),
        # float() would read these halves as 0.5 and 1.0
        ("to-u", {"k": 1, "b": 1, "bprime": 0,
                  "pieces": [{"z": ["0.5", 0], "len": 1, "jets": [[[[1, 0]]]]}]}),
        ("to-u", {"k": 1, "b": 1, "bprime": 0,
                  "pieces": [{"z": [0.5, 0], "len": 1, "jets": [[[[True, 0]]]]}]}),
    ],
)
def test_malformed_json_exit_2(tmp_path, direction, data):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    assert main(["hilb", direction, "--in", str(f)]) == 2


def test_empty_jetscheme_exit_2(tmp_path):
    assert main(["sample", "--kind", "jetscheme", "--k", "0"]) == 2
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"k": 0, "b": 1, "bprime": 0, "pieces": []}))
    assert main(["hilb", "to-u", "--in", str(f)]) == 2


def _huge_entry(data):
    """data with its first matrix or jet entry set to 1 followed by 400 zeros,
    an integer too large for a double."""
    entry = data["gs"][0][0][0] if "gs" in data else data["pieces"][0]["jets"][0][0][0]
    entry[0] = 10**400
    return data


@pytest.mark.parametrize("command", ["from-u", "to-u", "glue"])
def test_number_too_large_for_a_double_exit_2(tmp_path, command):
    m1, m2 = matched_pair()
    f = tmp_path / "bad.json"
    if command == "to-u":
        f.write_text(json.dumps(_huge_entry(jetscheme_to_json(u_to_hilb(m1)))))
        argv = ["hilb", "to-u", "--in", str(f)]
    elif command == "from-u":
        f.write_text(json.dumps(_huge_entry(uclass_to_json(m1))))
        argv = ["hilb", "from-u", "--in", str(f)]
    else:
        f.write_text(json.dumps(_huge_entry(uclass_to_json(m1))))
        f2 = tmp_path / "m2.json"
        f2.write_text(json.dumps(uclass_to_json(m2)))
        argv = ["glue", "--in1", str(f), "--out-index", "1", "--in2", str(f2), "--in-index", "0"]
    assert "1" + "0" * 400 in f.read_text()
    assert main(argv) == 2
