"""End-to-end command-line tests driven through ``cli.main``."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gatebounds
from gatebounds import channels, cli, diamond, sdp


def mat(m):
    a = np.asarray(m, dtype=np.complex128)
    return [[[float(e.real), float(e.imag)] for e in row] for row in a]


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def kraus_file(tmp_path, name, dim, mats):
    return write_json(tmp_path, name, {"dim": dim, "kind": "kraus", "kraus": [mat(m) for m in mats]})


def named_file(tmp_path, name, dim, channel_name, params):
    return write_json(
        tmp_path,
        name,
        {"dim": dim, "kind": "named", "named": {"name": channel_name, "params": params}},
    )


X = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_analyze_bit_flip_json_report(tmp_path, capsys):
    path = kraus_file(tmp_path, "x.json", 2, [X])
    assert cli.main(["analyze", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data) == [
        "dim",
        "fidelity",
        "inverse_infidelity",
        "pauli_lower",
        "generic_upper",
        "inverse_upper_rate",
        "error_rate",
        "inverse_error_rate",
        "pauli_distance",
        "refined_interval",
        "nontrivial",
    ]
    assert data["dim"] == 2
    assert data["fidelity"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert list(data["error_rate"]) == ["value", "lower_certificate", "upper_certificate", "method"]
    assert data["error_rate"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert data["error_rate"]["method"] == "unitary_closed_form"
    assert data["pauli_distance"] == pytest.approx(0.0, abs=1e-9)
    assert data["refined_interval"] == pytest.approx([1.0, 1.0], abs=1e-9)
    assert data["nontrivial"] is False


def test_analyze_choi_matches_kraus(tmp_path, capsys):
    ch = channels.amplitude_damping(0.35)
    kpath = kraus_file(tmp_path, "k.json", 2, ch.kraus)
    cpath = write_json(tmp_path, "c.json", {"dim": 2, "kind": "choi", "choi": mat(ch.choi)})
    flags = ["--json", "--no-compute-eta", "--no-compute-delta"]
    assert cli.main(["analyze", kpath] + flags) == 0
    from_kraus = json.loads(capsys.readouterr().out)
    assert cli.main(["analyze", cpath] + flags) == 0
    from_choi = json.loads(capsys.readouterr().out)
    assert from_kraus["fidelity"] == pytest.approx(from_choi["fidelity"], abs=1e-9)
    assert "error_rate" not in from_kraus
    assert "pauli_distance" not in from_kraus
    assert list(from_kraus) == [
        "dim",
        "fidelity",
        "inverse_infidelity",
        "pauli_lower",
        "generic_upper",
        "inverse_upper_rate",
        "nontrivial",
    ]


def test_analyze_named_depolarizing(tmp_path, capsys):
    path = named_file(tmp_path, "dep.json", 2, "depolarizing", {"r": 0.2})
    assert cli.main(["analyze", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fidelity"] == pytest.approx(0.9, abs=1e-12)
    assert data["error_rate"]["value"] == pytest.approx(0.15, abs=1e-9)
    assert data["error_rate"]["method"] == "pauli_closed_form"


def test_analyze_exits_2_on_unconverged_solve(tmp_path, capsys, monkeypatch):
    diamond._ensure_calibrated()
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
    path = named_file(tmp_path, "ad.json", 2, "amplitude_damping", {"r": 0.1})
    assert cli.main(["analyze", path]) == 2
    assert "unconverged" in capsys.readouterr().err


def test_analyze_named_unitary_error(tmp_path, capsys):
    path = named_file(tmp_path, "rot.json", 2, "unitary_error", {"theta": 0.3})
    assert cli.main(["analyze", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fidelity"] == pytest.approx(1.0 / 3.0 + (2.0 / 3.0) * math.cos(0.3) ** 2, abs=1e-12)
    assert data["error_rate"]["value"] == pytest.approx(math.sin(0.3), abs=1e-9)


def test_analyze_named_cphase_dim_three(tmp_path, capsys):
    path = named_file(tmp_path, "cp.json", 3, "generalized_cphase", {"theta": 0.4})
    assert cli.main(["analyze", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fidelity"] == pytest.approx(1.0 - (1.0 - math.cos(0.4)) / 3.0, abs=1e-12)
    assert data["error_rate"]["value"] == pytest.approx(math.sin(0.2), abs=1e-9)
    # dim 3 is not a qubit register, so the Pauli refinement stays off
    assert "pauli_distance" not in data


def test_analyze_lambda_mixture_uses_implied_ideal(tmp_path, capsys):
    path = named_file(tmp_path, "mix.json", 4, "lambda_mixture", {"lambda": 0.1})
    flags = ["--json", "--no-compute-eta", "--no-compute-delta"]
    assert cli.main(["analyze", path] + flags) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fidelity"] == pytest.approx(0.94, abs=1e-12)


def test_analyze_explicit_ideal_overrides_implied(tmp_path, capsys):
    path = named_file(tmp_path, "mix.json", 4, "lambda_mixture", {"lambda": 0.1})
    ideal = write_json(tmp_path, "eye.json", {"dim": 4, "unitary": mat(np.eye(4))})
    flags = ["--json", "--no-compute-eta", "--no-compute-delta"]
    assert cli.main(["analyze", path, ideal] + flags) == 0
    data = json.loads(capsys.readouterr().out)
    # against the identity instead: 0.9 * phi(phase gate) + 0.1 * 1
    assert data["fidelity"] == pytest.approx(0.46, abs=1e-12)


def test_analyze_matching_ideal_gives_perfect_report(tmp_path, capsys):
    u = np.diag([np.exp(0.3j), np.exp(-0.3j)])
    path = kraus_file(tmp_path, "u.json", 2, [u])
    ideal = write_json(tmp_path, "ideal.json", {"dim": 2, "unitary": mat(u)})
    assert cli.main(["analyze", path, ideal, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert data["error_rate"]["value"] == pytest.approx(0.0, abs=1e-8)


def test_analyze_text_report_mentions_every_section(tmp_path, capsys):
    path = named_file(tmp_path, "ad.json", 2, "amplitude_damping", {"r": 0.3})
    assert cli.main(["analyze", path]) == 0
    out = capsys.readouterr().out
    for label in (
        "dimension            2",
        "fidelity",
        "inverse infidelity",
        "pauli lower bound",
        "generic upper bound",
        "error rate",
        "via sdp",
        "inverse error rate",
        "pauli distance",
        "refined interval",
        "nontrivial",
    ):
        assert label in out
    assert "certified [" in out


def test_analyze_choi_clips_tiny_negative_eigenvalues(tmp_path, capsys):
    j = np.zeros((4, 4))
    j[np.ix_([0, 3], [0, 3])] = 1.0
    ok = write_json(tmp_path, "ok.json", {"dim": 2, "kind": "choi", "choi": mat(j - 5e-10 * np.eye(4))})
    assert cli.main(["analyze", ok, "--json", "--no-compute-eta", "--no-compute-delta"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fidelity"] == pytest.approx(1.0, abs=1e-6)

    bad = write_json(tmp_path, "bad.json", {"dim": 2, "kind": "choi", "choi": mat(j - 1e-8 * np.eye(4))})
    assert cli.main(["analyze", bad]) == 1
    err = capsys.readouterr().err
    assert "not completely positive" in err


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ({"dim": 2, "kind": "named", "named": {"name": "depolarizing", "params": {}}}, "missing"),
        (
            {"dim": 2, "kind": "named", "named": {"name": "depolarizing", "params": {"r": 0.1, "q": 1}}},
            "unexpected",
        ),
        (
            {"dim": 2, "kind": "named", "named": {"name": "depolarizing", "params": {"r": True}}},
            "must be a number",
        ),
        ({"dim": 2, "kind": "named", "named": {"name": "bogus", "params": {}}}, "unknown named channel"),
        ({"dim": 4, "kind": "named", "named": {"name": "depolarizing", "params": {"r": 0.1}}}, "requires dim 2"),
        ({"dim": 2, "kind": "spectral"}, "kind must be one of"),
        ({"dim": True, "kind": "kraus", "kraus": [mat(X)]}, "positive integer"),
        ({"dim": 0, "kind": "kraus", "kraus": [mat(X)]}, "positive integer"),
        ({"dim": 2, "kind": "kraus", "kraus": [mat(X)], "choi": mat(np.eye(4))}, "exactly the field"),
        ({"dim": 2, "kind": "kraus", "kraus": []}, "nonempty"),
        ({"dim": 2, "kind": "kraus", "kraus": [[[1, 0], [0, 1]]]}, "[0][0]"),
        ({"dim": 2, "kind": "kraus", "kraus": [[[[1, 0], [0, 0]]]]}, "expected 2 rows"),
    ],
)
def test_analyze_rejects_malformed_descriptions(tmp_path, capsys, payload, fragment):
    path = write_json(tmp_path, "bad.json", payload)
    assert cli.main(["analyze", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert fragment in captured.err


def test_analyze_rejects_broken_json_and_missing_files(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")

    assert cli.main(["analyze", str(tmp_path / "absent.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")

    toplevel = tmp_path / "list.json"
    toplevel.write_text("[1, 2]")
    assert cli.main(["analyze", str(toplevel)]) == 1
    assert "top level must be an object" in capsys.readouterr().err


def test_analyze_rejects_bad_ideal_files(tmp_path, capsys):
    path = kraus_file(tmp_path, "x.json", 2, [X])
    skew = write_json(tmp_path, "skew.json", {"dim": 2, "unitary": mat([[1, 1], [0, 1]])})
    assert cli.main(["analyze", path, skew]) == 1
    assert "not unitary" in capsys.readouterr().err

    wrong_dim = write_json(tmp_path, "eye4.json", {"dim": 4, "unitary": mat(np.eye(4))})
    assert cli.main(["analyze", path, wrong_dim]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "huge-int"]
)
@pytest.mark.parametrize("kind", ["kraus", "choi", "ideal"])
def test_analyze_rejects_non_finite_matrix_entries(tmp_path, capsys, kind, bad):
    # json writes NaN and Infinity, and reads 10**400 back as an int no float holds
    good = kraus_file(tmp_path, "x.json", 2, [X])
    if kind == "kraus":
        payload = {"dim": 2, "kind": "kraus", "kraus": [mat(X)]}
        payload["kraus"][0][1][0][1] = bad
        args, where = [write_json(tmp_path, "bad.json", payload)], "kraus[0]: entry [1][0]"
    elif kind == "choi":
        payload = {"dim": 2, "kind": "choi", "choi": mat(channels.amplitude_damping(0.2).choi)}
        payload["choi"][2][3][0] = bad
        args, where = [write_json(tmp_path, "bad.json", payload)], "choi: entry [2][3]"
    else:
        payload = {"dim": 2, "unitary": mat(np.eye(2))}
        payload["unitary"][0][0][0] = bad
        args, where = [good, write_json(tmp_path, "bad.json", payload)], "unitary: entry [0][0]"
    assert cli.main(["analyze"] + args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{where} is not finite" in captured.err


def test_bounds_command_rounds_the_percentages(capsys):
    assert cli.main(["bounds", "--fidelity", "0.999", "--dim", "2"]) == 0
    out = capsys.readouterr().out
    assert "7.75% rounded up" in out
    assert "nontrivial           yes" in out

    assert cli.main(["bounds", "--fidelity", "0.99", "--dim", "4"]) == 0
    assert "44.8% rounded up" in capsys.readouterr().out

    assert cli.main(["bounds", "--fidelity", "0.5", "--dim", "2"]) == 0
    assert "nontrivial           no" in capsys.readouterr().out


def test_bounds_command_rejects_non_finite_fidelity(capsys):
    for bad in ("nan", "inf"):
        assert cli.main(["bounds", "--fidelity", bad, "--dim", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""


def test_library_imports_neither_cli_nor_numba():
    code = "import sys, gatebounds.refcheck; print(sorted({'gatebounds.cli', 'numba'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(gatebounds.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_threshold_command_prints_full_precision(capsys):
    assert cli.main(["threshold", "--target-error", "0.01", "--dim", "4"]) == 0
    out = capsys.readouterr().out
    assert "0.99999499999999997" in out
    assert "99.999500%" in out

    assert cli.main(["threshold", "--target-error", "0", "--dim", "2"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_sweep_writes_lossless_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main(
        ["sweep", "--model", "depolarizing", "--points", "3", "--phi-min", "0.8", "--phi-max", "0.9", "--out", str(out)]
    )
    assert code == 0
    assert "wrote 3 rows" in capsys.readouterr().out
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == cli.SWEEP_HEADER
    assert len(lines) == 4
    fidelities = []
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "depolarizing"
        numbers = [float(s) for s in fields[1:]]
        # the 17-significant-digit format must survive a parse round trip
        assert [f"{v:.16e}" for v in numbers] == fields[1:]
        param, fidelity, eta, lb, ub, delta, lo, hi = numbers
        assert fidelity == pytest.approx(1.0 - param / 2.0, abs=1e-12)
        assert eta == pytest.approx(0.75 * param, abs=1e-12)
        assert lb == pytest.approx(eta, abs=1e-12)
        assert delta <= 1e-12
        assert hi - lo <= 1e-12
        assert ub >= eta
        fidelities.append(fidelity)
    assert fidelities == sorted(fidelities)


def test_sweep_rejects_bad_ranges(tmp_path, capsys):
    out = tmp_path / "never.csv"
    base = ["sweep", "--out", str(out)]
    assert cli.main(base + ["--model", "depolarizing", "--phi-min", "0.9", "--phi-max", "0.8"]) == 1
    assert cli.main(base + ["--model", "unitary", "--phi-min", "0.2", "--phi-max", "0.5"]) == 1
    assert "outside the attainable range" in capsys.readouterr().err
    assert cli.main(base + ["--model", "depolarizing", "--points", "0", "--phi-min", "0.8", "--phi-max", "0.9"]) == 1
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--phi-min", "--phi-max"])
def test_sweep_rejects_non_finite_range(tmp_path, capsys, flag, bad):
    out = tmp_path / "never.csv"
    limits = {"--phi-min": "0.8", "--phi-max": "0.9"}
    limits[flag] = bad
    argv = ["sweep", "--model", "depolarizing", "--out", str(out)]
    argv += [f"{name}={value}" for name, value in limits.items()]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be finite")
    assert "attainable range" not in err
    assert not out.exists()


def test_paper_check_list_names_every_check(capsys):
    from gatebounds import refcheck

    assert cli.main(["paper-check", "--list"]) == 0
    names = capsys.readouterr().out.splitlines()
    assert names == refcheck.list_checks()
    assert len(names) == 12
    assert names[-1] == "solver-health"
