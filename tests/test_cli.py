"""End-to-end command-line tests driven through ``cli.main``."""

import argparse
import ast
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import gatebounds
from gatebounds import channels, cli, diamond, pauli, sdp
from helpers import random_unitary
from test_diamond import scale_encoder


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
    assert list(data["error_rate"]) == [
        "value",
        "lower_certificate",
        "upper_certificate",
        "method",
        "route",
    ]
    assert data["error_rate"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert data["error_rate"]["method"] == "unitary_closed_form"
    assert data["error_rate"]["route"] is None
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


def test_analyze_exits_0_on_perfect_gate_pairs(tmp_path, capsys):
    # gate and ideal file hold one Haar unitary: the fidelity rounds a few
    # ulps above 1 and the Pauli distance just above 0, within channels.SLOP
    rng = np.random.default_rng(1)
    for k, dim in enumerate([2, 4] * 3):
        u = random_unitary(rng, dim)
        gate = kraus_file(tmp_path, f"gate{k}.json", dim, [u])
        ideal = write_json(tmp_path, f"ideal{k}.json", {"dim": dim, "unitary": mat(u)})
        assert cli.main(["analyze", gate, ideal]) == 0
        capsys.readouterr()
        assert cli.main(["analyze", gate, ideal, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["fidelity"] <= 1.0
        assert data["refined_interval"][0] <= data["refined_interval"][1]


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
            "named.params.r must be a real number, got True",
        ),
        ({"dim": 2, "kind": "named", "named": {"name": "bogus", "params": {}}}, "unknown named channel"),
        ({"dim": 4, "kind": "named", "named": {"name": "depolarizing", "params": {"r": 0.1}}}, "requires dim 2"),
        ({"dim": 2, "kind": "spectral"}, "kind must be one of"),
        ({"dim": True, "kind": "kraus", "kraus": [mat(X)]}, "dim must be an integer of at least 1, got True"),
        ({"dim": 0, "kind": "kraus", "kraus": [mat(X)]}, "dim must be an integer of at least 1, got 0"),
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


def test_analyze_rejects_a_named_parameter_beyond_the_float_range(tmp_path, capsys):
    # JSON integers are unbounded; float() of this one raises OverflowError
    path = named_file(tmp_path, "huge.json", 2, "depolarizing", {"r": 10**400})
    assert cli.main(["analyze", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: named.params.r must be finite")


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
    assert f"{where} must be finite" in captured.err


@pytest.mark.parametrize("bad", [True, "0.5"], ids=["bool", "text"])
def test_analyze_refuses_a_matrix_entry_that_is_not_a_real_number(tmp_path, capsys, bad):
    # each part of an entry is read by channels.checked_real, named by the entry
    payload = {"dim": 2, "kind": "kraus", "kraus": [mat(X)]}
    payload["kraus"][0][0][1][0] = bad
    assert cli.main(["analyze", write_json(tmp_path, "bad.json", payload)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: kraus[0]: entry [0][1] must be a real number, got {bad!r}\n"


def test_bounds_command_rounds_the_percentages(capsys):
    assert cli.main(["bounds", "--fidelity", "0.999", "--dim", "2"]) == 0
    out = capsys.readouterr().out
    assert "7.75% rounded up" in out
    assert "nontrivial           yes" in out

    assert cli.main(["bounds", "--fidelity", "0.99", "--dim", "4"]) == 0
    assert "44.8% rounded up" in capsys.readouterr().out

    assert cli.main(["bounds", "--fidelity", "0.5", "--dim", "2"]) == 0
    assert "nontrivial           no" in capsys.readouterr().out


def test_bounds_command_rejects_a_dimension_above_2_to_the_53(capsys):
    # it overflowed to a float inside the bound before
    assert cli.main(["bounds", "--fidelity", "0.99", "--dim", "1" + "0" * 400]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: dimension must be an integer of at most 2**53")
    assert captured.out == ""


def test_bounds_command_rejects_non_finite_fidelity(capsys):
    for bad in ("nan", "inf"):
        assert cli.main(["bounds", "--fidelity", bad, "--dim", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag, message",
    [
        ("bounds", "--fidelity", "fidelity must be finite"),
        ("threshold", "--target-error", "target error rate must be finite"),
    ],
    ids=["bounds", "threshold"],
)
def test_non_finite_inputs_are_named(capsys, command, flag, message, bad):
    # the "--flag=value" form; the space-separated form is tested below
    assert cli.main([command, "--dim", "2", f"{flag}={bad}"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""


LIBRARY_SOLVES = """
import sys
import numpy as np
import gatebounds.refcheck
from gatebounds import channels, diamond, pauli
rng = np.random.default_rng(5)
u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
gate = channels.unitary_channel(u)
routes = [
    diamond.diamond_distance(channels.amplitude_damping(0.1), method="sdp").route,
    diamond.diamond_distance(channels.generalized_cphase(3, 0.4), method="sdp").route,
    diamond.diamond_distance(gate, pauli.pauli_twirl(gate), method="sdp").route,
]
print(routes, sorted({"gatebounds.cli", "numba", "scipy"} & set(sys.modules)))
"""


def test_library_imports_neither_cli_nor_numba():
    # one SDP on each solve path: "choi" at d = 2, "fidelity" at d = 3 and
    # "structured" at d = 4; none of them may pull in the CLI, numba or scipy
    env = dict(os.environ, PYTHONPATH=str(Path(gatebounds.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", LIBRARY_SOLVES], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "['choi', 'fidelity', 'choi'] []"


def test_library_modules_use_every_name_they_import():
    # a name counts as used when it appears anywhere outside the import
    # statements, so a string annotation such as "DiamondResult" counts
    unused = []
    for path in sorted(Path(gatebounds.__file__).parent.glob("*.py")):
        source = path.read_text()
        imports = [n for n in ast.walk(ast.parse(source)) if isinstance(n, (ast.Import, ast.ImportFrom))]
        lines = source.splitlines()
        for node in imports:
            lines[node.lineno - 1 : node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
        rest = "\n".join(lines)
        for node in imports:
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not re.search(rf"\b{re.escape(name)}\b", rest):
                    unused.append(f"{path.name}: {name}")
    assert unused == []


def test_only_channels_tests_unitarity():
    # every unitary enters through channels._entered_unitary, the package's
    # one unitarity test: a call of linalg.unitary_defect anywhere else
    # would be a second one
    callers = set()
    for path in sorted(Path(gatebounds.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "attr", getattr(func, "id", None)) == "unitary_defect":
                    callers.add(path.stem)
    assert callers == {"channels"}


def test_only_checked_items_tests_for_a_collection():
    # every collection argument is read through channels.checked_items, the
    # package's one collection test: a call of np.iterable anywhere else
    # would be a second one
    callers = []
    for path in sorted(Path(gatebounds.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(n): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "attr", getattr(func, "id", None)) == "iterable":
                    callers.append(f"{path.stem}.{owner.get(id(node))}")
    assert callers == ["channels.checked_items"]


def test_package_all_lists_exactly_the_public_names():
    names = gatebounds.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(gatebounds, name), name
    public = {
        name
        for name, value in vars(gatebounds).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "--fidelity", "-inf", "--dim", "2"], "fidelity must be finite"),
        (["threshold", "--target-error", "-nan", "--dim", "2"], "target error rate must be finite"),
        (["threshold", "--dim", "2", "--target-error", "-1e-3"], "target error rate -0.001 outside"),
        (
            ["sweep", "--model", "depolarizing", "--phi-min", "-inf", "--phi-max", "0.9", "--out", "x"],
            "--phi-min must be finite",
        ),
    ],
    ids=["bounds--inf", "threshold--nan", "threshold-negative", "sweep--inf"],
)
def test_signed_values_reach_the_value_checks(capsys, argv, message):
    # "-inf", "-nan" and "-1e-3" as separate tokens: argparse alone would
    # read them as options and exit 2 with "expected one argument"
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""


def test_signed_values_join_only_options_that_take_one(tmp_path, capsys):
    # after a flag, "-1" stays a positional argument: here a missing file
    assert cli.main(["analyze", "--json", str(tmp_path / "-1")]) == 1
    assert "No such file" in capsys.readouterr().err


def test_analyze_json_names_the_route(tmp_path, capsys):
    path = named_file(tmp_path, "ad.json", 2, "amplitude_damping", {"r": 0.1})
    assert cli.main(["analyze", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["error_rate"]["route"] == "choi"
    path = named_file(tmp_path, "mix.json", 3, "lambda_mixture", {"lambda": 0.1})
    assert cli.main(["analyze", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)["error_rate"]
    assert (data["method"], data["route"]) == ("sdp", "fidelity")
    assert data["lower_certificate"] <= 0.1 <= data["upper_certificate"]
    path = named_file(tmp_path, "dep.json", 2, "depolarizing", {"r": 0.2})
    assert cli.main(["analyze", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["error_rate"]["route"] is None


def test_analyze_exits_2_on_unconverged_fidelity_route_solve(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
    path = named_file(tmp_path, "mix.json", 3, "lambda_mixture", {"lambda": 0.1})
    assert cli.main(["analyze", path]) == 2
    assert "fidelity path) stopped unconverged" in capsys.readouterr().err


def test_analyze_exits_2_on_a_crossed_interval(tmp_path, capsys, monkeypatch):
    # an encoder with half its scale under-reports eta on every solve
    scale_encoder(monkeypatch, 0.5)
    path = named_file(tmp_path, "ad.json", 2, "amplitude_damping", {"r": 0.1})
    assert cli.main(["analyze", path]) == 2
    assert "choi path) certified a crossed interval" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "f.json", "--large"], "unrecognized arguments: --large"),
        (["bounds", "--dim", "2"], "the following arguments are required: --fidelity"),
        (["bounds", "--fidelity", "high", "--dim", "2"], "invalid float value: 'high'"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
    ],
    ids=["unknown-option", "missing-option", "unparsable-number", "unknown-command"],
)
def test_usage_errors_exit_1(capsys, argv, message):
    # 2 is the solver-failure code; a malformed command line is an input problem
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
def test_help_exits_0(capsys, argv):
    assert cli.main(argv) == 0
    assert "usage: gatebounds" in capsys.readouterr().out


def test_readme_names_only_real_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    commands = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        option
        for sub in commands.choices.values()
        for action in sub._actions
        for option in action.option_strings
    }
    assert {"--json", "--compute-eta", "--no-compute-delta", "--fidelity"} <= named
    assert named <= options, sorted(named - options)


def test_readme_python_api_block_runs_as_commented():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    report = namespace["report"]
    fidelity = re.search(r"report\.fidelity +# ([0-9.]+)\.\.\.", block).group(1)
    assert fidelity == "0.98322" and repr(report.fidelity).startswith(fidelity)
    rate = float(re.search(r"report\.error_rate\.value +# ([0-9.]+):", block).group(1))
    eta = report.error_rate
    assert rate == 0.05 and eta.lower_certificate <= rate <= eta.upper_certificate
    assert report.pauli_lower <= eta.lower_certificate
    lo, hi = report.refined_interval
    assert lo <= eta.lower_certificate and eta.upper_certificate <= hi


def test_analyze_three_qubit_gate_with_both_sdps(tmp_path, capsys):
    # d = 8 needs only the compute switches: eta is the unitary closed form,
    # delta a 130-row fidelity-route SDP
    path = named_file(tmp_path, "cp8.json", 8, "generalized_cphase", {"theta": 0.2})
    assert cli.main(["analyze", path, "--compute-eta", "--compute-delta", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 8
    assert data["error_rate"]["method"] == "unitary_closed_form"
    assert data["error_rate"]["value"] == pytest.approx(math.sin(0.1), abs=1e-12)
    lo, hi = data["refined_interval"]
    assert lo <= math.sin(0.1) <= hi


def test_analyze_three_qubit_haar_unitary_delta(tmp_path, capsys, monkeypatch):
    # the Pauli twirl of a Haar-random d = 8 unitary has all 64 Pauli terms,
    # so delta is a full-rank Choi-route SDP (4097 rows) on the structured
    # operator; eta stays off by default above d = 4
    rng = np.random.default_rng(8)
    q, r = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    path = kraus_file(tmp_path, "haar8.json", 8, [u])
    results = []
    real = diamond.diamond_distance

    def tapped(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(diamond, "diamond_distance", tapped)
    assert cli.main(["analyze", path, "--compute-delta", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "error_rate" not in data
    (delta,) = results
    assert (delta.method.value, delta.route) == ("sdp", "choi")
    assert data["pauli_distance"] == delta.value
    assert delta.upper_certificate - delta.lower_certificate <= 1e-8
    channel = channels.unitary_channel(u)
    sampled = diamond.brute_force_lower_bound(channel, pauli.pauli_twirl(channel), samples=2000)
    assert 0.5 * delta.value < sampled <= delta.upper_certificate
