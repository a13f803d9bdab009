"""Command-line front end.

Subcommands: ``analyze`` (audit a channel description file), ``bounds``
(fidelity-only bracket), ``threshold`` (required fidelity for a target error
rate), ``sweep`` (CSV of bound data across a fidelity range), and
``paper-check`` (the built-in suite that recomputes the published reference
values this package is tested against).

Channel description files are JSON:

    {"dim": 2, "kind": "kraus", "kraus": [[[[1,0],[0,0]],[[0,0],[1,0]]]]}

with every matrix an array of rows and every entry a [re, im] pair.  ``kind``
is "kraus", "choi" or "named"; exactly the matching key must be present.
Named channels take {"name": ..., "params": {...}} with name one of
depolarizing, unitary_error, amplitude_damping, generalized_cphase,
lambda_mixture.  Ideal-gate files are ``{"dim": d, "unitary": matrix}``.

Exit codes: 0 success, 1 input or validation problem (a usage error
included), 2 solver failure.
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import bounds, channels, linalg, sdp
from .channels import Channel

SWEEP_HEADER = ",".join(f.name for f in dataclasses.fields(bounds.SweepRecord))


class SpecFileError(ValueError):
    """A channel or ideal description file failed validation."""


def _parse_complex_matrix(obj, size, what):
    if not isinstance(obj, list) or len(obj) != size:
        raise SpecFileError(f"{what}: expected {size} rows")
    out = np.empty((size, size), dtype=np.complex128)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != size:
            raise SpecFileError(f"{what}: row {i} must have {size} entries")
        for j, entry in enumerate(row):
            ok = (
                isinstance(entry, list)
                and len(entry) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            )
            if not ok:
                raise SpecFileError(f"{what}: entry [{i}][{j}] must be a [re, im] pair")
            try:
                value = complex(entry[0], entry[1])
            except OverflowError:  # an integer beyond the float range
                value = math.inf
            if not np.isfinite(value):
                raise SpecFileError(f"{what}: entry [{i}][{j}] is not finite")
            out[i, j] = value
    return out


def _channel_from_choi(j, dim):
    w, v = linalg.hermitian_eigendecomposition(j, "choi matrix")
    if w[0] < -linalg.TOLERANCE:
        raise SpecFileError(f"choi matrix is not completely positive (eigenvalue {w[0]:.3e})")
    kraus = [math.sqrt(wk) * v[:, k].reshape(dim, dim) for k, wk in enumerate(w) if wk > 0.0]
    if not kraus:
        raise SpecFileError("choi matrix is zero")
    return Channel(kraus)


def _require_params(named, allowed):
    params = named.get("params", {})
    if not isinstance(params, dict):
        raise SpecFileError("named.params must be an object")
    missing = [k for k in allowed if k not in params]
    extra = [k for k in params if k not in allowed]
    if missing or extra:
        raise SpecFileError(
            f"named.params must have exactly {sorted(allowed)}; "
            f"missing {missing}, unexpected {extra}"
        )
    return {k: channels.checked_real(params[k], f"named.params.{k}") for k in allowed}


def _named_channel(named, dim):
    if not isinstance(named, dict) or not isinstance(named.get("name"), str):
        raise SpecFileError("named must be an object with a string name")
    name = named["name"]
    if name in ("depolarizing", "unitary_error", "amplitude_damping") and dim != 2:
        raise SpecFileError(f"named channel {name!r} requires dim 2, got {dim}")
    if name == "depolarizing":
        return channels.depolarizing(_require_params(named, ("r",))["r"]), None
    if name == "unitary_error":
        return channels.unitary_error(_require_params(named, ("theta",))["theta"]), None
    if name == "amplitude_damping":
        return channels.amplitude_damping(_require_params(named, ("r",))["r"]), None
    if name == "generalized_cphase":
        return channels.generalized_cphase(dim, _require_params(named, ("theta",))["theta"]), None
    if name == "lambda_mixture":
        lam = _require_params(named, ("lambda",))["lambda"]
        actual, ideal = channels.lambda_mixture(dim, lam)
        return actual, ideal
    raise SpecFileError(f"unknown named channel {name!r}")


def _read_spec(path):
    """The top-level object of a description file and its ``dim``, an
    integer of at least 1."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SpecFileError(f"{path}: top level must be an object")
    try:
        return data, channels.checked_integer(data.get("dim"), f"{path}: dim", 1)
    except ValueError as exc:
        raise SpecFileError(str(exc)) from None


def load_channel_file(path):
    """Parse a channel description file; returns (channel, implied ideal or None)."""
    data, dim = _read_spec(path)
    kind = data.get("kind")
    if kind not in ("kraus", "choi", "named"):
        raise SpecFileError(f"{path}: kind must be one of kraus, choi, named")
    present = [k for k in ("kraus", "choi", "named") if k in data]
    if present != [kind]:
        raise SpecFileError(
            f"{path}: exactly the field matching kind={kind!r} must be present, found {present}"
        )
    if kind == "kraus":
        arr = data["kraus"]
        if not isinstance(arr, list) or not arr:
            raise SpecFileError(f"{path}: kraus must be a nonempty array of matrices")
        mats = [_parse_complex_matrix(m, dim, f"kraus[{i}]") for i, m in enumerate(arr)]
        return Channel(mats), None
    if kind == "choi":
        j = _parse_complex_matrix(data["choi"], dim * dim, "choi")
        return _channel_from_choi(j, dim), None
    return _named_channel(data["named"], dim)


def load_ideal_file(path):
    """Parse an ideal-gate file; returns the unitary matrix."""
    data, dim = _read_spec(path)
    u = _parse_complex_matrix(data.get("unitary"), dim, "unitary")
    if not linalg.is_unitary(u):
        raise SpecFileError(f"{path}: matrix is not unitary within tolerance")
    return u


def _fmt_exactable(x):
    return x if isinstance(x, str) else f"{x:.10g}"


def report_to_dict(report):
    """BoundsReport as a JSON-ready dict, field names matching the dataclass."""
    out = {
        "dim": report.dim,
        "fidelity": report.fidelity,
        "inverse_infidelity": report.inverse_infidelity,
        "pauli_lower": report.pauli_lower,
        "generic_upper": report.generic_upper,
        "inverse_upper_rate": report.inverse_upper_rate,
    }
    if report.error_rate is not None:
        out["error_rate"] = {
            "value": report.error_rate.value,
            "lower_certificate": report.error_rate.lower_certificate,
            "upper_certificate": report.error_rate.upper_certificate,
            "method": report.error_rate.method.value,
            "route": report.error_rate.route,
        }
        out["inverse_error_rate"] = report.inverse_error_rate
    if report.pauli_distance is not None:
        out["pauli_distance"] = report.pauli_distance
        out["refined_interval"] = list(report.refined_interval)
    out["nontrivial"] = report.nontrivial
    return out


def _bracket_lines(lower, upper, nontrivial):
    """The pauli lower bound, generic upper bound and nontrivial lines."""
    return [
        f"pauli lower bound    {lower:.10g}  ({bounds.round_significant(100 * lower, 3):g}%)",
        f"generic upper bound  {upper:.10g}  ({bounds.ceil_significant(100 * upper, 3):g}% rounded up)",
        f"nontrivial           {'yes' if nontrivial else 'no'}",
    ]


def render_report(report):
    lower, upper, nontrivial = _bracket_lines(report.pauli_lower, report.generic_upper, report.nontrivial)
    lines = [
        f"dimension            {report.dim}",
        f"fidelity             {report.fidelity:.10g}"
        f"  ({bounds.round_significant(100 * report.fidelity, 3):g}%)",
        f"inverse infidelity   {_fmt_exactable(report.inverse_infidelity)}",
        lower,
        upper,
        f"inverse upper rate   {_fmt_exactable(report.inverse_upper_rate)}",
        nontrivial,
    ]
    if report.error_rate is not None:
        er = report.error_rate
        lines.append(
            f"error rate           {er.value:.10g}"
            f"  certified [{er.lower_certificate:.10g}, {er.upper_certificate:.10g}]"
            f"  via {er.method.value}"
        )
        lines.append(f"inverse error rate   {_fmt_exactable(report.inverse_error_rate)}")
    if report.pauli_distance is not None:
        lo, hi = report.refined_interval
        lines.append(f"pauli distance       {report.pauli_distance:.10g}")
        lines.append(f"refined interval     [{lo:.10g}, {hi:.10g}]")
    return "\n".join(lines)


def cmd_analyze(args):
    channel, implied = load_channel_file(args.channel_file)
    if args.ideal_file is not None:
        ideal = load_ideal_file(args.ideal_file)
    elif implied is not None:
        ideal = implied
    else:
        ideal = np.eye(channel.dim)
    report = bounds.audit(
        channel, ideal, compute_eta=args.compute_eta, compute_delta=args.compute_delta
    )
    if args.json:
        print(json.dumps(report_to_dict(report), indent=2))
    else:
        print(render_report(report))
    return 0


def cmd_bounds(args):
    lower = bounds.pauli_lower_bound(args.fidelity, args.dim)
    upper = bounds.generic_upper_bound(args.fidelity, args.dim)
    print("\n".join(_bracket_lines(lower, upper, upper < 1.0)))
    return 0


def cmd_threshold(args):
    phi = bounds.required_fidelity(args.target_error, args.dim)
    print(f"required fidelity    {phi:.17g}  ({100 * phi:.6f}%)")
    return 0


def _csv_number(x):
    # 17 significant digits: lossless decimal round-trip for float64
    return f"{x:.16e}"


def write_sweep_csv(rows, fh):
    fh.write(SWEEP_HEADER + "\n")
    for r in rows:
        model, *values = (getattr(r, f.name) for f in dataclasses.fields(r))
        fh.write(",".join([model] + [_csv_number(v) for v in values]) + "\n")


def cmd_sweep(args):
    channels.checked_integer(args.points, "--points", 1)
    for flag, value in (("--phi-min", args.phi_min), ("--phi-max", args.phi_max)):
        channels.checked_real(value, flag)
    if args.phi_min >= args.phi_max:
        raise ValueError("--phi-min must be strictly below --phi-max")
    phis = np.linspace(args.phi_min, args.phi_max, args.points)
    rows = bounds.sweep_rows(args.model, phis)
    with open(args.out, "w", newline="") as fh:
        write_sweep_csv(rows, fh)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_paper_check(args):
    from . import refcheck

    if args.list:
        for name in refcheck.list_checks():
            print(name)
        return 0
    results = refcheck.run_checks()
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gatebounds",
        description="Worst-case gate error rates and fidelity-derived bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="audit a channel description file")
    p.add_argument("channel_file", help="JSON channel description")
    p.add_argument("ideal_file", nargs="?", default=None, help="JSON ideal-gate file (default: identity)")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument(
        "--compute-eta",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="force the diamond-distance error rate on or off (default: on for dim <= 4)",
    )
    p.add_argument(
        "--compute-delta",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="force the Pauli distance on or off (default: on for qubit dims <= 4)",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bounds", help="fidelity-only error-rate bracket")
    p.add_argument("--fidelity", type=float, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("threshold", help="required fidelity for a target error rate")
    p.add_argument("--target-error", type=float, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("sweep", help="CSV of bound data across a fidelity range")
    p.add_argument("--model", choices=sorted(bounds.SWEEP_MODELS), required=True)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--phi-min", type=float, required=True)
    p.add_argument("--phi-max", type=float, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "paper-check",
        help="recompute the published reference values and report pass/fail",
    )
    p.add_argument("--list", action="store_true", help="print check names without running them")
    p.set_defaults(func=cmd_paper_check)

    return parser


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_signed_values(parser, argv):
    """Glue each float-parsable token that starts with "-" onto the option
    before it when that option takes a value: "--fidelity -inf" becomes
    "--fidelity=-inf".

    argparse reads such a token ("-inf", "-nan", "-1e-3") as an option,
    so without this the command stops with a usage error instead of
    reaching the value checks.
    """
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    takes_value = {
        option
        for sub in commands.choices.values()
        for action in sub._actions
        if action.nargs is None
        for option in action.option_strings
    }
    out = []
    for token in argv:
        if out and out[-1] in takes_value and token.startswith("-") and _is_number(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_signed_values(parser, argv))
    except SystemExit as exc:
        # argparse has printed help (exit 0) or a usage error, an input problem
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except sdp.SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
