"""The recorded intervals as an oracle.

``recorded_intervals.json`` holds the certified intervals of the 96
benchmark audits (d = 2 seeds 0-2 x items 0-29 and d = 4 seeds 0-1 x items
0-2 of :func:`helpers.audit_input`) and of the SDP solves of one
reproduction-suite pass, keyed by check name in the order
:func:`diamond.recorded_solves` collects them.  For an audit it holds the
fidelity phi, the Pauli lower and generic upper bounds, the intervals of
eta and delta, and the refined bracket.

Each recomputed interval must meet the recorded one and be at most
``WIDTH_GROWTH`` wider.  phi must agree within ``channels.SLOP``, and each
fidelity bound within its slope in phi times that slop.  So a change may
move a number inside what was certified before, but not out of it.

A change that is meant to move the numbers regenerates the file with
``PYTHONPATH=src python tests/test_recorded_intervals.py`` and states why,
with the largest move.
"""

import json
import math
from pathlib import Path

from gatebounds import bounds, channels, diamond, refcheck
from helpers import audit_channels, audit_input

DATA = Path(__file__).with_name("recorded_intervals.json")
WIDTH_GROWTH = 1e-12
EPS = 2.0**-52
AUDITS = [(2, seed, index) for seed in range(3) for index in range(30)]
AUDITS += [(4, seed, index) for seed in range(2) for index in range(3)]


def audit_intervals(d, seed, index):
    """The recorded figures of one audit, from its eta and delta solves."""
    with diamond.recorded_solves() as records:
        report = bounds.audit(*audit_channels(audit_input(seed, index, d)))
    eta, delta = (rec.result for rec in records)
    return {
        "d": d,
        "seed": seed,
        "index": index,
        "fidelity": report.fidelity,
        "pauli_lower": report.pauli_lower,
        "generic_upper": report.generic_upper,
        "eta": [eta.lower_certificate, eta.upper_certificate],
        "delta": [delta.lower_certificate, delta.upper_certificate],
        "refined": list(report.refined_interval),
    }


def suite_intervals():
    """The interval of every SDP solve of one suite pass, by check."""
    out = {}
    with diamond.recorded_solves() as records:
        ctx = refcheck._Context(records)
        for name, fn in refcheck._CHECKS:
            before = len(records)
            fn(ctx)
            out[name] = [[r.result.lower_certificate, r.result.upper_certificate] for r in records[before:]]
    return out


def check_interval(label, new, old):
    assert new[0] <= old[1] and old[0] <= new[1], f"{label}: {new} misses the recorded {old}"
    growth = (new[1] - new[0]) - (old[1] - old[0])
    assert growth <= WIDTH_GROWTH, f"{label}: {new} is {growth:.3e} wider than the recorded {old}"


def check_near(label, new, old, slope):
    # a quantity of phi moves by its slope times phi's allowance, plus rounding
    assert math.isclose(new, old, rel_tol=4 * EPS, abs_tol=slope * channels.SLOP), f"{label}: {new!r} against {old!r}"


def test_audit_intervals_meet_the_recorded_ones():
    recorded = json.loads(DATA.read_text())["audits"]
    assert [(a["d"], a["seed"], a["index"]) for a in recorded] == AUDITS
    for old in recorded:
        d = old["d"]
        new = audit_intervals(d, old["seed"], old["index"])
        label = f"audit d = {d} seed {old['seed']} item {old['index']}"
        check_near(f"{label} fidelity", new["fidelity"], old["fidelity"], 1.0)
        check_near(f"{label} Pauli lower bound", new["pauli_lower"], old["pauli_lower"], 1.0 + 1.0 / d)
        slope = d * (d + 1) / (2.0 * old["generic_upper"])
        check_near(f"{label} generic upper bound", new["generic_upper"], old["generic_upper"], slope)
        for key in ("eta", "delta", "refined"):
            check_interval(f"{label} {key}", new[key], old[key])


def test_suite_intervals_meet_the_recorded_ones():
    recorded = json.loads(DATA.read_text())["suite"]
    got = suite_intervals()
    assert list(got) == list(recorded)
    assert sum(map(len, recorded.values())) == 116
    for name, olds in recorded.items():
        assert len(got[name]) == len(olds), name
        for i, (new, old) in enumerate(zip(got[name], olds)):
            check_interval(f"{name} solve {i}", new, old)


if __name__ == "__main__":
    audits = ",\n".join(json.dumps(audit_intervals(*a)) for a in AUDITS)
    suite = ",\n".join(f"{json.dumps(name)}: {json.dumps(v)}" for name, v in suite_intervals().items())
    DATA.write_text(f'{{"audits": [\n{audits}\n],\n"suite": {{\n{suite}\n}}}}\n')
