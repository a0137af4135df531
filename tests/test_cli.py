import json
import os
from fractions import Fraction

import pytest

from ietkz import cli
from ietkz.cli import main
from ietkz.combinatorics import CombinatorialData
from ietkz.errors import (
    ConsistencyFailure,
    DegenerateGap,
    IetkzError,
    NotMeanZero,
    ParseError,
    SplittingUntrusted,
    ValidationError,
    WindowMissing,
)
from ietkz.induction import canonical_tau
from ietkz.numerics import Quadratic, scalar_to_json
from ietkz.scenario import golden_scenario_dict, parse_scenario, scenario_from_dict


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def minimal_rotation(**extra):
    data = {
        "alphabet": ["A", "B"],
        "top": ["A", "B"],
        "bottom": ["B", "A"],
        "backend": "rational",
        "lambda": ["104729/1", "75541/1"],
        "depth": 12,
        "seed": 3,
    }
    data.update(extra)
    return data


def test_parse_minimal_scenario(tmp_path):
    sc = parse_scenario(write_scenario(tmp_path, minimal_rotation()))
    assert sc.pi.d == 2 and sc.backend == "rational"
    assert sc.state().lam[0] == 104729


def test_parse_rejects_unknown_keys(tmp_path):
    with pytest.raises(ParseError):
        parse_scenario(write_scenario(tmp_path, minimal_rotation(bogus=1)))


def test_parse_rejects_bad_suspension_naming_side(tmp_path):
    data = minimal_rotation(tau=["-1/1", "1/1"])
    with pytest.raises(ValidationError) as err:
        parse_scenario(write_scenario(tmp_path, data))
    assert "k=1" in str(err.value) and "top" in str(err.value)


def test_quadratic_lambda_builds_golden_backend():
    sc = scenario_from_dict(golden_scenario_dict())
    lam = sc.state().lam
    assert isinstance(lam[0], Quadratic)
    assert float(lam[0]) == pytest.approx((1 + 5**0.5) / 2)


def test_cli_verify_exit_zero(tmp_path):
    path = write_scenario(tmp_path, golden_scenario_dict(depth=20))
    out = str(tmp_path / "out")
    assert main(["--scenario", path, "--command", "verify", "--out-dir", out]) == 0
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["pass"] is True
    assert all(c["pass"] for c in report["checks"])


def test_cli_roth_insufficient_depth_exit_two(tmp_path):
    path = write_scenario(tmp_path, golden_scenario_dict(depth=1))
    out = str(tmp_path / "out")
    assert main(["--scenario", path, "--command", "roth", "--out-dir", out]) == 2


def test_cli_untrusted_splitting_exits_two(tmp_path, capsys):
    # ABC/CBA with tau = canonical tau + (37/9973) sqrt 5 in every coordinate:
    # at depth 1 the homology section finds the splitting untrustworthy
    q = lambda a: scalar_to_json(Quadratic(Fraction(a), Fraction(37, 9973), 5))
    data = {
        "alphabet": ["A", "B", "C"],
        "top": ["A", "B", "C"],
        "bottom": ["C", "B", "A"],
        "backend": "quadratic",
        "lambda": ["123457/7", "654321/11", "17094/1"],
        "tau": [q(2), q(0), q(-2)],
        "depth": 30,
        "backward_depth": 300,
        "seed": 1,
    }
    path = write_scenario(tmp_path, data)
    out = str(tmp_path / "out")
    assert main(["--scenario", path, "--command", "homology", "--depth", "1", "--out-dir", out]) == 2
    assert capsys.readouterr().err.strip() == "insufficient data: splitting too degenerate for a trustworthy section"


@pytest.mark.parametrize(
    "exc, code",
    [
        (ConsistencyFailure("two sides disagree"), 1),
        (WindowMissing("window misses [0,9]"), 2),
        (DegenerateGap("zero gap"), 2),
        (SplittingUntrusted("untrusted"), 2),
        (NotMeanZero("mean 1/2"), 5),
        (IetkzError("other"), 5),
    ],
)
def test_cli_maps_every_library_error_to_an_exit_code(tmp_path, monkeypatch, capsys, exc, code):
    def failing(sc):
        raise exc

    monkeypatch.setitem(cli.COMMAND_TABLE, "verify", failing)
    path = write_scenario(tmp_path, minimal_rotation())
    assert main(["--scenario", path, "--command", "verify", "--out-dir", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.strip().endswith(f": {exc}")


def test_cli_input_error_exit_four(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["--scenario", missing, "--command", "verify"]) == 4
    bad = write_scenario(tmp_path, minimal_rotation(backend="floaty"))
    assert main(["--scenario", bad, "--command", "verify"]) == 4


def test_cli_limit_shape_emits_graphs_and_pairings(tmp_path):
    path = write_scenario(tmp_path, golden_scenario_dict(depth=16))
    out = tmp_path / "out"
    assert main(["--scenario", path, "--command", "limit-shape", "--out-dir", str(out)]) == 0
    report = json.loads((out / "limit_shape.json").read_text())
    assert "pairings" in report and set(report["pairings"]) == {"A", "B"}
    csvs = [f for f in os.listdir(out) if f.startswith("graph_") and f.endswith(".csv")]
    assert csvs, "expected one CSV per (letter, level)"
    header = (out / csvs[0]).read_text().splitlines()[0]
    assert header == "x,y"


def test_cli_diagram_and_dual_commands(tmp_path):
    data = golden_scenario_dict(depth=30)
    data["tolerance"] = 0.25
    path = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    for cmd in ("diagram", "induct", "backward", "dual-roth", "birkhoff", "dual-birkhoff", "homology"):
        assert main(["--scenario", path, "--command", cmd, "--out-dir", str(out)]) == 0, cmd
    dual = json.loads((out / "dual_roth.json").read_text())
    assert dual["passes"] is True
    bk_rep = json.loads((out / "birkhoff.json").read_text())
    assert bk_rep["oracle_matrix_equal"] and bk_rep["boundary_invariant"]
    db = json.loads((out / "dual_birkhoff.json").read_text())
    assert db["transpose_matrix_exact"] and db["mass_conserved"] and db["composition_exact"]


def test_cli_determinism_modulo_timestamp(tmp_path):
    path = write_scenario(tmp_path, golden_scenario_dict(depth=14))
    outs = []
    for sub in ("o1", "o2"):
        out = tmp_path / sub
        assert main(["--scenario", path, "--command", "roth", "--out-dir", str(out)]) == 0
        data = json.loads((out / "roth.json").read_text())
        data.pop("generated_at")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_cli_ball_backend_runs(tmp_path):
    data = minimal_rotation(backend="ball", precision_bits=64)
    data["lambda"] = ["104729/1", "75541/1"]
    data["depth"] = 8
    path = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    assert main(["--scenario", path, "--command", "induct", "--out-dir", str(out)]) == 0
    report = json.loads((out / "induct.json").read_text())
    assert report["steps"] == 8


def abc_deep_backward_scenario():
    """ABC/CBA with tau = canonical tau + (37/9973) sqrt(5): 300 backward
    levels drive the float value of H(n) below zero."""
    pi = CombinatorialData.from_rows(list("ABC"), list("CBA"))
    shift = Quadratic(0, Fraction(37, 9973), 5)
    return {
        "alphabet": list(pi.letters),
        "top": list(pi.top),
        "bottom": list(pi.bottom),
        "backend": "quadratic",
        "lambda": [scalar_to_json(Fraction(p, q)) for p, q in ((123457, 7), (654321, 11), (222222, 13))],
        "tau": [scalar_to_json(b + shift) for b in canonical_tau(pi)],
        "depth": 30,
        "backward_depth": 300,
        "seed": 1,
    }


def test_cli_h_monotonicity_decided_exactly_on_deep_backward_run(tmp_path):
    path = write_scenario(tmp_path, abc_deep_backward_scenario())
    out = tmp_path / "out"
    assert main(["--scenario", path, "--command", "backward", "--out-dir", str(out)]) == 0
    report = json.loads((out / "backward.json").read_text())
    assert report["steps"] == 300
    assert min(float(row["H"]) for row in report["h_profile"]) < 0  # the float column alone would refute it
    assert report["h_monotone"] is True
    assert main(["--scenario", path, "--command", "verify", "--out-dir", str(out)]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert {"check": "h_strictly_decreasing_backward", "pass": True} in report["checks"]
    assert report["pass"] is True


def test_cli_homology_on_deep_backward_run_uses_exact_inverses(tmp_path):
    # float inversion of B(-300, 0) is singular here; the exact inverse is not
    path = write_scenario(tmp_path, abc_deep_backward_scenario())
    out = tmp_path / "out"
    assert main(["--scenario", path, "--command", "homology", "--out-dir", str(out)]) == 0
    assert (out / "homology.json").exists()
