"""Command line behavior: reports, formats, exit codes, determinism."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from cosetrep.cli import main
from cosetrep.verify import SUITES


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_coeffs_json(capsys):
    assert main(["coeffs", "--order", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 4
    rows = {r["n"]: r for r in doc["coefficients"]}
    assert rows[1]["numerator"] == 1 and rows[1]["denominator"] == 2
    assert rows[3]["numerator"] == 0
    assert rows[4]["numerator"] == -1 and rows[4]["denominator"] == 720


def test_coeffs_csv(capsys):
    assert main(["coeffs", "--order", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,numerator,denominator,value"
    assert lines[1].startswith("1,1,2,")
    assert len(lines) == 3


def test_coeffs_rejects_zero_order():
    assert main(["coeffs", "--order", "0"]) == 2


def test_realize_report(tmp_path, capsys):
    path = _write(
        tmp_path,
        "gen.json",
        {
            "m": 3,
            "sigma": [0.31, -0.12, 0.21],
            "xi": {"boost": [0.0, 1.0, 0.0], "rotations": [[1, 2, 0.5]]},
            "v": [1.0, 0.0, -0.5],
        },
    )
    assert main(["realize", "--in", path, "--order", "19"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_abs_diff"] < 1e-8
    assert len(doc["d_sigma"]["series"]) == 3
    assert len(doc["d_compensator"]["series"]) == 3
    assert len(doc["d_v"]) == 3
    np.testing.assert_allclose(doc["d_sigma"]["series"], doc["d_sigma"]["oracle"], atol=1e-8)


@pytest.mark.parametrize("field", ["sigma", "v"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_realize_rejects_non_finite_sigma_and_v(tmp_path, capsys, field, bad):
    """json reads NaN and Infinity: a non-finite v exits 2 as a non-finite
    sigma does, instead of printing a NaN d_v."""
    doc = {"m": 3, "sigma": [0.1, 0.2, 0.3], "xi": {"boost": [1.0, 0.0, 0.0]}, "v": [1.0, 0.0, 0.0]}
    doc[field] = [bad, 0.0, 0.0]
    path = _write(tmp_path, "gen.json", doc)
    assert main(["realize", "--in", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cosetrep: ") and "non-finite" in err


@pytest.mark.parametrize("rep, v", [("vector", [1.0, 0.0]), ("spinor", [1.0, 0.0, 0.0])])
def test_realize_rejects_a_v_of_the_wrong_length(tmp_path, capsys, rep, v):
    doc = {"m": 3, "sigma": [0.1, 0.2, 0.3], "xi": {"boost": [1.0, 0.0, 0.0]}, "v": v}
    path = _write(tmp_path, "gen.json", doc)
    assert main(["realize", "--in", path, "--rep", rep]) == 2
    assert "vector must have shape" in capsys.readouterr().err


def test_realize_csv(tmp_path, capsys):
    path = _write(
        tmp_path, "gen.json", {"m": 2, "sigma": [0.1, 0.2], "xi": {"boost": [1.0, 0.0]}}
    )
    assert main(["realize", "--in", path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "part,index,series,oracle"
    parts = {line.split(",")[0] for line in lines[1:]}
    assert parts == {"sigma", "compensator"}


def test_realize_past_the_largest_order_exits_1(tmp_path, capsys):
    """Past order 623 the top power of lambda overflows at the radius: a
    domain error, raised before the weights are built."""
    doc = {"m": 3, "sigma": [0.1, 0.2, 0.3], "xi": {"boost": [1.0, 0.0, 0.0]}}
    path = _write(tmp_path, "gen.json", doc)
    assert main(["realize", "--in", path, "--order", "625"]) == 1
    assert "truncation order 625 exceeds 623" in capsys.readouterr().err


def test_realize_input_validation(tmp_path):
    assert main(["realize", "--in", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["realize", "--in", str(bad)]) == 2
    no_xi = _write(tmp_path, "noxi.json", {"m": 2, "sigma": [0.1, 0.2]})
    assert main(["realize", "--in", no_xi]) == 2
    mismatch = _write(
        tmp_path, "mm.json", {"m": 3, "sigma": [0.1, 0.2, 0.3], "xi": {"boost": [1, 0, 0]}}
    )
    assert main(["realize", "--in", mismatch, "--m", "2"]) == 2
    not_a_list = _write(
        tmp_path, "rot.json", {"m": 3, "sigma": [0.1, 0.2, 0.3], "xi": {"rotations": 5}}
    )
    assert main(["realize", "--in", not_a_list]) == 2


@pytest.mark.parametrize(
    "xi, message",
    [
        ({"boost": [1.0, 0.0, 0.0], "rotations": [[1, 2, float("nan")]]}, "rotation angle must be finite"),
        ({"boost": [0.0, float("inf"), 0.0]}, "boost entries must be finite"),
    ],
)
def test_realize_rejects_non_finite_generator(tmp_path, capsys, xi, message):
    path = _write(tmp_path, "gen.json", {"m": 3, "sigma": [0.1, 0.0, 0.2], "xi": xi})
    assert main(["realize", "--in", path]) == 2
    assert message in capsys.readouterr().err


def test_factor_report(tmp_path, capsys):
    path = _write(
        tmp_path,
        "g.json",
        {"m": 3, "boost": [0.2, -0.1, 0.4], "rotations": [[1, 2, 0.3], [2, 3, -0.2]]},
    )
    assert main(["factor", "--in", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reconstruction_error"] < 1e-12
    np.testing.assert_allclose(doc["f_prime"], [0.2, -0.1, 0.4], atol=1e-12)
    rho = np.array(doc["rho"])
    np.testing.assert_allclose(rho.T @ rho, np.eye(3), atol=1e-12)


def test_factor_at_rapidity_fourteen(tmp_path, capsys):
    """rho from the split is orthogonal only to about eps cosh(zeta); the
    reconstruction does not reject it at rapidity 2 |boost| = 14.1."""
    path = _write(
        tmp_path,
        "g.json",
        {"m": 3, "boost": [5, -4, 3], "rotations": [[1, 2, 0.3], [2, 3, -0.2]]},
    )
    assert main(["factor", "--in", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(doc["f_prime"], [5, -4, 3], atol=1e-12)
    assert doc["reconstruction_error"] <= 1e-15 * np.cosh(2 * np.sqrt(50)) ** 2


def test_factor_rejects_time_reversal(tmp_path):
    path = _write(
        tmp_path,
        "bad.json",
        {"matrix": [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]},
    )
    assert main(["factor", "--in", path]) == 1


def test_factor_rejects_non_lorentz(tmp_path):
    path = _write(tmp_path, "bad.json", {"matrix": [[2, 0], [0, 2]]})
    assert main(["factor", "--in", path]) == 1


def test_gauge_flow(tmp_path, capsys):
    path = _write(
        tmp_path,
        "section.json",
        {
            "m": 2,
            "d": 2,
            "nodes": [
                {"sigma": [0.1, 0.2], "v": [1.0, 0.0], "xi": [0.3, 0.1, -0.2]},
                {"sigma": [-0.2, 0.05], "v": [0.0, 1.0], "xi": [-0.1, 0.2, 0.4]},
            ],
        },
    )
    assert main(["gauge", "--in", path, "--steps", "24"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 2 and doc["d"] == 2
    assert len(doc["nodes"]) == 2
    assert all("xi" in node for node in doc["nodes"])


def test_gauge_requires_xi(tmp_path):
    path = _write(
        tmp_path,
        "section.json",
        {"m": 2, "d": 2, "nodes": [{"sigma": [0.1, 0.2], "v": [1.0, 0.0]}]},
    )
    assert main(["gauge", "--in", path]) == 2


def test_gauge_rep_dimension_mismatch(tmp_path):
    path = _write(
        tmp_path,
        "section.json",
        {"m": 3, "d": 3, "nodes": [{"sigma": [0.1, 0.2, 0.0], "v": [1.0, 0.0, 0.0], "xi": [0, 0, 0, 1, 0, 0]}]},
    )
    assert main(["gauge", "--in", path, "--rep", "spinor"]) == 2


def test_verify_suites_pass(capsys):
    for suite in SUITES:
        assert main(["verify", suite]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["n_failed"] == 0


def test_verify_unknown_suite():
    assert main(["verify", "nosuch"]) == 2


def test_verify_csv(capsys):
    assert main(["verify", "coeffs", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,passed,measured,threshold,informational"
    assert any(line.startswith("coeff_bernoulli_match,true,") for line in lines)


def test_verify_failed_row_exits_one(monkeypatch, capsys):
    from cosetrep import verify

    failing = verify._row("forced_failure", 1.0, 0.0, "a row over its bar")
    monkeypatch.setitem(verify.SUITES, "coeffs", lambda seed=0: [failing])
    assert main(["verify", "coeffs"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False and doc["n_failed"] == 1
    assert "tol" not in doc
    assert main(["verify", "coeffs", "--format", "csv"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "forced_failure,false,1.0,0.0,false"


def test_verify_has_no_threshold_override():
    assert main(["verify", "all", "--tol", "1e-3"]) == 2


def test_verify_reports_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "series", "--seed", "3", "--out", str(a)]) == 0
    assert main(["verify", "series", "--seed", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert main(["verify", "series", "--seed", "4", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_verify_variant_report_rows_present(capsys):
    assert main(["verify", "series"]) == 0
    doc = json.loads(capsys.readouterr().out)
    variant_rows = [r for r in doc["results"] if "variant_profile" in r["name"]]
    assert len(variant_rows) == 5
    assert all(r["informational"] for r in variant_rows)
    assert {r["name"][-2:] for r in variant_rows} == {"m2", "m3"}


def test_verify_in_only_for_algebra(tmp_path, capsys):
    from cosetrep.lie import algebra_to_json_dict, so1m_algebra

    path = _write(tmp_path, "alg.json", algebra_to_json_dict(so1m_algebra(2)))
    assert main(["verify", "algebra", "--in", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert main(["verify", "coeffs", "--in", path]) == 2
    broken = _write(tmp_path, "broken.json", {"dim_h": 1})
    assert main(["verify", "algebra", "--in", broken]) == 2


@pytest.mark.parametrize("suite", ["series", "coeffs"])
def test_verify_rejects_a_negative_seed(suite, capsys):
    assert main(["verify", suite, "--seed", "-1"]) == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert main(["verify", suite, "--seed", "0.5"]) == 2


@pytest.mark.parametrize(
    "rep, doc",
    [
        (
            "vector",
            {
                "m": 3,
                "sigma": [0.24, 0.25, 0.01],
                "xi": {"boost": [-0.18, -0.91, -0.9], "rotations": [[1, 2, -0.43], [1, 3, -0.89], [2, 3, -0.23]]},
                "v": [1.0, 0.3, -0.53],
            },
        ),
        (
            "spinor",
            {
                "m": 5,
                "sigma": [0.24, 0.25, 0.01, -0.3, 0.12],
                "xi": {"boost": [-0.18, -0.91, -0.9, 0.4, 0.05], "rotations": [[1, 2, -0.43], [2, 5, -0.23], [4, 5, 0.61]]},
                "v": [round(0.13 * k - 0.7, 2) for k in range(16)],
            },
        ),
    ],
)
def test_realize_d_v_is_the_library_compensator_action(tmp_path, capsys, rep, doc):
    """The report's d_v is infinitesimal_action's dv, byte for byte; summing
    hrep.matrix(dI) @ v instead differs in the last bits for both documents."""
    from cosetrep.induced import infinitesimal_action, spinor_hrep, vector_hrep
    from cosetrep.lie import CosetPoint, generator_coords, so1m_algebra

    path = _write(tmp_path, "gen.json", doc)
    assert main(["realize", "--in", path, "--rep", rep]) == 0
    got = np.array(json.loads(capsys.readouterr().out)["d_v"])
    m, xi = doc["m"], doc["xi"]
    alg = so1m_algebra(m)
    h, f = generator_coords(m, xi["boost"], xi["rotations"])
    hrep = (vector_hrep if rep == "vector" else spinor_hrep)(m)
    point, v = CosetPoint(np.array(doc["sigma"])), np.array(doc["v"])
    _, dv = infinitesimal_action(alg, alg.element(h=h, f=f), point, v, hrep)
    assert got.tobytes() == dv.tobytes()


def _so12_document(**changes):
    """so(1,2) as an algebra document, with some fields replaced."""
    from cosetrep.lie import algebra_to_json_dict, so1m_algebra

    return {**algebra_to_json_dict(so1m_algebra(2)), **changes}


def _overflowing_so13_document():
    """so(1,3) with one c_fh entry raised by 0.5 and every table scaled by
    1e200: the Jacobi products overflow, and the residual is NaN."""
    from cosetrep.lie import algebra_to_json_dict, so1m_algebra

    alg = so1m_algebra(3)
    c_fh = np.array(alg.c_fh)
    c_fh[0, 0, 1] += 0.5
    tables = {"c_hh": alg.c_hh, "c_ff": alg.c_ff, "c_fh": c_fh}
    return {**algebra_to_json_dict(alg), **{k: (1e200 * v).tolist() for k, v in tables.items()}}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("realize", {"m": 3, "sigma": [0.1, 0.2, 0.3], "xi": {"boost": [1, 0, 0]}, "v": ["a", 0, 0]}),
        ("realize", {"m": "x", "sigma": [0.1, 0.2, 0.3], "xi": {"boost": [1, 0, 0]}}),
        ("realize", {"m": 2.5, "sigma": [0.1, 0.2], "xi": {"boost": [1, 0]}}),
        ("factor", {"matrix": [["a", 0], [0, 1]]}),
        ("factor", {"m": "x", "boost": [0.1, 0]}),
        ("factor", {"m": 2.5, "boost": [0.1, 0]}),
        ("factor", [1, 2]),
        ("gauge", {"m": 2, "d": 2, "nodes": [{"sigma": [0.1, 0.2], "v": [1, 0], "xi": ["a", 0, 0]}]}),
        ("gauge", {"m": 2.5, "d": 2, "nodes": [{"sigma": [0.1, 0.2], "v": [1, 0], "xi": [0, 0, 0]}]}),
        ("realize", {"m": 3, "sigma": [0.1, 0.2, 0.3], "xi": {"rotations": [[1.5, 2.7, 0.3]]}}),
        ("realize", {"m": 3, "sigma": [0.1, 0.2, 0.3], "xi": {"rotations": [[True, 2, 0.3]]}}),
        ("factor", {"m": 3, "rotations": [[1.5, 2.7, 0.3]]}),
        ("factor", {"m": 3, "rotations": [[True, 2, 0.3]]}),
        ("factor", {"m": 3, "boost": [400, 0, 0]}),
        ("factor", {"m": 3, "boost": [300, 0, 0]}),
        # numpy reads "0.5" as 0.5 and true as 1.0; the documents must not
        ("factor", {"m": 3, "boost": ["0.5", True, 0]}),
        ("realize", {"sigma": ["0.1", True, 0], "xi": {"boost": [1, 0, 0]}}),
        ("gauge", {"m": 3, "d": 3, "nodes": [{"sigma": ["0.1", True, 0], "v": [1, 0, 0], "xi": [0] * 6}]}),
        ("factor", {"m": 3, "rotations": [[1, 2, "0.3"]]}),
        ("gauge", {"m": 2, "d": 2, "nodes": [{"sigma": [0.1, 0.2], "v": [1, 0], "xi": [0, False, 0]}]}),
        (
            "verify algebra",
            _so12_document(dim_h="1", c_hh=[[[False]]], c_ff=[[["0.0"], ["-4.0"]], [["4.0"], ["0"]]]),
        ),
        # int() would truncate 1.7 to 1
        ("verify algebra", _so12_document(dim_h=1.7)),
        # a NaN Jacobi residual must reject the table, not pass it
        ("verify algebra", _overflowing_so13_document()),
        # a non-finite entry exits 2 as a non-finite boost does, not 1 as a
        # matrix that does not preserve the form
        ("factor", {"matrix": [[float("nan"), 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}),
        ("factor", {"matrix": [[float("inf"), 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}),
    ],
)
def test_malformed_documents_exit_two(tmp_path, capsys, command, payload):
    path = _write(tmp_path, "doc.json", payload)
    assert main([*command.split(), "--in", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cosetrep: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, payload",
    [
        ("realize", {"sigma": [0.1, None], "xi": {"boost": [1, 0]}}),
        ("gauge", {"m": 2, "d": 2, "nodes": [{"sigma": [0.1, None], "v": [1, 0], "xi": [0, 0, 0]}]}),
    ],
)
def test_null_is_not_a_number(tmp_path, capsys, command, payload):
    """numpy reads JSON null as NaN, so a sigma holding it used to exit 2 as
    a non-finite sigma, which names the wrong fault."""
    path = _write(tmp_path, "doc.json", payload)
    assert main([command, "--in", path]) == 2
    assert "sigma must hold numbers, not strings, booleans or null" in capsys.readouterr().err


def test_an_integer_past_the_float_range_is_a_usage_error(tmp_path, capsys):
    """float() of a JSON integer past 1.8e308 raises OverflowError, which used
    to end the CLI with a traceback."""
    path = _write(tmp_path, "doc.json", {"sigma": [10**400, 0], "xi": {"boost": [1, 0]}})
    assert main(["realize", "--in", path]) == 2
    assert "sigma must hold numbers: int too large to convert to float" in capsys.readouterr().err


def test_usage_without_command():
    assert main([]) == 2


def test_import_leaves_scipy_unloaded():
    """The package and its CLI run on numpy alone: scipy is a test-only
    reference."""
    import subprocess
    import sys

    import cosetrep

    src = str(Path(cosetrep.__file__).resolve().parents[1])
    code = "import sys, cosetrep, cosetrep.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_gauge_non_finite_time_is_a_usage_error(tmp_path, capsys, t):
    path = _write(
        tmp_path,
        "section.json",
        {"m": 2, "d": 2, "nodes": [{"sigma": [0.1, 0.2], "v": [1.0, 0.0], "xi": [0.3, 0.1, -0.2]}]},
    )
    assert main(["gauge", "--in", path, f"--t={t}"]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_realize_with_m_one_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "point.json", {"sigma": [0.1], "xi": {"boost": [0.2]}})
    assert main(["realize", "--in", path]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("cosetrep: ") and "m must be >= 2" in err[0]


def test_gauge_with_m_one_is_a_usage_error(tmp_path, capsys):
    path = _write(
        tmp_path,
        "section.json",
        {"m": 1, "d": 1, "nodes": [{"sigma": [0.1], "v": [1.0], "xi": [0.2]}]},
    )
    assert main(["gauge", "--in", path]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("cosetrep: ") and "m must be >= 2" in err[0]


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "point.json", {"sigma": [0.1, 0.2], "xi": {"boost": [0.2, 0.0]}})
    assert main(["realize", "--in", path, "--out", str(tmp_path / "missing" / "out.json")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("cosetrep: ")


_SECTION = {"m": 2, "d": 2, "nodes": [{"sigma": [0.1, 0.2], "v": [1.0, 0.0], "xi": [0.3, 0.1, -0.2]}]}


def test_gauge_reads_its_time_flag(tmp_path, capsys):
    """--t 0.5 flows for half the time; text that spells no number is a
    usage error."""
    from cosetrep.induced import flow_section, section_from_json_dict, vector_hrep
    from cosetrep.lie import so1m_algebra

    path = _write(tmp_path, "section.json", _SECTION)
    assert main(["gauge", "--in", path, "--t", "0.5"]) == 0
    got, _ = section_from_json_dict(json.loads(capsys.readouterr().out))
    section, xi = section_from_json_dict(_SECTION)
    want = flow_section(so1m_algebra(2), section, xi, 0.5, 16, vector_hrep(2))
    assert got.sigma.tobytes() == want.sigma.tobytes() and got.v.tobytes() == want.v.tobytes()
    assert main(["gauge", "--in", path, "--t", "abc"]) == 2
    assert "not a number: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("0", "value must be >= 1, got 0"),
    ("2.5", "value must be an integer, got 2.5"),
    ("two", "not a number: 'two'"),
], ids=["below-the-bound", "not-an-integer", "not-a-number"])
def test_integer_flags_read_through_the_integer_rule(tmp_path, capsys, text, message):
    path = _write(tmp_path, "section.json", _SECTION)
    assert main(["gauge", "--in", path, "--steps", text]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("payload, flags, message", [
    ({"matrix": np.eye(4).tolist()}, ["--m", "2"], "matrix is 4x4 but --m 2 was given"),
    ({"m": 3, "boost": [0.1, 0.0, 0.0]}, ["--m", "2"], "document has m=3 but --m 2 was given"),
    ({"boost": [0.1, 0.0]}, [], "document needs either a matrix or an m with boost/rotations"),
    ({"matrix": np.eye(3)[:2].tolist()}, [], "matrix must be square, of shape (..., d, d) with d >= 2"),
    ({"matrix": [[1.0]]}, ["--m", "2"], "matrix must be square"),
], ids=["matrix-against-m", "recipe-against-m", "neither", "not-square", "too-small"])
def test_factor_checks_its_document_against_m(tmp_path, capsys, payload, flags, message):
    path = _write(tmp_path, "g.json", payload)
    assert main(["factor", "--in", path, *flags]) == 2
    assert message in capsys.readouterr().err


def test_realize_rejects_a_sigma_whose_length_is_not_m(tmp_path, capsys):
    path = _write(tmp_path, "point.json", {"m": 3, "sigma": [0.1, 0.2], "xi": {"boost": [1.0, 0.0, 0.0]}})
    assert main(["realize", "--in", path]) == 2
    assert "sigma must have 3 entries, got shape (2,)" in capsys.readouterr().err
