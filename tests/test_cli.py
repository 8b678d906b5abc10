"""End-to-end command line tests, run in process through main()."""

import copy
import csv
import io
import json

import numpy as np
import pytest

from resultant_lab.basis import DegreeGradedBasis
from resultant_lab.cli import main
from resultant_lab.multipoly import (MultiPoly, PolynomialSystem,
                                     system_to_json)
from resultant_lab.rootfinder import family_orthogonal_quadratic


def circle_line_json():
    mono = DegreeGradedBasis.monomial()
    c1 = np.zeros((3, 3), dtype=complex)
    c1[0, 0], c1[2, 0], c1[0, 2] = -0.5, 1.0, 1.0
    c2 = np.zeros((2, 2), dtype=complex)
    c2[1, 0], c2[0, 1] = 1.0, -1.0
    sys_ = PolynomialSystem((MultiPoly(mono, 2, c1), MultiPoly(mono, 2, c2)))
    return system_to_json(sys_)


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(circle_line_json()))
    return str(path)


def test_eval_prints_values(system_file, capsys):
    rc = main(["eval", "--system", system_file,
               "--point", "0.5,0.5", "--point", "0,0"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    first = [complex(v) for v in lines[0].split("\t")]
    assert np.allclose(first, [0.0, 0.0], atol=1e-15)
    second = [complex(v) for v in lines[1].split("\t")]
    assert np.allclose(second, [-0.5, 0.0], atol=1e-15)


def test_eval_rejects_wrong_point_length(system_file, capsys):
    rc = main(["eval", "--system", system_file, "--point", "0.1"])
    assert rc == 1
    assert capsys.readouterr().err != ""


def test_solve_json_output(system_file, capsys):
    rc = main(["solve", "--system", system_file])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["method"] == "cayley"
    xs = sorted(r["x_real"][0] for r in obj["roots"])
    assert xs == pytest.approx([-0.5, 0.5], abs=1e-10)


def test_solve_csv_to_file(system_file, tmp_path, capsys):
    out = tmp_path / "roots.csv"
    rc = main(["solve", "--system", system_file, "--method", "sylvester",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 2
    assert {row["recovery"] for row in rows} == {"ratio"}


def test_solve_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        circle_line_json())))
    rc = main(["solve", "--system", "-", "--no-polish"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["roots"]) == 2


def test_cayley_emits_resultant(system_file, capsys):
    rc = main(["cayley", "--system", system_file])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["taus"] == [1]
    assert obj["size"] == 2
    assert obj["degree"] == 4
    assert "unfolding" in obj
    assert "coeff_matrices" in obj


def test_cayley_taus_override(system_file, capsys):
    rc = main(["cayley", "--system", system_file, "--taus", "2"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["taus"] == [2]
    assert obj["size"] == 3


def test_sylvester_emits_resultant(system_file, capsys):
    rc = main(["sylvester", "--system", system_file, "--hidden", "0"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["taus"] == [2, 1]
    assert obj["row_blocks"] == [1, 2]


def test_condition_single_root(tmp_path, capsys):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(system_to_json(
        family_orthogonal_quadratic(2, 0.5))))
    rc = main(["condition", "--system", str(path), "--root", "0,0"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["eig_condition"] == pytest.approx(4.0, rel=1e-9)
    assert obj["rayleigh"][0] == pytest.approx(0.25, abs=1e-12)


def test_condition_family_table(capsys):
    rc = main(["condition", "--dim", "2", "--sigmas", "0.5,0.2",
               "--seed", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "closed_form" in lines[0]
    assert len(lines) == 3
    rels = [float(line.split()[3]) for line in lines[1:]]
    assert max(rels) <= 1e-10


def test_repro_tables(capsys):
    rc = main(["repro"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("closed_form") >= 3
    assert "leading matrix deviation" in out


def test_exit_code_1_on_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["solve", "--system", str(path)])
    assert rc == 1
    assert "json" in capsys.readouterr().err.lower()


def test_exit_code_1_on_nan_coefficient(tmp_path, capsys):
    obj = circle_line_json()
    obj["polys"][1]["coeffs_real"][2] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))  # writes the JSON literal NaN
    assert "NaN" in path.read_text()
    rc = main(["solve", "--system", str(path)])
    assert rc == 1
    assert "non-finite coefficients at index (1, 0)" in capsys.readouterr().err


@pytest.mark.parametrize("argv,component", [
    (["condition", "--root", "0.3,nan"], "component 2 (nan)"),
    (["condition", "--root", "0.3,inf"], "component 2 (inf)"),
    (["condition", "--root", "nan,0.2", "--method", "sylvester"],
     "component 1 (nan)"),
    (["eval", "--point", "nan,0.1"], "component 1 (nan)"),
])
def test_exit_code_1_on_non_finite_components(system_file, capsys, argv,
                                              component):
    rc = main(argv[:1] + ["--system", system_file] + argv[1:])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{component} is not finite" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_code_2_on_overflowing_root(system_file, capsys):
    rc = main(["condition", "--system", system_file, "--root", "0,1e200"])
    assert rc == 2
    assert "P(z) is not finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_code_2_on_overflowing_root_with_sylvester(system_file, capsys):
    # q_1 and q_2 at the hidden component are not finite either, but the
    # failure is P(z)'s, as with the Cayley resultant
    rc = main(["condition", "--system", system_file, "--root", "0,1e200",
               "--method", "sylvester"])
    assert rc == 2
    assert "P(z) is not finite" in capsys.readouterr().err


def test_exit_code_1_on_non_finite_sigma(capsys):
    rc = main(["condition", "--dim", "2", "--sigmas", "0.5,-inf"])
    assert rc == 1
    assert "component 2 (-inf) is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("dim,sigmas,component", [
    (2, "0", "component 1 is 0.0"), (3, "-0.5", "component 1 is -0.5"),
    (2, "0.5,0", "component 2 is 0.0"),
    (2, "0.3+2j", "component 1 is (0.3+2j)")])
def test_exit_code_1_on_non_positive_sigma(capsys, dim, sigmas, component):
    rc = main(["condition", "--dim", str(dim), "--sigmas", sigmas])
    assert rc == 1
    assert (f"{component}, not a positive real number"
            in capsys.readouterr().err)


@pytest.mark.parametrize("flag,value,field", [
    ("--tol-accept", "nan", "tol_accept"),
    ("--tol-accept", "-1", "tol_accept"),
    ("--margin", "nan", "domain_margin"), ("--margin", "-1", "domain_margin"),
    ("--margin", "inf", "domain_margin")])
def test_exit_code_1_on_bad_tolerance_or_margin(system_file, capsys, flag,
                                                value, field):
    rc = main(["solve", "--system", system_file, flag, value])
    assert rc == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["solve", "--hidden", "5"], "--hidden 5 is out of range"),
    (["condition", "--root", "0,0", "--hidden", "-1"],
     "--hidden -1 is out of range"),
    (["solve", "--taus", "1,2,3"], "--taus '1,2,3': need 1 nonnegative"),
    (["cayley", "--taus", "-1"], "--taus '-1': need 1 nonnegative"),
    (["solve", "--method", "sylvester", "--taus", "1"],
     "--taus sets Cayley degree bounds; --method sylvester takes none"),
    (["eval", "--point", "0.1,abc"], "cannot parse point '0.1,abc'"),
    (["condition", "--root", "1,2j+"], "cannot parse root '1,2j+'"),
    (["cayley", "--taus", "one"], "cannot parse degree bounds 'one'"),
    (["condition"], "--root is required with --system"),
    (["condition", "--root", "0.5,0.5,0.5"],
     "root length does not match the system")])
def test_exit_code_1_on_out_of_range_system_flags(system_file, capsys, argv,
                                                  message):
    rc = main(argv[:1] + ["--system", system_file] + argv[1:])
    assert rc == 1
    assert message in capsys.readouterr().err


def test_exit_code_1_on_family_dim_below_two(capsys):
    rc = main(["condition", "--dim", "1", "--sigmas", "0.5"])
    assert rc == 1
    assert "--dim 1" in capsys.readouterr().err


def test_exit_code_1_on_missing_file(capsys):
    rc = main(["solve", "--system", "/nonexistent/system.json"])
    assert rc == 1


@pytest.mark.parametrize("argv", [["eval", "--point", "0.1,0.2"],
                                  ["cayley"], ["sylvester"], ["solve"]],
                         ids=["eval", "cayley", "sylvester", "solve"])
def test_exit_code_1_on_negative_degree(tmp_path, capsys, argv):
    # degree -1 gives an empty coefficient tensor, which no command may
    # take as a polynomial
    obj = circle_line_json()
    obj["polys"][0] = {"degrees": [-1, 1], "coeffs_real": []}
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(obj))
    rc = main([argv[0], "--system", str(path), *argv[1:]])
    assert rc == 1
    assert "negative degree in degrees [-1, 1]" in capsys.readouterr().err


# A custom basis with the Chebyshev recurrence in eight table rows.
CUSTOM_CHEBYSHEV = {"name": "custom", "alpha": [1.0] + [2.0] * 7,
                    "beta": [0.0] * 8,
                    "gamma": [[0.0] * (k - 1) + [-1.0] for k in range(1, 8)]}


@pytest.mark.parametrize("field,raw,message", [
    ("domain", '{"disc": {"center": [0], "radius": 1}}',
     "disc center must be [re, im], got [0]"),
    ("basis", "5", "basis must be a name or an object, got 5"),
    ("polys.1.degrees", "[1e400, 1]",
     "degrees must be integers, got [inf, 1]"),
    ("polys.1.degrees", "[1.7, 1]", "degrees must be integers, got [1.7, 1]"),
    ("polys.1.degrees", "[true, 1]",
     "degrees must be integers, got [True, 1]"),
    ("dim", "2.5", "dim must be an integer, got 2.5"),
    ("domain", '{"interval": [0, 1e400]}',
     "interval [0.0, inf] needs finite lo < hi"),
    ("domain", '{"disc": {"center": [0, 0], "radius": NaN}}',
     "disc needs a finite center and radius > 0"),
    ("domain", '{"interval": [0]}', "interval must be [lo, hi], got [0]"),
    ("domain", '{"interval": [0, "x"]}',
     "interval must be [lo, hi], got [0, 'x']"),
    ("domain", '{"interval": 5}', "interval must be [lo, hi], got 5"),
    ("domain", '{"interval": [true, 1]}',
     "interval must be [lo, hi], got [True, 1]"),
    ("domain", '{"disc": {"center": ["a", 1], "radius": 1}}',
     "disc center must be [re, im], got ['a', 1]"),
    ("domain", '{"disc": {"center": [0, false], "radius": 1}}',
     "disc center must be [re, im], got [0, False]"),
    ("domain", '{"disc": {"center": [0, 0]}}',
     "disc radius must be a number, got None"),
    ("domain", '{"disc": {"center": [0, 0], "radius": "r"}}',
     "disc radius must be a number, got 'r'"),
    ("domain", '{"disc": {"center": [0, 0], "radius": true}}',
     "disc radius must be a number, got True"),
    ("domain", '{"disc": 3}',
     "domain JSON needs an 'interval' or a 'disc' object, got {'disc': 3}"),
    ("domain", '"interval"',
     "domain JSON needs an 'interval' or a 'disc' object, got 'interval'"),
    ("basis.alpha", "[true, 2, 2, 2, 2, 2, 2, 2]",
     "alpha[0] must be a number or [re, im], got True"),
    ("polys.1.coeffs_real", "[true, 0, 0, 1]",
     "polys[1].coeffs_real[0] must be a number, got True"),
    ("polys.1.coeffs_imag", "[false, 0, 0, 0]",
     "polys[1].coeffs_imag[0] must be a number, got False"),
    ("basis.gamma.0.0", '["a", 1]',
     "gamma[0][0] must be a number or [re, im], got ['a', 1]"),
    ("basis.alpha", None, "alpha must be a list of numbers, got None"),
    ("polys.1", "5",
     "polys[1] must be an object with 'degrees' and 'coeffs_real'"),
    ("polys.1.coeffs_real", None,
     "polys[1] must be an object with 'degrees' and 'coeffs_real'"),
    ("polys", "3", "polys must be a list, got 3"),
    ("basis.beta", "[NaN, 0, 0, 0, 0, 0, 0, 0]",
     "non-finite beta at index (0,)"),
    ("basis.alpha", "[]", "alpha needs one or more nonzero entries"),
], ids=["short-center", "basis-number", "degree-overflow",
        "degree-fraction", "degree-bool", "dim-fraction", "infinite-interval",
        "nan-radius", "interval-short", "interval-string", "interval-number",
        "interval-bool", "center-string", "center-bool", "radius-missing",
        "radius-string", "radius-bool", "disc-number", "domain-string",
        "alpha-bool", "coeffs-real-bool", "coeffs-imag-bool",
        "gamma-string", "alpha-missing", "poly-number", "coeffs-real-missing",
        "polys-number", "beta-nan", "alpha-empty"])
def test_exit_code_1_on_malformed_system(tmp_path, capsys, field, raw,
                                         message):
    # raw JSON text in place of the field at a dotted path into a valid
    # system, or no field where raw is None; the second polynomial has
    # degrees [1, 1], and a path into the basis ("basis.alpha") edits
    # CUSTOM_CHEBYSHEV.  The basis alone, with no top-level domain to
    # merge into it, is read by basis_from_json
    obj = circle_line_json()
    if field == "basis":
        del obj["domain"]
    if field.startswith("basis."):
        obj["basis"] = copy.deepcopy(CUSTOM_CHEBYSHEV)
    *parents, leaf = [int(k) if k.isdigit() else k for k in field.split(".")]
    target = obj
    for key in parents:
        target = target[key]
    if raw is None:
        del target[leaf]
    else:
        target[leaf] = "@field@"
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj).replace('"@field@"', raw or ""))
    rc = main(["solve", "--system", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("field,message", [
    ("polys.0.coeffs_real.2", "polys[0].coeffs_real[2] must be a number"),
    ("basis.alpha.3", "alpha[3] must be a number or [re, im]"),
    ("domain.interval.1", "interval must be [lo, hi]")],
    ids=["coefficient", "table-entry", "interval-end"])
def test_exit_code_1_on_number_too_large_for_a_float(tmp_path, capsys, field,
                                                     message):
    # 1 followed by 400 zeros in place of one number of a valid system
    obj = circle_line_json()
    if field.startswith("basis."):
        obj["basis"] = copy.deepcopy(CUSTOM_CHEBYSHEV)
    *parents, leaf = [int(k) if k.isdigit() else k for k in field.split(".")]
    target = obj
    for key in parents:
        target = target[key]
    target[leaf] = "@field@"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj).replace('"@field@"', "1" + "0" * 400))
    rc = main(["solve", "--system", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "(401 digits, too large for a float)" in err
    assert "0" * 400 not in err


def test_exit_code_2_on_sylvester_dim(tmp_path, capsys):
    mono = DegreeGradedBasis.monomial()
    polys = []
    for a in range(3):
        c = np.zeros((2, 2, 2), dtype=complex)
        idx = [0, 0, 0]
        idx[a] = 1
        c[tuple(idx)] = 1.0
        c[0, 0, 0] = -0.1 * (a + 1)
        polys.append(MultiPoly(mono, 3, c))
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(system_to_json(PolynomialSystem(polys))))
    rc = main(["solve", "--system", str(path), "--method", "sylvester"])
    assert rc == 2
    assert capsys.readouterr().err != ""


def test_exit_code_3_on_singular_resultant(tmp_path, capsys):
    # proportional polynomials share a whole line of roots, so the
    # resultant vanishes identically and no eigenproblem exists
    mono = DegreeGradedBasis.monomial()
    c1 = np.zeros((2, 2), dtype=complex)
    c1[1, 0], c1[0, 1] = 1.0, 1.0
    c2 = 2.0 * c1
    sys_ = PolynomialSystem((MultiPoly(mono, 2, c1), MultiPoly(mono, 2, c2)))
    path = tmp_path / "prop.json"
    path.write_text(json.dumps(system_to_json(sys_)))
    rc = main(["solve", "--system", str(path)])
    assert rc == 3
    assert capsys.readouterr().err != ""


def test_log_level_flag(system_file, capsys):
    rc = main(["--log-level", "ERROR", "eval", "--system", system_file,
               "--point", "0,0"])
    assert rc == 0
