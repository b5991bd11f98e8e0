"""End-to-end command-line checks: every subcommand is exercised in process
through main(), reports are parsed back from stdout and validated against
the JSON schemas, and the exit-code contract is pinned."""

import argparse
import io
import json
import re
import time
from pathlib import Path

import jsonschema
import pytest

import polyloj.cli as cli
from polyloj import PolynomialMapping, check_witness, nondegenerate_at_infinity, parse_polynomial
from polyloj.cli import GRAMMAR, main

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"

G31 = "(x1^2 - 1)^2 + (x1*x2 - 1)^2"
H31 = "(x1^2 - 1)^2 + (x2^2 - 1)^2"
G32 = "x1^2 + x2^4"
H32 = "x1^2 + x2^2"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0, err
    return json.loads(out)


def load_schema(name):
    with open(SCHEMA_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_polyhedron_report(capsys):
    report = run_report(["polyhedron", "--text", G31, "--n", "2"], capsys)
    assert report["command"] == "polyhedron"
    assert report["schema"] == "polyloj/polyhedron/v1"
    assert report["tool"] == {"name": "polyloj", "version": "0.1.0"}
    assert report["inputs"][0]["name"] == "f1"
    result = report["result"]
    assert sorted(tuple(v) for v in result["polyhedron"]["vertices"]) == [
        (0, 0),
        (2, 2),
        (4, 0),
    ]
    assert result["convenient"] is False
    assert result["missing_axes"] == [2]
    jsonschema.validate(report, load_schema("report.v1.schema.json"))
    jsonschema.validate(result, load_schema("polyhedron.v1.schema.json"))


def test_convenient_report(capsys):
    report = run_report(["convenient", "--text", H31, "--n", "2"], capsys)
    assert report["result"] == {"convenient": True, "missing_axes": []}


def test_faces_report(capsys):
    report = run_report(["faces", "--text", "x1 + x2", "--n", "2"], capsys)
    faces = report["result"]["faces"]
    # a segment: the whole edge plus its two endpoints
    assert len(faces) == 3
    dims = sorted(face["dim"] for face in faces)
    assert dims == [0, 0, 1]


def test_check_nondegenerate_exact(capsys):
    report = run_report(
        ["check-nondegenerate", "--text", G32, "--text", H32, "--n", "2",
         "--mode", "exact"],
        capsys,
    )
    result = report["result"]
    assert result["verdict"] == "NonDegenerate"
    assert result["mode"] == "Exact2D"
    jsonschema.validate(result, load_schema("nondegeneracy.v1.schema.json"))


def test_check_nondegenerate_records_what_it_ran(capsys):
    report = run_report(
        ["check-nondegenerate", "--n", "3", "--text", "x1^2+x2^2+x3^2-x1*x2*x3",
         "--budget", "7"],
        capsys,
    )
    # Only the settings the command has, and the constants the witness
    # rule and the search read.
    assert report["config"] == {
        "attempts": 7,
        "budget": 7,
        "mode": "auto",
        "seed": 0,
        "tolerances": {
            "LOG_COORD_BOUND": 19.5,
            "MINOR_TOL": 1e-8,
            "RESIDUAL_TOL": 1e-10,
            "SMALL_COORD_FACTOR": 0.01,
        },
    }
    trials = {
        e["evidence"]["trials"]
        for e in report["result"]["tuples"]
        if e["evidence"]["kind"] == "SearchExhausted"
    }
    assert trials <= {7}


@pytest.mark.parametrize(
    "argv,config",
    [
        (["polyhedron", "--text", G32, "--n", "2"], {"seed": 0}),
        (
            ["verify-inequality", "--text", G32, "--text", H32, "--n", "2",
             "--alpha", "0.5", "--beta", "1.0", "--c", "1.0", "--samples", "50"],
            {
                "seed": 0,
                "samples": 50,
                "halfwidth": 10.0,
                "tolerances": {"LEVEL_REL_TOL": 1e-12, "RATIO_TOL": 1e-9},
            },
        ),
        (
            ["genericity", "--supports", "[[[2,0],[0,4]],[[2,0],[0,2]]]",
             "--trials", "2", "--seed", "5"],
            {"seed": 5, "trials": 2, "budget": 2000},
        ),
    ],
)
def test_config_holds_only_the_command_settings(argv, config, capsys):
    report = run_report(argv, capsys)
    assert report["config"] == config
    jsonschema.validate(report, load_schema("report.v1.schema.json"))


def test_verify_inequality_records_its_halfwidth(capsys):
    argv = ["verify-inequality", "--text", G32, "--text", H32, "--n", "2",
            "--alpha", "0.5", "--beta", "1.0", "--c", "1.0", "--samples", "50"]
    configs = [
        run_report(argv + ["--halfwidth", width], capsys)["config"]
        for width in ("10", "2.5")
    ]
    assert [c["halfwidth"] for c in configs] == [10.0, 2.5]


def test_fit_exponents_records_what_it_read(capsys):
    report = run_report(
        ["fit-exponents", "--text", G32, "--text", H32, "--n", "2", "--budget", "4"],
        capsys,
    )
    assert report["config"] == {
        "budget": 4,
        "seed": 0,
        "tolerances": {
            "GRID_POINTS": 12,
            "LARGE_GRID_HIGH": 1e6,
            "LARGE_GRID_LOW": 1e2,
            "LEVEL_REL_TOL": 1e-12,
            "SMALL_GRID_HIGH": 1e-2,
            "SMALL_GRID_LOW": 1e-6,
        },
    }
    jsonschema.validate(report, load_schema("report.v1.schema.json"))


def test_check_nondegenerate_degenerate_witness(capsys):
    report = run_report(
        ["check-nondegenerate", "--text", "(x1 - x2)^2", "--n", "2"], capsys
    )
    assert report["result"]["verdict"] == "Degenerate"


@pytest.mark.parametrize(
    "text",
    [
        # Irrational double roots, refined to float witnesses that must pass
        # the exact re-check; the second one's minor (about 1e-3 at
        # |x| ~ 1414) fits only a bound scaled like the residuals.
        "(x1^2 - 6*x1*x2 - 1/7*x2^2)^2*x2^2 + 1",
        "(x2^2 - 2000000*x1^2)^2 + 1",
        # Face coefficients near 3.6e13: the witness's minor, about 1.7e-3,
        # is noise only relative to the size of its terms.
        "x1*x2*(6000000*x2^2 - 2000003)^2 + 1",
        # The witness (1, -0.0141...) lies near the axis x2 = 0, where every
        # term of the face vanishes with its monomial factor x1*x2.
        "x1*x2*(x2^2 - 2/10000*x1^2)^2 + 1",
        # The witness (-1414.2..., 1) has x2 far below max |x_j|, but the face
        # holds x2 only in its monomial factor, so x2 is not near an axis.
        "x1^2*x2*(x1^2 - 2000000)^2 + 1",
    ],
)
def test_check_nondegenerate_float_witness_rechecks(text, capsys):
    report = run_report(["check-nondegenerate", "--text", text, "--n", "2"], capsys)
    assert report["result"]["verdict"] == "Degenerate"
    F = PolynomialMapping((parse_polynomial(text, 2),))
    for entry in nondegenerate_at_infinity(F).witness_entries():
        assert check_witness(entry.system, entry.evidence.witness)[0]


def test_check_nondegenerate_exact_witness_with_a_large_root(capsys):
    # The rational root 10^-20 is recovered from its isolating interval,
    # not by trial division up to the square root of 10^20.
    start = time.perf_counter()
    report = run_report(
        ["check-nondegenerate", "--text", "(x1 - 100000000000000000000*x2)^2 + 1", "--n", "2"],
        capsys,
    )
    assert time.perf_counter() - start < 2.0
    assert report["result"]["verdict"] == "Degenerate"
    witnesses = [
        e["evidence"]["witness_exact"]
        for e in report["result"]["tuples"]
        if e["evidence"]["kind"] == "Witness"
    ]
    assert witnesses == [["1", "1/100000000000000000000"]]


def test_fit_exponents_report(capsys):
    report = run_report(
        ["fit-exponents", "--text", G32, "--text", H32, "--n", "2",
         "--budget", "12"],
        capsys,
    )
    result = report["result"]
    assert abs(result["alpha"] - 0.5) < 0.05
    assert abs(result["beta"] - 1.0) < 0.1
    jsonschema.validate(result, load_schema("fit.v1.schema.json"))


def test_genericity_report_with_pinned_coefficients(capsys):
    report = run_report(
        ["genericity", "--supports", "[[[2,0],[1,1],[0,2]]]",
         "--coeffs", "[[1,-2,1]]", "--trials", "1"],
        capsys,
    )
    result = report["result"]
    assert result["trials"] == 1
    assert result["degenerate"] == 1
    assert result["degenerate_instances"] == [[["1", "-2", "1"]]]
    jsonschema.validate(result, load_schema("genericity.v1.schema.json"))


def test_complete_basis_report(capsys):
    report = run_report(
        ["complete-basis", "--q-list", "[[1,1]]",
         "--support", "[[1,0],[0,1]]"],
        capsys,
    )
    result = report["result"]
    assert result["basis"]["rows"] == [[1, 1], [1, 0]]
    assert result["det"] == "-1"
    assert report["inputs"][0]["name"] == "q_list"


def test_complete_basis_support_from_text(capsys):
    report = run_report(
        ["complete-basis", "--q-list", "[[1,1]]", "--text", "x1*x2 + x1",
         "--n", "2"],
        capsys,
    )
    from polyloj.reports import input_hash

    # the support is the sorted union of the exponents appearing in the text
    assert report["inputs"][1]["name"] == "support"
    assert report["inputs"][1]["sha256"] == input_hash("[[1, 0], [1, 1]]")


def test_complete_basis_large_simplex_is_fast(capsys):
    start = time.perf_counter()
    report = run_report(
        ["complete-basis", "--q-list", "[[127,113,109]]", "--support", "[[0,0,0]]"],
        capsys,
    )
    assert time.perf_counter() - start < 2.0
    assert report["result"]["basis"]["rows"] == [
        [127, 113, 109],
        [1, 0, 0],
        [32, 28, 27],
    ]


def test_complete_basis_refuses_too_many_lattice_points(capsys):
    start = time.perf_counter()
    code, out, err = run(
        ["complete-basis", "--q-list", "[[1,0,0],[0,1000000,0]]",
         "--support", "[[0,0,0]]"],
        capsys,
    )
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert out == ""
    assert "lattice points" in err


def test_stdout_is_deterministic(capsys):
    argv = ["check-nondegenerate", "--text", G31, "--text", H31, "--n", "2",
            "--seed", "3"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        ["polyhedron", "--text", G32, "--n", "2", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    on_disk = target.read_text(encoding="utf-8")
    _, stdout_copy, _ = run(["polyhedron", "--text", G32, "--n", "2"], capsys)
    assert on_disk == stdout_copy


def test_json_file_input(tmp_path, capsys):
    from polyloj.polynomials import PolynomialMapping, parse_polynomial

    F = PolynomialMapping((parse_polynomial(G32, 2), parse_polynomial(H32, 2)))
    source = tmp_path / "pair.json"
    source.write_text(json.dumps(F.to_json()), encoding="utf-8")
    report = run_report(
        ["check-nondegenerate", "--json", str(source), "--mode", "exact"], capsys
    )
    from polyloj.reports import input_hash

    assert report["result"]["verdict"] == "NonDegenerate"
    assert report["inputs"][1] == {"name": "f2", "sha256": input_hash(H32)}


def test_json_stdin_input(monkeypatch, capsys):
    from polyloj.polynomials import parse_polynomial

    payload = json.dumps(parse_polynomial("x1^2 + x2^2", 2).to_json())
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    report = run_report(["convenient", "--json", "-"], capsys)
    assert report["result"]["convenient"] is True


def test_wrong_component_count_is_usage_error(capsys):
    code, out, err = run(
        ["fit-exponents", "--text", G32, "--n", "2"], capsys
    )
    assert code == 1
    assert out == ""
    assert "expects exactly 2 polynomial component(s), got 1" in err
    assert GRAMMAR in err


def test_parse_error_is_usage_error(capsys):
    code, _, err = run(["polyhedron", "--text", "x1^^2", "--n", "1"], capsys)
    assert code == 1
    assert err.startswith("usage error:")


def test_oversized_expansion_is_usage_error(capsys):
    for text, n, message in [
        ("(x1+x2+x3+1)^60", "3", "more than 2000"),
        ("3^2147483647*x1", "1", "bit coefficients"),
        ("(2^129*x1+2^129)^400", "1", "bits in all"),
    ]:
        code, out, err = run(["polyhedron", "--text", text, "--n", n], capsys)
        assert code == 1
        assert out == ""
        assert message in err


def test_missing_input_is_usage_error(capsys):
    code, _, err = run(["polyhedron"], capsys)
    assert code == 1
    assert "--text or --json" in err


def test_text_without_n_is_usage_error(capsys):
    code, _, err = run(["polyhedron", "--text", "x1 + x2"], capsys)
    assert code == 1
    assert "--n is required" in err


def test_constraint_without_level_is_usage_error(capsys):
    code, _, err = run(
        ["ktilde-probe", "--text", G32, "--n", "2", "--constraint", H32], capsys
    )
    assert code == 1
    assert "--constraint and --level" in err


def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1
    assert GRAMMAR in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["polyhedron", "--bogus"])
    assert excinfo.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check-nondegenerate", "--n", "3", "--text",
         "x1^2+x2^2+x3^2-x1*x2*x3", "--budget", "-3"],
        ["check-nondegenerate", "--n", "2", "--text", G32, "--budget", "0"],
        ["genericity", "--n", "2", "--text", G32, "--trials", "0"],
        ["verify-inequality", "--text", G32, "--text", H32, "--n", "2",
         "--alpha", "0.5", "--beta", "1.0", "--c", "1.0", "--samples", "0"],
    ],
    ids=["budget-negative", "budget-zero", "trials-zero", "samples-zero"],
)
def test_count_below_one_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert "must be at least 1" in err


def test_grammar_names_only_real_flags():
    parser = cli.build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    accepted = {
        flag
        for sp in sub.choices.values()
        for action in sp._actions
        for flag in action.option_strings
    }
    named = set(re.findall(r"--[a-z][a-z-]*", GRAMMAR))
    assert named
    assert named <= accepted, named - accepted
    assert "polyloj COMMAND --help" in GRAMMAR


def test_internal_failure_exits_two(monkeypatch, capsys):
    def explode(_gamma):
        raise RuntimeError("probe exploded")

    monkeypatch.setattr(cli, "newton_polyhedron", explode)
    code, out, err = run(["polyhedron", "--text", "x1", "--n", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "RuntimeError: probe exploded" in err


def test_linear_algebra_failure_exits_two(monkeypatch, capsys):
    # LinAlgError subclasses ValueError; it is an internal failure all the
    # same, not a usage error.
    import numpy as np

    import polyloj.nondegeneracy as nondegeneracy

    def explode(*_args, **_kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(nondegeneracy, "witness_search", explode)
    code, out, err = run(
        ["check-nondegenerate", "--text", "(x1 - x2)^2 + x3^2", "--n", "3"], capsys
    )
    assert code == 2
    assert out == ""
    assert "LinAlgError: SVD did not converge" in err
    assert "usage error" not in err


SMOKE_CASES = [
    ("polyhedron", ["polyhedron", "--text", G32, "--n", "2"]),
    ("convenient", ["convenient", "--text", G32, "--n", "2"]),
    ("faces", ["faces", "--text", G32, "--n", "2"]),
    (
        "check-nondegenerate",
        ["check-nondegenerate", "--text", G32, "--text", H32, "--n", "2"],
    ),
    ("reduce", ["reduce", "--text", "x1^2*x2^2 + x1*x2", "--n", "2"]),
    (
        "complete-basis",
        ["complete-basis", "--q-list", "[[1,1]]", "--support", "[[1,0],[0,1]]"],
    ),
    (
        "fit-exponents",
        ["fit-exponents", "--text", G32, "--text", H32, "--n", "2",
         "--budget", "12"],
    ),
    (
        "verify-inequality",
        ["verify-inequality", "--text", G32, "--text", H32, "--n", "2",
         "--alpha", "0.5", "--beta", "1.0", "--c", "1.0", "--samples", "2000"],
    ),
    (
        "hunt-sequence",
        ["hunt-sequence", "--text", G31, "--text", H31, "--n", "2",
         "--kind", "second"],
    ),
    (
        "ktilde-probe",
        ["ktilde-probe", "--text", "(x1*x2 - 1)^2", "--n", "2",
         "--radii", "10,100", "--budget", "8"],
    ),
    (
        "multiplier",
        ["multiplier", "--text", G32, "--text", H32, "--n", "2",
         "--alpha", "0.5", "--samples", "2000"],
    ),
    (
        "genericity",
        ["genericity", "--supports", "[[[2,0],[0,4]],[[2,0],[0,2]]]",
         "--trials", "5"],
    ),
    ("reproduce-example31", ["reproduce-example31"]),
    ("reproduce-example32", ["reproduce-example32", "--budget", "16"]),
]


@pytest.mark.parametrize("command,argv", SMOKE_CASES, ids=[c for c, _ in SMOKE_CASES])
def test_subcommand_smoke(command, argv, capsys):
    report = run_report(argv, capsys)
    assert report["command"] == command
    assert report["schema"] == f"polyloj/{command}/v1"
    jsonschema.validate(report, load_schema("report.v1.schema.json"))


def test_smoke_covers_every_subcommand():
    parser = cli.build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert sorted(sub.choices) == sorted(c for c, _ in SMOKE_CASES)


def test_reproduce_example32_claims_all_hold(capsys):
    report = run_report(["reproduce-example32", "--budget", "16"], capsys)
    claims = report["result"]["claims"]
    assert claims == {
        "g_convenient": True,
        "pair_nondegenerate": True,
        "alpha_near_half": True,
        "beta_near_one": True,
        "inequality_half_one_one_holds": True,
        "multiplier_is_six": True,
        "factor_bounded_by_ten": True,
    }
    jsonschema.validate(
        report["result"], load_schema("reproduce32.v1.schema.json")
    )
