"""Command-line interface: each subcommand reads polynomials (inline text
or JSON), runs one library operation, and writes one deterministic JSON
report to stdout or --out.

Exit codes: 0 the report was computed (whatever the verdict), 1 usage
error, 2 internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from fractions import Fraction
from typing import Optional

import numpy as np

from .genericity import genericity_trial
from .lattice import (
    affine_support_covectors,
    reduce_mapping,
    unimodular_complete,
    verify_reduction,
)
from .lojasiewicz import (
    GRID_POINTS,
    LARGE_GRID,
    LEVEL_REL_TOL,
    RATIO_TOL,
    SMALL_GRID,
    FitError,
    fit_exponents,
    hunt_sequences,
    ktilde_probe,
    multiplier,
    verify_inequality,
)
from .nondegeneracy import (
    LOG_COORD_BOUND,
    MINOR_TOL,
    RESIDUAL_TOL,
    SMALL_COORD_FACTOR,
    nondegenerate_at_infinity,
)
from .polyhedra import all_faces, is_convenient, missing_axes, newton_polyhedron
from .polynomials import (
    Polynomial,
    PolynomialError,
    PolynomialMapping,
    parse_polynomial,
)
from .reports import RunConfig, build_report, dumps

GRAMMAR = """\
polynomial text grammar:
  expr     := ['-'] term (('+'|'-') term)*
  term     := factor ('*' factor)*
  factor   := atom ['^' digits]
  atom     := variable | number | '(' expr ')'
  variable := 'x' digits            (1-based: x1 .. xn)
  number   := digits ['/' digits]   (nonnegative rational)
examples: "x1^2 + x2^4", "(x1*x2 - 1)^2", "3/2*x1 - 2"

flags shared by several subcommands (see `polyloj COMMAND --help` for all):
  --n INT         number of variables for --text input
  --text EXPR     polynomial in the grammar above (repeat for mappings)
  --json FILE     polynomial or mapping as JSON ('-' reads stdin)
  --seed INT      RNG seed (default 0)
  --out FILE      write the JSON report to FILE instead of stdout
  --budget INT    search / estimation budget (at least 1)
  --trials INT    random trial count (at least 1)
  --samples INT   sample count (at least 1)
  --mode M        exact | search | sampled | auto (check-nondegenerate)
"""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(f"usage error: {message}\n\n{GRAMMAR}")
        raise SystemExit(1)


def positive_int(text: str) -> int:
    """argparse type of --budget, --trials and --samples: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read_json_source(path: str) -> dict:
    if path == "-":
        return json.loads(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_mapping(args, expect: Optional[int] = None) -> PolynomialMapping:
    if getattr(args, "json", None):
        data = _read_json_source(args.json)
        if "components" in data:
            F = PolynomialMapping.from_json(data)
        else:
            F = PolynomialMapping((Polynomial.from_json(data),))
    elif getattr(args, "text", None):
        if args.n is None:
            raise PolynomialError("--n is required with --text")
        F = PolynomialMapping(
            tuple(parse_polynomial(t, args.n) for t in args.text)
        )
    else:
        raise PolynomialError("provide the input with --text or --json")
    if expect is not None and len(F) != expect:
        raise PolynomialError(
            f"this command expects exactly {expect} polynomial component(s), "
            f"got {len(F)}"
        )
    return F


def _named_inputs(F: PolynomialMapping) -> list[tuple[str, str]]:
    return [(f"f{i + 1}", str(f)) for i, f in enumerate(F)]


def _config(args, **overrides) -> RunConfig:
    """The settings the command's own flags set, as parsed."""
    names = ("seed", "budget", "trials", "mode", "samples", "halfwidth")
    values = {name: getattr(args, name) for name in names if hasattr(args, name)}
    return RunConfig(**values, **overrides)


# -- subcommand handlers -------------------------------------------------------


def cmd_polyhedron(args):
    F = _load_mapping(args, expect=1)
    gamma = newton_polyhedron(F[0])
    result = {
        "polyhedron": gamma.to_json(),
        "convenient": is_convenient(gamma),
        "missing_axes": list(missing_axes(gamma)),
    }
    return "polyhedron", _config(args), _named_inputs(F), result


def cmd_convenient(args):
    F = _load_mapping(args, expect=1)
    gamma = newton_polyhedron(F[0])
    result = {
        "convenient": is_convenient(gamma),
        "missing_axes": list(missing_axes(gamma)),
    }
    return "convenient", _config(args), _named_inputs(F), result


def cmd_faces(args):
    F = _load_mapping(args, expect=1)
    gamma = newton_polyhedron(F[0])
    result = {"faces": [face.to_json() for face in all_faces(gamma)]}
    return "faces", _config(args), _named_inputs(F), result


def cmd_check_nondegenerate(args):
    F = _load_mapping(args)
    mode, enum_mode = args.mode, None
    if mode == "sampled":
        mode, enum_mode = "search", "sampled"
    report = nondegenerate_at_infinity(
        F, mode=mode, attempts=args.budget, seed=args.seed, enum_mode=enum_mode
    )
    tolerances = (
        ("LOG_COORD_BOUND", LOG_COORD_BOUND),
        ("MINOR_TOL", MINOR_TOL),
        ("RESIDUAL_TOL", RESIDUAL_TOL),
        ("SMALL_COORD_FACTOR", SMALL_COORD_FACTOR),
    )
    return (
        "check-nondegenerate",
        _config(args, attempts=args.budget, tolerances=tolerances),
        _named_inputs(F),
        report.to_json(),
    )


def cmd_reduce(args):
    F = _load_mapping(args)
    covectors = affine_support_covectors(F)
    reduction = reduce_mapping(F)
    verification = verify_reduction(reduction, sample_count=50, seed=args.seed)
    result = {
        "covectors": covectors.to_json(),
        "reduction": reduction.to_json(),
        "verification": verification.to_json(),
    }
    return "reduce", _config(args), _named_inputs(F), result


def cmd_complete_basis(args):
    q_list = [tuple(int(v) for v in row) for row in json.loads(args.q_list)]
    if args.support:
        support = [tuple(int(v) for v in row) for row in json.loads(args.support)]
    elif getattr(args, "text", None) or getattr(args, "json", None):
        F = _load_mapping(args)
        support = sorted({k for f in F for k in f.support()})
    else:
        raise PolynomialError("provide the support with --support, --text or --json")
    basis = unimodular_complete(q_list, support)
    result = {"basis": basis.to_json(), "det": str(basis.det())}
    inputs = [
        ("q_list", json.dumps([list(q) for q in q_list])),
        ("support", json.dumps([list(k) for k in support])),
    ]
    return "complete-basis", _config(args), inputs, result


def cmd_fit_exponents(args):
    F = _load_mapping(args, expect=2)
    fit = fit_exponents(F[0], F[1], budget=args.budget, seed=args.seed)
    tolerances = (
        ("GRID_POINTS", GRID_POINTS),
        ("LARGE_GRID_HIGH", LARGE_GRID[1]),
        ("LARGE_GRID_LOW", LARGE_GRID[0]),
        ("LEVEL_REL_TOL", LEVEL_REL_TOL),
        ("SMALL_GRID_HIGH", SMALL_GRID[1]),
        ("SMALL_GRID_LOW", SMALL_GRID[0]),
    )
    return (
        "fit-exponents",
        _config(args, tolerances=tolerances),
        _named_inputs(F),
        fit.to_json(),
    )


def cmd_verify_inequality(args):
    F = _load_mapping(args, expect=2)
    report = verify_inequality(
        F[0],
        F[1],
        args.alpha,
        args.beta,
        args.c,
        box_count=args.samples,
        box_halfwidth=args.halfwidth,
        seed=args.seed,
    )
    tolerances = (("LEVEL_REL_TOL", LEVEL_REL_TOL), ("RATIO_TOL", RATIO_TOL))
    return (
        "verify-inequality",
        _config(args, tolerances=tolerances),
        _named_inputs(F),
        report.to_json(),
    )


def cmd_hunt_sequence(args):
    F = _load_mapping(args, expect=2)
    kind = {"first": "FirstType", "second": "SecondType"}[args.kind]
    evidence = hunt_sequences(F[0], F[1], kind, seed=args.seed)
    result = {
        "found": evidence is not None,
        "evidence": evidence.to_json() if evidence else None,
    }
    return "hunt-sequence", _config(args), _named_inputs(F), result


def cmd_ktilde_probe(args):
    F = _load_mapping(args, expect=1)
    constraint = None
    if (args.constraint is None) != (args.level is None):
        raise PolynomialError("--constraint and --level must be given together")
    if args.constraint is not None:
        if args.n is None:
            raise PolynomialError("--n is required with --constraint")
        constraint = (parse_polynomial(args.constraint, args.n), args.level)
    radii = None
    if args.radii:
        radii = [float(v) for v in args.radii.split(",")]
    report = ktilde_probe(
        F[0], constraint=constraint, radii=radii, budget=args.budget, seed=args.seed
    )
    return "ktilde-probe", _config(args), _named_inputs(F), report.to_json()


def cmd_multiplier(args):
    F = _load_mapping(args, expect=2)
    power, report = multiplier(
        F[0], F[1], args.alpha, ball_samples=args.samples, seed=args.seed
    )
    result = {"N": power, "report": report.to_json()}
    return "multiplier", _config(args), _named_inputs(F), result


def cmd_genericity(args):
    if args.supports:
        supports = [
            [tuple(int(v) for v in kappa) for kappa in z]
            for z in json.loads(args.supports)
        ]
    else:
        F = _load_mapping(args)
        supports = [list(f.support()) for f in F]
    sampler = None
    if args.coeffs:
        pinned = [float(v) for row in json.loads(args.coeffs) for v in row]
        if not pinned:
            raise PolynomialError("--coeffs must contain at least one value")
        state = {"i": 0}

        def sampler(_rng, _values=pinned, _state=state):
            value = _values[_state["i"] % len(_values)]
            _state["i"] += 1
            return value

    stats = genericity_trial(
        supports,
        sampler=sampler,
        trials=args.trials,
        seed=args.seed,
        attempts=args.budget,
    )
    inputs = [("supports", json.dumps([[list(k) for k in z] for z in supports]))]
    return "genericity", _config(args), inputs, stats.to_json()


EXAMPLE_GRID_EXPONENTS = (0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
EXAMPLE_GRID_CONSTANTS = (1e-6, 1e-4, 1e-2, 1.0)


def cmd_reproduce_example31(args):
    g = parse_polynomial("(x1^2 - 1)^2 + (x1*x2 - 1)^2", 2)
    h = parse_polynomial("(x1^2 - 1)^2 + (x2^2 - 1)^2", 2)
    F = PolynomialMapping((g, h))
    gamma_g = newton_polyhedron(g)
    gamma_h = newton_polyhedron(h)
    nondeg = nondegenerate_at_infinity(F, seed=args.seed)
    evidence = hunt_sequences(g, h, "SecondType", seed=args.seed)
    curve_g_near_one = False
    curve_h_blows_up = False
    if evidence is not None:
        s = 1e-3
        point = [
            float(Fraction(aj)) * s**qj for aj, qj in zip(evidence.a, evidence.q)
        ]
        curve_g_near_one = abs(g.evaluate_float(point) - 1.0) < 1e-3
        curve_h_blows_up = abs(h.evaluate_float(point)) > 1e6
    grid = []
    all_violated = True
    curves = (evidence,) if evidence is not None else ()
    for alpha in EXAMPLE_GRID_EXPONENTS:
        for beta in EXAMPLE_GRID_EXPONENTS:
            for c in EXAMPLE_GRID_CONSTANTS:
                rep = verify_inequality(
                    g,
                    h,
                    alpha,
                    beta,
                    c,
                    box_count=2000,
                    level_budget=0,
                    curves=curves,
                    seed=args.seed,
                )
                grid.append(
                    {
                        "alpha": alpha,
                        "beta": beta,
                        "c": c,
                        "violated": not rep.holds,
                        "worst_ratio": rep.worst_ratio,
                    }
                )
                all_violated = all_violated and not rep.holds
    result = {
        "claims": {
            "g_not_convenient": not is_convenient(gamma_g),
            "h_convenient": is_convenient(gamma_h),
            "pair_nondegenerate": nondeg.verdict == "NonDegenerate",
            "second_type_found": evidence is not None,
            "curve_g_near_one": curve_g_near_one,
            "curve_h_blows_up": curve_h_blows_up,
            "inequality_grid_all_violated": all_violated,
        },
        "missing_axes": list(missing_axes(gamma_g)),
        "nondegeneracy_verdict": nondeg.verdict,
        "second_type_evidence": evidence.to_json() if evidence else None,
        "grid": grid,
    }
    return (
        "reproduce-example31",
        _config(args),
        [("g", str(g)), ("h", str(h))],
        result,
    )


def cmd_reproduce_example32(args):
    g = parse_polynomial("x1^2 + x2^4", 2)
    h = parse_polynomial("x1^2 + x2^2", 2)
    F = PolynomialMapping((g, h))
    nondeg = nondegenerate_at_infinity(F, seed=args.seed)
    fit = fit_exponents(g, h, budget=args.budget, seed=args.seed)
    inequality = verify_inequality(
        g,
        h,
        0.5,
        1.0,
        1.0,
        box_count=1000000,
        box_halfwidth=1000.0,
        seed=args.seed,
    )
    power, mult_report = multiplier(
        g, h, 0.5, ball_samples=100000, seed=args.seed
    )
    result = {
        "claims": {
            "g_convenient": is_convenient(newton_polyhedron(g)),
            "pair_nondegenerate": nondeg.verdict == "NonDegenerate",
            "alpha_near_half": 0.45 <= fit.alpha <= 0.55,
            "beta_near_one": 0.9 <= fit.beta <= 1.1,
            "inequality_half_one_one_holds": inequality.holds,
            "multiplier_is_six": power == 6,
            "factor_bounded_by_ten": mult_report.ball_max <= 10.0,
        },
        "fit": fit.to_json(),
        "inequality": inequality.to_json(),
        "multiplier": {"N": power, "report": mult_report.to_json()},
        "nondegeneracy_verdict": nondeg.verdict,
    }
    return (
        "reproduce-example32",
        _config(args),
        [("g", str(g)), ("h", str(h))],
        result,
    )


# -- parser construction ---------------------------------------------------------


def _add_input_flags(sp):
    sp.add_argument("--n", type=int, default=None, help="number of variables")
    sp.add_argument(
        "--text", action="append", help="polynomial text (repeat for mappings)"
    )
    sp.add_argument("--json", help="polynomial or mapping JSON file ('-' = stdin)")


def _add_common_flags(sp):
    sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    sp.add_argument("--out", default=None, help="write the report to this file")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="polyloj",
        description=__doc__,
        epilog=GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    sp = sub.add_parser("polyhedron", help="Newton polyhedron of a polynomial")
    _add_input_flags(sp)
    _add_common_flags(sp)
    sp.set_defaults(func=cmd_polyhedron)

    sp = sub.add_parser("convenient", help="does the support touch every axis")
    _add_input_flags(sp)
    _add_common_flags(sp)
    sp.set_defaults(func=cmd_convenient)

    sp = sub.add_parser("faces", help="full face list of the Newton polyhedron")
    _add_input_flags(sp)
    _add_common_flags(sp)
    sp.set_defaults(func=cmd_faces)

    sp = sub.add_parser(
        "check-nondegenerate", help="non-degeneracy at infinity of a mapping"
    )
    _add_input_flags(sp)
    _add_common_flags(sp)
    sp.add_argument(
        "--mode",
        choices=("auto", "exact", "search", "sampled"),
        default="auto",
    )
    sp.add_argument("--budget", type=positive_int, default=2000, help="search attempts")
    sp.set_defaults(func=cmd_check_nondegenerate)

    sp = sub.add_parser(
        "reduce", help="monomial change of variables onto fewer variables"
    )
    _add_input_flags(sp)
    _add_common_flags(sp)
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser(
        "complete-basis", help="extend covectors to a unimodular basis"
    )
    _add_input_flags(sp)
    _add_common_flags(sp)
    sp.add_argument("--q-list", required=True, help="JSON rows, e.g. [[1,1]]")
    sp.add_argument("--support", help="JSON exponent list, e.g. [[1,0],[0,1]]")
    sp.set_defaults(func=cmd_complete_basis)

    sp = sub.add_parser("fit-exponents", help="fit growth exponents from mu(t)")
    _add_input_flags(sp)
    _add_common_flags(sp)
    sp.add_argument("--budget", type=positive_int, default=48, help="rays per level")
    sp.set_defaults(func=cmd_fit_exponents)

    sp = sub.add_parser(
        "verify-inequality", help="check |g|^a + |g|^b >= c|h| on samples"
    )
    _add_input_flags(sp)
    _add_common_flags(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--samples", type=positive_int, default=100000, help="box samples")
    sp.add_argument("--halfwidth", type=float, default=10.0, help="box halfwidth")
    sp.set_defaults(func=cmd_verify_inequality)

    sp = sub.add_parser("hunt-sequence", help="hunt escape curves along which h blows up")
    _add_input_flags(sp)
    _add_common_flags(sp)
    sp.add_argument("--kind", choices=("first", "second"), required=True)
    sp.set_defaults(func=cmd_hunt_sequence)

    sp = sub.add_parser(
        "ktilde-probe", help="minimal gradient norm on growing spheres"
    )
    _add_input_flags(sp)
    _add_common_flags(sp)
    sp.add_argument("--constraint", help="constraint polynomial text")
    sp.add_argument("--level", type=float, help="constraint level r")
    sp.add_argument("--radii", help="comma-separated radii, e.g. 10,100,1000")
    sp.add_argument(
        "--budget", type=positive_int, default=24, help="random starts per radius"
    )
    sp.set_defaults(func=cmd_ktilde_probe)

    sp = sub.add_parser("multiplier", help="even power N with h^N = g * (continuous)")
    _add_input_flags(sp)
    _add_common_flags(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--samples", type=positive_int, default=100000, help="ball samples")
    sp.set_defaults(func=cmd_multiplier)

    sp = sub.add_parser(
        "genericity", help="random-coefficient non-degeneracy experiment"
    )
    _add_input_flags(sp)
    _add_common_flags(sp)
    sp.add_argument("--supports", help="JSON list of supports")
    sp.add_argument("--coeffs", help="JSON pinned coefficients per component")
    sp.add_argument("--trials", type=positive_int, default=100)
    sp.add_argument("--budget", type=positive_int, default=2000, help="search attempts")
    sp.set_defaults(func=cmd_genericity)

    sp = sub.add_parser(
        "reproduce-example31",
        help="non-convenient pair: no inequality, second-type escape",
    )
    _add_common_flags(sp)
    sp.set_defaults(func=cmd_reproduce_example31)

    sp = sub.add_parser(
        "reproduce-example32",
        help="convenient pair: fitted exponents, inequality, multiplier",
    )
    _add_common_flags(sp)
    sp.add_argument("--budget", type=positive_int, default=48, help="rays per level")
    sp.set_defaults(func=cmd_reproduce_example32)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.error("a subcommand is required")
    try:
        command, config, inputs, result = args.func(args)
    except SystemExit:
        raise
    except np.linalg.LinAlgError:
        # A ValueError subclass, but raised by the numerics, not by input.
        traceback.print_exc()
        return 2
    except (ValueError, FitError, OSError) as exc:
        sys.stderr.write(f"usage error: {exc}\n\n{GRAMMAR}")
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    text = dumps(build_report(command, config, inputs, result))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
