"""The face rank condition at infinity: exact two-variable decisions,
numerical witness searches, and the aggregate verdicts."""

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy.optimize._numdiff import approx_derivative

import util
from polyloj import (
    FaceSystem,
    Polynomial,
    PolynomialMapping,
    check_witness,
    exact_check_2d,
    face_rank_matrix,
    face_system,
    khovanskii_check,
    nondegenerate_at_infinity,
    parse_polynomial,
    rescale_witness,
    witness_search,
)
from polyloj import polynomials
from polyloj.linalg import rank
from polyloj.lojasiewicz import _log_residual
from polyloj.nondegeneracy import SearchStats, _FaceKernel
from polyloj.polyhedra import d_and_face, newton_polyhedron
from polyloj.polynomials import MonomialForm, face_part

ROOT = Path(__file__).resolve().parent.parent


def system_for(texts, n, q):
    """FaceSystem of the faces exposed by q over the full tuple."""
    return system_of([parse_polynomial(t, n) for t in texts], q)


def system_of(polys, q):
    faces = []
    degrees = []
    parts = []
    for f in polys:
        d, face = d_and_face(q, newton_polyhedron(f))
        faces.append(face)
        degrees.append(int(d))
        parts.append(face_part(f, face))
    return FaceSystem(
        subset=tuple(range(1, len(polys) + 1)),
        faces=tuple(faces),
        witness_q=tuple(q),
        degrees=tuple(degrees),
        face_polys=tuple(parts),
    )


def test_face_rank_matrix_pinned():
    sys1 = system_for(["(x1 - x2)^2"], 2, (-1, -1))
    assert face_rank_matrix(sys1, (1, 1)) == [[Fraction(0), Fraction(0)]]
    assert rank(face_rank_matrix(sys1, (1, 1))) == 0

    sys2 = system_for(["x1^2*x2^2"], 2, (-1, -1))
    assert face_rank_matrix(sys2, (1, 1)) == [[Fraction(2), Fraction(2)]]
    assert rank(face_rank_matrix(sys2, (1, 1))) == 1

    sys3 = system_for(["x2^4"], 2, (-1, -1))
    assert face_rank_matrix(sys3, (1, 1), form="augmented") == [
        [Fraction(0), Fraction(4), Fraction(1)]
    ]


def test_face_rank_matrix_validation():
    sys1 = system_for(["x1*x2"], 2, (-1, -1))
    with pytest.raises(ValueError, match="nonzero"):
        face_rank_matrix(sys1, (0, 1))
    with pytest.raises(ValueError):
        face_rank_matrix(sys1, (1, 1, 1))
    with pytest.raises(ValueError):
        face_rank_matrix(sys1, (1, 1), form="other")


def test_face_system_requires_negative_degrees():
    with pytest.raises(ValueError, match="negative"):
        system_for(["x1*x2 + 1"], 2, (1, 1))


def test_check_witness_and_rescaling():
    sys1 = system_for(["(x1 - x2)^2"], 2, (-1, -1))
    ok, info = check_witness(sys1, (1, 1))
    assert ok
    assert info["f_residuals"] == [0.0]
    assert info["minor_max"] == 0.0
    assert info["exact"]
    # Weighted homogeneity: rescaling along the covector keeps witnesses.
    for t in (Fraction(1, 2), Fraction(2), Fraction(5, 3)):
        y = rescale_witness(sys1, (1, 1), t)
        assert y == (1 / t, 1 / t)
        ok_t, _ = check_witness(sys1, y)
        assert ok_t
    assert check_witness(sys1, (0, 1))[0] is False


def test_check_witness_is_exact_for_float_points():
    # A float is the rational it is: the verdict does not depend on whether
    # the point comes as floats or as the same values in Fractions.
    rnd = util.make_rng(611)
    systems = [
        system_for(["(x1^2 - 2*x2^2)^2"], 2, (-1, -1)),
        system_for(["(x1 - x2)^2", "x1^2 - x2^2"], 2, (-1, -1)),
        system_for(["(x1 - x2)^2 + x3^2"], 3, (-1, -1, -1)),
    ]
    verdicts = set()
    for system in systems:
        for _ in range(30):
            x = [rnd.choice([1.0, -1.0]) * rnd.uniform(0.1, 3.0) for _ in range(system.num_vars)]
            if rnd.random() < 0.5:
                x[1] = x[0] * rnd.choice([1.0, 1 + 1e-12, 1 + 1e-6])
            ok, info = check_witness(system, x)
            assert check_witness(system, [Fraction(v) for v in x]) == (ok, info)
            verdicts.add(ok)
    assert verdicts == {True, False}
    # The refined witness of an irrational double root, as floats.
    x = exact_check_2d(systems[0]).witness
    assert check_witness(systems[0], x)[0]
    assert check_witness(systems[0], [Fraction(v) for v in x])[0]
    # The float nearest the exact witness (1, -32/3), away from the unit torus.
    far = system_for(["-3/32*x1^2*x2^8 - 2*x1*x2^7 - 32/3*x2^6"], 2, (1, -1))
    assert check_witness(far, (1.0, -32 / 3))[0]


def test_check_witness_rejects_near_axis_points():
    # (x1 - x2)^2 + x3^2 has no zero on (R*)^3.  Where every term is tiny,
    # the residual is small only in absolute terms; at (1, 1, 1e-6) it is
    # small relative to the terms too, but setting x3 to 0 leaves an exact
    # zero on the boundary, which explains it.
    system = system_for(["(x1 - x2)^2 + x3^2"], 3, (-1, -1, -1))
    assert check_witness(system, (1e-6, 1e-6, 1e-6)) == (
        False,
        {"reason": "residual above tolerance"},
    )
    assert check_witness(system, (1.0, 1.0, 1e-6)) == (
        False,
        {"reason": "a zero on the orthant boundary explains it"},
    )
    # The same with the monomial factor x3, which vanishes with x3 itself:
    # the boundary test looks at the face with that factor taken out.
    factored = system_for(["x3*((x1 - x2)^2 + x3^2)"], 3, (-1, -1, -1))
    assert check_witness(factored, (1.0, 1.0, 1e-5))[0] is False


@pytest.mark.parametrize("scale", [Fraction(10**13), Fraction(1, 10**13)])
def test_check_witness_is_scale_free(scale):
    # Multiplying the coefficients by a constant changes neither the
    # accepted witnesses nor the rejected points.
    cases = [
        (["(x1^2 - 2*x2^2)^2"], (-1, -1), [(1.0, -0.7071067811865476), (1.0, -0.7)], [True, False]),
        (
            ["x1*x2*(6000000*x2^2 - 2000003)^2"],
            (-1, 0),
            [(1.0, -0.5773507022021652), (1.0, -0.5773)],
            [True, False],
        ),
        (["(x1 - x2)^2 + x3^2"], (-1, -1, -1), [(1e-6, 1e-6, 1e-6)], [False]),
        (
            ["(x1 - x2)^2", "x1^2 - x2^2 + x3^2"],
            (-1, -1, -1),
            [(1.0, 1.0, 1e-6), (Fraction(2), Fraction(2), Fraction(1))],
            [False, False],
        ),
        (["(x1 - x2)^2", "x1^3 - x1*x2^2"], (-1, -1), [(Fraction(3), Fraction(3))], [True]),
    ]
    for texts, q, points, expected in cases:
        polys = [parse_polynomial(t, len(q)) for t in texts]
        system = system_of(polys, q)
        scaled = system_of([f * scale for f in polys], q)
        for x, want in zip(points, expected):
            assert check_witness(system, x)[0] is want, (texts, x)
            assert check_witness(scaled, x)[0] is want, (texts, x)


def test_check_witness_flags_exact_zeros():
    system = system_for(["(x1 - x2)^2*(x1 + x3)"], 3, (-1, -1, -1))
    ok, info = check_witness(system, (Fraction(1, 3), Fraction(1, 3), Fraction(5)))
    assert ok and info["exact"]
    ok, info = check_witness(system, (1 / 3, 1 / 3 + 1e-12, 5.0))
    assert ok and not info["exact"]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_check_witness_refuses_non_finite_points(bad):
    system = system_for(["(x1 - x2)^2"], 2, (-1, -1))
    ok, info = check_witness(system, (1.0, bad))
    assert ok is False
    assert info == {"reason": "non-finite coordinate"}
    with pytest.raises(ValueError, match="finite"):
        face_rank_matrix(system, (bad, 1.0))


def test_exact_check_pinned_degenerate_pair():
    # (x1 - x2)^2 is the canonical degenerate example: its whole Newton
    # segment gives P(y) = (1 - y)^2 with the repeated root 1.
    evidence = exact_check_2d(system_for(["(x1 - x2)^2"], 2, (-1, -1)))
    assert evidence.kind == "Witness"
    assert evidence.witness_exact == ("1", "1")
    assert evidence.residual_norm == 0.0


def test_exact_check_monomial_faces_never_vanish():
    evidence = exact_check_2d(system_for(["x1^2*x2^2"], 2, (-1, -1)))
    assert evidence.kind == "EmptyZeroSet"


def test_exact_check_simple_roots_full_rank():
    evidence = exact_check_2d(system_for(["x1^2 - x2^2"], 2, (-1, -1)))
    assert evidence.kind == "FullRankEverywhere"


def test_exact_check_no_real_roots():
    evidence = exact_check_2d(system_for(["x1^2 + x2^2"], 2, (-1, -1)))
    assert evidence.kind == "EmptyZeroSet"


def test_exact_check_two_components():
    shared = exact_check_2d(
        system_for(["x1^2 - x2^2", "x1^3 - x1*x2^2"], 2, (-1, -1))
    )
    assert shared.kind == "Witness"
    disjoint = exact_check_2d(
        system_for(["x1^2 - x2^2", "x1^2 + x2^2"], 2, (-1, -1))
    )
    assert disjoint.kind == "EmptyZeroSet"


def test_exact_check_on_the_slice():
    # q = (-2, -3) has no +-1 entry: the slice is x2 = 1, where
    # P(y) = (y^3 + 1)^2 has the repeated root -1, on the sheet x1 < 0.
    cusp = system_for(["(x1^3 + x2^2)^2"], 2, (-2, -3))
    evidence = exact_check_2d(cusp)
    assert evidence.kind == "Witness"
    assert evidence.witness_exact == ("-1", "1")
    assert check_witness(cusp, (-1, 1))[0]
    # The slice root -20000^(1/3) is irrational, but z = y^3 = -20000 is a
    # rational root of R(z) = (z + 20000)^2, so the witness stays exact.
    far = system_for(["(x1^3 + 20000*x2^2)^2"], 2, (-2, -3))
    evidence = exact_check_2d(far)
    assert evidence.witness_exact == ("-1/20000", "1/400000000")
    assert check_witness(far, (Fraction(-1, 20000), Fraction(1, 400000000)))[0]
    # An irrational repeated root 1/sqrt(2) gives a refined float witness.
    irrational = system_for(["(x1^2 - 2*x2^2)^2"], 2, (-1, -1))
    evidence = exact_check_2d(irrational)
    assert evidence.kind == "Witness"
    assert evidence.witness_exact is None
    assert evidence.witness[0] == 1.0
    assert abs(evidence.witness[1] ** 2 - 0.5) < 1e-12
    assert check_witness(irrational, evidence.witness)[0]
    # Two components sharing the factor x1^3 + x2^2 meet on it.
    common = system_for(["x1^3 + x2^2", "(x1^3 + x2^2)*(x1^3 - x2^2)"], 2, (-2, -3))
    evidence = exact_check_2d(common)
    assert evidence.kind == "Witness"
    assert check_witness(common, evidence.witness)[0]


def test_exact_check_requires_two_variables():
    sys3 = system_for(["x1 + x2 + x3"], 3, (-1, -1, -1))
    with pytest.raises(ValueError, match="two variables"):
        exact_check_2d(sys3)


def test_witness_search_finds_pinned_degeneracy():
    evidence = witness_search(
        system_for(["(x1 - x2)^2"], 2, (-1, -1)), attempts=200, seed=0
    )
    assert evidence is not None
    x = evidence.witness
    assert abs(x[0] - x[1]) < 1e-6


def test_witness_search_respects_empty_zero_sets():
    # Sums of even-power monomials cannot vanish off the axes; the search
    # must come back empty instead of sliding toward a boundary zero.
    for texts, n, q in [
        (["x1^2 + x2^2 + x3^4"], 3, (-2, -2, -1)),
        (["(x1 - x2)^2 + x3^2"], 3, (-1, -1, -1)),
    ]:
        sys_n = system_for(texts, n, q)
        assert witness_search(sys_n, attempts=150, seed=0) is None


def test_witness_search_finds_embedded_degeneracy():
    # (x1 - x2)^2 viewed inside three variables still vanishes to second
    # order along the whole plane x1 = x2.
    sys_n = system_for(["(x1 - x2)^2"], 3, (-1, -1, 0))
    evidence = witness_search(sys_n, attempts=150, seed=0)
    assert evidence is not None
    ok, _ = check_witness(sys_n, evidence.witness)
    assert ok


def test_witness_search_reports_snapped_witnesses_exactly():
    # The end points snap to rational zeros, which come back exact.
    system = system_for(["(x1 - x2)^2"], 3, (-1, -1, 0))
    evidence = witness_search(system, attempts=20, seed=0)
    assert evidence is not None and evidence.witness_exact is not None
    x = tuple(Fraction(v) for v in evidence.witness_exact)
    assert evidence.witness == tuple(float(v) for v in x)
    ok, info = check_witness(system, x)
    assert ok and info["exact"]


def random_form(rnd, n, degree, terms):
    """A homogeneous polynomial: its face for q = (-1, ..., -1) is itself."""
    exps = set()
    while len(exps) < min(terms, math.comb(degree + n - 1, n - 1)):
        cuts = sorted(rnd.randint(0, degree) for _ in range(n - 1))
        exps.add(tuple(b - a for a, b in zip([0] + cuts, cuts + [degree])))
    return Polynomial.from_dict(
        n, {e: Fraction(rnd.choice([-5, -2, -1, 1, 3, 7]), rnd.randint(1, 4)) for e in exps}
    )


KERNEL_SHAPES = [(2, 1), (3, 1), (3, 2), (3, 3), (4, 2)]


def log_residual(kind, polys, sheet):
    """A residual in log coordinates s, its analytic Jacobian and its row
    count: the witness search's face kernel, or the Laurent-coefficient
    equations _solve_coefficients hands to least_squares."""
    n, p = polys[0].num_vars, len(polys)
    if kind == "face system":
        kernel = _FaceKernel(system_of(polys, (-1,) * n))
        signed = kernel.sheet_coeffs(sheet)
        return (
            lambda s: kernel.log_residual(s, signed),
            lambda s: kernel.log_residual_jacobian(s, signed),
            p + math.comb(n, p),
        )
    return (*_log_residual(MonomialForm(polys), sheet), p)


@pytest.mark.parametrize(
    "n,p,kind",
    [pytest.param(n, p, "face system", id=f"{n}-{p}") for n, p in KERNEL_SHAPES]
    + [pytest.param(n, p, "curve coefficients", id=f"{n}-{p}-curve") for n, p in KERNEL_SHAPES],
)
def test_kernel_jacobian_matches_finite_differences(n, p, kind):
    rnd = util.make_rng(610 + 10 * n + p)
    for _ in range(10):
        polys = [random_form(rnd, n, rnd.randint(2, 5), rnd.randint(2, 4)) for _ in range(p)]
        sheet = np.array([rnd.choice([1.0, -1.0]) for _ in range(n)])
        fun, jac, rows = log_residual(kind, polys, sheet)
        s = np.array([rnd.uniform(-1.0, 1.0) for _ in range(n)])
        analytic = jac(s)
        numeric = np.atleast_2d(approx_derivative(fun, s, method="3-point"))
        assert analytic.shape == (rows, n)
        np.testing.assert_allclose(
            analytic, numeric, rtol=1e-6, atol=1e-9 * np.abs(numeric).max()
        )


def assert_matches_exact(values, polys, points):
    """Float values (one row per polynomial, one column per point) within
    1e-12 of the exact ones, relative to the sum of the terms' magnitudes."""
    for row, f in zip(values, polys):
        magnitude = Polynomial.from_dict(f.num_vars, {e: abs(c) for e, c in f.terms})
        for v, x in zip(row, points):
            scale = float(magnitude.evaluate_exact([abs(xj) for xj in x]))
            assert abs(v - float(f.evaluate_exact(x))) <= 1e-12 * scale


@pytest.mark.parametrize("n,p", KERNEL_SHAPES)
def test_kernel_matches_scalar_evaluators(n, p, monkeypatch):
    # Blocks of 4 points, so the 11-point batches below span three blocks,
    # and batches of 2 points or more take the repeated-squaring path.
    monkeypatch.setattr(polynomials, "BATCH_BLOCK", 4)
    monkeypatch.setattr(polynomials, "FEW_POINTS", 1)
    rnd = util.make_rng(620 + 10 * n + p)
    for _ in range(10):
        polys = [random_form(rnd, n, rnd.randint(2, 5), rnd.randint(2, 4)) for _ in range(p)]
        system = system_of(polys, (-1,) * n)
        kernel = _FaceKernel(system)
        x = [rnd.choice([1.0, -1.0]) * rnd.uniform(0.3, 3.0) for _ in range(n)]
        m = kernel.monomials(x)
        np.testing.assert_allclose(
            kernel.values(m), [fp.evaluate_float(x) for fp in system.face_polys], rtol=1e-12
        )
        rows = face_rank_matrix(system, x)
        np.testing.assert_allclose(kernel.weighted_jacobian(m), rows, rtol=1e-12)
        minors = [
            np.linalg.det(np.array([[row[c] for c in cols] for row in rows]))
            for cols in itertools.combinations(range(n), p)
        ]
        np.testing.assert_allclose(
            kernel.minors(kernel.weighted_jacobian(m)), minors, rtol=1e-12
        )
        # Log coordinates describe the same point.
        sheet = np.sign(x)
        s = np.log(np.abs(x))
        np.testing.assert_allclose(
            kernel.log_residual(s, kernel.sheet_coeffs(sheet)),
            np.concatenate([kernel.values(m), minors]),
            rtol=1e-12,
        )
        # The shared form on random polynomials and their exact partials, at
        # rational points with zero coordinates (the axis rays of mu(t) meet
        # them), one at a time and as one batch.
        general = [util.random_polynomial(rnd, n) for _ in range(p)]
        compiled = general + [f.partial(j) for f in general for j in range(1, n + 1)]
        form = MonomialForm(compiled)
        points = [
            [Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)) * rnd.randint(0, 1) for _ in range(n)]
            for _ in range(11)
        ]
        batch = np.array([[float(v) for v in x] for x in points])
        assert_matches_exact(form.evaluate(batch), compiled, points)
        assert_matches_exact(
            np.transpose([form.evaluate(row) for row in batch]), compiled, points
        )
        weighted = form.weighted_jacobian(form.monomials(batch))
        for j in range(n):
            assert_matches_exact(
                weighted[:p, j],
                [f.partial(j + 1) * Polynomial.variable(n, j + 1) for f in general],
                points,
            )


def test_witness_search_at_the_parametrization_bounds(monkeypatch):
    # Degree-8 faces with starts moved to the corners s = +-19.9 of the
    # search box, where the terms reach exp(+-160) and three-row minors
    # overflow: every start either runs, or fails inside the solver and is
    # counted; the search itself never raises.
    import scipy.optimize

    original = scipy.optimize.least_squares
    corners = itertools.cycle(itertools.product((19.9, -19.9), repeat=3))
    ends = []

    def from_corner(fun, s0, **kwargs):
        result = original(fun, np.array(next(corners)), **kwargs)
        ends.append(result.x)
        return result

    monkeypatch.setattr(scipy.optimize, "least_squares", from_corner)
    for texts in [
        ["x1^8 + x2^8 + x3^8"],
        ["x1^8 + x1^4*x2^4 - x2^2*x3^6", "x1^8 + x2^8 + x3^8"],
        ["x1^8 - x2^8", "x1^2*x2^6 + x3^8", "x1^8 + x2^4*x3^4"],
    ]:
        system = system_for(texts, 3, (-1, -1, -1))
        stats = SearchStats()
        found = witness_search(system, attempts=16, seed=1, stats=stats)
        if found is not None:
            assert check_witness(system, found.witness)[0]
        else:
            assert stats.best_residual is not None
    assert sum(np.max(np.abs(s)) >= 19.5 for s in ends) >= 10


def test_search_exhausted_reports_best_residual(monkeypatch):
    import scipy.optimize

    schema = json.loads((ROOT / "schemas" / "nondegeneracy.v1.schema.json").read_text())
    # A cone: the zero set is nonempty but the rank never drops on it.
    F = PolynomialMapping((parse_polynomial("x1^2 + x2^2 - x3^2", 3),))
    report = nondegenerate_at_infinity(F, attempts=6, seed=0)
    exhausted = [e.evidence for e in report.entries if e.evidence.kind == "SearchExhausted"]
    assert exhausted
    for evidence in exhausted:
        assert evidence.solver_errors == 0
        assert 0.0 <= evidence.best_residual < float("inf")
        data = evidence.to_json()
        assert data["best_residual"] == evidence.best_residual
        assert data["solver_errors"] == 0
    jsonschema.validate(report.to_json(), schema)

    original = scipy.optimize.least_squares
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) % 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", flaky)
    report = nondegenerate_at_infinity(F, attempts=6, seed=0)
    for entry in report.entries:
        if entry.evidence.kind == "SearchExhausted":
            assert entry.evidence.solver_errors == 3
            assert entry.evidence.best_residual is not None

    def broken(*args, **kwargs):
        raise ValueError("Residuals are not finite in the initial point.")

    monkeypatch.setattr(scipy.optimize, "least_squares", broken)
    report = nondegenerate_at_infinity(F, attempts=4, seed=0)
    exhausted = [e.evidence for e in report.entries if e.evidence.kind == "SearchExhausted"]
    assert exhausted
    for evidence in exhausted:
        assert evidence.solver_errors == 4
        assert evidence.to_json()["best_residual"] is None
    jsonschema.validate(report.to_json(), schema)


def test_khovanskii_pinned_degenerate():
    F = PolynomialMapping((parse_polynomial("(x1 - x2)^2", 2),))
    report = khovanskii_check(F)
    assert report.verdict == "Degenerate"
    assert report.mode == "Exact2D"
    assert report.failing_subset == (1,)
    witnesses = report.witness_entries()
    assert witnesses
    assert witnesses[0].evidence.witness_exact == ("1", "1")
    for G in (
        F,
        PolynomialMapping(
            (parse_polynomial("(x1 - x2)^2", 2), parse_polynomial("x1^2 + x2^2", 2))
        ),
    ):
        full = tuple(range(1, len(G) + 1))
        every = nondegenerate_at_infinity(G).entries
        assert khovanskii_check(G).entries == tuple(
            e for e in every if e.system.subset == full
        )


def test_invariant_failures_raise(monkeypatch):
    # Explicit raises, not asserts: they hold under python -O too.
    from polyloj import nondegeneracy

    monkeypatch.setattr(nondegeneracy, "check_witness", lambda system, x: (False, {}))
    with pytest.raises(ArithmeticError, match="failed its own re-check"):
        exact_check_2d(system_for(["(x1 - x2)^2"], 2, (-1, -1)))


def test_invariant_failures_raise_under_optimize():
    # python -O strips asserts; the invariant checks must survive it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    node = "tests/test_nondegeneracy.py::test_invariant_failures_raise"
    done = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", node],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "1 passed" in done.stdout


def test_monomials_always_nondegenerate():
    rnd = util.make_rng(601)
    for _ in range(25):
        n = rnd.randint(1, 3)
        kappa = tuple(rnd.randint(0, 4) for _ in range(n))
        coeffs = {kappa: Fraction(rnd.choice([-3, -1, 1, 2]))}
        from polyloj import Polynomial

        F = PolynomialMapping((Polynomial.from_dict(n, coeffs),))
        report = nondegenerate_at_infinity(F)
        assert report.verdict == "NonDegenerate"


def test_reference_pairs_nondegenerate_exactly():
    g31 = parse_polynomial("(x1^2 - 1)^2 + (x1*x2 - 1)^2", 2)
    h31 = parse_polynomial("(x1^2 - 1)^2 + (x2^2 - 1)^2", 2)
    rep31 = nondegenerate_at_infinity(PolynomialMapping((g31, h31)))
    assert rep31.verdict == "NonDegenerate"
    assert rep31.mode == "Exact2D"
    assert rep31.complete

    g32 = parse_polynomial("x1^2 + x2^4", 2)
    h32 = parse_polynomial("x1^2 + x2^2", 2)
    rep32 = nondegenerate_at_infinity(PolynomialMapping((g32, h32)))
    assert rep32.verdict == "NonDegenerate"
    assert rep32.mode == "Exact2D"


def test_more_components_than_variables_rejected():
    F = PolynomialMapping(
        (
            parse_polynomial("x1", 2),
            parse_polynomial("x2", 2),
            parse_polynomial("x1 + x2", 2),
        )
    )
    with pytest.raises(ValueError, match="more components"):
        nondegenerate_at_infinity(F)


def test_decide_needs_at_least_one_attempt():
    F = PolynomialMapping((parse_polynomial("x1^2 + x2^2 + x3^2 - x1*x2*x3", 3),))
    for attempts in (0, -3):
        with pytest.raises(ValueError, match="attempts"):
            nondegenerate_at_infinity(F, attempts=attempts)
    schema = json.loads((ROOT / "schemas" / "nondegeneracy.v1.schema.json").read_text())
    evidence = schema["properties"]["tuples"]["items"]["properties"]["evidence"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"kind": "SearchExhausted", "trials": 0}, evidence)


def test_exact_mode_needs_two_variables():
    F = PolynomialMapping((parse_polynomial("x1 + x2 + x3", 3),))
    with pytest.raises(ValueError):
        nondegenerate_at_infinity(F, mode="exact")


def test_three_variable_search_verdicts():
    # Empty face loci: certified or exhausted, never a fake witness.
    F = PolynomialMapping((parse_polynomial("x1^2 + x2^2 + x3^4", 3),))
    report = nondegenerate_at_infinity(F, attempts=120, seed=0)
    assert report.mode == "WitnessSearch"
    assert report.verdict in ("NonDegenerate", "Undecided")
    assert not report.witness_entries()

    G = PolynomialMapping((parse_polynomial("(x1 - x2)^2 + x3^2", 3),))
    rep2 = nondegenerate_at_infinity(G, attempts=150, seed=0)
    assert rep2.verdict == "Degenerate"
    for entry in rep2.witness_entries():
        sys_e = entry.system
        ok, _ = check_witness(sys_e, entry.evidence.witness)
        assert ok


def test_sampled_enumeration_cannot_certify():
    F = PolynomialMapping((parse_polynomial("x1^2 + x2^2", 2),))
    report = khovanskii_check(F, mode="search", enum_mode="sampled")
    assert not report.complete
    assert report.verdict in ("Undecided", "Degenerate")


def test_exact_and_search_agree_on_random_face_systems():
    # The exact decision is ground truth per face system; the numerical
    # search may only time out, never contradict it with a fake witness,
    # and must find nearly all genuine degeneracies.  Every second draw is
    # a squared factor so degenerate faces actually occur.
    from polyloj.polyhedra import enumerate_negative_face_tuples

    rnd = util.make_rng(602)
    degenerate_total = 0
    degenerate_found = 0
    systems_seen = 0
    for trial in range(200):
        if trial % 2 == 0:
            u = util.random_polynomial(rnd, 2, max_terms=3, max_exp=2)
            F = PolynomialMapping((u * u,))
        else:
            F = util.random_mapping(rnd, 2, rnd.randint(1, 2), max_terms=4, max_exp=4)
        if any(f.is_zero() for f in F):
            continue
        gammas = [newton_polyhedron(f) for f in F]
        for ft in enumerate_negative_face_tuples(gammas):
            sys_t = face_system(F, range(1, len(F) + 1), ft)
            systems_seen += 1
            exact = exact_check_2d(sys_t)
            if exact.kind == "Witness":
                degenerate_total += 1
                found = witness_search(sys_t, attempts=150, seed=trial)
                if found is not None:
                    degenerate_found += 1
                    ok, _ = check_witness(sys_t, found.witness)
                    assert ok
            else:
                # Exhaustion budgets do not change soundness, only how long
                # the search looks; a short budget still must return empty.
                found = witness_search(sys_t, attempts=25, seed=trial)
                assert found is None, (trial, [str(f) for f in F], ft.witness_q)
    assert systems_seen >= 200
    assert degenerate_total >= 20
    assert degenerate_found >= 0.95 * degenerate_total
