"""Sparse rational polynomials: parsing, arithmetic, evaluation, face
restriction, and the weighted Euler identity."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import util
from polyloj import (
    ParseError,
    Polynomial,
    PolynomialError,
    PolynomialMapping,
    euler_residual,
    face_part,
    parse_polynomial,
    restrict_to_axes,
)
from polyloj.polyhedra import d_and_face, newton_polyhedron
from polyloj.polynomials import MonomialForm, sign_uniform_on_all_sheets


def test_parse_pinned_expansion():
    f = parse_polynomial("(x1*x2 - 1)^2", 2)
    assert f.coeff((2, 2)) == 1
    assert f.coeff((1, 1)) == -2
    assert f.coeff((0, 0)) == 1
    assert len(f.terms) == 3


def test_parse_rational_and_unary_minus():
    f = parse_polynomial("-x1 + 3/2*x2^3 - 1/4", 2)
    assert f.coeff((1, 0)) == -1
    assert f.coeff((0, 3)) == Fraction(3, 2)
    assert f.coeff((0, 0)) == Fraction(-1, 4)


def test_parse_cancellation_gives_zero():
    f = parse_polynomial("x1 - x1", 1)
    assert f.is_zero()
    assert f.terms == ()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_polynomial("x1^^2", 2)
    with pytest.raises(ParseError):
        parse_polynomial("x0 + 1", 2)
    with pytest.raises(ParseError):
        parse_polynomial("x3", 2)
    with pytest.raises(ParseError):
        parse_polynomial("(x1 + 1", 2)
    with pytest.raises(ParseError):
        parse_polynomial("x1 +", 2)
    with pytest.raises(ParseError):
        parse_polynomial("", 2)
    with pytest.raises(ParseError):
        parse_polynomial("x1^-2", 2)


def test_parse_refuses_oversized_expansions():
    start = time.perf_counter()
    with pytest.raises(ParseError, match="more than 2000"):
        parse_polynomial("(x1+x2+x3+1)^60", 3)
    # 2^n terms: the product of 20 binomials is refused at its 11th factor.
    with pytest.raises(ParseError, match="2048 terms"):
        parse_polynomial("*".join(f"(x{j}+1)" for j in range(1, 21)), 20)
    assert time.perf_counter() - start < 1.0
    # A monomial stays a monomial, whatever the power, and coefficients
    # +-1 (or none) take no bits.
    assert len(parse_polynomial("(2*x1*x2)^100000", 2).terms) == 1
    assert parse_polynomial("x1^1000000", 2).coeff((1000000, 0)) == 1
    assert parse_polynomial("(-x1*x2)^300000", 2).coeff((300000, 300000)) == 1
    assert parse_polynomial("0^300000", 2).is_zero()
    assert len(parse_polynomial("(x1+x2+x3+1)^12", 3).terms) == 455


@pytest.mark.parametrize("text", ["3^2147483647", "3^3000000*x1", "(2^129*x1+2^129)^400"])
def test_parse_refuses_giant_coefficients(text):
    start = time.perf_counter()
    with pytest.raises(ParseError, match="bit coefficients"):
        parse_polynomial(text, 1)
    assert time.perf_counter() - start < 0.01


def test_parse_bounds_coefficients_of_products():
    # Each power fits the budget; their product might not.
    with pytest.raises(ParseError, match="bit coefficients"):
        parse_polynomial("3^100000*x1*3^100000", 1)
    assert parse_polynomial("3^100000*x1", 1).coeff((1,)) == 3**100000


def test_parse_error_is_polynomial_error():
    assert issubclass(ParseError, PolynomialError)
    assert issubclass(PolynomialError, ValueError)


def test_str_round_trip():
    rnd = util.make_rng(201)
    for _ in range(60):
        n = rnd.randint(1, 3)
        f = util.random_polynomial(rnd, n)
        assert parse_polynomial(str(f), n) == f
    assert str(Polynomial.zero(2)) == "0"


def test_constructors_and_structure():
    x1 = Polynomial.variable(2, 1)
    x2 = Polynomial.variable(2, 2)
    f = (x1 * x2 - 1) ** 2
    assert f == parse_polynomial("(x1*x2 - 1)^2", 2)
    assert sorted(f.support()) == [(0, 0), (1, 1), (2, 2)]
    assert f.total_degree() == 4
    assert f.max_degree(1) == 2
    with pytest.raises(PolynomialError):
        Polynomial.variable(2, 3)
    with pytest.raises(PolynomialError):
        x1**-1


def test_evaluation_exact_float_batch_agree():
    rnd = util.make_rng(202)
    for _ in range(40):
        n = rnd.randint(1, 3)
        f = util.random_polynomial(rnd, n)
        pts = [
            [Fraction(rnd.randint(-8, 8), rnd.randint(1, 4)) for _ in range(n)]
            for _ in range(5)
        ]
        batch = f.evaluate_float_batch(
            np.array([[float(v) for v in p] for p in pts])
        )
        for p, b in zip(pts, batch):
            exact = f.evaluate_exact(p)
            approx = f.evaluate_float([float(v) for v in p])
            scale = 1.0 + abs(float(exact))
            assert abs(float(exact) - approx) <= 1e-9 * scale
            assert abs(float(exact) - b) <= 1e-9 * scale


def test_compiled_components_do_not_share_overflow():
    # h overflows where g does not; 0 * inf in the term-to-component sum
    # must not turn g into nan.
    g = parse_polynomial("x1 + 1", 1)
    h = parse_polynomial("x1^400 - x1", 1)
    form = MonomialForm([g, h])
    point = form.evaluate([1e300])
    assert point[0] == 1e300 and point[1] == math.inf
    batch = form.evaluate(np.array([[1e300], [2.0]]))
    assert batch[0].tolist() == [1e300, 3.0]
    assert batch[1, 0] == math.inf and batch[1, 1] == 2.0**400 - 2.0


def test_partial_is_one_based():
    f = parse_polynomial("x1^3*x2 + 7*x2^2", 2)
    assert f.partial(1) == parse_polynomial("3*x1^2*x2", 2)
    assert f.partial(2) == parse_polynomial("x1^3 + 14*x2", 2)
    with pytest.raises(PolynomialError):
        f.partial(0)
    with pytest.raises(PolynomialError):
        f.partial(3)


def test_face_part_pinned():
    g = parse_polynomial("(x1^2 - 1)^2 + (x1*x2 - 1)^2", 2)
    gamma = newton_polyhedron(g)
    _, face = d_and_face((-1, -1), gamma)
    fp = face_part(g, face)
    # The line <(-1,-1), .> = -4 carries exactly x1^4 and x1^2*x2^2.
    assert fp == parse_polynomial("x1^4 + x1^2*x2^2", 2)


def test_face_part_rejects_foreign_face():
    g = parse_polynomial("x1^2 + x2^2", 2)
    h = parse_polynomial("x1^5 + x2", 2)
    _, face = d_and_face((-1, 0), newton_polyhedron(h))
    with pytest.raises(PolynomialError, match="not a face"):
        face_part(g, face)


def test_face_part_covers_whole_support_for_zero_covector():
    g = parse_polynomial("x1^2 + x2^2 + 1", 2)
    _, face = d_and_face((0, 0), newton_polyhedron(g))
    assert face_part(g, face) == g


def test_restrict_to_axes():
    f = parse_polynomial("x1^2 + x1*x2 + 3*x2^4 + 5", 2)
    assert restrict_to_axes(f, [1]) == parse_polynomial("x1^2 + 5", 2)
    assert restrict_to_axes(f, [2]) == parse_polynomial("3*x2^4 + 5", 2)
    assert restrict_to_axes(f, [1, 2]) == f
    with pytest.raises(PolynomialError):
        restrict_to_axes(f, [])
    with pytest.raises(PolynomialError):
        restrict_to_axes(f, [3])


def test_euler_residual_zero_on_faces():
    # Weighted Euler identity: every face polynomial of every face covector
    # satisfies sum_j q_j x_j df/dx_j = d f exactly.
    rnd = util.make_rng(203)
    checked = 0
    for _ in range(100):
        n = rnd.randint(1, 3)
        f = util.random_polynomial(rnd, n, max_terms=12, max_exp=6)
        gamma = newton_polyhedron(f)
        for _ in range(4):
            q = util.random_covector(rnd, n)
            d, face = d_and_face(q, gamma)
            fp = face_part(f, face)
            res = euler_residual(fp, face.witness_q, face.d)
            assert res.is_zero()
            checked += 1
    assert checked == 400


def test_euler_residual_nonzero_off_face():
    f = parse_polynomial("x1^2 + x1", 1)
    res = euler_residual(f, (1,), 1)
    # x1 * (2*x1 + 1) - (x1^2 + x1) = x1^2: only the degree-2 term survives.
    assert res == parse_polynomial("x1^2", 1)


def test_mapping_container():
    f = parse_polynomial("x1 + x2", 2)
    g = parse_polynomial("x1*x2", 2)
    F = PolynomialMapping((f, g))
    assert len(F) == 2
    assert F[0] == f
    assert F.num_vars == 2
    assert F.evaluate_exact([2, 3]) == [5, 6]
    with pytest.raises(PolynomialError):
        PolynomialMapping(())
    with pytest.raises(PolynomialError):
        PolynomialMapping((f, parse_polynomial("x1", 1)))


def test_sign_uniform_on_all_sheets_pinned():
    for text, n, expect in [
        ("-3*x1^3*x2", 2, True),
        ("x1^2 + x2^4 + 1", 2, True),
        ("x1^2*x2^2 + 1/2*x1^4", 2, True),
        ("x1 - x2", 2, False),
        ("x1*x2 + 1", 2, False),
        ("x1^2 - 1", 1, False),
    ]:
        assert sign_uniform_on_all_sheets(parse_polynomial(text, n)) is expect, text


def test_sign_uniform_never_vanishes_on_sampled_orthants():
    # Soundness against exact evaluation: where the test says yes, f keeps
    # one nonzero sign across sampled points of each open orthant.
    rnd = util.make_rng(1602)
    accepted = 0
    for _ in range(300):
        n = rnd.randint(1, 3)
        f = util.random_polynomial(rnd, n, max_terms=3, max_exp=4)
        if not sign_uniform_on_all_sheets(f):
            continue
        accepted += 1
        for _ in range(8):
            sheet = [rnd.choice((1, -1)) for _ in range(n)]
            values = [
                f.evaluate_exact(
                    [sj * Fraction(rnd.randint(1, 50), rnd.randint(1, 50)) for sj in sheet]
                )
                for _ in range(4)
            ]
            signs = {(v > 0) - (v < 0) for v in values}
            assert len(signs) == 1 and 0 not in signs
    assert accepted > 30
