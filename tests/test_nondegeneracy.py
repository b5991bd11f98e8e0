"""The face rank condition at infinity: exact two-variable decisions,
numerical witness searches, and the aggregate verdicts."""

from fractions import Fraction

import pytest

import util
from polyloj import (
    FaceSystem,
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
from polyloj.linalg import rank
from polyloj.polyhedra import d_and_face, newton_polyhedron
from polyloj.polynomials import face_part


def system_for(texts, n, q):
    """FaceSystem of the faces exposed by q over the full tuple."""
    polys = [parse_polynomial(t, n) for t in texts]
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


def test_invariant_failures_raise():
    # Explicit raises, not asserts: they hold under python -O too.
    from polyloj.nondegeneracy import _point_from_parameter

    with pytest.raises(ArithmeticError, match="not primitive"):
        _point_from_parameter((2, 4), Fraction(1))


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
