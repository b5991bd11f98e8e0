"""Integer lattice tools: primitive vectors, unimodular completion, and
the monomial reduction of mappings with parallel affine supports."""

import dataclasses
import itertools
from fractions import Fraction

import pytest

import util
from polyloj import (
    PolynomialMapping,
    UnimodularBasis,
    affine_support_covectors,
    parse_polynomial,
    reduce_mapping,
    unimodular_complete,
    verify_reduction,
)
from polyloj.lattice import (
    MAX_PARALLELEPIPED_POINTS,
    _parallelepiped_points,
    primitive,
)
from polyloj.linalg import dot


def test_primitive_pinned():
    assert primitive((2, 2)) == (1, 1)
    assert primitive((-4, 6)) == (-2, 3)
    assert primitive((0, 5, 0)) == (0, 1, 0)
    assert primitive((7,)) == (1,)
    with pytest.raises(ValueError):
        primitive((0, 0, 0))


def test_unimodular_basis_invariants():
    eye = UnimodularBasis(n=2, rows=((1, 0), (0, 1)))
    assert eye.det() == 1
    assert eye.apply((3, 4)) == (3, 4)
    with pytest.raises(ValueError, match="not unimodular"):
        UnimodularBasis(n=2, rows=((1, 1), (0, 2)))
    with pytest.raises(ValueError, match="square"):
        UnimodularBasis(n=2, rows=((1, 0, 0), (0, 1, 0)))


def test_unimodular_basis_integer_inverse():
    basis = UnimodularBasis(n=3, rows=((1, 2, 0), (0, 1, 3), (0, 0, 1)))
    inv = basis.inverse_rows()
    for i in range(3):
        for j in range(3):
            prod = sum(basis.rows[i][k] * inv[k][j] for k in range(3))
            assert prod == (1 if i == j else 0)


def test_completion_pinned():
    basis = unimodular_complete([(1, 1)], [(1, 0), (0, 1)])
    assert basis.rows == ((1, 1), (1, 0))
    assert util.oracle_det([list(r) for r in basis.rows]) == -1
    # The simplex conv{0, (1,1), (1,0)} holds no lattice point beyond its
    # own three corners and the origin.
    pts = {
        z
        for z in itertools.product(range(-1, 3), repeat=2)
        if util.in_simplex_with_zero(list(z), basis.rows)
    }
    assert pts == {(0, 0), (1, 1), (1, 0)}
    # A scalar multiple of the covector primitivizes to the same basis.
    assert unimodular_complete([(2, 2)], [(1, 0), (0, 1)]).rows == basis.rows


def test_parallelepiped_points_match_box_scan():
    rnd = util.make_rng(504)
    signs = set()
    checked = 0
    while checked < 200:
        n = rnd.randint(1, 4)
        m = rnd.randint(1, n)
        bound = 3 if n < 4 else 1
        ws = [tuple(rnd.randint(-bound, bound) for _ in range(n)) for _ in range(m)]
        if util.oracle_rank(ws) != m:
            continue
        # Negating one vector reverses the orientation of the box.
        flipped = [tuple(-v for v in ws[0])] + ws[1:]
        for family in (ws, flipped):
            expected = util.oracle_parallelepiped_points(family)
            assert sorted(_parallelepiped_points(family)) == expected, family
            if m == n:
                signs.add(util.oracle_det([list(w) for w in family]) > 0)
        checked += 1
    assert signs == {True, False}


def test_parallelepiped_points_pinned():
    # A square box holds |det| points: here |det| = 5.
    pts = sorted(_parallelepiped_points([(1, 2), (2, -1)]))
    assert pts == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
    # A segment in 3-space: its two ends are 3 lattice steps apart.
    assert sorted(_parallelepiped_points([(0, 3, -3)])) == [
        (0, 0, 0),
        (0, 1, -1),
        (0, 2, -2),
    ]
    with pytest.raises(ValueError, match="dependent"):
        _parallelepiped_points([(1, 2, 0), (2, 4, 0)])


def test_parallelepiped_points_budget():
    # Refused from the echelon form alone, before a single point is listed.
    count = MAX_PARALLELEPIPED_POINTS + 1
    with pytest.raises(ValueError, match=f"{count} lattice points"):
        _parallelepiped_points([(1, 0), (0, count)])
    with pytest.raises(ValueError, match="lattice points"):
        unimodular_complete([(1, 0, 0), (0, 10**6, 0)], [(0, 0, 0)])


def test_completion_empty_covector_list_is_identity():
    basis = unimodular_complete([], [(1, 0, 2), (0, 3, 1)], n=3)
    assert basis.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_completion_input_validation():
    with pytest.raises(ValueError, match="dependent"):
        unimodular_complete([(1, 1), (2, 2)], [(0, 0)])
    with pytest.raises(ValueError, match="negative on support"):
        unimodular_complete([(-1, 0)], [(1, 0)])
    with pytest.raises(ValueError):
        unimodular_complete([], [], n=None)


def test_completion_random_properties():
    rnd = util.make_rng(501)
    for trial in range(120):
        n, q_list, support = util.random_completion_instance(rnd)
        basis = unimodular_complete(q_list, support, n=n)
        rows = [list(r) for r in basis.rows]
        # Prefix spans agree with the input covector prefixes.
        for j in range(1, len(q_list) + 1):
            assert util.oracle_rank(q_list[:j]) == j
            assert util.oracle_rank(rows[:j]) == j
            assert util.oracle_rank(q_list[:j] + rows[:j]) == j
        # Every completed row stays nonnegative on the support.
        for row in rows:
            for kappa in support:
                assert dot(row, kappa) >= 0, (trial, row, kappa)
        # The basis simplex has no extra lattice points: bounding-box scan
        # with exact barycentric membership.
        lo = [min(0, min(r[j] for r in rows)) for j in range(n)]
        hi = [max(0, max(r[j] for r in rows)) for j in range(n)]
        expected = {(0,) * n} | {tuple(r) for r in rows}
        for z in itertools.product(*[range(lo[j], hi[j] + 1) for j in range(n)]):
            if util.in_simplex_with_zero(list(z), rows):
                assert z in expected, (trial, z, rows)
        # Unimodularity, by cofactor expansion.
        assert abs(util.oracle_det(rows)) == 1


def test_affine_covectors_pinned_line():
    F = PolynomialMapping((parse_polynomial("x1*x2 + x1^2*x2^2", 2),))
    cov = affine_support_covectors(F)
    assert cov.q_list == ((1, -1),)
    assert cov.d_matrix == ((0,),)
    assert not cov.needs_shift
    assert cov.shift_amount == 0


def test_affine_covectors_single_monomial():
    F = PolynomialMapping((parse_polynomial("x1^2*x2", 2),))
    cov = affine_support_covectors(F)
    # A single support point spans a zero-dimensional sum: two covectors.
    assert cov.q_list == ((1, 0), (0, 1))
    assert cov.d_matrix == ((2, 1),)
    assert not cov.needs_shift


def test_affine_covectors_requires_degenerate_sum():
    with pytest.raises(ValueError, match="full-dimensional"):
        affine_support_covectors(
            PolynomialMapping((parse_polynomial("x1 + x2 + 1", 2),))
        )
    with pytest.raises(ValueError, match="no Newton polyhedron"):
        affine_support_covectors(
            PolynomialMapping((parse_polynomial("0", 2),))
        )


def test_affine_covectors_shift_case():
    # Components share the line direction (1,1) but their levels have mixed
    # signs under either orientation of the covector, forcing a shift.
    F = PolynomialMapping(
        (
            parse_polynomial("x2 + x1*x2^2", 2),
            parse_polynomial("x1 + x1^2*x2", 2),
        )
    )
    cov = affine_support_covectors(F)
    assert cov.q_list == ((1, -1),)
    assert cov.d_matrix == ((-1,), (1,))
    assert cov.needs_shift
    assert cov.shift_axis == 1
    assert cov.shift_amount == 1
    assert cov.shifted_d_matrix == ((0,), (2,))


def test_reduce_mapping_pinned():
    F = PolynomialMapping((parse_polynomial("x1*x2 + x1^2*x2^2", 2),))
    red = reduce_mapping(F)
    assert red.basis.rows == ((1, -1), (1, 0))
    assert red.monomial_prefactors == ((0,),)
    assert red.reduced_dim == 1
    assert str(red.reduced[0]) == "x1^2 + x1"
    assert red.shift_amount == 0

    red2 = reduce_mapping(
        PolynomialMapping((parse_polynomial("x1*x2 - 1", 2),))
    )
    assert str(red2.reduced[0]) == "x1 - 1"
    assert red2.monomial_prefactors == ((0,),)


def test_reduce_mapping_shift_pinned():
    F = PolynomialMapping(
        (
            parse_polynomial("x2 + x1*x2^2", 2),
            parse_polynomial("x1 + x1^2*x2", 2),
        )
    )
    red = reduce_mapping(F)
    assert red.shift_axis == 1
    assert red.shift_amount == 1
    assert [str(p) for p in red.shifted] == [
        "x1^2*x2^2 + x1*x2",
        "x1^3*x2 + x1^2",
    ]
    assert red.monomial_prefactors == ((0,), (2,))
    assert [str(p) for p in red.reduced] == ["x1^2 + x1", "x1^3 + x1^2"]
    assert verify_reduction(red, sample_count=30, seed=2).all_passed


def test_reduce_mapping_single_monomial_to_constant():
    red = reduce_mapping(PolynomialMapping((parse_polynomial("x1^2*x2", 2),)))
    assert red.reduced_dim == 0
    assert red.monomial_prefactors == ((2, 1),)
    assert str(red.reduced[0]) == "1"


def test_reduce_mapping_rejects_full_dimensional():
    with pytest.raises(ValueError, match="full-dimensional"):
        reduce_mapping(PolynomialMapping((parse_polynomial("x1 + x2 + 1", 2),)))


def test_verify_reduction_random_mappings():
    rnd = util.make_rng(502)
    done = 0
    while done < 40:
        F = util.random_parallel_mapping(rnd)
        try:
            red = reduce_mapping(F)
        except ValueError:
            continue  # sum happened to be full-dimensional
        report = verify_reduction(red, sample_count=25, seed=done)
        assert report.all_passed, (done, [str(f) for f in F])
        # Term counts survive the rewrite.
        for f, g in zip(red.shifted, red.reduced):
            assert len(f.terms) == len(g.terms)
        done += 1


def test_verify_reduction_detects_corrupted_basis():
    red = reduce_mapping(PolynomialMapping((parse_polynomial("x1*x2 - 1", 2),)))
    bad = dataclasses.replace(
        red, basis=UnimodularBasis(n=2, rows=((1, 0), (0, 1)))
    )
    report = verify_reduction(bad, sample_count=20, seed=1)
    assert not report.all_passed
    assert report.value_passes < report.samples
    assert report.failures


def test_monomial_map_round_trip():
    red = reduce_mapping(
        PolynomialMapping((parse_polynomial("x1*x2 + x1^2*x2^2", 2),))
    )
    inv = red.basis.inverse_rows()
    rnd = util.make_rng(503)
    for _ in range(25):
        x = [
            Fraction(rnd.choice([-3, -2, -1, 1, 2, 3]), rnd.randint(1, 3))
            for _ in range(2)
        ]
        # u(x) through the inverse exponent matrix, then x(u) again.
        u = []
        for i in range(2):
            val = Fraction(1)
            for j in range(2):
                e = inv[j][i]
                if e:
                    val *= Fraction(x[j]) ** e
            u.append(val)
        assert red.monomial_map_exact(u) == x
