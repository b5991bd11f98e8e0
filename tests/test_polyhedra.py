"""Newton polyhedra: hulls, supporting data d and Delta, convenience,
Minkowski sums, face enumeration, and negative face tuples."""

import math
from fractions import Fraction

import numpy as np
import pytest

import util
from polyloj import parse_polynomial
from polyloj.linalg import dot
from polyloj.polyhedra import (
    EmptySupportError,
    all_faces,
    d_and_face,
    dimension,
    enumerate_negative_face_tuples,
    integer_points,
    is_convenient,
    minkowski_sum,
    missing_axes,
    newton_polyhedron,
)


def test_vertices_pinned():
    g = parse_polynomial("(x1^2 - 1)^2 + (x1*x2 - 1)^2", 2)
    gamma = newton_polyhedron(g)
    assert set(gamma.vertices) == {(0, 0), (4, 0), (2, 2)}
    # Interior support points are kept as generators but pruned as vertices.
    assert (1, 1) in gamma.generators
    assert (1, 1) not in gamma.vertices
    assert newton_polyhedron(parse_polynomial("x1^2 + x2^4", 2)).vertices == (
        (0, 4),
        (2, 0),
    )
    assert newton_polyhedron(parse_polynomial("x1^2 + x2^2", 2)).vertices == (
        (0, 2),
        (2, 0),
    )


def test_accepts_polynomial_or_point_set():
    f = parse_polynomial("x1*x2 + x1^3", 2)
    assert newton_polyhedron(f).vertices == newton_polyhedron(
        [(1, 1), (3, 0)]
    ).vertices


def test_empty_support_raises():
    from polyloj import Polynomial

    with pytest.raises(EmptySupportError):
        newton_polyhedron(Polynomial.zero(2))
    with pytest.raises(EmptySupportError):
        newton_polyhedron([])


def test_single_point_and_segment():
    point = newton_polyhedron([(2, 1)])
    assert point.vertices == ((2, 1),)
    assert point.dim == 0
    seg = newton_polyhedron([(0, 0, 0), (2, 2, 0)])
    assert seg.dim == 1
    assert set(seg.vertices) == {(0, 0, 0), (2, 2, 0)}
    assert seg.contains_point((1, 1, 0))
    assert not seg.contains_point((1, 0, 0))


def test_facets_supported_by_all_generators():
    rnd = util.make_rng(401)
    for _ in range(80):
        n = rnd.randint(2, 4)
        support = util.random_support(rnd, n, max_terms=8, max_exp=6)
        gamma = newton_polyhedron(support)
        assert set(gamma.vertices) <= set(gamma.generators)
        for p in support:
            assert gamma.contains_point(p)
        for facet in gamma.facets:
            values = [dot(facet.normal, v) for v in gamma.vertices]
            assert min(values) == facet.offset
            assert sum(1 for v in values if v == facet.offset) >= 1


def test_d_and_face_matches_brute_force():
    rnd = util.make_rng(402)
    for _ in range(300):
        n = rnd.randint(1, 4)
        support = util.random_support(rnd, n, max_terms=7, max_exp=5)
        gamma = newton_polyhedron(support)
        q = util.random_covector(rnd, n)
        d, face = d_and_face(q, gamma)
        lo, argmin = util.brute_min_and_argmin(q, support)
        assert d == lo
        assert set(face.points) == set(argmin) & set(gamma.vertices)
        for kappa in support:
            assert face.contains_exponent(kappa) == (kappa in argmin)


def test_d_and_face_rational_covector():
    gamma = newton_polyhedron([(0, 0), (2, 0), (0, 2)])
    d, face = d_and_face((Fraction(-1, 2), Fraction(-1, 2)), gamma)
    assert d == -1
    assert set(face.points) == {(2, 0), (0, 2)}
    # The stored witness is the primitive integer rescaling.
    assert face.witness_q == (-1, -1)
    assert face.d == -2
    assert face.dim == 1


def test_d_and_face_zero_covector_gives_improper_face():
    gamma = newton_polyhedron([(0, 0), (1, 0), (0, 1)])
    d, face = d_and_face((0, 0), gamma)
    assert d == 0
    assert set(face.points) == set(gamma.vertices)
    assert face.witness_q == (0, 0)


def test_d_and_face_dimension_mismatch():
    gamma = newton_polyhedron([(1, 1)])
    with pytest.raises(ValueError):
        d_and_face((1, 0, 0), gamma)


def test_convenient_pinned():
    g31 = parse_polynomial("(x1^2 - 1)^2 + (x1*x2 - 1)^2", 2)
    h31 = parse_polynomial("(x1^2 - 1)^2 + (x2^2 - 1)^2", 2)
    assert not is_convenient(newton_polyhedron(g31))
    assert missing_axes(newton_polyhedron(g31)) == (2,)
    assert is_convenient(newton_polyhedron(h31))
    assert missing_axes(newton_polyhedron(h31)) == ()
    assert is_convenient(newton_polyhedron(parse_polynomial("x1^2 + x2^4", 2)))
    assert missing_axes(newton_polyhedron(parse_polynomial("1", 2))) == (1, 2)
    assert missing_axes(newton_polyhedron(parse_polynomial("x1", 2))) == (2,)


def test_minkowski_sum_d_additive():
    rnd = util.make_rng(403)
    for _ in range(60):
        n = rnd.randint(2, 3)
        a = newton_polyhedron(util.random_support(rnd, n, 6, 5))
        b = newton_polyhedron(util.random_support(rnd, n, 6, 5))
        s = minkowski_sum(a, b)
        for _ in range(5):
            q = util.random_covector(rnd, n)
            da, _ = d_and_face(q, a)
            db, _ = d_and_face(q, b)
            ds, _ = d_and_face(q, s)
            assert ds == da + db
    with pytest.raises(ValueError):
        minkowski_sum(
            newton_polyhedron([(1, 1)]), newton_polyhedron([(1, 1, 1)])
        )


def test_integer_points_triangle_pinned():
    tri = newton_polyhedron([(0, 0), (2, 0), (0, 2)])
    assert integer_points(tri) == (
        (0, 0),
        (0, 1),
        (0, 2),
        (1, 0),
        (1, 1),
        (2, 0),
    )
    assert dimension(tri) == 2


def shoelace_area(verts):
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
        total += Fraction(x1) * y2 - Fraction(x2) * y1
    return abs(total) / 2


def test_integer_points_match_picks_theorem():
    # For a 2-dimensional lattice polygon, #lattice = area + boundary/2 + 1.
    rnd = util.make_rng(404)
    checked = 0
    for _ in range(60):
        support = util.random_support(rnd, 2, max_terms=7, max_exp=6)
        gamma = newton_polyhedron(support)
        if gamma.dim != 2:
            continue
        verts = list(gamma.vertices)
        center = (
            sum(v[0] for v in verts) / len(verts),
            sum(v[1] for v in verts) / len(verts),
        )
        verts.sort(key=lambda v: math.atan2(v[1] - center[1], v[0] - center[0]))
        area = shoelace_area(verts)
        boundary = sum(
            math.gcd(abs(a[0] - b[0]), abs(a[1] - b[1]))
            for a, b in zip(verts, verts[1:] + verts[:1])
        )
        assert len(integer_points(gamma)) == area + Fraction(boundary, 2) + 1
        checked += 1
    assert checked >= 40


def test_all_faces_closure_and_witnesses():
    tri = newton_polyhedron([(0, 0), (2, 0), (0, 2)])
    faces = all_faces(tri)
    # Triangle: 3 vertices, 3 edges, 1 improper face.
    assert len(faces) == 7
    assert len(all_faces(tri, include_improper=False)) == 6
    rnd = util.make_rng(405)
    for _ in range(40):
        n = rnd.randint(2, 3)
        gamma = newton_polyhedron(util.random_support(rnd, n, 6, 4))
        for face in all_faces(gamma, include_improper=False):
            # The stored covector must re-derive exactly this face.
            d, again = d_and_face(face.witness_q, gamma)
            assert set(again.points) == set(face.points)
            assert d == face.d


def test_negative_tuples_pinned_pair():
    gg = newton_polyhedron(parse_polynomial("x1^2 + x2^4", 2))
    gh = newton_polyhedron(parse_polynomial("x1^2 + x2^2", 2))
    enum = enumerate_negative_face_tuples([gg, gh])
    assert enum.complete
    assert enum.method == "sweep2d"
    seen = {ft.witness_q: (ft.degrees, tuple(f.points for f in ft.faces)) for ft in enum}
    assert seen == {
        (0, -1): ((-4, -2), (((0, 4),), ((0, 2),))),
        (-1, -1): ((-4, -2), (((0, 4),), ((0, 2), (2, 0)))),
        (-3, -2): ((-8, -6), (((0, 4),), ((2, 0),))),
        (-2, -1): ((-4, -4), (((0, 4), (2, 0)), ((2, 0),))),
        (-1, 0): ((-2, -2), (((2, 0),), ((2, 0),))),
    }
    assert len(enum) == 5


def _induced_key(gammas, q):
    parts = []
    for gamma in gammas:
        d, face = d_and_face(q, gamma)
        if d >= 0:
            return None
        parts.append(frozenset(face.points))
    return tuple(parts)


def test_negative_tuples_exact_enumeration_complete_and_sound():
    rnd = util.make_rng(406)
    for trial in range(40):
        n = rnd.randint(2, 3)
        gammas = [
            newton_polyhedron(util.random_support(rnd, n, 6, 4))
            for _ in range(rnd.randint(1, 2))
        ]
        enum = enumerate_negative_face_tuples(gammas)
        assert enum.complete
        keys = set()
        for ft in enum:
            # Soundness: the recorded witness realizes the recorded faces
            # with everywhere-negative d.
            key = _induced_key(gammas, ft.witness_q)
            assert key is not None, (trial, ft.witness_q)
            assert key == tuple(frozenset(f.points) for f in ft.faces)
            assert all(d < 0 for d in ft.degrees)
            keys.add(key)
        # Completeness: random negative covectors never realize a face
        # tuple outside the enumerated set.
        for _ in range(200):
            q = util.random_covector(rnd, n, bound=7)
            key = _induced_key(gammas, q)
            if key is not None:
                assert key in keys, (trial, q)


def test_negative_tuples_sampled_subset_of_exact():
    rnd = util.make_rng(407)
    gammas = [
        newton_polyhedron(util.random_support(rnd, 2, 6, 4)) for _ in range(2)
    ]
    exact = enumerate_negative_face_tuples(gammas)
    sampled = enumerate_negative_face_tuples(
        gammas, mode="sampled", sample_budget=500, seed=3
    )
    assert not sampled.complete
    assert sampled.method == "sampled"
    exact_keys = {ft.key() for ft in exact}
    assert {ft.key() for ft in sampled} <= exact_keys


def _sampled_loop(gammas, budget, seed):
    """Reference for the sampled enumeration: one exact d_and_face pass per
    drawn covector, first covector per face tuple kept."""
    from polyloj.polyhedra import _tuple_from_witness

    rng = np.random.Generator(np.random.PCG64(seed))
    n = gammas[0].ambient_dim
    found = {}
    for _ in range(budget):
        q = tuple(int(v) for v in rng.integers(-6, 7, size=n))
        if all(v == 0 for v in q):
            continue
        ft = _tuple_from_witness(q, gammas)
        if ft is not None:
            found.setdefault(ft.key(), ft)
    return sorted(found.values(), key=lambda t: t.key())


def test_negative_tuples_sampled_matches_loop():
    rnd = util.make_rng(409)
    for trial in range(12):
        n = rnd.randint(2, 6)
        gammas = [
            newton_polyhedron(util.random_support(rnd, n, 5, 4))
            for _ in range(rnd.randint(1, 3))
        ]
        sampled = enumerate_negative_face_tuples(
            gammas, mode="sampled", sample_budget=400, seed=trial
        )
        expected = _sampled_loop(gammas, 400, trial)
        assert [ft.to_json() for ft in sampled] == [ft.to_json() for ft in expected]
    empty = enumerate_negative_face_tuples(gammas, mode="sampled", sample_budget=0)
    assert len(empty) == 0


def test_negative_tuples_sampled_rejects_int64_overflow():
    huge = newton_polyhedron([(2**61, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
    with pytest.raises(ValueError, match="too large"):
        enumerate_negative_face_tuples([huge], mode="sampled", sample_budget=10)


def test_negative_tuples_input_validation():
    g2 = newton_polyhedron([(1, 0), (0, 1)])
    g3 = newton_polyhedron([(1, 0, 0)])
    with pytest.raises(ValueError):
        enumerate_negative_face_tuples([])
    with pytest.raises(ValueError):
        enumerate_negative_face_tuples([g2, g3])
    with pytest.raises(ValueError):
        enumerate_negative_face_tuples([g2], mode="bogus")
    g5 = newton_polyhedron([tuple([1] + [0] * 4)])
    with pytest.raises(ValueError, match="sampled"):
        enumerate_negative_face_tuples([g5])


def test_negative_tuples_exact_in_three_vars():
    gamma = newton_polyhedron(
        parse_polynomial("x1^2 + x2^2 + x3^4", 3)
    )
    enum = enumerate_negative_face_tuples([gamma])
    assert enum.complete
    assert enum.method == "minkowski"
    rnd = util.make_rng(408)
    keys = {tuple(frozenset(f.points) for f in ft.faces) for ft in enum}
    for _ in range(300):
        q = util.random_covector(rnd, 3, bound=6)
        key = _induced_key([gamma], q)
        if key is not None:
            assert key in keys
