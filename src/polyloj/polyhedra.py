"""Newton polyhedra of polynomial supports, their faces, and the
enumeration of face tuples reachable by covectors with all-negative values.

The polyhedron of a support set is the compact convex hull conv(supp f) in
R^n (coordinates are exponents, hence nonnegative integers). Everything is
computed exactly over the rationals: vertex pruning and cone feasibility go
through an exact phase-1 simplex, facets come from brute-force hyperplane
enumeration in affine coordinates, so the combinatorics carry proofs, not
tolerances. Sizes are Newton-polyhedron sized (tens of points, n <= 4 for
the exact tuple enumeration), which keeps the textbook algorithms cheap.

For a covector q, d(q) = min <q, kappa> over the polyhedron and the face
Delta(q) is the argmin set. A face tuple for polyhedra (G_1, ..., G_p) is
(Delta(q, G_1), ..., Delta(q, G_p)) for a single q; the enumeration below
lists every tuple reachable with d_i(q) < 0 for all i, which is the index
set of the non-degeneracy test.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .linalg import dot, kernel_basis, lp_feasible, primitive_vector, rank, rref

IntVec = tuple[int, ...]


class EmptySupportError(ValueError):
    """Raised for the zero polynomial / an empty support set."""


@dataclass(frozen=True)
class Facet:
    """Supporting inequality <normal, x> >= offset, tight on the facet."""

    normal: IntVec
    offset: int


@dataclass(frozen=True)
class NewtonPolyhedron:
    ambient_dim: int
    generators: tuple[IntVec, ...]
    vertices: tuple[IntVec, ...]
    facets: tuple[Facet, ...]
    equations: tuple[tuple[IntVec, int], ...]  # <a, x> == b on the polyhedron
    dim: int

    def contains_point(self, point: Sequence[Fraction | int]) -> bool:
        if len(point) != self.ambient_dim:
            raise ValueError("point dimension mismatch")
        for a, b in self.equations:
            if dot(a, point) != b:
                return False
        return all(dot(f.normal, point) >= f.offset for f in self.facets)

    def to_json(self) -> dict:
        return {
            "n": self.ambient_dim,
            "vertices": [list(v) for v in self.vertices],
            "facets": [
                {"normal": list(f.normal), "offset": str(f.offset)}
                for f in self.facets
            ],
            "equations": [
                {"normal": list(a), "value": str(b)} for a, b in self.equations
            ],
            "dim": self.dim,
        }


@dataclass(frozen=True)
class Face:
    """A face of a NewtonPolyhedron, carried with an exposing covector.

    points is the set of polyhedron vertices on the face (they span it);
    witness_q is a primitive integer covector with Delta(witness_q) equal to
    this face, the zero covector for the improper face; d is the minimum of
    <witness_q, .> over the polyhedron, attained exactly on the face.
    """

    polyhedron: NewtonPolyhedron
    points: tuple[IntVec, ...]
    witness_q: IntVec
    d: int

    @property
    def dim(self) -> int:
        if len(self.points) <= 1:
            return 0
        base = self.points[0]
        return rank([[x - y for x, y in zip(p, base)] for p in self.points[1:]])

    @property
    def is_vertex(self) -> bool:
        return len(self.points) == 1

    def contains_exponent(self, kappa: IntVec) -> bool:
        """Membership of a support point in the face (assumes kappa is in
        the polyhedron)."""
        return dot(self.witness_q, kappa) == self.d

    def to_json(self) -> dict:
        return {
            "points": [list(p) for p in self.points],
            "witness_q": list(self.witness_q),
            "d": str(self.d),
            "dim": self.dim,
        }


def _support_of(source) -> list[IntVec]:
    if hasattr(source, "support"):
        pts = list(source.support())
    else:
        pts = [tuple(int(c) for c in p) for p in source]
    return pts


def newton_polyhedron(source) -> NewtonPolyhedron:
    """Build conv(supp f) for a Polynomial, or conv(points) for an iterable
    of integer exponent vectors. Exact; raises EmptySupportError for the
    zero polynomial."""
    pts = _support_of(source)
    if not pts:
        raise EmptySupportError("empty support: the zero polynomial has no polyhedron")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("support points disagree on dimension")
    if any(c < 0 for p in pts for c in p):
        raise ValueError("support points must be nonnegative")
    gens = sorted(set(pts))
    vertices = _prune_to_vertices(gens)
    base = vertices[0]
    diffs = [[x - y for x, y in zip(v, base)] for v in vertices[1:]]
    _, pivots = rref(diffs)
    dim = len(pivots)
    equations = tuple(
        (a, int(dot(a, base))) for a in kernel_basis(diffs, n)
    )
    facets = _enumerate_facets(vertices, pivots, dim)
    return NewtonPolyhedron(
        ambient_dim=n,
        generators=tuple(gens),
        vertices=tuple(vertices),
        facets=facets,
        equations=equations,
        dim=dim,
    )


def _prune_to_vertices(gens: list[IntVec]) -> list[IntVec]:
    """Drop points that are convex combinations of the others."""
    if len(gens) <= 1:
        return list(gens)
    n = len(gens[0])
    vertices = []
    for i, p in enumerate(gens):
        others = [g for j, g in enumerate(gens) if j != i]
        rows = [[g[k] for g in others] for k in range(n)]
        rows.append([1] * len(others))
        rhs = list(p) + [1]
        if lp_feasible(rows, rhs, len(others)) is None:
            vertices.append(p)
    return vertices


def _enumerate_facets(
    vertices: list[IntVec], pivots: list[int], dim: int
) -> tuple[Facet, ...]:
    """Brute-force facet hyperplanes in affine coordinates, lifted back to
    ambient covectors supported on the pivot columns."""
    if dim == 0:
        return ()
    base = vertices[0]
    ys = [tuple(v[c] - base[c] for c in pivots) for v in vertices]
    seen: set[tuple[IntVec, Fraction]] = set()
    facets: list[Facet] = []
    for subset in itertools.combinations(range(len(ys)), dim):
        y0 = ys[subset[0]]
        sub_diffs = [[ys[i][k] - y0[k] for k in range(dim)] for i in subset[1:]]
        kernel = kernel_basis(sub_diffs, dim)
        if len(kernel) != 1:
            continue  # affinely dependent subset
        u = kernel[0]
        off = dot(u, y0)
        values = [dot(u, y) for y in ys]
        if all(v >= off for v in values):
            pass
        elif all(v <= off for v in values):
            u = tuple(-c for c in u)
            off = -off
        else:
            continue
        key = (u, off)
        if key in seen:
            continue
        seen.add(key)
        ambient = [0] * len(base)
        for ui, c in zip(u, pivots):
            ambient[c] = ui
        normal = tuple(ambient)
        offset = min(int(dot(normal, v)) for v in vertices)
        facets.append(Facet(normal=normal, offset=offset))
    facets.sort(key=lambda f: (f.normal, f.offset))
    return tuple(facets)


def d_and_face(
    q: Sequence[Fraction | int], gamma: NewtonPolyhedron
) -> tuple[Fraction, Face]:
    """Minimum of <q, .> over the polyhedron and the face attaining it.

    q may be rational; the returned Face stores the primitivized integer
    witness (and its own d relative to that witness). q = 0 returns the
    improper face, d = 0.
    """
    if len(q) != gamma.ambient_dim:
        raise ValueError("covector dimension mismatch")
    values = [dot(q, g) for g in gamma.generators]
    d = min(values)
    if all(Fraction(c) == 0 for c in q):
        witness: IntVec = (0,) * gamma.ambient_dim
        face_points = gamma.vertices
        wd = 0
    else:
        witness = primitive_vector(q)
        wd = min(int(dot(witness, v)) for v in gamma.vertices)
        face_points = tuple(v for v in gamma.vertices if dot(witness, v) == wd)
    return d, Face(polyhedron=gamma, points=face_points, witness_q=witness, d=wd)


def is_convenient(gamma: NewtonPolyhedron) -> bool:
    """True iff the polyhedron meets every coordinate axis away from 0."""
    return not missing_axes(gamma)


def missing_axes(gamma: NewtonPolyhedron) -> tuple[int, ...]:
    """1-based axes not met away from the origin (empty iff convenient).

    Support points are nonnegative, so a convex combination lies on axis j
    only if every contributor does; it is enough to scan the generators.
    """
    n = gamma.ambient_dim
    hit = [False] * n
    for p in gamma.generators:
        nonzero = [j for j, c in enumerate(p) if c != 0]
        if len(nonzero) == 1:
            hit[nonzero[0]] = True
    return tuple(j + 1 for j, h in enumerate(hit) if not h)


def minkowski_sum(g1: NewtonPolyhedron, g2: NewtonPolyhedron) -> NewtonPolyhedron:
    if g1.ambient_dim != g2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    sums = {tuple(a + b for a, b in zip(v1, v2)) for v1 in g1.vertices for v2 in g2.vertices}
    return newton_polyhedron(sums)


def dimension(gamma: NewtonPolyhedron) -> int:
    return gamma.dim


def integer_points(gamma: NewtonPolyhedron) -> tuple[IntVec, ...]:
    """All lattice points of the polyhedron, by exact membership over the
    bounding box of the vertices."""
    n = gamma.ambient_dim
    lo = [min(v[j] for v in gamma.vertices) for j in range(n)]
    hi = [max(v[j] for v in gamma.vertices) for j in range(n)]
    out = [
        pt
        for pt in itertools.product(*[range(lo[j], hi[j] + 1) for j in range(n)])
        if gamma.contains_point(pt)
    ]
    return tuple(sorted(out))


def all_faces(gamma: NewtonPolyhedron, include_improper: bool = True) -> tuple[Face, ...]:
    """Every face, as the intersection closure of facet vertex sets.

    Proper faces get witness covectors by summing the inner normals of the
    facets containing them (this lands in the relative interior of the
    normal cone, which is verified). Ordered by (dim, points).
    """
    vset = gamma.vertices
    facet_sets = [
        frozenset(v for v in vset if dot(f.normal, v) == f.offset)
        for f in gamma.facets
    ]
    closure: set[frozenset] = set(facet_sets)
    frontier = list(facet_sets)
    while frontier:
        nxt = []
        for s in frontier:
            for fs in facet_sets:
                inter = s & fs
                if inter and inter not in closure:
                    closure.add(inter)
                    nxt.append(inter)
        frontier = nxt
    faces = []
    for s in closure:
        pts = tuple(sorted(s))
        normals = [
            f.normal for f, fs in zip(gamma.facets, facet_sets) if s <= fs
        ]
        q = tuple(sum(col) for col in zip(*normals))
        witness = primitive_vector(q)
        d = min(int(dot(witness, v)) for v in vset)
        face = Face(polyhedron=gamma, points=pts, witness_q=witness, d=d)
        attained = tuple(v for v in vset if dot(witness, v) == d)
        if attained != pts:
            raise AssertionError("witness covector does not expose its face")
        faces.append(face)
    if include_improper:
        faces.append(
            Face(
                polyhedron=gamma,
                points=vset,
                witness_q=(0,) * gamma.ambient_dim,
                d=0,
            )
        )
    faces.sort(key=lambda f: (f.dim, f.points))
    return tuple(faces)


# -- negative face tuples -----------------------------------------------------


@dataclass(frozen=True)
class FaceTuple:
    """(Delta(q, G_1), ..., Delta(q, G_p)) for a witness covector q with
    d_i = d(q, G_i) < 0 for every i."""

    faces: tuple[Face, ...]
    witness_q: IntVec
    degrees: tuple[int, ...]

    def key(self) -> tuple:
        return tuple(f.points for f in self.faces)

    def to_json(self) -> dict:
        return {
            "witness_q": list(self.witness_q),
            "degrees": [str(d) for d in self.degrees],
            "faces": [f.to_json() for f in self.faces],
        }


@dataclass(frozen=True)
class FaceTupleEnumeration:
    tuples: tuple[FaceTuple, ...]
    complete: bool
    method: str

    def __iter__(self):
        return iter(self.tuples)

    def __len__(self):
        return len(self.tuples)

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "complete": self.complete,
            "tuples": [t.to_json() for t in self.tuples],
        }


def _cell_negative_witness(
    generators: list[IntVec],
    lineality: list[IntVec],
    face_reps: list[IntVec],
    n: int,
) -> Optional[tuple[Fraction, ...]]:
    """A covector q in the relative interior of the cone
    {sum mu_g g (mu_g > 0) + span(lineality)} with <q, v> <= -1 for each
    face representative v, or None. Strictness is free by scaling, so
    mu_g > 0 is modeled as mu_g >= 1."""
    ng, nl, p = len(generators), len(lineality), len(face_reps)
    num_vars = ng + 2 * nl + p
    rows = []
    rhs = []
    for i, v in enumerate(face_reps):
        row = [dot(g, v) for g in generators]
        row += [dot(l, v) for l in lineality]
        row += [-dot(l, v) for l in lineality]
        row += [Fraction(1) if k == i else Fraction(0) for k in range(p)]
        rows.append(row)
        rhs.append(Fraction(-1) - sum(dot(g, v) for g in generators))
    sol = lp_feasible(rows, rhs, num_vars)
    if sol is None:
        return None
    q = [Fraction(0)] * n
    for g in generators:
        for j in range(n):
            q[j] += g[j]
    for mu, g in zip(sol[:ng], generators):
        for j in range(n):
            q[j] += mu * g[j]
    for k, l in enumerate(lineality):
        lam = sol[ng + k] - sol[ng + nl + k]
        for j in range(n):
            q[j] += lam * l[j]
    return tuple(q)


def _tuple_from_witness(
    q: Sequence[Fraction | int], gammas: Sequence[NewtonPolyhedron]
) -> Optional[FaceTuple]:
    faces = []
    degrees = []
    witness = primitive_vector(q)
    for g in gammas:
        d, face = d_and_face(witness, g)
        if d >= 0:
            return None
        faces.append(face)
        degrees.append(int(d))
    return FaceTuple(faces=tuple(faces), witness_q=witness, degrees=tuple(degrees))


def _angle_sort_key_cmp(a: IntVec, b: IntVec) -> int:
    def half(v: IntVec) -> int:
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    ha, hb = half(a), half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    cross = a[0] * b[1] - a[1] * b[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def _sweep_cells_2d(gammas: Sequence[NewtonPolyhedron]) -> list[list[IntVec]]:
    """Cells of the common refinement of the 2D normal fans, each as the
    generator list of a pointed cone (a single ray or a sector spanned by
    two consecutive rays). The four axis directions are always inserted so
    every sector is strictly smaller than a half turn."""
    rays: set[IntVec] = {(1, 0), (-1, 0), (0, 1), (0, -1)}
    for g in gammas:
        if g.dim == 2:
            rays.update(f.normal for f in g.facets)
        elif g.dim == 1:
            v0, v1 = g.vertices[0], g.vertices[-1]
            direction = primitive_vector([v1[0] - v0[0], v1[1] - v0[1]])
            rays.add((-direction[1], direction[0]))
            rays.add((direction[1], -direction[0]))
    ordered = sorted(rays, key=functools.cmp_to_key(_angle_sort_key_cmp))
    cells: list[list[IntVec]] = [[r] for r in ordered]
    for a, b in zip(ordered, ordered[1:] + ordered[:1]):
        cross = a[0] * b[1] - a[1] * b[0]
        if cross <= 0:
            raise AssertionError("sector spans a half turn or more")
        cells.append([a, b])
    return cells


def _cone_tuples(
    gammas: Sequence[NewtonPolyhedron],
    cones: Sequence[tuple[list[IntVec], IntVec]],
    lineality: list[IntVec],
) -> list[FaceTuple]:
    """The distinct face tuples of the cones (generators, rep_q) that hold
    a negative covector: rep_q, a covector inside the cone, picks one point
    of each polyhedron's face, and the cone's witness must expose the same
    face tuple."""
    found: dict[tuple, FaceTuple] = {}
    for generators, rep_q in cones:
        reps = [d_and_face(rep_q, g)[1].points[0] for g in gammas]
        q = _cell_negative_witness(generators, lineality, reps, gammas[0].ambient_dim)
        if q is None:
            continue
        ft = _tuple_from_witness(q, gammas)
        if ft is None:
            raise AssertionError("cone witness failed verification")
        found.setdefault(ft.key(), ft)
    return list(found.values())


def _enumerate_exact_2d(gammas: Sequence[NewtonPolyhedron]) -> list[FaceTuple]:
    cones = [
        (cell, cell[0] if len(cell) == 1 else tuple(a + b for a, b in zip(*cell)))
        for cell in _sweep_cells_2d(gammas)
    ]
    return _cone_tuples(gammas, cones, [])


def _enumerate_exact_minkowski(gammas: Sequence[NewtonPolyhedron]) -> list[FaceTuple]:
    total = gammas[0]
    for g in gammas[1:]:
        total = minkowski_sum(total, g)
    facet_sets = [
        frozenset(v for v in total.vertices if dot(f.normal, v) == f.offset)
        for f in total.facets
    ]
    cones = []
    for face in all_faces(total, include_improper=True):
        pts = set(face.points)
        gens = [f.normal for f, fs in zip(total.facets, facet_sets) if pts <= fs]
        cones.append((gens, face.witness_q))
    return _cone_tuples(gammas, cones, [a for a, _ in total.equations])


def _enumerate_sampled(
    gammas: Sequence[NewtonPolyhedron], budget: int, seed: int
) -> list[FaceTuple]:
    """Face tuples of `budget` random covectors q in [-6, 6]^n, keeping the
    first covector that reaches each tuple.  The values <q, v> at every
    vertex are one int64 product per polyhedron; a draw's tuple is fixed by
    which vertices attain the minimum, so only the first draw of each new
    vertex pattern with all minima negative is turned into a FaceTuple."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = gammas[0].ambient_dim
    largest = max(abs(c) for g in gammas for v in g.vertices for c in v)
    if 6 * n * largest >= 2**63:
        raise ValueError("exponents too large for sampled enumeration")
    draws = [rng.integers(-6, 7, size=n) for _ in range(budget)]
    qs = np.array(draws, dtype=np.int64).reshape(budget, n)
    keep = qs.any(axis=1)
    masks = []
    for g in gammas:
        values = qs @ np.array(g.vertices, dtype=np.int64).T
        least = values.min(axis=1)
        keep &= least < 0
        masks.append(values == least[:, None])
    pattern = np.concatenate(masks, axis=1)[keep]
    _, first = np.unique(pattern, axis=0, return_index=True)
    found = []
    for row in np.flatnonzero(keep)[np.sort(first)]:
        ft = _tuple_from_witness(tuple(int(v) for v in qs[row]), gammas)
        if ft is None:
            raise ArithmeticError("sampled covector failed verification")
        found.append(ft)
    return found


def enumerate_negative_face_tuples(
    gammas: Sequence[NewtonPolyhedron],
    mode: str = "auto",
    sample_budget: int = 20000,
    seed: int = 0,
) -> FaceTupleEnumeration:
    """All face tuples realized by covectors q with d(q, G_i) < 0 for all i.

    mode 'auto'/'exact': exact enumeration, n <= 4 required (angular sweep
    for n = 2, faces of the Minkowski sum plus exact cone feasibility
    otherwise). mode 'sampled': randomized covector draws, any n, result
    flagged complete=False.
    """
    if not gammas:
        raise ValueError("need at least one polyhedron")
    n = gammas[0].ambient_dim
    if any(g.ambient_dim != n for g in gammas):
        raise ValueError("polyhedra live in different ambient dimensions")
    if mode not in ("auto", "exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode in ("auto", "exact"):
        if n > 4:
            raise ValueError(
                "exact enumeration supports n <= 4; pass mode='sampled' for larger n"
            )
        if n == 2:
            tuples = _enumerate_exact_2d(gammas)
        else:
            tuples = _enumerate_exact_minkowski(gammas)
        complete = True
        method = "sweep2d" if n == 2 else "minkowski"
    else:
        tuples = _enumerate_sampled(gammas, sample_budget, seed)
        complete = False
        method = "sampled"
    tuples.sort(key=lambda t: t.key())
    return FaceTupleEnumeration(
        tuples=tuple(tuples), complete=complete, method=method
    )
