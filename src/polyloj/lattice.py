"""Integer lattice machinery for the monomial reduction of low-dimensional
mappings: unimodular completion of a covector system that stays
nonnegative on a support set, and the monomial change of coordinates that
rewrites each f_i as a monomial prefactor times a polynomial in fewer
variables.

The completion keeps, as a loop invariant, that the accepted prefix
q~1..q~k is a Z-basis of Z^n intersected with span_Q{q^1..q^k}. Candidate
replacement picks the lexicographically smallest lattice point of the
half-open fundamental parallelepiped spanned by the current prefix plus the
candidate. Lattice points of the simplex conv{0, prefix, candidate} are a
subset of those, so every replacement the source construction would make is
available; the parallelepiped is used because emptiness of the simplex
alone does not force |det| = 1 once n >= 3 (Reeve simplices), while an
empty fundamental parallelepiped is exactly the basis property.

Its lattice points are listed from an integer echelon form, at a cost that
follows their number; more than MAX_PARALLELEPIPED_POINTS are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .linalg import det, dot, primitive_vector, rank, rref
from .polynomials import Polynomial, PolynomialMapping

IntVec = tuple[int, ...]

# The package exports linalg.primitive_vector under this name.
primitive = primitive_vector

# Completion refuses a parallelepiped with more lattice points than this.
MAX_PARALLELEPIPED_POINTS = 10**5


@dataclass(frozen=True)
class UnimodularBasis:
    """Integer matrix A with |det A| = 1; row j is the covector q~^j."""

    n: int
    rows: tuple[IntVec, ...]

    def __post_init__(self):
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise ValueError("basis must be a square system")
        if abs(self.det()) != 1:
            raise ValueError("basis is not unimodular")

    def det(self) -> int:
        return int(det([list(r) for r in self.rows]))

    def apply(self, kappa: Sequence[int]) -> IntVec:
        """A . kappa (image of an exponent vector)."""
        return tuple(int(dot(r, kappa)) for r in self.rows)

    def inverse_rows(self) -> tuple[IntVec, ...]:
        """Rows of A^{-1}, from one rref of [A | I]; integer because |det| = 1."""
        eye = [[int(i == j) for j in range(self.n)] for i in range(self.n)]
        reduced, _ = rref([list(r) + e for r, e in zip(self.rows, eye)])
        inv = [row[self.n :] for row in reduced]
        if any(v.denominator != 1 for row in inv for v in row):
            raise ArithmeticError("inverse is not integer")
        return tuple(tuple(int(v) for v in row) for row in inv)

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [list(r) for r in self.rows]}


def _parallelepiped_points(ws: Sequence[IntVec]) -> list[IntVec]:
    """Lattice points of the half-open box {sum t_l w_l : 0 <= t_l < 1},
    ws independent integer vectors (the origin included).

    Unimodular row steps bring W, the w_l as columns, to an upper-triangular
    T with positive diagonal; z = W t is integer exactly when y = T t is.
    From the last row up, y_i runs over T_ii consecutive integers, so there
    are prod T_ii points, refused above MAX_PARALLELEPIPED_POINTS before any
    is listed.
    """
    m, n = len(ws), len(ws[0])
    tri = [[w[r] for w in ws] for r in range(n)]
    for c in range(m):
        while not tri[c][c] or any(tri[r][c] for r in range(c + 1, n)):
            rows = [r for r in range(c, n) if tri[r][c]]
            if not rows:
                raise ValueError("vectors are linearly dependent")
            p = min(rows, key=lambda r: abs(tri[r][c]))
            tri[c], tri[p] = tri[p], tri[c]
            for r in range(c + 1, n):
                f = tri[r][c] // tri[c][c]
                tri[r] = [a - f * b for a, b in zip(tri[r], tri[c])]
        if tri[c][c] < 0:
            tri[c] = [-v for v in tri[c]]
    scale = math.prod(tri[i][i] for i in range(m))
    if scale > MAX_PARALLELEPIPED_POINTS:
        raise ValueError(
            f"the parallelepiped holds {scale} lattice points; at most "
            f"{MAX_PARALLELEPIPED_POINTS} are listed"
        )
    # Each tail holds the scaled coordinates scale * t_i, ..., scale * t_{m-1}.
    tails: list[list[int]] = [[]]
    for i in reversed(range(m)):
        d = tri[i][i]
        grown = []
        for tail in tails:
            s = sum(tri[i][j] * a for j, a in zip(range(i + 1, m), tail))
            lo = -(-s // scale)
            grown.extend([(y * scale - s) // d] + tail for y in range(lo, lo + d))
        tails = grown
    return [
        tuple(sum(a * w[j] for a, w in zip(tail, ws)) // scale for j in range(n))
        for tail in tails
    ]


def unimodular_complete(
    q_list: Sequence[Sequence[int]],
    support: Sequence[Sequence[int]],
    n: Optional[int] = None,
) -> UnimodularBasis:
    """Complete independent integer covectors q^1..q^{n-d}, all nonnegative
    on the support set, to a full unimodular basis q~1..q~n with:
    prefix spans preserved, nonnegativity on the support for every row, and
    conv{0, q~1..q~n} free of extra lattice points.

    Deterministic: the extension uses the lexicographically first standard
    basis vectors that keep independence, and each replacement picks the
    lexicographically smallest eligible lattice point. The replacement loop
    asserts that the outstanding lattice-point count strictly decreases.
    Each candidate parallelepiped is listed point by point; one with more
    than MAX_PARALLELEPIPED_POINTS lattice points raises ValueError.
    """
    q_list = [tuple(int(c) for c in q) for q in q_list]
    support = [tuple(int(c) for c in p) for p in support]
    if q_list:
        n = len(q_list[0])
    elif n is None:
        if not support:
            raise ValueError("cannot infer the dimension from empty inputs")
        n = len(support[0])
    if any(len(q) != n for q in q_list):
        raise ValueError("covectors disagree on dimension")
    if q_list and rank(q_list) != len(q_list):
        raise ValueError("covectors are linearly dependent")
    for q in q_list:
        for kappa in support:
            if dot(q, kappa) < 0:
                raise ValueError(
                    f"covector {q} is negative on support point {kappa}"
                )
    basis_vectors = [
        tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
    ]
    extended: list[IntVec] = list(q_list)
    for e in basis_vectors:
        if len(extended) == n:
            break
        if rank(extended + [e]) > len(extended):
            extended.append(e)
    if len(extended) != n:
        raise ArithmeticError("standard basis extension failed")

    tilde: list[IntVec] = []
    for k, candidate in enumerate(extended):
        if k == 0:
            tilde.append(primitive_vector(candidate))
            continue
        v = candidate
        prev_count: Optional[int] = None
        while True:
            extras = sorted(z for z in _parallelepiped_points(tilde + [v]) if any(z))
            if not extras:
                tilde.append(v)
                break
            if prev_count is not None and len(extras) >= prev_count:
                raise AssertionError("descent failed to decrease")
            prev_count = len(extras)
            v = extras[0]
    result = UnimodularBasis(n=n, rows=tuple(tilde))
    for q in result.rows:
        for kappa in support:
            if dot(q, kappa) < 0:
                raise AssertionError("completed row went negative on support")
    return result


# -- affine support covectors and the monomial reduction ----------------------


@dataclass(frozen=True)
class AffineSupportCovectors:
    """Kernel covectors of the stacked support differences of a mapping.

    q_list[j] is constant on each supp(f_i) with value d_matrix[i][j].
    When some value is negative, a monomial shift kappa -> kappa + N e^l
    (multiply f_i by x_l^N) fixes it after the recorded pivot rotation;
    rotated_q_list and shifted_d_matrix describe the post-rotation,
    post-shift data (all entries nonnegative)."""

    q_list: tuple[IntVec, ...]
    d_matrix: tuple[tuple[int, ...], ...]
    needs_shift: bool
    shift_axis: Optional[int]  # 1-based
    shift_amount: int
    rotated_q_list: tuple[IntVec, ...]
    shifted_d_matrix: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "q_list": [list(q) for q in self.q_list],
            "d_matrix": [[str(v) for v in row] for row in self.d_matrix],
            "needs_shift": self.needs_shift,
            "shift_axis": self.shift_axis,
            "shift_amount": self.shift_amount,
            "rotated_q_list": [list(q) for q in self.rotated_q_list],
            "shifted_d_matrix": [
                [str(v) for v in row] for row in self.shifted_d_matrix
            ],
        }


def affine_support_covectors(F: PolynomialMapping) -> AffineSupportCovectors:
    """Integer covectors spanning the annihilator of all support
    differences of F, with their constant values per component.

    Errors if the Minkowski sum of the Newton polyhedra is full-dimensional
    (no covector exists). Kernel vectors are sign-normalized: first nonzero
    entry positive, then flipped when the flip makes that covector's values
    all nonnegative (avoids a needless shift)."""
    from .linalg import kernel_basis

    n = F.num_vars
    supports = []
    for f in F.components:
        if f.is_zero():
            raise ValueError("zero component has no Newton polyhedron")
        supports.append(f.support())
    diffs = []
    for supp in supports:
        base = supp[0]
        for p in supp[1:]:
            diffs.append([a - b for a, b in zip(p, base)])
    kernel = kernel_basis(diffs, n)
    if not kernel:
        raise ValueError("Minkowski sum is full-dimensional; no reduction applies")
    d_matrix = []
    q_final = list(kernel)
    for j, q in enumerate(q_final):
        col = [int(dot(q, supp[0])) for supp in supports]
        if all(v <= 0 for v in col) and any(v < 0 for v in col):
            q_final[j] = tuple(-c for c in q)
    d_matrix = [
        tuple(int(dot(q, supp[0])) for q in q_final) for supp in supports
    ]
    needs_shift = any(v < 0 for row in d_matrix for v in row)
    if not needs_shift:
        return AffineSupportCovectors(
            q_list=tuple(q_final),
            d_matrix=tuple(d_matrix),
            needs_shift=False,
            shift_axis=None,
            shift_amount=0,
            rotated_q_list=tuple(q_final),
            shifted_d_matrix=tuple(d_matrix),
        )
    axis = next(
        (l for l in range(n) if any(q[l] != 0 for q in q_final)),
        None,
    )
    if axis is None:
        raise ArithmeticError("kernel covectors are all zero")
    pivot_idx = next(j for j, q in enumerate(q_final) if q[axis] != 0)
    pivot = q_final[pivot_idx]
    if pivot[axis] < 0:
        pivot = tuple(-c for c in pivot)
    rotated = [pivot]
    for j, q in enumerate(q_final):
        if j == pivot_idx:
            continue
        if q[axis] > 0:
            rotated.append(q)
        else:
            steps = (-q[axis]) // pivot[axis] + 1
            rotated.append(tuple(c + steps * p for c, p in zip(q, pivot)))
    rot_d = [
        [int(dot(q, supp[0])) for q in rotated] for supp in supports
    ]
    shift = 0
    for row in rot_d:
        for j, v in enumerate(row):
            if v < 0:
                w = rotated[j][axis]
                shift = max(shift, (-v + w - 1) // w)
    shifted_d = [
        tuple(v + shift * rotated[j][axis] for j, v in enumerate(row))
        for row in rot_d
    ]
    if any(v < 0 for row in shifted_d for v in row):
        raise AssertionError("shift failed to clear negative values")
    return AffineSupportCovectors(
        q_list=tuple(q_final),
        d_matrix=tuple(d_matrix),
        needs_shift=True,
        shift_axis=axis + 1,
        shift_amount=shift,
        rotated_q_list=tuple(rotated),
        shifted_d_matrix=tuple(tuple(row) for row in shifted_d),
    )


@dataclass(frozen=True)
class ReducedMapping:
    """F rewritten, per component, as u_1^{d_i1} ... u_{n-d}^{d_i,n-d} *
    g_i(u') under the monomial map x_j = prod_i u_i^{A_ij}.

    shifted is the mapping the factorization applies to: the original with
    each component multiplied by x_l^N when a shift was required (N = 0 and
    shifted == original otherwise)."""

    original: PolynomialMapping
    shifted: PolynomialMapping
    basis: UnimodularBasis
    monomial_prefactors: tuple[tuple[int, ...], ...]
    reduced: PolynomialMapping
    reduced_dim: int
    shift_axis: Optional[int]
    shift_amount: int

    def monomial_map_exact(self, u: Sequence[Fraction]) -> list[Fraction]:
        """x(u): x_j = prod_i u_i^{A_ij}, exact on nonzero rationals."""
        n = self.basis.n
        if len(u) != n:
            raise ValueError("point dimension mismatch")
        out = []
        for j in range(n):
            val = Fraction(1)
            for i in range(n):
                e = self.basis.rows[i][j]
                if e:
                    val *= Fraction(u[i]) ** e
            out.append(val)
        return out

    def to_json(self) -> dict:
        return {
            "basis": self.basis.to_json(),
            "shift_axis": self.shift_axis,
            "shift_amount": self.shift_amount,
            "monomial_prefactors": [list(p) for p in self.monomial_prefactors],
            "reduced_dim": self.reduced_dim,
            "reduced": self.reduced.to_json(),
        }


def reduce_mapping(F: PolynomialMapping) -> ReducedMapping:
    """Monomial reduction of a mapping whose supports all lie in parallel
    affine subspaces of dimension d < n.

    Builds the completed basis on the (possibly shifted) union of supports
    and rewrites each component over the last d coordinates. Raises if the
    Minkowski sum is full-dimensional."""
    cov = affine_support_covectors(F)
    n = F.num_vars
    k = len(cov.rotated_q_list)
    d = n - k
    if cov.needs_shift:
        xl = Polynomial.variable(n, cov.shift_axis)
        shifted = PolynomialMapping(
            tuple(f * xl**cov.shift_amount for f in F.components)
        )
    else:
        shifted = F
    union_support = sorted({p for f in shifted.components for p in f.support()})
    basis = unimodular_complete(cov.rotated_q_list, union_support, n=n)
    prefactors = []
    reduced_polys = []
    for f in shifted.components:
        images = [basis.apply(kappa) for kappa in f.support()]
        prefix = images[0][:k]
        if any(img[:k] != prefix for img in images):
            raise AssertionError("prefix exponents are not constant on a support")
        if any(v < 0 for v in prefix):
            raise AssertionError("negative prefix exponent after shift")
        prefactors.append(tuple(int(v) for v in prefix))
        gammas = [img[k:] for img in images]
        if len(set(gammas)) != len(gammas):
            raise AssertionError("reduced exponents collide")
        coeffs = {}
        for gamma, (kappa, c) in zip(gammas, f.terms):
            key = gamma if d > 0 else (0,)
            coeffs[key] = coeffs.get(key, Fraction(0)) + c
        reduced_polys.append(Polynomial.from_dict(max(d, 1), coeffs))
    return ReducedMapping(
        original=F,
        shifted=shifted,
        basis=basis,
        monomial_prefactors=tuple(prefactors),
        reduced=PolynomialMapping(tuple(reduced_polys)),
        reduced_dim=d,
        shift_axis=cov.shift_axis,
        shift_amount=cov.shift_amount,
    )


@dataclass(frozen=True)
class ReductionVerification:
    samples: int
    value_passes: int
    rank_passes: int
    failures: tuple[dict, ...]

    @property
    def all_passed(self) -> bool:
        return (
            self.value_passes == self.samples and self.rank_passes == self.samples
        )

    def to_json(self) -> dict:
        return {
            "samples": self.samples,
            "value_passes": self.value_passes,
            "rank_passes": self.rank_passes,
            "all_passed": self.all_passed,
            "failures": list(self.failures),
        }


def verify_reduction(
    R: ReducedMapping, sample_count: int = 100, seed: int = 0
) -> ReductionVerification:
    """Exact spot-checks of the reduction on random rational points with
    nonzero coordinates: the value identity
    f_i(x(u)) = prod_j u_j^{d_ij} * g_i(u') (f_i from the shift-adjusted
    mapping) and equality of rank between the x-weighted Jacobian at x(u)
    and the reduced-side matrix [d_ij*g_i(u') | u'_j dg_i/du'_j]."""
    n = R.basis.n
    k = n - R.reduced_dim
    failures = []
    value_passes = 0
    rank_passes = 0
    for s in range(sample_count):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, s])))
        u = []
        for _ in range(n):
            num = 0
            while num == 0:
                num = int(rng.integers(-5, 6))
            den = int(rng.integers(1, 5))
            u.append(Fraction(num, den))
        x = R.monomial_map_exact(u)
        u_prime = u[k:] if R.reduced_dim > 0 else [Fraction(1)]
        ok_value = True
        for i, f in enumerate(R.shifted.components):
            lhs = f.evaluate_exact(x)
            rhs = R.reduced.components[i].evaluate_exact(u_prime)
            for j, dij in enumerate(R.monomial_prefactors[i]):
                rhs *= u[j] ** dij
            if lhs != rhs:
                ok_value = False
                failures.append(
                    {"sample": s, "component": i, "kind": "value"}
                )
                break
        if ok_value:
            value_passes += 1
        lhs_rank = rank([f.weighted_gradient_exact(x) for f in R.shifted.components])
        reduced_jac = [g.weighted_gradient_exact(u_prime) for g in R.reduced.components]
        rows = []
        for i in range(len(R.shifted.components)):
            g_val = R.reduced.components[i].evaluate_exact(u_prime)
            prefix = [Fraction(dij) * g_val for dij in R.monomial_prefactors[i]]
            suffix = reduced_jac[i][: R.reduced_dim] if R.reduced_dim > 0 else []
            rows.append(prefix + list(suffix))
        rhs_rank = rank(rows)
        if lhs_rank == rhs_rank:
            rank_passes += 1
        else:
            failures.append({"sample": s, "kind": "rank"})
    return ReductionVerification(
        samples=sample_count,
        value_passes=value_passes,
        rank_passes=rank_passes,
        failures=tuple(failures),
    )
