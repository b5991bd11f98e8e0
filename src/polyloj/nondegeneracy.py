"""Non-degeneracy at infinity of real polynomial mappings.

A mapping F = (f_1..f_p), p <= n, fails the face condition when some tuple
of faces Delta_i = Delta(q, Gamma(f_i)), exposed by a common covector q with
all d(q, Gamma(f_i)) < 0, has a point x in (R*)^n where every face polynomial
vanishes and the weighted Jacobian (x_j df_i/dx_j) drops rank below p.
Full non-degeneracy quantifies the same condition over every nonempty
sub-tuple of components.

The work splits along what it depends on.  A NondegeneracyPlan depends on
the supports only: it builds each Newton polyhedron once and enumerates the
negative face tuples of the requested sub-tuples.  Its decide() takes the
coefficients, forms the face systems and decides each one: exactly in two
variables (via univariate root counting), by certified witness search
otherwise.  khovanskii_check plans the full tuple, nondegenerate_at_infinity
every sub-tuple, and the genericity experiments reuse one plan for all
their coefficient draws.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .linalg import det as exact_det
from .polyhedra import (
    Face,
    FaceTuple,
    enumerate_negative_face_tuples,
    newton_polyhedron,
)
from .polynomials import (
    MonomialForm,
    Polynomial,
    PolynomialMapping,
    face_part,
    sign_uniform_on_all_sheets,
)
from .univariate import (
    count_real_roots,
    degree,
    derivative,
    gcd,
    isolate_real_roots,
    rational_roots,
    refine_root,
)

# The one witness rule, check_witness, against S_i, the largest term
# magnitude of f_i at the point: residuals up to RESIDUAL_TOL * S_i, minors
# up to MINOR_TOL times the product of max(deg f_i, 1) * S_i, and no zero
# on the orthant boundary (coordinates below SMALL_COORD_FACTOR * (1 +
# max |x_j|) set to 0) that explains an inexact candidate.  The search only
# checks end points away from the exp(+-20) parametrization bounds.
RESIDUAL_TOL = 1e-10
MINOR_TOL = 1e-8
SMALL_COORD_FACTOR = 0.01
LOG_COORD_BOUND = 19.5
SEARCH_MAX_EVALS = 200


# -- face systems ------------------------------------------------------------


@dataclass(frozen=True)
class FaceSystem:
    """One face tuple of a sub-mapping: the object the rank condition is
    tested on.

    subset holds the 1-based component indices (into the original mapping),
    faces[i] is the face of Gamma(f_{subset[i]}) exposed by witness_q, and
    face_polys[i] collects the terms of f_{subset[i]} on that face.  All
    degrees are negative by construction.
    """

    subset: tuple[int, ...]
    faces: tuple[Face, ...]
    witness_q: tuple[int, ...]
    degrees: tuple[int, ...]
    face_polys: tuple[Polynomial, ...]

    def __post_init__(self):
        k = len(self.subset)
        if not (len(self.faces) == len(self.degrees) == len(self.face_polys) == k):
            raise ValueError("face system fields have mismatched lengths")
        if k == 0:
            raise ValueError("face system needs at least one component")
        if any(d >= 0 for d in self.degrees):
            raise ValueError("face systems require strictly negative degrees")

    @property
    def num_vars(self) -> int:
        return self.face_polys[0].num_vars

    def to_json(self) -> dict:
        return {
            "subset": list(self.subset),
            "witness_q": list(self.witness_q),
            "degrees": [str(d) for d in self.degrees],
            "faces": [list(map(list, f.points)) for f in self.faces],
            "face_polynomials": [str(p) for p in self.face_polys],
        }


def face_system(
    F: PolynomialMapping, indices: Sequence[int], face_tuple: FaceTuple
) -> FaceSystem:
    """Bundle a face tuple of the sub-mapping (f_i)_{i in indices} with its
    face polynomials.  indices are 1-based positions in F."""
    polys = tuple(
        face_part(F[i - 1], face) for i, face in zip(indices, face_tuple.faces)
    )
    return FaceSystem(
        subset=tuple(indices),
        faces=face_tuple.faces,
        witness_q=face_tuple.witness_q,
        degrees=face_tuple.degrees,
        face_polys=polys,
    )


# -- rank matrices -----------------------------------------------------------


def _rational_point(x: Sequence) -> list[Fraction]:
    """x with each coordinate as the rational it is (a float is one)."""
    try:
        return [Fraction(v) for v in x]
    except (OverflowError, ValueError):
        raise ValueError("coordinates must be finite") from None


def face_rank_matrix(system: FaceSystem, x: Sequence, form: str = "plain"):
    """The p x n weighted Jacobian (x_j df_i/dx_j)(x); form='augmented'
    appends the p x p diagonal block diag(f_i(x)) giving p x (n+p).

    Computed exactly, a float coordinate taken as the rational it is; the
    entries are Fractions, rounded to floats when x has a float coordinate.
    """
    if form not in ("plain", "augmented"):
        raise ValueError(f"unknown form {form!r}")
    if any(v == 0 for v in x):
        raise ValueError("rank matrices require all coordinates nonzero")
    point = _rational_point(x)
    p = len(system.face_polys)
    rows = []
    for i, fp in enumerate(system.face_polys):
        row = fp.weighted_gradient_exact(point)
        if form == "augmented":
            row += [fp.evaluate_exact(point) if k == i else Fraction(0) for k in range(p)]
        rows.append(row)
    if any(isinstance(v, float) for v in x):
        return [[float(v) for v in row] for row in rows]
    return rows


def _minors(system: FaceSystem, x: Sequence[Fraction]) -> list[Fraction]:
    """All p x p minors of the plain weighted Jacobian at the rational
    point x, exactly."""
    rows = face_rank_matrix(system, x)
    return [
        exact_det([[row[c] for c in cols] for row in rows])
        for cols in itertools.combinations(range(system.num_vars), len(rows))
    ]


def _terms_at(terms, point: Sequence[Fraction]) -> list[Fraction]:
    """The values c_t x^kappa_t of terms (kappa_t, c_t) at the rational
    point x."""
    return [c * math.prod(v**k for v, k in zip(point, kappa) if k) for kappa, c in terms]


def _near_zero(terms: Sequence[Fraction]) -> bool:
    """The residual test: |sum of the terms| <= RESIDUAL_TOL times the
    largest |term|, exactly."""
    return abs(sum(terms)) <= Fraction(RESIDUAL_TOL) * max(map(abs, terms), default=0)


def _boundary_explains(system: FaceSystem, point: Sequence[Fraction]) -> bool:
    """True when the point approximates a zero on the orthant boundary,
    which is outside (R*)^n, not a witness: setting its small coordinates
    to 0 leaves each face polynomial, its monomial factor taken out,
    passing the residual test.  A coordinate is small below
    SMALL_COORD_FACTOR * (1 + max |x_j|), unless the face polynomials hold
    it only in their monomial factors, where its size changes no ratio."""
    bound = Fraction(SMALL_COORD_FACTOR) * (1 + max(map(abs, point)))
    cols = [list(zip(*(kappa for kappa, _ in fp.terms))) for fp in system.face_polys]
    small = [
        abs(v) < bound and any(len(set(c[j])) > 1 for c in cols)
        for j, v in enumerate(point)
    ]
    if not any(small):
        return False
    kept = [1 if s else v for v, s in zip(point, small)]
    for fp, c in zip(system.face_polys, cols):
        low = [min(col) for col in c]
        # Of f / x^low, the terms free of every small coordinate survive.
        survivors = [
            (kappa, c)
            for kappa, c in fp.terms
            if all(k == lo for k, lo, s in zip(kappa, low, small) if s)
        ]
        if not _near_zero(_terms_at(survivors, kept)):
            return False
    return True


def check_witness(system: FaceSystem, x: Sequence) -> tuple[bool, dict]:
    """The one witness rule, decided in exact arithmetic.

    A float coordinate is taken as the rational it is.  With S_i the
    largest |c_t x^kappa_t| of f_i at x, x is accepted iff every |f_i(x)|
    <= RESIDUAL_TOL * S_i, every p x p minor of the weighted Jacobian is at
    most MINOR_TOL times the product of the max(deg f_i, 1) * S_i, and,
    unless every residual and minor is exactly 0, no zero on the orthant
    boundary explains x (_boundary_explains).  Both bounds scale with the
    coefficients, so multiplying any f_i by a constant changes nothing.  A
    zero or non-finite coordinate fails.  info["exact"] is true for an
    exact zero: every residual and minor is 0.
    """
    if any(v == 0 for v in x):
        return False, {"reason": "zero coordinate"}
    try:
        point = _rational_point(x)
    except ValueError:
        return False, {"reason": "non-finite coordinate"}
    terms = [_terms_at(fp.terms, point) for fp in system.face_polys]
    if not all(_near_zero(t) for t in terms):
        return False, {"reason": "residual above tolerance"}
    minors = [abs(m) for m in _minors(system, point)]
    bound = Fraction(MINOR_TOL) * math.prod(
        max(fp.total_degree(), 1) * max(map(abs, t))
        for fp, t in zip(system.face_polys, terms)
    )
    if any(m > bound for m in minors):
        return False, {"reason": "minor above tolerance"}
    f_values = [sum(t) for t in terms]
    exact = not any(f_values) and not any(minors)
    if not exact and _boundary_explains(system, point):
        return False, {"reason": "a zero on the orthant boundary explains it"}
    return True, {
        "f_residuals": [abs(float(v)) for v in f_values],
        "minor_max": float(max(minors, default=0)),
        "exact": exact,
    }


def rescale_witness(system: FaceSystem, x: Sequence, t) -> tuple:
    """x_j -> t^{q_j} x_j along the system's covector; weighted homogeneity
    keeps witnesses witnesses."""
    return tuple(v * t ** qj for v, qj in zip(x, system.witness_q))


# -- evidence and reports -----------------------------------------------------


@dataclass(frozen=True)
class Evidence:
    """Outcome for one face system.

    kind: EmptyZeroSet (zero set empty in (R*)^n), FullRankEverywhere (zero
    set nonempty but rank never drops), Witness (degeneracy point found),
    SearchExhausted (numerical search gave up: undecided; best_residual is
    the smallest max-abs residual entry any start ended at, solver_errors
    the number of starts whose solver call raised).
    """

    kind: str
    reason: str = ""
    witness: Optional[tuple[float, ...]] = None
    witness_exact: Optional[tuple[str, ...]] = None
    residual_norm: float = 0.0
    minor_max: float = 0.0
    trials: int = 0
    best_residual: Optional[float] = None
    solver_errors: int = 0

    @property
    def passed(self) -> Optional[bool]:
        if self.kind == "Witness":
            return False
        if self.kind == "SearchExhausted":
            return None
        return True

    def to_json(self) -> dict:
        data: dict = {"kind": self.kind}
        if self.reason:
            data["reason"] = self.reason
        if self.witness is not None:
            data["witness"] = list(self.witness)
            data["residual_norm"] = self.residual_norm
            data["minor_max"] = self.minor_max
        if self.witness_exact is not None:
            data["witness_exact"] = list(self.witness_exact)
        if self.kind == "SearchExhausted":
            data["trials"] = self.trials
            data["best_residual"] = self.best_residual
            data["solver_errors"] = self.solver_errors
        return data


@dataclass(frozen=True)
class TupleEntry:
    system: FaceSystem
    evidence: Evidence

    def to_json(self) -> dict:
        data = self.system.to_json()
        data["evidence"] = self.evidence.to_json()
        return data


@dataclass(frozen=True)
class NondegeneracyReport:
    verdict: str
    mode: str
    entries: tuple[TupleEntry, ...]
    complete: bool
    failing_subset: Optional[tuple[int, ...]] = None

    @property
    def passed(self) -> bool:
        return self.verdict == "NonDegenerate"

    def witness_entries(self) -> list[TupleEntry]:
        return [e for e in self.entries if e.evidence.kind == "Witness"]

    def to_json(self) -> dict:
        data = {
            "verdict": self.verdict,
            "mode": self.mode,
            "complete": self.complete,
            "tuples": [e.to_json() for e in self.entries],
        }
        if self.failing_subset is not None:
            data["failing_subset"] = list(self.failing_subset)
        return data


# -- exact decision in two variables ------------------------------------------


def _slice_profile(fp: Polynomial, j: int, m: int) -> list[Fraction]:
    """Coefficients of R with fp(x) = y^low * R(y^m) on the slice x_j = 1,
    y = x_k the other coordinate and m = |q_j|: on the face <q, kappa> = d
    with q primitive, so the kappa_k differ by multiples of m and each term
    lands on its own power of y^m."""
    k = 1 - j
    powers = [kappa[k] for kappa, _ in fp.terms]
    low = min(powers)
    coeffs = [Fraction(0)] * ((max(powers) - low) // m + 1)
    for kappa, coeff in fp.terms:
        e, r = divmod(kappa[k] - low, m)
        if r or coeffs[e]:
            raise ValueError("face terms do not lie on a face of the covector")
        coeffs[e] = coeff
    return coeffs


def _witness_evidence(system: FaceSystem, j: int, g_poly) -> Evidence:
    """Materialize a witness from a real root z = y^m of the univariate
    decision polynomial, m = |q_j| odd.  A rational z gives the exact point
    t^q x with x_j = 1, x_k = y and t = y^c, c q_k = -1 mod m: each of its
    coordinates y^(c q_i + [i = k]) is an integer power of z.  Otherwise z
    is isolated and refined, and the witness is x_j = 1, x_k = z^(1/m)."""
    q = system.witness_q
    k, m = 1 - j, abs(q[j])
    exact_roots = rational_roots(g_poly)
    if exact_roots:
        c = -pow(q[k], -1, m) % m
        x = [exact_roots[0] ** ((c * qi + (i == k)) // m) for i, qi in enumerate(q)]
    else:
        intervals = isolate_real_roots(g_poly)
        if not intervals:
            raise ArithmeticError("root count and isolation disagree")
        z = refine_root(g_poly, intervals[0])
        x = [math.copysign(abs(z) ** (1 / m), z) if i == k else 1.0 for i in range(2)]
    ok, info = check_witness(system, x)
    if not ok:
        raise ArithmeticError("the witness failed its own re-check")
    return Evidence(
        kind="Witness",
        witness=tuple(float(v) for v in x),
        witness_exact=tuple(str(v) for v in x) if exact_roots else None,
        residual_norm=max(info["f_residuals"], default=0.0),
        minor_max=info["minor_max"],
    )


def exact_check_2d(system: FaceSystem) -> Evidence:
    """Exact emptiness decision in two variables, on the slice x_j = 1.

    Vertex faces are monomials and never vanish on (R*)^2.  The covector q
    is primitive, so some q_j is odd; the odd one of smallest m = |q_j| is
    used.  Then x -> t^q x with real t != 0 carries every point of (R*)^2
    onto the slice x_j = 1 and keeps the face zeros and the weighted-Jacobian
    rank.  On the slice each face polynomial is y^low * R(y^m) in the other
    coordinate y = x_k with R(0) != 0, and z = y^m is a bijection of R*
    because m is odd, so its zeros in (R*)^2 are the real roots of R.  For
    one component the weighted Euler relation (d != 0, q_j != 0) makes a
    zero with vanishing weighted gradient a repeated root, a real root of
    gcd(R, R'); for two it forces the rank drop at every common zero, a real
    root of gcd(R1, R2).  A rational root gives an exact witness.
    """
    if system.num_vars != 2:
        raise ValueError("exact decisions are only available in two variables")
    if any(len(fp.terms) == 1 for fp in system.face_polys):
        return Evidence(
            kind="EmptyZeroSet",
            reason="a monomial face polynomial never vanishes on (R*)^2",
        )
    q = system.witness_q
    j = min((0, 1), key=lambda k: (q[k] % 2 == 0, abs(q[k])))
    if q[j] % 2 == 0:
        raise ValueError("the face system's covector has no odd entry")
    profiles = [_slice_profile(fp, j, abs(q[j])) for fp in system.face_polys]
    if len(profiles) == 1:
        p_poly = profiles[0]
        repeated = gcd(p_poly, derivative(p_poly))
        if degree(repeated) >= 1 and count_real_roots(repeated) > 0:
            return _witness_evidence(system, j, repeated)
        if count_real_roots(p_poly) == 0:
            return Evidence(
                kind="EmptyZeroSet",
                reason="the reduced univariate polynomial has no real roots",
            )
        return Evidence(
            kind="FullRankEverywhere",
            reason="all real zeros of the reduced polynomial are simple",
        )
    if len(profiles) == 2:
        common = gcd(profiles[0], profiles[1])
        if degree(common) >= 1 and count_real_roots(common) > 0:
            return _witness_evidence(system, j, common)
        return Evidence(
            kind="EmptyZeroSet",
            reason="the face polynomials have no common zero in (R*)^2",
        )
    raise ValueError("two variables admit at most two components")


# -- witness search -----------------------------------------------------------


class _FaceKernel(MonomialForm):
    """The face polynomials as one MonomialForm, plus what only the search
    needs: sheet signs, the log-coordinate memo, the p x p minors as one
    batched determinant and the residual's derivative.  In log coordinates
    x = sigma exp(s), the weighted Jacobian J is the derivative of the face
    values in s, and dJ_ij/ds_k = sum_t E_tj E_tk m_t.  The kernel only
    steers the solver: whether an end point is a witness is for
    check_witness to decide, in exact arithmetic.
    """

    def __init__(self, system: FaceSystem):
        polys = system.face_polys
        super().__init__(polys)
        self.combos = np.array(list(itertools.combinations(range(self.n), self.p)))
        self._exps_outer = np.einsum("tj,tk->tjk", self._exps_f, self._exps_f).reshape(
            len(self.coeffs), -1
        )
        self._last: Optional[tuple] = None

    def sheet_coeffs(self, sheet) -> np.ndarray:
        """The coefficients times the sign of x^E_t on the sheet sigma."""
        odd = self.exps[:, np.asarray(sheet) < 0].sum(axis=1) % 2
        return self.coeffs * (1 - 2 * odd)

    def log_monomials(self, s: np.ndarray, signed: np.ndarray) -> np.ndarray:
        """m at x = sigma exp(s), with signed = sheet_coeffs(sigma).  The
        last s is remembered, so a residual and its Jacobian at one point
        share the exponentials."""
        last = self._last
        if last is None or last[1] is not signed or not np.array_equal(last[0], s):
            last = self._last = (s.copy(), signed, signed * np.exp(self._exps_f @ s))
        return last[2]

    def minors(self, jac: np.ndarray) -> np.ndarray:
        """Every p x p minor of jac, in itertools.combinations column order."""
        return np.linalg.det(jac[:, self.combos].swapaxes(0, 1))

    def residual(self, m: np.ndarray) -> np.ndarray:
        return np.concatenate([self.values(m), self.minors(self.weighted_jacobian(m))])

    def residual_jacobian(self, m: np.ndarray) -> np.ndarray:
        """d(residual)/ds.  A minor's derivative follows Jacobi's rule: the
        sum over rows r of the determinant with row r replaced by its
        derivative, which holds for singular submatrices too."""
        n, p = self.n, self.p
        jac = self.weighted_jacobian(m)
        hess = ((self.owner * m) @ self._exps_outer).reshape(p, n, n)
        blocks = jac[:, self.combos].swapaxes(0, 1)
        k = len(self.combos)
        mats = np.broadcast_to(blocks[:, None, None], (k, p, n, p, p)).copy()
        for r in range(p):
            mats[:, r, :, r, :] = hess[r][self.combos].transpose(0, 2, 1)
        return np.vstack([jac, np.linalg.det(mats).sum(axis=1)])

    def log_residual(self, s: np.ndarray, signed: np.ndarray) -> np.ndarray:
        return self.residual(self.log_monomials(s, signed))

    def log_residual_jacobian(self, s: np.ndarray, signed: np.ndarray) -> np.ndarray:
        return self.residual_jacobian(self.log_monomials(s, signed))


@dataclass
class SearchStats:
    """What a witness search saw on starts that found no witness: the
    smallest max-abs residual entry over their end points (None when no
    start finished) and how many least-squares calls raised."""

    best_residual: Optional[float] = None
    solver_errors: int = 0


def witness_search(
    system: FaceSystem,
    attempts: int = 5000,
    seed: int = 0,
    stats: Optional[SearchStats] = None,
) -> Optional[Evidence]:
    """Multi-start least-squares hunt for a degeneracy witness.

    Each sheet of (R*)^n is parametrized by x_j = sigma_j exp(s_j); the
    residual stacks the face polynomials with every p x p minor of the
    weighted Jacobian.  The system is compiled once per call into a
    _FaceKernel, which gives the residual and its closed-form Jacobian in
    s to least_squares.  check_witness alone decides what is a witness:
    the snaps of an end point to rationals of denominator 1, 12 and 10^6
    are tried first and count only as exact witnesses, then the end point
    itself, unless some |s_j| reached LOG_COORD_BOUND (the infimum then
    lies at the axes or at infinity).  When no witness is found the result
    is None, and stats (if given) receives the best residual reached and
    the number of failed solver calls.
    """
    from scipy.optimize import least_squares

    n = system.num_vars
    sheets = [np.array(sheet) for sheet in itertools.product((1.0, -1.0), repeat=n)]
    kernel = _FaceKernel(system)
    if stats is None:
        stats = SearchStats()

    for k in range(attempts):
        sheet = sheets[k % len(sheets)]
        signed = kernel.sheet_coeffs(sheet)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, k])))
        s0 = rng.uniform(-3.0, 3.0, n)
        try:
            # Near the bounds terms can overflow to inf/nan residuals, which
            # the solver rejects as a step or raises on as a start.
            with np.errstate(all="ignore"):
                result = least_squares(
                    kernel.log_residual,
                    s0,
                    jac=kernel.log_residual_jacobian,
                    args=(signed,),
                    bounds=(-20.0, 20.0),
                    xtol=1e-14,
                    ftol=1e-14,
                    gtol=1e-14,
                    max_nfev=SEARCH_MAX_EVALS,
                )
        except (ValueError, ArithmeticError):
            stats.solver_errors += 1
            continue
        end_residual = float(np.max(np.abs(result.fun)))
        if stats.best_residual is None or end_residual < stats.best_residual:
            stats.best_residual = end_residual
        x = tuple(float(v) for v in sheet * np.exp(result.x))
        candidates = [tuple(Fraction(v).limit_denominator(b) for v in x) for b in (1, 12, 10**6)]
        if all(abs(v) < LOG_COORD_BOUND for v in result.x):
            candidates.append(x)
        for point in candidates:
            ok, info = check_witness(system, point)
            if ok and (info["exact"] or point is x):
                return Evidence(
                    kind="Witness",
                    witness=tuple(float(v) for v in point),
                    witness_exact=tuple(str(Fraction(v)) for v in point)
                    if info["exact"]
                    else None,
                    residual_norm=max(info["f_residuals"], default=0.0),
                    minor_max=info["minor_max"],
                    trials=k + 1,
                )
    return None


# -- checkers -----------------------------------------------------------------


def _decide_system(
    system: FaceSystem, mode: str, attempts: int, seed: int
) -> Evidence:
    if any(len(fp.terms) == 1 for fp in system.face_polys):
        return Evidence(
            kind="EmptyZeroSet",
            reason="a monomial face polynomial never vanishes on (R*)^n",
        )
    if any(sign_uniform_on_all_sheets(fp) for fp in system.face_polys):
        return Evidence(
            kind="EmptyZeroSet",
            reason="a face polynomial has one sign on every open orthant",
        )
    if system.num_vars == 2 and mode != "search":
        return exact_check_2d(system)
    stats = SearchStats()
    found = witness_search(system, attempts=attempts, seed=seed, stats=stats)
    if found is not None:
        return found
    return Evidence(
        kind="SearchExhausted",
        trials=attempts,
        best_residual=stats.best_residual,
        solver_errors=stats.solver_errors,
    )


def component_subtuples(p: int) -> list[tuple[int, ...]]:
    """Every nonempty sub-tuple of the components 1..p (1-based), by size,
    then lexicographically: the sub-mappings full non-degeneracy ranges
    over."""
    return [
        indices
        for size in range(1, p + 1)
        for indices in itertools.combinations(range(1, p + 1), size)
    ]


class NondegeneracyPlan:
    """The support-only part of the checker.

    It builds each component's Newton polyhedron once and enumerates the
    negative face tuples of every requested sub-tuple of components
    (`subsets`, 1-based).  Only decide() looks at coefficients, so one plan
    serves every mapping with these supports.  Exact enumeration needs
    n <= 4; by default larger n samples covectors, and a sampled plan is
    incomplete, so it never proves NonDegenerate.
    """

    def __init__(
        self,
        supports: Sequence,
        subsets: Sequence[Sequence[int]],
        enum_mode: Optional[str] = None,
        sample_budget: int = 20000,
        seed: int = 0,
    ):
        gammas = [newton_polyhedron(z) for z in supports]
        n = gammas[0].ambient_dim
        if len(gammas) > n:
            raise ValueError("the mapping has more components than variables")
        if enum_mode is None:
            enum_mode = "auto" if n <= 4 else "sampled"
        self.complete = True
        self.tuples: list[tuple[tuple[int, ...], FaceTuple]] = []
        for indices in subsets:
            enumeration = enumerate_negative_face_tuples(
                [gammas[i - 1] for i in indices],
                mode=enum_mode,
                sample_budget=sample_budget,
                seed=seed,
            )
            self.complete = self.complete and enumeration.complete
            self.tuples.extend((tuple(indices), ft) for ft in enumeration)

    def decide(
        self, F: PolynomialMapping, mode: str, attempts: int, seed: int
    ) -> NondegeneracyReport:
        """Decide every face system of F, a mapping with the plan's supports."""
        if mode not in ("auto", "exact", "search"):
            raise ValueError(f"unknown mode {mode!r}")
        if attempts < 1:
            raise ValueError(f"attempts must be at least 1, got {attempts}")
        if mode == "exact" and F.num_vars != 2:
            raise ValueError("exact decisions are only available in two variables")
        entries = []
        for indices, face_tuple in self.tuples:
            system = face_system(F, indices, face_tuple)
            evidence = _decide_system(system, mode, attempts, seed)
            entries.append(TupleEntry(system=system, evidence=evidence))
        witnesses = [e for e in entries if e.evidence.kind == "Witness"]
        if witnesses:
            verdict = "Degenerate"
        elif self.complete and all(e.evidence.passed for e in entries):
            verdict = "NonDegenerate"
        else:
            verdict = "Undecided"
        return NondegeneracyReport(
            verdict=verdict,
            mode="Exact2D" if F.num_vars == 2 and mode != "search" else "WitnessSearch",
            entries=tuple(entries),
            complete=self.complete,
            failing_subset=witnesses[0].system.subset if witnesses else None,
        )


def khovanskii_check(
    F: PolynomialMapping,
    mode: str = "auto",
    attempts: int = 5000,
    seed: int = 0,
    enum_mode: Optional[str] = None,
    sample_budget: int = 20000,
) -> NondegeneracyReport:
    """Face condition for the full tuple (f_1..f_p): every negative face
    tuple must have an empty degeneracy locus in (R*)^n."""
    full = [tuple(range(1, len(F) + 1))]
    plan = NondegeneracyPlan(F, full, enum_mode, sample_budget, seed)
    return plan.decide(F, mode, attempts, seed)


def nondegenerate_at_infinity(
    F: PolynomialMapping,
    mode: str = "auto",
    attempts: int = 5000,
    seed: int = 0,
    enum_mode: Optional[str] = None,
    sample_budget: int = 20000,
) -> NondegeneracyReport:
    """Face condition over every nonempty sub-tuple of components."""
    subsets = component_subtuples(len(F))
    plan = NondegeneracyPlan(F, subsets, enum_mode, sample_budget, seed)
    return plan.decide(F, mode, attempts, seed)
