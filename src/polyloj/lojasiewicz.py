"""Empirical machinery for the two-sided growth inequality
|g|^alpha + |g|^beta >= c |h|.

mu(t) = sup{|h(x)| : |g(x)| = t} drives everything: its small-t and
large-t log-log slopes are the candidate exponents, the inequality is then
verified on bulk samples, and failures are hunted as escape curves along
which g stays put while |h| blows up.  Also here: sphere probes for
gradient decay at infinity and the even multiplier N with h^N = g * f0
for a continuous factor f0.

mu has one path, mu_estimate_levels: every level of a call shares one
form and one set of rays, the level crossings of all levels and rays are
bracketed on one log grid and bisected together, and only the ascent
along each level set runs crossing by crossing.  The curve hunt decides
its conditions on exact Laurent coefficients and drops a candidate at
once when a blocking coefficient cannot vanish on (R*)^n
(polynomials.sign_uniform_on_all_sheets), before any grid or solver.

Estimates are one-sided: mu is approximated from below (it may be +inf),
so fitted exponents are labelled fitted, never optimal.

Every float value and gradient comes from polynomials.MonomialForm: each
public call compiles what it needs once ((g, grad g, h, grad h), or just
(g, h) for bulk samples) and takes the exact partial derivatives at that
point.  Kahan evaluate_float is used only for the evidence samples of an
escape curve, as an independent check of what the curve search found.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .polyhedra import enumerate_negative_face_tuples, newton_polyhedron
from .polynomials import MonomialForm, Polynomial, sign_uniform_on_all_sheets

RATIO_TOL = 1e-9
LEVEL_REL_TOL = 1e-12
SMALL_GRID = (1e-6, 1e-2)
LARGE_GRID = (1e2, 1e6)
GRID_POINTS = 12


class FitError(RuntimeError):
    """Raised when a regression grid has too few usable points."""


def _seeded(parts: Sequence[int]) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(parts))))


# -- mu: supremum of |h| on a level set of |g| ---------------------------------


@dataclass(frozen=True)
class MuDetail:
    """One mu(t) estimation run: the value is a lower bound for the true
    supremum, NaN when no ray crossed the level at all."""

    t: float
    budget: int
    seed: int
    value: float
    crossings: int
    best_point: Optional[tuple[float, ...]]
    best_per_task: tuple[float, ...]
    growth_flag: bool

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "budget": self.budget,
            "seed": self.seed,
            "value": self.value,
            "crossings": self.crossings,
            "best_point": list(self.best_point) if self.best_point else None,
            "growth_flag": self.growth_flag,
        }


def _ray_for_task(index: int, n: int, seed: int) -> np.ndarray:
    """Deterministic ray schedule: the 2n axis rays first, then seeded
    random directions, occasionally restricted to a coordinate subspace."""
    if index < 2 * n:
        u = np.zeros(n)
        u[index // 2] = 1.0 if index % 2 == 0 else -1.0
        return u
    rng = _seeded([seed, index])
    u = rng.normal(size=n)
    if n > 1 and rng.random() < 0.3:
        keep = rng.integers(1, n)
        mask = rng.permutation(n) < keep
        u = np.where(mask, u, 0.0)
    norm = np.linalg.norm(u)
    if norm == 0:
        u = np.ones(n)
        norm = np.linalg.norm(u)
    return u / norm


def _with_gradients(*polys: Polynomial) -> MonomialForm:
    """One form of each polynomial followed by its n partials: component
    (n + 1) i is the i-th polynomial, the n after it its gradient."""
    return MonomialForm([q for f in polys for q in (f, *f.gradient())])


def _level_crossings(
    form: MonomialForm, rays: np.ndarray, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radii r with |g(r u)| = t, g the form's first component, for every
    level t and ray u at once: flat arrays of level index, ray index and
    radius, sorted by level, then ray, then radius.  Per level and ray the
    brackets are the exact zeros and the first four sign changes on a log
    grid; the brackets of every level and ray are then bisected together,
    one evaluation per round, to relative tolerance LEVEL_REL_TOL.
    """
    rs = np.geomspace(1e-8, 1e8, 161)
    grid = (rs[None, :, None] * rays[:, None, :]).reshape(-1, rays.shape[1])
    g_abs = np.abs(form.evaluate(grid)[0]).reshape(len(rays), len(rs))
    # Per level: ray, grid index, is a sign change, |g(lo u)| > t.  One
    # level at a time keeps every array at (rays x grid) size.
    found = []
    for t in ts:
        vals = g_abs - t
        a, b = vals[:, :-1], vals[:, 1:]
        with np.errstate(over="ignore", invalid="ignore"):
            zero = (a == 0) & np.isfinite(b)
            # b may be inf: bisect on the finite side.
            change = np.isfinite(a) & (a * b < 0)
        seen = np.cumsum(change, axis=1)
        ray, k = np.nonzero((change & (seen <= 4)) | (zero & (seen < 4)))
        found.append((ray, k, change[ray, k], a[ray, k] > 0))
    level = np.repeat(np.arange(len(ts)), [len(f[0]) for f in found])
    ray, k, live, above = (np.concatenate(col) for col in zip(*found))
    lo = rs[k]
    hi = np.where(live, rs[k + 1], lo)
    for _ in range(80):
        idx = np.nonzero(live)[0]
        if not idx.size:
            break
        mid = np.sqrt(lo[idx] * hi[idx])
        fm = np.abs(form.evaluate(mid[:, None] * rays[ray[idx]])[0]) - ts[level[idx]]
        exact = fm == 0
        up = exact | ((fm > 0) == above[idx])
        lo[idx] = np.where(up, mid, lo[idx])
        hi[idx] = np.where(exact | ~up, mid, hi[idx])
        live[idx] = hi[idx] - lo[idx] > LEVEL_REL_TOL * lo[idx]
    return level, ray, np.sqrt(lo * hi)


def _project_to_level(
    form: MonomialForm, x: np.ndarray, g0: float
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Newton steps back onto {g = g0}: the point reached and the form's
    values there, or None when the projection stalls."""
    n = len(x)
    y = x.copy()
    for _ in range(30):
        v = form.evaluate(y)
        val = v[0] - g0
        if abs(val) <= 1e-10 * max(abs(g0), 1e-300):
            return y, v
        grad = v[1 : n + 1]
        gg = float(grad @ grad)
        if gg < 1e-300 or not np.isfinite(gg) or not np.isfinite(val):
            return None
        y = y - (val / gg) * grad
    return None


def _ascend_on_level(
    form: MonomialForm, x0: np.ndarray, iters: int = 60
) -> tuple[float, np.ndarray]:
    """Projected gradient ascent of |h| along {g = g(x0)}."""
    n = len(x0)
    v = form.evaluate(x0)
    g0 = v[0]
    x = x0.copy()
    best = abs(float(v[n + 1]))
    step = 0.1 * (1.0 + float(np.linalg.norm(x)))
    for _ in range(iters):
        sgn = 1.0 if v[n + 1] >= 0 else -1.0
        hg = sgn * v[n + 2 :]
        gg = v[1 : n + 1]
        denom = float(gg @ gg)
        if denom < 1e-300:
            break
        d = hg - (float(hg @ gg) / denom) * gg
        dn = float(np.linalg.norm(d))
        if dn < 1e-14 * (1.0 + abs(best)):
            break
        d = d / dn
        improved = False
        while step > 1e-12 * (1.0 + float(np.linalg.norm(x))):
            projected = _project_to_level(form, x + step * d, g0)
            if projected is not None:
                cand, cand_values = projected
                cv = abs(float(cand_values[n + 1]))
                if cv > best:
                    x, v, best = cand, cand_values, cv
                    step *= 1.5
                    improved = True
                    break
            step *= 0.5
        if not improved:
            break
    return best, x


def mu_estimate_levels(
    g: Polynomial,
    h: Polynomial,
    ts: Sequence[float],
    budget: int = 48,
    seed: int = 0,
) -> tuple[MuDetail, ...]:
    """Lower-bound estimates of sup{|h| : |g| = t}, with full diagnostics,
    for every level t in ts along the same budget rays.

    The form and the rays are built once, the crossings of every level
    and ray are found together, and each crossing is ascended in (level,
    ray, crossing) order.  Ray i depends only on (seed, i), and each
    level's estimate is its running max, so raising the budget never
    lowers a result.  A level's growth flag trips when its best value
    still improved noticeably in the last quarter of the schedule: the
    supremum may be infinite.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if any(t <= 0 for t in ts):
        raise ValueError("level t must be positive")
    if not len(ts):
        return ()
    n = g.num_vars
    form = _with_gradients(g, h)
    rays = np.array([_ray_for_task(i, n, seed) for i in range(budget)])
    level, ray, radii = _level_crossings(form, rays, np.array(ts, dtype=float))
    # The crossings of level j on ray i, for task j * budget + i.
    counts = np.bincount(level * budget + ray, minlength=len(ts) * budget)
    per_task = np.split(radii, np.cumsum(counts)[:-1])
    details = []
    for j, t in enumerate(ts):
        best = math.nan
        best_point = None
        crossings = 0
        best_per_task = []
        for i in range(budget):
            for r in per_task[j * budget + i]:
                crossings += 1
                val, x_at = _ascend_on_level(form, r * rays[i])
                if math.isnan(best) or val > best:
                    best = val
                    best_point = tuple(float(v) for v in x_at)
            best_per_task.append(best)
        growth = False
        if budget >= 8 and not math.isnan(best) and best > 0:
            anchor = best_per_task[(3 * budget) // 4 - 1]
            if not math.isnan(anchor) and anchor > 0:
                growth = best > 1.05 * anchor
            else:
                growth = True
        details.append(
            MuDetail(
                t=t,
                budget=budget,
                seed=seed,
                value=best,
                crossings=crossings,
                best_point=best_point,
                best_per_task=tuple(best_per_task),
                growth_flag=growth,
            )
        )
    return tuple(details)


def mu_estimate_detail(
    g: Polynomial, h: Polynomial, t: float, budget: int = 48, seed: int = 0
) -> MuDetail:
    """mu_estimate_levels on the one level t."""
    return mu_estimate_levels(g, h, [t], budget=budget, seed=seed)[0]


def mu_estimate(
    g: Polynomial, h: Polynomial, t: float, budget: int = 48, seed: int = 0
) -> float:
    """sup of |h| over the level |g| = t, estimated from below; NaN when no
    ray crossing was found (reported, not thrown)."""
    return mu_estimate_detail(g, h, t, budget=budget, seed=seed).value


# -- exponent fitting ----------------------------------------------------------


@dataclass(frozen=True)
class ExponentFit:
    """Fitted growth exponents: alpha rules t -> 0+, beta rules t -> inf,
    c is the best safe constant seen on the grids.  Fitted, not optimal."""

    alpha: float
    beta: float
    c: float
    small_grid: tuple[tuple[float, float], ...]
    large_grid: tuple[tuple[float, float], ...]
    alpha_stderr: float
    beta_stderr: float
    alpha_r2: float
    beta_r2: float
    method: str = "fitted"
    growth_flagged: bool = False
    zero_containment_ok: Optional[bool] = None

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise FitError("fitted exponents must be positive")
        if not self.c > 0:
            raise FitError("fitted constant must be positive")
        for grid in (self.small_grid, self.large_grid):
            ts = [t for t, _ in grid]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise FitError("grids must be strictly increasing")

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "c": self.c,
            "method": self.method,
            "small_grid": [[t, m] for t, m in self.small_grid],
            "large_grid": [[t, m] for t, m in self.large_grid],
            "alpha_stderr": self.alpha_stderr,
            "beta_stderr": self.beta_stderr,
            "alpha_r2": self.alpha_r2,
            "beta_r2": self.beta_r2,
            "growth_flagged": self.growth_flagged,
            "zero_containment_ok": self.zero_containment_ok,
        }


def _loglog_fit(pairs: list[tuple[float, float]]) -> tuple[float, float, float]:
    """slope, slope stderr, R^2 of log10(mu) against log10(t)."""
    xs = np.log10([t for t, _ in pairs])
    ys = np.log10([m for _, m in pairs])
    m = len(pairs)
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = slope * xs + intercept
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    if m > 2:
        sigma2 = ss_res / (m - 2)
        stderr = math.sqrt(sigma2 / float(np.sum((xs - np.mean(xs)) ** 2)))
    else:
        stderr = 0.0
    return float(slope), stderr, r2


def _zero_containment_sampled(
    g: Polynomial, h: Polynomial, seed: int
) -> Optional[bool]:
    """Find near-zeros of g numerically and test that h is small there."""
    from scipy.optimize import least_squares

    n = g.num_vars
    form = _with_gradients(g, h)
    found_any = False
    ok = True
    for k in range(8):
        rng = _seeded([seed, 7001, k])
        x0 = rng.uniform(-3.0, 3.0, n)
        try:
            res = least_squares(
                lambda s: form.evaluate(s)[:1],
                x0,
                jac=lambda s: form.evaluate(s)[None, 1 : n + 1],
                max_nfev=200,
            )
        except (ValueError, ArithmeticError):
            continue
        x = res.x
        v = form.evaluate(x)
        scale_g = 1.0 + np.linalg.norm(x) ** g.total_degree()
        if abs(v[0]) < 1e-10 * scale_g:
            found_any = True
            scale_h = 1.0 + np.linalg.norm(x) ** h.total_degree()
            if abs(v[n + 1]) > 1e-3 * scale_h:
                ok = False
    return ok if found_any else None


def fit_exponents(
    g: Polynomial,
    h: Polynomial,
    budget: int = 48,
    seed: int = 0,
    small_grid: Optional[Sequence[float]] = None,
    large_grid: Optional[Sequence[float]] = None,
) -> ExponentFit:
    """Fit alpha on t in [1e-6, 1e-2] and beta on [1e2, 1e6] from mu-hat,
    12 geometric points each; c is the smallest observed
    (t^alpha + t^beta) / mu-hat(t) with a safety factor."""
    ts_small = list(small_grid) if small_grid is not None else list(
        np.geomspace(*SMALL_GRID, GRID_POINTS)
    )
    ts_large = list(large_grid) if large_grid is not None else list(
        np.geomspace(*LARGE_GRID, GRID_POINTS)
    )
    details = mu_estimate_levels(
        g, h, [float(t) for t in ts_small + ts_large], budget=budget, seed=seed
    )
    growth = any(d.growth_flag for d in details)
    grids: dict[str, list[tuple[float, float]]] = {"small": [], "large": []}
    for k, d in enumerate(details):
        if math.isfinite(d.value) and d.value > 0:
            grids["small" if k < len(ts_small) else "large"].append((d.t, d.value))
    if len(grids["small"]) < 4 or len(grids["large"]) < 4:
        raise FitError("degenerate regression: fewer than 4 usable grid points")
    alpha, alpha_err, alpha_r2 = _loglog_fit(grids["small"])
    beta, beta_err, beta_r2 = _loglog_fit(grids["large"])
    ratios = [
        (t**alpha + t**beta) / m for t, m in grids["small"] + grids["large"]
    ]
    c = min(ratios) * (1.0 - 1e-6)
    return ExponentFit(
        alpha=alpha,
        beta=beta,
        c=c,
        small_grid=tuple(grids["small"]),
        large_grid=tuple(grids["large"]),
        alpha_stderr=alpha_err,
        beta_stderr=beta_err,
        alpha_r2=alpha_r2,
        beta_r2=beta_r2,
        growth_flagged=growth,
        zero_containment_ok=_zero_containment_sampled(g, h, seed),
    )


# -- inequality verification ----------------------------------------------------


@dataclass(frozen=True)
class InequalityReport:
    alpha: float
    beta: float
    c: float
    holds: bool
    worst_ratio: float
    worst_point: Optional[tuple[float, ...]]
    worst_source: str
    first_violation: Optional[dict]
    box_count: int
    level_count: int
    curve_count: int

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "c": self.c,
            "holds": self.holds,
            "worst_ratio": self.worst_ratio,
            "worst_point": list(self.worst_point) if self.worst_point else None,
            "worst_source": self.worst_source,
            "first_violation": self.first_violation,
            "samples": {
                "box": self.box_count,
                "level": self.level_count,
                "curve": self.curve_count,
            },
        }


def _ratio_arrays(g_vals, h_vals, alpha, beta, c):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ga = np.abs(g_vals)
        denom = ga**alpha + ga**beta
        num = c * np.abs(h_vals)
        ratio = np.where(
            denom > 0, num / denom, np.where(num == 0, 0.0, np.inf)
        )
    return np.nan_to_num(ratio, nan=np.inf)


def _level_points(g: Polynomial, h: Polynomial, levels, budget: int, seed: int):
    """The best points mu_estimate_levels finds on the given levels of |g|,
    as a (k, n) array (levels it never reached are left out); budget 0
    takes no level samples."""
    if budget == 0:
        return np.empty((0, g.num_vars))
    details = mu_estimate_levels(g, h, [float(t) for t in levels], budget, seed)
    points = [d.best_point for d in details if d.best_point is not None]
    return np.array(points).reshape(-1, g.num_vars)


def verify_inequality(
    g: Polynomial,
    h: Polynomial,
    alpha: float,
    beta: float,
    c: float,
    box_count: int = 100000,
    box_halfwidth: float = 10.0,
    level_budget: int = 12,
    curves: Sequence["SequenceEvidence"] = (),
    seed: int = 0,
) -> InequalityReport:
    """Check |g|^alpha + |g|^beta >= c|h| on box samples, level-set samples
    across both t grids (level_budget rays each; 0 takes none), and any
    supplied escape curves.  Holds means the worst ratio
    c|h| / (|g|^alpha + |g|^beta) stays within 1 + RATIO_TOL."""
    if not (alpha > 0 and beta > 0 and c > 0):
        raise ValueError("alpha, beta, c must all be positive")
    if level_budget < 0:
        raise ValueError("level_budget must be at least 0")
    n = g.num_vars
    pair = MonomialForm([g, h])
    box = _seeded([seed, 1]).uniform(-box_halfwidth, box_halfwidth, size=(box_count, n))
    grid = list(np.geomspace(*SMALL_GRID, 6)) + list(np.geomspace(*LARGE_GRID, 6))
    level = _level_points(g, h, grid, level_budget, seed)
    curve = [x for ev in curves for x in ev.points]
    curve_g = [v for ev in curves for v in ev.g_values]
    curve_h = [v for ev in curves for v in ev.h_values]
    worst = 0.0
    worst_point: Optional[tuple[float, ...]] = None
    worst_source = "none"
    first_violation = None
    for source, pts, (g_vals, h_vals) in (
        ("box", box, pair.evaluate(box)),
        ("level", level, pair.evaluate(level)),
        ("curve", curve, (curve_g, curve_h)),
    ):
        ratio = _ratio_arrays(g_vals, h_vals, alpha, beta, c)
        if not ratio.size:
            continue
        k = int(np.argmax(ratio))
        if ratio[k] > worst:
            worst = float(ratio[k])
            worst_point = tuple(float(v) for v in pts[k])
            worst_source = source
        bad = np.nonzero(ratio > 1.0 + RATIO_TOL)[0]
        if bad.size and first_violation is None:
            j = int(bad[0])
            first_violation = {
                "point": [float(v) for v in pts[j]],
                "ratio": float(ratio[j]),
                "source": source,
            }

    return InequalityReport(
        alpha=alpha,
        beta=beta,
        c=c,
        holds=first_violation is None,
        worst_ratio=worst,
        worst_point=worst_point,
        worst_source=worst_source,
        first_violation=first_violation,
        box_count=box_count,
        level_count=len(level),
        curve_count=len(curve),
    )


# -- escape-curve hunting --------------------------------------------------------


@dataclass(frozen=True)
class SequenceEvidence:
    """A monomial curve x_j = a_j s^{q_j}, s -> 0+, certifying unbounded
    growth of |h| while g stays small (FirstType: g -> 0, |h| >= delta) or
    merely bounded (SecondType)."""

    kind: str
    q: tuple[int, ...]
    a: tuple[str, ...]
    s_values: tuple[float, ...]
    points: tuple[tuple[float, ...], ...]
    g_values: tuple[float, ...]
    h_values: tuple[float, ...]
    delta: Optional[float] = None
    g_bound: Optional[float] = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "q": list(self.q),
            "a": list(self.a),
            "s_values": list(self.s_values),
            "points": [list(p) for p in self.points],
            "g_values": list(self.g_values),
            "h_values": list(self.h_values),
            "delta": self.delta,
            "g_bound": self.g_bound,
        }


def _laurent_groups(
    f: Polynomial, q: tuple[int, ...]
) -> list[tuple[int, Polynomial]]:
    """The terms of f grouped by Laurent exponent along the curve
    s -> (a_1 s^{q_1}, .., a_n s^{q_n}), in increasing order: term kappa
    lands at exponent m = <q, kappa>, so group m evaluated at a is the
    exact coefficient of s^m."""
    groups: dict[int, dict] = {}
    for kappa, coeff in f.terms:
        m = sum(qj * kj for qj, kj in zip(q, kappa))
        groups.setdefault(m, {})[kappa] = coeff
    return [(m, Polynomial.from_dict(f.num_vars, groups[m])) for m in sorted(groups)]


def _candidate_exponents(
    g: Polynomial, h: Polynomial, max_abs: int, grid_radius: int
) -> list[tuple[int, ...]]:
    n = g.num_vars
    bases: set[tuple[int, ...]] = set()
    gg = newton_polyhedron(g)
    gh = newton_polyhedron(h)
    for gammas in ([gg], [gh], [gg, gh]):
        try:
            enumeration = enumerate_negative_face_tuples(gammas)
        except ValueError:
            continue
        for ft in enumeration:
            bases.add(tuple(ft.witness_q))
    candidates: set[tuple[int, ...]] = set()
    for q in bases:
        for delta in itertools.product((-1, 0, 1), repeat=n):
            cand = tuple(qj + dj for qj, dj in zip(q, delta))
            if any(abs(v) > max_abs for v in cand):
                continue
            if any(cand):
                candidates.add(cand)
    for cand in itertools.product(range(-grid_radius, grid_radius + 1), repeat=n):
        if any(cand):
            candidates.add(tuple(cand))
    ordered = sorted(candidates, key=lambda q: (sum(abs(v) for v in q), q))
    return [q for q in ordered if min(q) < 0]


def _conditions_hold(
    blocking: list[Polynomial],
    h_groups: list[tuple[int, Polynomial]],
    a: Sequence[Fraction],
    kind: str,
    delta: float,
) -> bool:
    """The curve conditions at a: every blocking Laurent coefficient of g
    vanishes, and h's leading one sits at a negative exponent, or, for
    first-type curves, at exponent 0 with magnitude at least delta."""
    if any(eq.evaluate_exact(a) for eq in blocking):
        return False
    for m, group in h_groups:
        value = group.evaluate_exact(a)
        if value:
            return m < 0 or (kind == "FirstType" and m == 0 and abs(value) >= delta)
    return False


def _log_residual(form: MonomialForm, sheet: np.ndarray):
    """fun and jac for least_squares: the form's values at x = sheet * exp(s)
    and their derivative in s, the weighted Jacobian at x."""
    return (
        lambda s: form.values(form.monomials(sheet * np.exp(s))),
        lambda s: form.weighted_jacobian(form.monomials(sheet * np.exp(s))),
    )


def _solve_coefficients(
    g_groups: list[tuple[int, Polynomial]],
    h_groups: list[tuple[int, Polynomial]],
    n: int,
    kind: str,
    delta: float,
    seed: int,
) -> Optional[tuple[Fraction, ...]]:
    """Coefficient vector a making the curve conditions hold, exactly.

    None at once when a blocking Laurent coefficient cannot vanish on
    (R*)^n; otherwise a small rational grid first (all-ones leading), then
    numeric root-finding on the blocking coefficients with rational
    snap-back."""
    from scipy.optimize import least_squares

    # The blocking equations: Laurent coefficients of g at negative
    # exponents (plus the constant one for first-type curves) as
    # polynomials in a.  Each must vanish exactly at a in (Q*)^n.
    equations = [
        group for m, group in g_groups if m < 0 or (kind == "FirstType" and m == 0)
    ]
    if any(sign_uniform_on_all_sheets(eq) for eq in equations):
        return None
    simple = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
              Fraction(1, 2), Fraction(-1, 2))
    for a in itertools.product(simple, repeat=n):
        if _conditions_hold(equations, h_groups, a, kind, delta):
            return a

    if not equations:
        return None
    form = MonomialForm(equations)
    for attempt in range(10):
        rng = _seeded([seed, 4242, attempt])
        sheet = rng.choice((-1.0, 1.0), size=n)
        s0 = rng.uniform(-1.5, 1.5, n)
        fun, jac = _log_residual(form, sheet)
        try:
            # Overflow to inf just steers the solver back.
            with np.errstate(over="ignore", invalid="ignore"):
                res = least_squares(fun, s0, jac=jac, max_nfev=400)
        except (ValueError, ArithmeticError):
            continue
        av = sheet * np.exp(res.x)
        for bound in (1, 12, 1000):
            a = tuple(Fraction(float(v)).limit_denominator(bound) for v in av)
            if any(v == 0 for v in a):
                continue
            if _conditions_hold(equations, h_groups, a, kind, delta):
                return a
    return None


def hunt_sequences(
    g: Polynomial,
    h: Polynomial,
    kind: str,
    max_abs_exponent: int = 6,
    grid_radius: int = 2,
    num_samples: int = 8,
    delta: float = 1e-3,
    seed: int = 0,
) -> Optional[SequenceEvidence]:
    """Search monomial curves for a sequence of the given kind.

    Candidate exponents come from the negative-face-tuple covectors of the
    two Newton polyhedra (singly and jointly) with integer perturbations,
    plus a small exhaustive grid; conditions are decided on exact Laurent
    profiles, then the winning curve is sampled for the evidence record.
    """
    if kind not in ("FirstType", "SecondType"):
        raise ValueError("kind must be 'FirstType' or 'SecondType'")
    g_bound = 10.0 * (1.0 + abs(float(g.coeff((0,) * g.num_vars))))
    for q in _candidate_exponents(g, h, max_abs_exponent, grid_radius):
        a = _solve_coefficients(
            _laurent_groups(g, q), _laurent_groups(h, q), g.num_vars, kind, delta, seed
        )
        if a is None:
            continue
        s_values = tuple(10.0 ** (-k) for k in range(num_samples))
        points = tuple(
            tuple(float(aj) * s ** qj for aj, qj in zip(a, q)) for s in s_values
        )
        g_values = tuple(g.evaluate_float(list(x)) for x in points)
        h_values = tuple(h.evaluate_float(list(x)) for x in points)
        norms = [np.linalg.norm(x) for x in points]
        tail = slice(-5, None)
        if not all(b > n_ for n_, b in zip(norms[tail], norms[tail][1:])):
            continue
        if norms[-1] < 10.0:
            continue
        if kind == "FirstType":
            if max(abs(v) for v in g_values[tail]) >= 1e-6:
                continue
            h_floor = min(abs(v) for v in h_values[tail])
            if h_floor < delta:
                continue
            return SequenceEvidence(
                kind=kind,
                q=q,
                a=tuple(str(v) for v in a),
                s_values=s_values,
                points=points,
                g_values=g_values,
                h_values=h_values,
                delta=h_floor,
            )
        habs = [abs(v) for v in h_values[tail]]
        if not all(b > a_ for a_, b in zip(habs, habs[1:])):
            continue
        if max(abs(v) for v in g_values) > g_bound:
            continue
        return SequenceEvidence(
            kind=kind,
            q=q,
            a=tuple(str(v) for v in a),
            s_values=s_values,
            points=points,
            g_values=g_values,
            h_values=h_values,
            g_bound=g_bound,
        )
    return None


# -- gradient probes at infinity --------------------------------------------------


@dataclass(frozen=True)
class RadiusProbe:
    radius: float
    min_norm: float
    f_value: float
    point: tuple[float, ...]
    feasible: bool = True

    def to_json(self) -> dict:
        return {
            "radius": self.radius,
            "min_norm": self.min_norm,
            "f_value": self.f_value,
            "point": list(self.point),
            "feasible": self.feasible,
        }


@dataclass(frozen=True)
class KtildeProbeReport:
    probes: tuple[RadiusProbe, ...]
    trend: str
    k0_candidates: tuple[float, ...]
    constraint_level: Optional[float] = None

    def to_json(self) -> dict:
        return {
            "probes": [p.to_json() for p in self.probes],
            "trend": self.trend,
            "k0_candidates": list(self.k0_candidates),
            "constraint_level": self.constraint_level,
        }


def ktilde_probe(
    f: Polynomial,
    constraint: Optional[tuple[Polynomial, float]] = None,
    radii: Optional[Sequence[float]] = None,
    budget: int = 24,
    seed: int = 0,
) -> KtildeProbeReport:
    """Per-radius minimization of the (constrained) gradient norm on the
    sphere ||x|| = R: decaying minima are evidence that a critical value at
    infinity exists, minima bounded away from zero are evidence against."""
    from scipy.optimize import least_squares

    if radii is None:
        radii = list(np.geomspace(10.0, 1e4, 7))
    radii = [float(r) for r in radii]
    if any(r <= 0 for r in radii) or any(
        b <= a for a, b in zip(radii, radii[1:])
    ):
        raise ValueError("radii must be positive and increasing")
    n = f.num_vars
    if constraint is None:
        form = _with_gradients(f)
    else:
        h_poly, level = constraint
        form = _with_gradients(f, h_poly)

    def probe(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The form's values at x and the gradient of f there, projected
        off grad h under a constraint."""
        v = form.evaluate(x)
        gf = v[1 : n + 1]
        if constraint is None:
            return v, gf
        gh = v[n + 2 :]
        denom = float(gh @ gh)
        return v, (gf if denom < 1e-300 else gf - (float(gf @ gh) / denom) * gh)

    def residual(v: np.ndarray, radius: float, sign: float) -> np.ndarray:
        nv = np.linalg.norm(v)
        if nv == 0:
            return np.full(n + (0 if constraint is None else 1), 1e6)
        values, proj = probe(radius * v / nv)
        if constraint is None:
            return proj
        gap = values[n + 1] - sign * level
        # The gap is weighted so the optimizer cannot buy a smaller
        # projected gradient by drifting off the level set.
        scale = 1e3 * (1.0 + float(np.linalg.norm(proj))) / (1.0 + abs(level))
        return np.append(proj, scale * gap)

    def restore_level(x: np.ndarray, target: float, radius: float) -> np.ndarray:
        """Alternate Newton steps along grad h with sphere renormalization."""
        for _ in range(30):
            v = form.evaluate(x)
            val = v[n + 1] - target
            if abs(val) <= 1e-12 * (1.0 + abs(target)):
                break
            gh = v[n + 2 :]
            denom = float(gh @ gh)
            if denom < 1e-300:
                break
            x = x - (val / denom) * gh
            nv = np.linalg.norm(x)
            if nv == 0:
                break
            x = radius * x / nv
        return x

    probes = []
    for ridx, radius in enumerate(radii):
        starts: list[np.ndarray] = []
        for j in range(n):
            for sgn in (1.0, -1.0):
                e = np.full(n, 0.01)
                e[j] = sgn
                starts.append(e)
        if n == 2:
            starts.extend(
                np.array([math.cos(th), math.sin(th)])
                for th in np.linspace(0, 2 * math.pi, 16, endpoint=False)
            )
        for k in range(budget):
            starts.append(_seeded([seed, ridx, k]).normal(size=n))
        best_norm = math.inf
        best_point = tuple([radius] + [0.0] * (n - 1))
        best_f = float(form.evaluate(np.array(best_point))[0])
        feasible = constraint is None
        for start in starts:
            for sign in (1.0,) if constraint is None else (1.0, -1.0):
                try:
                    res = least_squares(
                        residual,
                        start,
                        args=(radius, sign),
                        xtol=1e-15,
                        ftol=1e-15,
                        gtol=1e-15,
                        max_nfev=400,
                    )
                except (ValueError, ArithmeticError):
                    continue
                nv = np.linalg.norm(res.x)
                if nv == 0:
                    continue
                x_arr = radius * res.x / nv
                if constraint is not None:
                    x_arr = restore_level(x_arr, sign * level, radius)
                values, vec = probe(x_arr)
                if constraint is not None:
                    if abs(values[n + 1] - sign * level) > 1e-6 * (1.0 + abs(level)):
                        continue
                    feasible = True
                norm_val = float(np.linalg.norm(vec))
                if norm_val < best_norm:
                    best_norm = norm_val
                    best_point = tuple(float(v) for v in x_arr)
                    best_f = float(values[0])
        probes.append(
            RadiusProbe(
                radius=radius,
                min_norm=best_norm if feasible else math.inf,
                f_value=best_f,
                point=best_point,
                feasible=feasible,
            )
        )
    finite = [(p.radius, p.min_norm) for p in probes if math.isfinite(p.min_norm)]
    if len(finite) >= 2 and all(v > 0 for _, v in finite):
        slope, _, _ = _loglog_fit(list(finite))
    else:
        slope = 0.0
    norms = [v for _, v in finite] or [math.inf]
    if norms[-1] < 1e-6 or slope <= -0.8:
        trend = "decaying to zero"
    elif slope >= 0.5:
        trend = "growing"
    elif min(norms) >= 1e-3:
        trend = "bounded away from zero"
    else:
        trend = "undetermined"
    k0: list[float] = []
    for p in probes:
        if p.min_norm < 1e-8:
            rounded = 0.0 if abs(p.f_value) < 1e-8 else p.f_value
            if not any(abs(rounded - v) <= 1e-6 * (1 + abs(v)) for v in k0):
                k0.append(rounded)
    return KtildeProbeReport(
        probes=tuple(probes),
        trend=trend,
        k0_candidates=tuple(sorted(k0)),
        constraint_level=None if constraint is None else float(constraint[1]),
    )


# -- the even multiplier -----------------------------------------------------------


@dataclass(frozen=True)
class MultiplierReport:
    alpha: float
    ell: int
    power: int
    ball_max: float
    level_max: float
    max_ratio: float
    samples: int
    skipped_zero_g: int
    bounded: bool

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "ell": self.ell,
            "N": self.power,
            "ball_max": self.ball_max,
            "level_max": self.level_max,
            "max_ratio": self.max_ratio,
            "samples": self.samples,
            "skipped_zero_g": self.skipped_zero_g,
            "bounded": self.bounded,
        }


def multiplier(
    g: Polynomial,
    h: Polynomial,
    alpha: float,
    ball_samples: int = 100000,
    seed: int = 0,
) -> tuple[int, MultiplierReport]:
    """N = 2(floor(1/alpha) + 1), the even power with h^N = g * f0 for a
    continuous f0; the report samples h^N / g^2 on the unit ball and near
    small levels of |g| as boundedness evidence for the factor."""
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    ell = math.floor(1.0 / alpha + 1e-12) + 1
    power = 2 * ell
    n = g.num_vars
    rng = _seeded([seed, 11])
    raw = rng.normal(size=(ball_samples, n))
    norms = np.linalg.norm(raw, axis=1)
    norms[norms == 0] = 1.0
    radii = rng.uniform(0.0, 1.0, ball_samples) ** (1.0 / n)
    pts = raw / norms[:, None] * radii[:, None]
    pair = MonomialForm([g, h])
    g_vals, h_vals = pair.evaluate(pts)
    mask = g_vals != 0
    skipped = int(ball_samples - np.count_nonzero(mask))
    level = _level_points(g, h, (1e-2, 1e-4, 1e-6), 8, seed)
    level_max = 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratios = np.abs(h_vals[mask]) ** power / g_vals[mask] ** 2
        for gv, hv in pair.evaluate(level).T:
            if gv != 0:
                level_max = max(level_max, float(abs(hv) ** power / gv**2))
    ball_max = float(np.max(ratios)) if ratios.size else 0.0
    max_ratio = max(ball_max, level_max)
    report = MultiplierReport(
        alpha=alpha,
        ell=ell,
        power=power,
        ball_max=ball_max,
        level_max=level_max,
        max_ratio=max_ratio,
        samples=ball_samples,
        skipped_zero_g=skipped,
        bounded=math.isfinite(max_ratio),
    )
    return power, report
