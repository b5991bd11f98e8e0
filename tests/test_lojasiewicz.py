"""Empirical two-sided growth estimation: level-set suprema, exponent
fits, inequality verification, escape curves, gradient probes at infinity,
and the even multiplier."""

import math
from fractions import Fraction

import numpy as np
import pytest

import util
from polyloj import (
    FitError,
    fit_exponents,
    hunt_sequences,
    ktilde_probe,
    mu_estimate,
    mu_estimate_detail,
    mu_estimate_levels,
    multiplier,
    parse_polynomial,
    verify_inequality,
)

G32 = parse_polynomial("x1^2 + x2^4", 2)
H32 = parse_polynomial("x1^2 + x2^2", 2)
G31 = parse_polynomial("(x1^2 - 1)^2 + (x1*x2 - 1)^2", 2)
H31 = parse_polynomial("(x1^2 - 1)^2 + (x2^2 - 1)^2", 2)


def closed_form_mu(t):
    """sup{x1^2 + x2^2 : x1^2 + x2^4 = t} in closed form.

    On the level set, x1^2 = t - x2^4, so h = t + x2^2 - x2^4 with
    0 <= x2^2 <= sqrt(t).  The inner maximum of u - u^2 over [0, sqrt(t)]
    sits at u = 1/2 when sqrt(t) >= 1/2 (value 1/4) and at the endpoint
    u = sqrt(t) otherwise (value sqrt(t) - t).  Hence mu(t) = sqrt(t) for
    t <= 1/4 and mu(t) = t + 1/4 for t >= 1/4.
    """
    return math.sqrt(t) if t <= 0.25 else t + 0.25


def test_mu_matches_closed_form():
    for t in (1e-4, 1e-2, 0.25, 1.0, 100.0, 1e4):
        value = mu_estimate(G32, H32, t)
        expect = closed_form_mu(t)
        assert abs(value - expect) <= 1e-8 * expect


def test_mu_self_level_is_identity():
    # With h = g, the supremum over |g| = t is exactly t.
    for t in (1e-3, 1.0, 3.7, 250.0):
        assert abs(mu_estimate(G32, G32, t) - t) <= 1e-9 * t


def test_mu_estimate_is_budget_monotone():
    lo = mu_estimate(G32, H32, 1e-3, budget=12)
    hi = mu_estimate(G32, H32, 1e-3, budget=48)
    assert hi >= lo - 1e-15
    detail = mu_estimate_detail(G32, H32, 1.0, budget=16)
    series = [v for v in detail.best_per_task if not math.isnan(v)]
    assert all(b >= a for a, b in zip(series, series[1:]))
    assert detail.crossings > 0
    assert detail.best_point is not None


def test_mu_requires_positive_level():
    with pytest.raises(ValueError):
        mu_estimate(G32, H32, 0.0)
    with pytest.raises(ValueError):
        mu_estimate(G32, H32, -1.0)


def test_mu_reports_nan_when_level_unreached():
    # min g = 1, so the level |g| = 1/2 is never crossed on any ray.
    g = parse_polynomial("x1^2 + x2^2 + 1", 2)
    assert math.isnan(mu_estimate(g, H32, 0.5, budget=8))


def random_pair(seed):
    rnd = util.make_rng(seed)
    return tuple(util.random_polynomial(rnd, 2, max_terms=4, max_exp=4) for _ in range(2))


@pytest.mark.parametrize(
    "pair", [(G31, H31), (G32, H32), random_pair(1601)], ids=["ex31", "ex32", "random"]
)
def test_mu_levels_match_one_level_at_a_time(pair):
    g, h = pair
    ts = [1e-6, 1e-3, 0.5, 1.0, 30.0, 1e5]
    levels = mu_estimate_levels(g, h, ts, budget=8, seed=3)
    singles = [mu_estimate_detail(g, h, t, budget=8, seed=3) for t in ts]
    # repr compares every field exactly, NaN values included.
    assert [repr(d) for d in levels] == [repr(d) for d in singles]
    if g is G31:
        # The small levels are ovals that no ray from the origin meets.
        assert math.isnan(levels[0].value) and levels[0].best_point is None


def test_mu_exact_zero_on_the_grid_is_a_crossing():
    # On the ray +x1, |g| - t is exactly 0 at the grid radius r_k, so the
    # crossing is r_k itself, with no bisection.
    g = parse_polynomial("x1^2", 2)
    rs = np.geomspace(1e-8, 1e8, 161)
    for k in (3, 80, 150):
        r = float(rs[k])
        (detail,) = mu_estimate_levels(g, H32, [r**2], budget=1)
        assert detail.crossings == 1
        assert detail.best_point == (r, 0.0)


def test_mu_levels_bounds():
    assert mu_estimate_levels(G32, H32, []) == ()
    for budget in (0, -3):
        with pytest.raises(ValueError, match="budget"):
            mu_estimate_levels(G32, H32, [1.0], budget=budget)
        with pytest.raises(ValueError, match="budget"):
            mu_estimate_levels(G32, H32, [], budget=budget)
        with pytest.raises(ValueError, match="budget"):
            mu_estimate_detail(G32, H32, 1.0, budget=budget)
        with pytest.raises(ValueError, match="budget"):
            fit_exponents(G32, H32, budget=budget)
    with pytest.raises(ValueError, match="level_budget"):
        verify_inequality(G32, H32, 0.5, 1.0, 1.0, box_count=10, level_budget=-1)
    with pytest.raises(ValueError, match="positive"):
        mu_estimate_levels(G32, H32, [1.0, 0.0])


def test_fit_reference_pair():
    fit = fit_exponents(G32, H32)
    assert 0.45 <= fit.alpha <= 0.55
    assert 0.90 <= fit.beta <= 1.10
    assert fit.c > 0
    assert fit.alpha_r2 > 0.999
    assert fit.beta_r2 > 0.999
    assert not fit.growth_flagged
    assert len(fit.small_grid) == 12
    assert len(fit.large_grid) == 12
    # The fitted triple must itself verify on fresh samples.
    report = verify_inequality(
        G32, H32, fit.alpha, fit.beta, fit.c, box_count=20000, seed=7
    )
    assert report.holds


def test_fit_identity_pair():
    fit = fit_exponents(G32, G32)
    assert abs(fit.alpha - 1.0) <= 1e-6
    assert abs(fit.beta - 1.0) <= 1e-6


def test_fit_quartic_pair():
    g = parse_polynomial("x1^2 + x2^2", 2)
    h = parse_polynomial("(x1^2 + x2^2)^2", 2)
    fit = fit_exponents(g, h)
    assert abs(fit.alpha - 2.0) <= 1e-6
    assert abs(fit.beta - 2.0) <= 1e-6


def test_fit_raises_when_levels_unreachable():
    g = parse_polynomial("x1^2 + x2^2 + 1", 2)
    with pytest.raises(FitError, match="degenerate regression"):
        fit_exponents(g, H32, budget=8)


@pytest.mark.parametrize(
    "run",
    [
        lambda: fit_exponents(G32, H32, budget=2),
        lambda: ktilde_probe(G32, radii=[10.0], budget=1),
        lambda: ktilde_probe(G32, constraint=(H32, 1.0), radii=[10.0], budget=1),
    ],
    ids=["fit_exponents", "ktilde_probe", "ktilde_probe-constrained"],
)
def test_solver_loops_let_programming_errors_through(run, monkeypatch):
    # The solver loops skip a start whose least-squares call fails
    # numerically; a TypeError inside the residual is a bug and must surface.
    import scipy.optimize

    original = scipy.optimize.least_squares

    def typo_in_residual(fun, x0, *args, **kwargs):
        def broken(*a, **k):
            raise TypeError("unsupported operand")

        return original(broken, x0, *args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", typo_in_residual)
    with pytest.raises(TypeError, match="unsupported operand"):
        run()


def test_verify_inequality_reference_triple():
    report = verify_inequality(G32, H32, 0.5, 1.0, 1.0, box_count=100000)
    assert report.holds
    assert report.worst_ratio <= 1.0 + 1e-9
    assert report.box_count == 100000
    assert report.level_count > 0
    assert report.first_violation is None


def test_verify_inequality_detects_violation():
    g = parse_polynomial("x1", 1)
    h = parse_polynomial("x1^2", 1)
    report = verify_inequality(g, h, 1.0, 1.0, 1.0, box_count=5000)
    assert not report.holds
    assert report.worst_ratio > 1.0 + 1e-9
    assert report.first_violation is not None
    assert report.worst_point is not None


def test_verify_inequality_uses_curve_evidence():
    curve = hunt_sequences(G31, H31, "SecondType")
    assert curve is not None
    report = verify_inequality(
        G31, H31, 0.5, 1.0, 1.0, box_count=2000, level_budget=0, curves=(curve,)
    )
    assert not report.holds
    assert report.worst_source == "curve"
    assert report.curve_count == len(curve.points)


def test_verify_inequality_validates_parameters():
    with pytest.raises(ValueError):
        verify_inequality(G32, H32, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        verify_inequality(G32, H32, 0.5, 1.0, -2.0)


def test_hunt_second_type_reference():
    # g stays near 1 while h explodes along x = (s, 1/s).
    evidence = hunt_sequences(G31, H31, "SecondType")
    assert evidence is not None
    assert evidence.kind == "SecondType"
    assert evidence.q == (1, -1)
    assert evidence.a == ("1", "1")
    habs = [abs(v) for v in evidence.h_values]
    assert habs[-1] > habs[0]
    assert max(abs(v) for v in evidence.g_values) <= evidence.g_bound


def test_hunt_first_type_positive():
    g = parse_polynomial("x1*x2 - 1", 2)
    h = parse_polynomial("x2", 2)
    evidence = hunt_sequences(g, h, "FirstType")
    assert evidence is not None
    assert evidence.kind == "FirstType"
    assert evidence.q == (1, -1)
    assert evidence.a == ("1", "1")
    assert evidence.delta is not None and evidence.delta >= 1e-3
    assert max(abs(v) for v in evidence.g_values[-5:]) < 1e-6


def test_hunt_finds_nothing_for_reference_pair():
    assert hunt_sequences(G32, H32, "SecondType") is None
    assert hunt_sequences(G32, H32, "FirstType") is None
    assert hunt_sequences(G31, H31, "FirstType") is None


def test_hunt_skips_coefficients_that_cannot_vanish(monkeypatch):
    # Every blocking Laurent coefficient of a positive, even g has one sign
    # on each orthant, so no candidate curve reaches the numeric solver.
    import scipy.optimize

    def no_solver(*args, **kwargs):
        raise AssertionError("the curve solver was called")

    monkeypatch.setattr(scipy.optimize, "least_squares", no_solver)
    pairs = [
        (G32, H32),
        ("4*x1^4 + 2*x2^2 + 1/2*x1^2*x2^2", "x1^2 + 1/2*x2^2"),
        ("x1^6 + 3/2*x2^2", "x1^4 + 3*x2^6"),
    ]
    for g, h in pairs:
        g, h = (parse_polynomial(f, 2) if isinstance(f, str) else f for f in (g, h))
        assert hunt_sequences(g, h, "SecondType") is None
        assert hunt_sequences(g, h, "FirstType") is None
    evidence = hunt_sequences(G31, H31, "SecondType")
    assert evidence.q == (1, -1)
    assert evidence.a == ("1", "1")


def test_hunt_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        hunt_sequences(G32, H32, "ThirdType")


def test_hunt_evidence_is_replayable():
    evidence = hunt_sequences(G31, H31, "SecondType")
    for s, point, gv, hv in zip(
        evidence.s_values, evidence.points, evidence.g_values, evidence.h_values
    ):
        expect = tuple(
            float(Fraction(aj)) * s**qj for aj, qj in zip(evidence.a, evidence.q)
        )
        assert point == expect
        assert gv == G31.evaluate_float(list(point))
        assert hv == H31.evaluate_float(list(point))


def test_ktilde_gradient_collapse():
    # (x1*x2 - 1)^2 has critical points at infinity: the gradient minimum
    # on each sphere vanishes while f itself stays at 0.
    rep = ktilde_probe(parse_polynomial("(x1*x2 - 1)^2", 2), radii=[10.0, 100.0, 1000.0])
    for probe in rep.probes:
        assert probe.feasible
        assert probe.min_norm < 1e-6
        assert abs(probe.f_value) < 1e-8
    assert rep.trend == "decaying to zero"


def test_ktilde_gradient_growth():
    rep = ktilde_probe(G32, radii=[10.0, 100.0])
    for probe in rep.probes:
        # |grad g| >= 2 * min(|x1|, ...) ~ 2R on the sphere; demand at
        # least the radius itself with a small safety margin above 2R.
        assert probe.min_norm >= probe.radius
        assert probe.min_norm <= 2.02 * probe.radius
    assert rep.trend == "growing"


def constrained_oracle(radius):
    """Minimum over {x1*x2 = +-1, |x| = R} of the component of grad f
    orthogonal to grad h, for f = x1^2 + x2^2 and h = x1*x2.

    The feasible set is finite up to symmetry: x = (a, c/a) with c = +-1
    and a^4 - R^2 a^2 + c^2 = 0, so the minimum is a direct scan."""
    best = None
    for c in (1.0, -1.0):
        for branch in (1, -1):
            a2 = (radius**2 + branch * math.sqrt(radius**4 - 4 * c * c)) / 2
            a = math.sqrt(a2)
            x = (a, c / a)
            gf = (2 * x[0], 2 * x[1])
            gh = (x[1], x[0])
            scale = (gf[0] * gh[0] + gf[1] * gh[1]) / (gh[0] ** 2 + gh[1] ** 2)
            proj = (gf[0] - scale * gh[0], gf[1] - scale * gh[1])
            norm = math.hypot(*proj)
            if best is None or norm < best:
                best = norm
    return best


def test_ktilde_constrained_matches_oracle():
    f = parse_polynomial("x1^2 + x2^2", 2)
    h = parse_polynomial("x1*x2", 2)
    rep = ktilde_probe(f, constraint=(h, 1.0), radii=[10.0, 40.0])
    for probe in rep.probes:
        assert probe.feasible
        expect = constrained_oracle(probe.radius)
        assert abs(probe.min_norm - expect) <= 1e-9 * expect
    # The constrained minimum scales like 2R here.
    assert rep.trend == "growing"
    single = ktilde_probe(f, constraint=(h, 1.0), radii=[10.0])
    assert single.trend == "bounded away from zero"


def test_ktilde_validates_radii():
    with pytest.raises(ValueError):
        ktilde_probe(G32, radii=[10.0, 5.0])
    with pytest.raises(ValueError):
        ktilde_probe(G32, radii=[-1.0, 5.0])


def test_multiplier_power_table():
    for alpha, expected in [(1.0, 4), (0.5, 6), (0.3, 8), (0.25, 10)]:
        power, report = multiplier(G32, H32, alpha, ball_samples=20000)
        assert power == expected
        assert report.bounded
    with pytest.raises(ValueError, match="alpha"):
        multiplier(G32, H32, 0.0)
    with pytest.raises(ValueError, match="alpha"):
        multiplier(G32, H32, 1.5)


def test_multiplier_reference_factor_is_small():
    power, report = multiplier(G32, H32, 0.5, ball_samples=50000)
    assert power == 6
    assert report.ball_max <= 10.0
    assert report.samples == 50000
