"""Exact univariate machinery: Sturm counting, isolation, refinement, and
rational-root recovery, cross-checked against sympy."""

import math
import time
from fractions import Fraction

import pytest
import sympy

import util
from polyloj.univariate import (
    count_real_roots,
    count_roots_in,
    degree,
    derivative,
    eval_at,
    gcd,
    isolate_real_roots,
    monic,
    poly_divmod,
    rational_roots,
    refine_root,
    root_bound,
    squarefree_part,
    sturm_chain,
    trim,
)

Y = sympy.Symbol("y")


def to_sympy(p):
    return sympy.Poly(list(reversed([sympy.Rational(c) for c in trim(p)])), Y)


def test_basic_structure():
    assert trim([Fraction(1), Fraction(0), Fraction(0)]) == [Fraction(1)]
    assert degree([]) == -1
    assert degree([Fraction(5)]) == 0
    assert degree([Fraction(0), Fraction(0), Fraction(3)]) == 2
    assert derivative([Fraction(1), Fraction(2), Fraction(3)]) == [
        Fraction(2),
        Fraction(6),
    ]
    assert eval_at([Fraction(1), Fraction(2), Fraction(3)], Fraction(2)) == 17
    assert monic([Fraction(2), Fraction(4)]) == [Fraction(1, 2), Fraction(1)]


def test_poly_divmod_identity():
    rnd = util.make_rng(301)
    for _ in range(80):
        num = [Fraction(rnd.randint(-5, 5)) for _ in range(rnd.randint(1, 7))]
        den = [Fraction(rnd.randint(-5, 5)) for _ in range(rnd.randint(1, 5))]
        if degree(den) < 0:
            continue
        quo, rem = poly_divmod(num, den)
        # num = quo*den + rem with deg rem < deg den, checked pointwise.
        for xv in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)):
            assert eval_at(num, xv) == eval_at(quo, xv) * eval_at(
                den, xv
            ) + eval_at(rem, xv)
        assert degree(rem) < degree(den)
    with pytest.raises(ZeroDivisionError):
        poly_divmod([Fraction(1)], [])


def test_gcd_divides_both():
    rnd = util.make_rng(302)
    for _ in range(60):
        def rand_poly(lo, hi):
            return [Fraction(rnd.randint(-4, 4)) for _ in range(rnd.randint(lo, hi))]

        w = trim(rand_poly(2, 4))
        a = trim(rand_poly(1, 4))
        b = trim(rand_poly(1, 4))
        if degree(w) < 1 or degree(a) < 0 or degree(b) < 0:
            continue
        pa = _mul(a, w)
        pb = _mul(b, w)
        g = gcd(pa, pb)
        assert degree(g) >= degree(w)
        _, rem = poly_divmod(g, w)
        # w divides the gcd of (a*w, b*w).
        assert trim(rem) == [] or degree(gcd(g, w)) == degree(w)
        _, ra = poly_divmod(pa, g)
        _, rb = poly_divmod(pb, g)
        assert trim(ra) == []
        assert trim(rb) == []


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def test_squarefree_part_kills_multiplicity():
    # (y - 1)^2 * (y + 2) has squarefree part (y - 1)(y + 2).
    p = _mul(_mul([Fraction(-1), Fraction(1)], [Fraction(-1), Fraction(1)]),
             [Fraction(2), Fraction(1)])
    sf = monic(squarefree_part(p))
    assert sf == monic(_mul([Fraction(-1), Fraction(1)], [Fraction(2), Fraction(1)]))


def test_sturm_pinned_counts():
    # y^2 - 2 has two real roots.
    assert count_real_roots([Fraction(-2), Fraction(0), Fraction(1)]) == 2
    # (y - 1)^2 has one distinct real root.
    assert count_real_roots([Fraction(1), Fraction(-2), Fraction(1)]) == 1
    # y^2 + 1 has none.
    assert count_real_roots([Fraction(1), Fraction(0), Fraction(1)]) == 0
    # Constants and zero have none.
    assert count_real_roots([Fraction(7)]) == 0
    assert count_real_roots([]) == 0


def test_sturm_chain_shape():
    chain = sturm_chain([Fraction(-2), Fraction(0), Fraction(1)])
    assert chain[0] == [Fraction(-2), Fraction(0), Fraction(1)]
    assert chain[1] == [Fraction(0), Fraction(2)]
    assert degree(chain[-1]) == 0


def test_count_roots_in_pinned():
    p = [Fraction(-2), Fraction(0), Fraction(1)]  # y^2 - 2
    assert count_roots_in(p, Fraction(0), Fraction(2)) == 1
    assert count_roots_in(p, Fraction(-2), Fraction(2)) == 2
    assert count_roots_in(p, Fraction(2), Fraction(3)) == 0
    # Half-open (lo, hi]: the root at 1 is counted by (0, 1], not (1, 2].
    q = [Fraction(-1), Fraction(1)]
    assert count_roots_in(q, Fraction(0), Fraction(1)) == 1
    assert count_roots_in(q, Fraction(1), Fraction(2)) == 0


def test_count_real_roots_matches_sympy():
    rnd = util.make_rng(303)
    for _ in range(200):
        deg = rnd.randint(1, 8)
        p = [Fraction(rnd.randint(-6, 6)) for _ in range(deg + 1)]
        if degree(p) < 1:
            continue
        expected = len(set(to_sympy(p).real_roots()))
        assert count_real_roots(p) == expected, p


def test_isolation_and_refinement_match_sympy():
    rnd = util.make_rng(304)
    checked = 0
    for _ in range(60):
        deg = rnd.randint(2, 6)
        p = [Fraction(rnd.randint(-5, 5)) for _ in range(deg + 1)]
        if degree(p) < 2:
            continue
        roots = sorted(set(to_sympy(p).real_roots()), key=lambda r: r.evalf(30))
        intervals = isolate_real_roots(p)
        assert len(intervals) == len(roots)
        for (lo, hi), root in zip(intervals, roots):
            approx = refine_root(p, (lo, hi))
            exact = float(root.evalf(30))
            assert abs(approx - exact) <= 1e-10 * (1.0 + abs(exact))
            checked += 1
    assert checked >= 40


def test_root_bound_contains_all_real_roots():
    rnd = util.make_rng(305)
    for _ in range(60):
        deg = rnd.randint(1, 6)
        p = [Fraction(rnd.randint(-9, 9)) for _ in range(deg + 1)]
        if degree(p) < 1:
            continue
        bound = root_bound(p)
        for root in to_sympy(p).real_roots():
            assert abs(sympy.Rational(root.evalf(30))) < bound


def test_rational_roots_recovered():
    rnd = util.make_rng(306)
    for _ in range(60):
        wanted = set()
        p = [Fraction(1)]
        for _ in range(rnd.randint(1, 3)):
            num = rnd.randint(-4, 4)
            den = rnd.randint(1, 3)
            if num == 0:
                continue
            r = Fraction(num, den)
            wanted.add(r)
            p = _mul(p, [-r, Fraction(1)])
        # Tack on an irreducible quadratic so spurious candidates exist.
        p = _mul(p, [Fraction(1), Fraction(0), Fraction(1)])
        assert set(rational_roots(p)) == wanted


@pytest.mark.parametrize(
    "root", [Fraction(10**40 + 7, 3), Fraction(-5, 10**40 + 1), Fraction(17 * 10**40, 10**40 - 3)]
)
def test_rational_roots_with_large_numerators_and_denominators(root):
    # A squared factor and an irrational pair around the root: the candidate
    # comes from the isolating interval, so its size costs bisection steps,
    # not divisors.
    p = _mul(_mul([-root, Fraction(1)], [-root, Fraction(1)]), [Fraction(-2), Fraction(0), Fraction(1)])
    start = time.perf_counter()
    assert rational_roots(p) == [root]
    assert time.perf_counter() - start < 1.0


def test_rational_root_on_an_interval_end():
    # (y + 1)(y - 1)(y + 1/2): isolation puts -1 on the right end of (-2, -1].
    p = _mul(_mul([Fraction(1), Fraction(1)], [Fraction(-1), Fraction(1)]), [Fraction(1, 2), Fraction(1)])
    assert (Fraction(-2), Fraction(-1)) in isolate_real_roots(p)
    assert rational_roots(p) == [Fraction(-1), Fraction(-1, 2), Fraction(1)]
    assert refine_root(p, (Fraction(-2), Fraction(-1))) == -1.0


def test_refine_root_is_relative():
    # The positive root sqrt(2) * 10^-30 lies far below any absolute width.
    p = [Fraction(-2, 10**60), Fraction(0), Fraction(1)]
    lo, hi = isolate_real_roots(p)[1]
    expected = math.sqrt(2) * 1e-30
    assert abs(refine_root(p, (lo, hi)) - expected) <= 1e-15 * expected
