"""Dense univariate polynomials over Q: Euclidean gcd, Sturm sequences,
exact real-root counting, and root isolation/refinement.

Coefficient lists are low-to-high degree. This is the decision kernel of
the exact two-variable non-degeneracy check, so counting is fully exact;
only the final numeric refinement of an isolated root returns a float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Coeffs = list[Fraction]


def trim(p: Sequence[Fraction]) -> Coeffs:
    out = [Fraction(c) for c in p]
    while out and out[-1] == 0:
        out.pop()
    return out


def degree(p: Sequence[Fraction]) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(trim(p)) - 1


def eval_at(p: Sequence[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(trim(p)):
        total = total * x + c
    return total


def derivative(p: Sequence[Fraction]) -> Coeffs:
    q = trim(p)
    return [c * k for k, c in enumerate(q)][1:]


def monic(p: Sequence[Fraction]) -> Coeffs:
    q = trim(p)
    if not q:
        return q
    lead = q[-1]
    return [c / lead for c in q]


def poly_divmod(num: Sequence[Fraction], den: Sequence[Fraction]) -> tuple[Coeffs, Coeffs]:
    num = trim(num)
    den = trim(den)
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    while len(rem) >= len(den):
        factor = rem[-1] / den[-1]
        shift = len(rem) - len(den)
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
        rem = trim(rem)
        if not rem:
            break
    return trim(quot), rem


def gcd(p: Sequence[Fraction], q: Sequence[Fraction]) -> Coeffs:
    """Monic gcd via the Euclidean algorithm."""
    a, b = trim(p), trim(q)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return monic(a)


def squarefree_part(p: Sequence[Fraction]) -> Coeffs:
    """p / gcd(p, p'): same real roots, all simple."""
    q = trim(p)
    if degree(q) <= 0:
        return monic(q)
    g = gcd(q, derivative(q))
    if degree(g) == 0:
        return monic(q)
    quot, rem = poly_divmod(q, g)
    if rem:
        raise ArithmeticError("gcd does not divide its polynomial")
    return monic(quot)


def sturm_chain(p: Sequence[Fraction]) -> list[Coeffs]:
    chain = [trim(p), derivative(p)]
    while trim(chain[-1]):
        _, r = poly_divmod(chain[-2], chain[-1])
        chain.append([-c for c in r])
    chain.pop()
    return [c for c in chain if trim(c)]


def _sign_variations(values: list[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_at(chain: list[Coeffs], x: Fraction) -> int:
    return _sign_variations([eval_at(c, x) for c in chain])


def _variations_at_inf(chain: list[Coeffs], positive: bool) -> int:
    values = []
    for c in chain:
        t = trim(c)
        lead = t[-1]
        if not positive and (len(t) - 1) % 2 == 1:
            lead = -lead
        values.append(lead)
    return _sign_variations(values)


def root_bound(p: Sequence[Fraction]) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    q = trim(p)
    lead = abs(q[-1])
    return Fraction(1) + max((abs(c) for c in q[:-1]), default=Fraction(0)) / lead


def count_real_roots(p: Sequence[Fraction]) -> int:
    """Number of distinct real roots, exactly (Sturm over (-inf, inf))."""
    q = trim(p)
    if degree(q) <= 0:
        return 0
    q = squarefree_part(q)
    chain = sturm_chain(q)
    return _variations_at_inf(chain, positive=False) - _variations_at_inf(
        chain, positive=True
    )


def count_roots_in(p: Sequence[Fraction], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in the half-open interval (lo, hi]."""
    q = squarefree_part(p)
    chain = sturm_chain(q)
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def isolate_real_roots(p: Sequence[Fraction]) -> list[tuple[Fraction, Fraction]]:
    """Disjoint intervals (lo, hi], one per distinct real root."""
    q = squarefree_part(p)
    if degree(q) <= 0:
        return []
    chain = sturm_chain(q)
    bound = root_bound(q)
    total = _variations_at(chain, -bound) - _variations_at(chain, bound)
    out: list[tuple[Fraction, Fraction]] = []

    def recurse(lo: Fraction, hi: Fraction, count: int) -> None:
        if count == 0:
            return
        if count == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        left = _variations_at(chain, lo) - _variations_at(chain, mid)
        recurse(lo, mid, left)
        recurse(mid, hi, count - left)

    recurse(-bound, bound, total)
    out.sort()
    return out


def _shrink(
    q: Coeffs, interval: tuple[Fraction, Fraction], narrow
) -> tuple[Fraction, Fraction]:
    """Bisect the isolating interval (lo, hi] of a simple root of q until
    narrow(lo, hi); a root hit exactly comes back as (root, root).  A
    midpoint where q has the sign of q(hi) lies above the root."""
    lo, hi = interval
    value = eval_at(q, hi)
    if value == 0:
        return hi, hi
    above = value > 0
    while not narrow(lo, hi):
        mid = (lo + hi) / 2
        value = eval_at(q, mid)
        if value == 0:
            return mid, mid
        if (value > 0) == above:
            hi = mid
        else:
            lo = mid
    return lo, hi


def refine_root(
    p: Sequence[Fraction], interval: tuple[Fraction, Fraction], iterations: int = 80
) -> float:
    """The root of p in its isolating interval (lo, hi], as a float.

    Exact bisection until the width is at most 2^-iterations of the larger
    endpoint magnitude, well below the root's float spacing: that takes
    `iterations` steps once the interval is within a factor 2 of the root.
    A root at 0 is returned at once."""
    q = squarefree_part(p)
    lo, hi = interval
    if lo < 0 <= hi and eval_at(q, Fraction(0)) == 0:
        return 0.0
    lo, hi = _shrink(q, interval, lambda lo, hi: hi - lo <= max(-lo, hi) / 2**iterations)
    return float((lo + hi) / 2)


def rational_roots(p: Sequence[Fraction]) -> list[Fraction]:
    """All nonzero rational roots, in increasing order.  A root a/b in
    lowest terms has b | L, the leading coefficient of the primitive
    integer form, and two such fractions are at least 1/L^2 apart.  So
    each isolating interval is bisected until narrower than 1/(2 L^2), and
    the fraction nearest its midpoint with denominator at most L is the
    only candidate, tested exactly."""
    q = squarefree_part(p)
    if degree(q) < 1:
        return []
    scale = math.lcm(*(c.denominator for c in q))
    ints = [int(c * scale) for c in q]
    lead = abs(ints[-1]) // math.gcd(*ints)
    width = Fraction(1, 2 * lead**2)
    roots = []
    for interval in isolate_real_roots(q):
        lo, hi = _shrink(q, interval, lambda lo, hi: hi - lo < width)
        cand = ((lo + hi) / 2).limit_denominator(lead)
        if cand != 0 and eval_at(q, cand) == 0:
            roots.append(cand)
    return roots
