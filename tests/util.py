"""Shared helpers for the test suite.

Everything in here is deliberately independent of the package internals:
the determinant, rank, simplex-membership and parallelepiped routines are
small fresh implementations used as oracles against the library, and the
random generators only touch the public constructors.
"""

import itertools
import random
from fractions import Fraction

from polyloj import Polynomial, PolynomialMapping


def make_rng(seed):
    return random.Random(seed)


def random_support(rnd, n, max_terms=6, max_exp=5):
    """Nonempty set of distinct nonnegative integer exponent vectors."""
    count = min(rnd.randint(1, max_terms), (max_exp + 1) ** n)
    points = set()
    while len(points) < count:
        points.add(tuple(rnd.randint(0, max_exp) for _ in range(n)))
    return sorted(points)


def random_polynomial(rnd, n, max_terms=6, max_exp=5, coeff_bound=9):
    """Random sparse polynomial with nonzero rational coefficients."""
    coeffs = {}
    for kappa in random_support(rnd, n, max_terms, max_exp):
        num = 0
        while num == 0:
            num = rnd.randint(-coeff_bound, coeff_bound)
        coeffs[kappa] = Fraction(num, rnd.randint(1, 4))
    return Polynomial.from_dict(n, coeffs)


def random_mapping(rnd, n, p, max_terms=5, max_exp=4):
    return PolynomialMapping(
        tuple(random_polynomial(rnd, n, max_terms, max_exp) for _ in range(p))
    )


def random_covector(rnd, n, bound=5):
    while True:
        q = tuple(rnd.randint(-bound, bound) for _ in range(n))
        if any(q):
            return q


# -- exact linear-algebra oracles (fresh implementations) -------------------


def oracle_det(rows):
    """Determinant by cofactor expansion over Fractions."""
    m = len(rows)
    assert all(len(r) == m for r in rows)
    if m == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(m):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * oracle_det(minor)
    return total


def oracle_rank(rows):
    """Rank by plain fraction-arithmetic elimination."""
    mat = [[Fraction(v) for v in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


def oracle_solve(rows, rhs):
    """Unique solution of a square full-rank system, or None."""
    m = len(rows)
    mat = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(m):
        pivot = next((i for i in range(col, m) if mat[i][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [v * inv for v in mat[col]]
        for i in range(m):
            if i != col and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[col])]
    return [mat[i][m] for i in range(m)]


def in_simplex_with_zero(point, rows):
    """Exact membership of an integer point in conv({0} union rows), rows a
    linearly independent family: solve for barycentric weights and check
    nonnegativity and total <= 1."""
    cols = list(zip(*rows))
    lam = oracle_solve(cols, point)
    if lam is None:
        return False
    return all(v >= 0 for v in lam) and sum(lam) <= 1


def oracle_parallelepiped_points(ws):
    """Lattice points of the half-open box {sum t_l w_l : 0 <= t_l < 1}, ws
    linearly independent, by a bounding-box scan: solve the normal equations
    for t at every integer point and keep those in the span of ws with
    every t_l in [0, 1)."""
    n = len(ws[0])
    gram = [[sum(a * b for a, b in zip(u, v)) for v in ws] for u in ws]
    lo = [sum(min(0, w[j]) for w in ws) for j in range(n)]
    hi = [sum(max(0, w[j]) for w in ws) for j in range(n)]
    out = []
    for z in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        t = oracle_solve(gram, [sum(a * b for a, b in zip(w, z)) for w in ws])
        if not all(0 <= v < 1 for v in t):
            continue
        if all(sum(v * w[j] for v, w in zip(t, ws)) == z[j] for j in range(n)):
            out.append(z)
    return sorted(out)


def brute_min_and_argmin(q, support):
    """Minimum of <q, kappa> over a finite support and the attaining set."""
    values = [sum(a * b for a, b in zip(q, kappa)) for kappa in support]
    lo = min(values)
    return lo, sorted(k for k, v in zip(support, values) if v == lo)


def random_completion_instance(rnd):
    """A dimension, a prefix of independent covectors, and a support on
    which every prefix covector is nonnegative."""
    n = rnd.randint(1, 4)
    support = random_support(rnd, n, max_terms=5, max_exp=4)
    q_list = []
    want = rnd.randint(0, n)
    for _ in range(40):
        if len(q_list) == want:
            break
        q = tuple(rnd.randint(-3, 3) for _ in range(n))
        if not any(q):
            continue
        if any(sum(a * b for a, b in zip(q, kappa)) < 0 for kappa in support):
            continue
        if oracle_rank(q_list + [q]) == len(q_list) + 1:
            q_list.append(q)
    return n, q_list, support


def random_parallel_mapping(rnd):
    """Mapping whose supports all lie in translates of one low-dimensional
    lattice subspace."""
    n = rnd.randint(2, 4)
    d = rnd.randint(0, n - 1)
    directions = []
    for _ in range(40):
        if len(directions) == d:
            break
        v = tuple(rnd.randint(0, 2) for _ in range(n))
        if not any(v):
            continue
        if oracle_rank(directions + [v]) == len(directions) + 1:
            directions.append(v)
    comps = []
    for _ in range(rnd.randint(1, 2)):
        offset = tuple(rnd.randint(0, 3) for _ in range(n))
        support = set()
        for _ in range(rnd.randint(1, 4)):
            kappa = list(offset)
            for v in directions:
                t = rnd.randint(0, 2)
                kappa = [a + t * b for a, b in zip(kappa, v)]
            support.add(tuple(kappa))
        coeffs = {}
        for kappa in support:
            num = 0
            while num == 0:
                num = rnd.randint(-5, 5)
            coeffs[kappa] = Fraction(num)
        comps.append(Polynomial.from_dict(n, coeffs))
    return PolynomialMapping(tuple(comps))
