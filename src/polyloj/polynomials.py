"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in variables x1..xN is a finite map from exponent vectors
(length-N tuples of nonnegative ints) to nonzero Fractions. The
representation is canonical: terms are stored sorted in descending
lexicographic order of the exponent vector, zero coefficients are dropped,
so structural equality is mathematical equality. Exact evaluation,
differentiation and the support/face operations used by the polyhedral
layer all live here, and so does MonomialForm, the one float evaluator:
the witness search and the lojasiewicz estimators compile their
polynomials into it once per call, and evaluate_float_batch is a call
into it. The compensated (Kahan) evaluate_float is a public scalar
evaluator, the tests' oracle for MonomialForm, and what the escape-curve
evidence is evaluated with; witnesses are re-checked exactly instead.

Text grammar (variables are x1..xN, no implicit multiplication):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' integer]
    atom   := variable | number | '(' expr ')'
    number := digits ['/' digits]
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

Exponent = tuple[int, ...]

# Exponents are kept far below this bound; the parser enforces it so that
# downstream integer arithmetic (lattice maps, batch powers) cannot be fed
# degenerate giant exponents.
MAX_EXPONENT = 2**31
# The parser refuses to expand a product or power that might have more
# terms than this, so untrusted text cannot make it expand without bound.
MAX_EXPANDED_TERMS = 2000
# It also refuses one whose term bound times its coefficient-bit bound
# exceeds this, so neither a short text such as 3^2147483647 (one giant
# integer) nor (2^129*x1 + 2^129)^400 (401 coefficients of up to 52000
# bits) gets built.
MAX_EXPANDED_BITS = 2**18


class PolynomialError(ValueError):
    pass


class ParseError(PolynomialError):
    """Syntax error with the offending position in the input text."""

    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos}: {text[pos:pos + 12]!r})")


def _canonical_terms(
    num_vars: int, coeffs: Mapping[Exponent, Fraction]
) -> tuple[tuple[Exponent, Fraction], ...]:
    items = []
    for exp, c in coeffs.items():
        c = Fraction(c)
        if c == 0:
            continue
        exp = tuple(int(e) for e in exp)
        if len(exp) != num_vars:
            raise PolynomialError(
                f"exponent {exp} has length {len(exp)}, expected {num_vars}"
            )
        if any(e < 0 for e in exp):
            raise PolynomialError(f"negative exponent in {exp}")
        if any(e >= MAX_EXPONENT for e in exp):
            raise PolynomialError(f"exponent too large in {exp}")
        items.append((exp, c))
    items.sort(key=lambda t: t[0], reverse=True)
    return tuple(items)


@dataclass(frozen=True)
class Polynomial:
    """Immutable sparse polynomial over Q."""

    num_vars: int
    terms: tuple[tuple[Exponent, Fraction], ...]

    @staticmethod
    def from_dict(num_vars: int, coeffs: Mapping[Exponent, Fraction]) -> "Polynomial":
        if num_vars < 1:
            raise PolynomialError("num_vars must be >= 1")
        return Polynomial(num_vars, _canonical_terms(num_vars, coeffs))

    @staticmethod
    def zero(num_vars: int) -> "Polynomial":
        return Polynomial.from_dict(num_vars, {})

    @staticmethod
    def constant(num_vars: int, value: Fraction | int) -> "Polynomial":
        return Polynomial.from_dict(num_vars, {(0,) * num_vars: Fraction(value)})

    @staticmethod
    def variable(num_vars: int, index: int) -> "Polynomial":
        """x_index, 1-based."""
        if not 1 <= index <= num_vars:
            raise PolynomialError(f"variable index {index} out of range 1..{num_vars}")
        exp = tuple(1 if j == index - 1 else 0 for j in range(num_vars))
        return Polynomial.from_dict(num_vars, {exp: Fraction(1)})

    # -- structure ---------------------------------------------------------

    def coeff(self, exp: Exponent) -> Fraction:
        for e, c in self.terms:
            if e == exp:
                return c
        return Fraction(0)

    def support(self) -> tuple[Exponent, ...]:
        return tuple(e for e, _ in self.terms)

    def as_dict(self) -> dict[Exponent, Fraction]:
        return {e: c for e, c in self.terms}

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def max_degree(self, var: int) -> int:
        """Largest exponent of x_var (1-based) appearing in any term."""
        return max((e[var - 1] for e, _ in self.terms), default=0)

    # -- arithmetic --------------------------------------------------------

    def _require_same_vars(self, other: "Polynomial") -> None:
        if self.num_vars != other.num_vars:
            raise PolynomialError("mixed variable counts")

    def __add__(self, other: "Polynomial | Fraction | int") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.num_vars, other)
        self._require_same_vars(other)
        out = self.as_dict()
        for e, c in other.terms:
            out[e] = out.get(e, Fraction(0)) + c
        return Polynomial.from_dict(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.num_vars, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "Polynomial | Fraction | int") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.num_vars, other)
        return self + (-other)

    def __rsub__(self, other: "Polynomial | Fraction | int") -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: "Polynomial | Fraction | int") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(
                self.num_vars,
                _canonical_terms(
                    self.num_vars,
                    {e: c * Fraction(other) for e, c in self.terms},
                ),
            )
        self._require_same_vars(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Polynomial.from_dict(self.num_vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise PolynomialError("negative power")
        result = Polynomial.constant(self.num_vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def partial(self, var: int) -> "Polynomial":
        """d/dx_var, 1-based index."""
        if not 1 <= var <= self.num_vars:
            raise PolynomialError(f"variable index {var} out of range")
        j = var - 1
        out: dict[Exponent, Fraction] = {}
        for e, c in self.terms:
            if e[j] == 0:
                continue
            new = list(e)
            new[j] -= 1
            out[tuple(new)] = c * e[j]
        return Polynomial.from_dict(self.num_vars, out)

    def gradient(self) -> "PolynomialMapping":
        return PolynomialMapping(
            tuple(self.partial(j) for j in range(1, self.num_vars + 1))
        )

    def weighted_gradient_exact(self, point: Sequence[Fraction | int]) -> list[Fraction]:
        """The row (x_j df/dx_j)(x), j = 1..n, of the weighted Jacobian, exact:
        each term c x^kappa contributes kappa_j c x^kappa to entry j."""
        if len(point) != self.num_vars:
            raise PolynomialError("point dimension mismatch")
        pt = [Fraction(v) for v in point]
        row = [Fraction(0)] * self.num_vars
        for e, c in self.terms:
            term = c
            for v, k in zip(pt, e):
                if k:
                    term *= v**k
            for j, k in enumerate(e):
                if k:
                    row[j] += k * term
        return row

    # -- evaluation --------------------------------------------------------

    def evaluate_exact(self, point: Sequence[Fraction | int]) -> Fraction:
        if len(point) != self.num_vars:
            raise PolynomialError("point dimension mismatch")
        pt = [Fraction(v) for v in point]
        total = Fraction(0)
        for e, c in self.terms:
            term = c
            for v, k in zip(pt, e):
                if k:
                    term *= v**k
            total += term
        return total

    def evaluate_float(self, point: Sequence[float]) -> float:
        """Compensated (Kahan) float evaluation; overflow yields +-inf."""
        if len(point) != self.num_vars:
            raise PolynomialError("point dimension mismatch")
        pt = [float(v) for v in point]
        total = 0.0
        comp = 0.0
        for e, c in self.terms:
            try:
                term = float(c)
                for v, k in zip(pt, e):
                    if k:
                        term *= v**k
            except OverflowError:
                sign = 1.0 if c > 0 else -1.0
                for v, k in zip(pt, e):
                    if k % 2 and v < 0:
                        sign = -sign
                term = math.inf * sign
            if math.isinf(term):
                total += term
                continue
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
        return total

    def evaluate_float_batch(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation of an (m, n) sample array; overflow -> inf."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.num_vars:
            raise PolynomialError("expected an (m, n) array")
        return MonomialForm([self]).evaluate(pts)[0]

    # -- text and JSON forms -------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for i, (e, c) in enumerate(self.terms):
            mag = abs(c)
            vars_part = "*".join(
                f"x{j + 1}^{k}" if k > 1 else f"x{j + 1}"
                for j, k in enumerate(e)
                if k > 0
            )
            if not vars_part:
                body = str(mag)
            elif mag == 1:
                body = vars_part
            else:
                body = f"{mag}*{vars_part}"
            if i == 0:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(pieces)

    def to_json(self) -> dict:
        return {
            "n": self.num_vars,
            "terms": [{"c": str(c), "e": list(e)} for e, c in self.terms],
        }

    @staticmethod
    def from_json(data: Mapping) -> "Polynomial":
        try:
            n = int(data["n"])
            coeffs = {
                tuple(int(v) for v in t["e"]): Fraction(t["c"]) for t in data["terms"]
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise PolynomialError(f"malformed polynomial JSON: {exc}") from exc
        out: dict[Exponent, Fraction] = {}
        for e, c in coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Polynomial.from_dict(n, out)


@dataclass(frozen=True)
class PolynomialMapping:
    """Tuple F = (f_1, ..., f_p) of polynomials in common variables.

    p > n is allowed here (monomial reductions can land there); the
    non-degeneracy checks reject it where it actually matters."""

    components: tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.components:
            raise PolynomialError("mapping needs at least one component")
        n = self.components[0].num_vars
        if any(f.num_vars != n for f in self.components):
            raise PolynomialError("components disagree on variable count")

    @property
    def num_vars(self) -> int:
        return self.components[0].num_vars

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i: int) -> Polynomial:
        return self.components[i]

    def evaluate_exact(self, point: Sequence[Fraction | int]) -> list[Fraction]:
        return [f.evaluate_exact(point) for f in self.components]

    def to_json(self) -> dict:
        return {"components": [f.to_json() for f in self.components]}

    @staticmethod
    def from_json(data: Mapping) -> "PolynomialMapping":
        comps = data.get("components")
        if not isinstance(comps, list) or not comps:
            raise PolynomialError("mapping JSON needs a nonempty components list")
        return PolynomialMapping(tuple(Polynomial.from_json(c) for c in comps))


# -- compiled float evaluation -------------------------------------------------

# Points per block of a batch evaluation: a block's (terms x points) arrays
# stay small, so a batch of 10^6 points adds no temporaries of its own size.
BATCH_BLOCK = 8192
# Up to this many points, x^E_t is one numpy power per entry; above it,
# integer powers come from repeated squaring, far cheaper than pow().
FEW_POINTS = 16


class MonomialForm:
    """Polynomials f_1..f_p compiled for float evaluation: the package's
    one float evaluator.  A form lives as long as the call that built it.

    Term t of f_i is one row: integer exponents E_t, a float coefficient
    c_t and, in the term-to-component matrix `owner`, its component i.
    From the monomials m_t = c_t x^E_t, f_i is the sum of its own m_t and
    (x_j df_i/dx_j) the sum of E_tj m_t.  A point is an (n,) array, with
    (T,) monomials and (p,) values; an (m, n) batch gives (T, m) and (p, m).
    """

    def __init__(self, polys: Sequence[Polynomial]):
        self.n = polys[0].num_vars
        self.p = len(polys)
        terms = [(i, kappa, c) for i, f in enumerate(polys) for kappa, c in f.terms]
        self.exps = np.array([kappa for _, kappa, _ in terms], dtype=np.int64).reshape(
            len(terms), self.n
        )
        self.coeffs = np.array([float(c) for _, _, c in terms])
        self.owner = np.zeros((self.p, len(terms)))
        self.owner[[i for i, _, _ in terms], np.arange(len(terms))] = 1.0
        self._exps_f = self.exps.astype(float)
        # Per variable, its distinct exponents and each term's index into them.
        self._powers = [np.unique(col, return_inverse=True) for col in self.exps.T]

    def monomials(self, x) -> np.ndarray:
        """m at a point or a batch; zero coordinates are allowed and
        overflow gives inf (callers that expect it silence the warning)."""
        x = np.asarray(x, dtype=float)
        if x.size <= FEW_POINTS * self.n:
            return (self.coeffs * np.multiply.reduce(x[..., None, :] ** self.exps, -1)).T
        prod = np.ones((len(self.coeffs), len(x)))
        for j, (exponents, index) in enumerate(self._powers):
            # Every distinct power of x_j at once, bit by bit of the exponents.
            powers = np.ones((len(exponents), len(x)))
            square, bits = x[:, j], exponents.copy()
            while bits.any():
                odd = bits % 2 == 1
                powers[odd] *= square
                bits //= 2
                square = square * square
            prod = prod * powers[index]
        return self.coeffs[:, None] * prod

    def values(self, m: np.ndarray) -> np.ndarray:
        """The component sums of m, each over its own terms only."""
        v = self.owner @ m
        if math.isfinite(v.sum()):
            return v
        # An infinite monomial makes 0 * inf = nan in every other component
        # (a finite sum that overflows just takes this slower path).
        return np.array([m[row > 0].sum(axis=0) for row in self.owner])

    def weighted_jacobian(self, m: np.ndarray) -> np.ndarray:
        """(x_j df_i/dx_j), (p, n) or (p, n, m); with x = sigma exp(s) it is
        also d(values)/ds, since dm_t/ds_k = E_tk m_t."""
        w = self._exps_f.reshape(self.exps.shape + (1,) * (m.ndim - 1)) * m[:, None]
        flat = self.owner @ w.reshape(len(self.coeffs), -1)
        return flat.reshape((self.p, self.n) + m.shape[1:])

    def evaluate(self, points) -> np.ndarray:
        """f_1..f_p at a point, (p,), or at every row of an (m, n) batch,
        (p, m), a block of BATCH_BLOCK points at a time; overflow -> inf."""
        x = np.asarray(points, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            if x.ndim == 1:
                return self.values(self.monomials(x))
            out = np.empty((self.p, len(x)))
            for lo in range(0, len(x), BATCH_BLOCK):
                block = self.monomials(x[lo : lo + BATCH_BLOCK])
                out[:, lo : lo + BATCH_BLOCK] = self.values(block)
            return out


# -- parser -----------------------------------------------------------------


def _coefficient_bits(f: Polynomial) -> int:
    """ceil(log2(max(L, S))) for L the lcm of f's denominators and S the
    sum of |c| * L, so 0 for coefficients +-1.  It bounds log2 of every
    numerator and denominator of f, and it is at most additive under
    products (numerators of f * g are at most S_f * S_g, denominators at
    most L_f * L_g) and at most multiplied by k under f^k."""
    lcm = math.lcm(*(c.denominator for _, c in f.terms))
    total = sum(abs(c.numerator) * (lcm // c.denominator) for _, c in f.terms)
    return (max(lcm, total) - 1).bit_length()


class _Parser:
    def __init__(self, text: str, num_vars: int):
        self.text = text
        self.num_vars = num_vars
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def read_digits(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected digits")
        return int(self.text[start : self.pos])

    def parse_number(self) -> Fraction:
        num = self.read_digits()
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            den = self.read_digits()
            if den == 0:
                raise self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def parse_atom(self) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            self.take("(")
            inner = self.parse_expr()
            self.take(")")
            return inner
        if ch == "x":
            self.pos += 1
            idx = self.read_digits()
            if not 1 <= idx <= self.num_vars:
                self.pos -= len(str(idx))
                raise self.error(
                    f"variable x{idx} out of range for {self.num_vars} variables"
                )
            return Polynomial.variable(self.num_vars, idx)
        if ch.isdigit():
            return Polynomial.constant(self.num_vars, self.parse_number())
        raise self.error("expected a variable, number or parenthesized expression")

    def check_expansion(self, terms: int, degree: int, bits: int) -> None:
        """Refuse an expansion with up to `terms` terms of total degree up
        to `degree`, with coefficients of up to `bits` bits, when its term
        bound (the smaller of `terms` and the number of monomials of that
        degree) exceeds MAX_EXPANDED_TERMS, or that bound times `bits`
        exceeds MAX_EXPANDED_BITS."""
        terms = min(terms, math.comb(degree + self.num_vars, self.num_vars))
        if terms > MAX_EXPANDED_TERMS:
            raise self.error(
                f"expanding this could give {terms} terms, more than {MAX_EXPANDED_TERMS}"
            )
        if terms * bits > MAX_EXPANDED_BITS:
            raise self.error(
                f"expanding this could give {terms} x {bits}-bit coefficients, "
                f"more than {MAX_EXPANDED_BITS} bits in all"
            )

    def parse_factor(self) -> Polynomial:
        base = self.parse_atom()
        if self.peek() == "^":
            self.take("^")
            if self.peek() == "-":
                raise self.error("negative exponents are not allowed")
            exp = self.read_digits()
            if exp >= MAX_EXPONENT:
                raise self.error(f"exponent exceeds {MAX_EXPONENT}")
            # base^exp has at most as many terms as there are monomials of
            # degree exp in the terms of base.
            self.check_expansion(
                math.comb(max(len(base.terms), 1) + exp - 1, exp),
                base.total_degree() * exp,
                exp * _coefficient_bits(base),
            )
            return base**exp
        return base

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while self.peek() == "*":
            self.take("*")
            factor = self.parse_factor()
            self.check_expansion(
                len(result.terms) * len(factor.terms),
                result.total_degree() + factor.total_degree(),
                _coefficient_bits(result) + _coefficient_bits(factor),
            )
            result = result * factor
        return result

    def parse_expr(self) -> Polynomial:
        negate = False
        if self.peek() == "-":
            self.take("-")
            negate = True
        result = self.parse_term()
        if negate:
            result = -result
        while True:
            ch = self.peek()
            if ch == "+":
                self.take("+")
                result = result + self.parse_term()
            elif ch == "-":
                self.take("-")
                result = result - self.parse_term()
            else:
                return result

    def parse(self) -> Polynomial:
        result = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
        return result


def parse_polynomial(text: str, num_vars: int) -> Polynomial:
    """Parse the text grammar in the module docstring into a Polynomial.

    Eagerly expands products and powers, so the result is in canonical
    expanded form. Raises ParseError with a position on bad input.
    """
    if num_vars < 1:
        raise PolynomialError("num_vars must be >= 1")
    return _Parser(text, num_vars).parse()


# -- spec-level free functions ------------------------------------------------


def evaluate_exact(f: Polynomial, point: Sequence[Fraction | int]) -> Fraction:
    return f.evaluate_exact(point)


def evaluate_float(f: Polynomial, point: Sequence[float]) -> float:
    return f.evaluate_float(point)


def gradient(f: Polynomial) -> PolynomialMapping:
    return f.gradient()


def face_part(f: Polynomial, face) -> Polynomial:
    """Terms of f whose exponents lie on the given polyhedral face.

    The face (from the polyhedra module) carries a witness covector q and
    value d; a term kappa survives iff <q, kappa> == d. Raises if the face
    is not a face of the Newton polyhedron of f, detected as min over
    supp(f) of <q, .> differing from d.
    """
    q = face.witness_q
    d = face.d
    if f.is_zero():
        raise PolynomialError("zero polynomial has no Newton polyhedron")
    if len(q) != f.num_vars:
        raise PolynomialError("face lives in a different ambient dimension")
    values = [sum(qi * ki for qi, ki in zip(q, e)) for e, _ in f.terms]
    if min(values) != d:
        raise PolynomialError("face is not a face of the Newton polyhedron of f")
    kept = {e: c for (e, c), v in zip(f.terms, values) if v == d}
    return Polynomial.from_dict(f.num_vars, kept)


def restrict_to_axes(f: Polynomial, axes: Iterable[int]) -> Polynomial:
    """Restriction to the coordinate subspace spanned by the 1-based axes:
    terms with any exponent outside the subspace are dropped. The result
    keeps the ambient variable count."""
    axis_set = set(axes)
    if not axis_set:
        raise PolynomialError("axis set must be nonempty")
    if not axis_set <= set(range(1, f.num_vars + 1)):
        raise PolynomialError("axis index out of range")
    outside = [j for j in range(f.num_vars) if (j + 1) not in axis_set]
    kept = {e: c for e, c in f.terms if all(e[j] == 0 for j in outside)}
    return Polynomial.from_dict(f.num_vars, kept)


def sign_uniform_on_all_sheets(f: Polynomial) -> bool:
    """True when the terms of f share a sign on every open orthant, so f
    cannot vanish on (R*)^n: the one exact never-vanishes test (sound, no
    false positives; a monomial always passes)."""
    for sigma in itertools.product((1, -1), repeat=f.num_vars):
        first = None
        for kappa, coeff in f.terms:
            s = 1 if coeff > 0 else -1
            for sj, kj in zip(sigma, kappa):
                if sj < 0 and kj % 2 == 1:
                    s = -s
            if first is None:
                first = s
            elif s != first:
                return False
    return True


def euler_residual(
    f_face: Polynomial, q: Sequence[int | Fraction], d: Fraction | int
) -> Polynomial:
    """sum_j q_j x_j df/dx_j - d*f, exactly.

    Zero whenever f_face is weighted-homogeneous of type (q, d), which is
    what face polynomials are; per-term the coefficient is (<q,kappa> - d).
    """
    if len(q) != f_face.num_vars:
        raise PolynomialError("weight vector dimension mismatch")
    d = Fraction(d)
    out = {
        e: c * (sum(Fraction(qi) * ki for qi, ki in zip(q, e)) - d)
        for e, c in f_face.terms
    }
    return Polynomial.from_dict(f_face.num_vars, out)
