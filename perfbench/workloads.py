"""The four benchmark workloads: input generation, one item of user work,
and the correctness check of each item.

Inputs are made here, never inside polyloj: item k of a workload is drawn
from numpy.random.SeedSequence([seed, workload id, k]) alone, so the same
seed gives the same corpus, different seeds give independent streams, and
an item keeps its inputs when the run length changes. Every item ends the
way the CLI does: its result goes through to_json, build_report and dumps.

A workload is a small object with a corpus_size (four to five times the
items one 20 s run completes at this commit; a run that exhausts its
corpus ends early and says so) and
  make(seed, k)      -> item inputs (plain data, no polyloj objects)
  prepare(item)      -> parsed inputs (the parsing part of set-up)
  run(prepared)      -> outcome (the timed user work)
  check(prepared, outcome) -> list of problems (empty when correct)
  verdicts(outcome)  -> (proved, checked) mapping counts, or None
The workloads checked against reference.json also have
  reference_value(prepared, outcome) -> what reference.json records
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
from fractions import Fraction

import numpy as np

from polyloj import (
    Polynomial,
    PolynomialMapping,
    RunConfig,
    all_faces,
    build_report,
    check_witness,
    d_and_face,
    dumps,
    enumerate_negative_face_tuples,
    fit_exponents,
    genericity_trial,
    hunt_sequences,
    multiplier,
    newton_polyhedron,
    nondegenerate_at_infinity,
    openness_probe,
    parse_polynomial,
    reduce_mapping,
    verify_inequality,
    verify_reduction,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
# reference.json holds the output of every corpus item of these seeds, for
# the workloads with a reference_value. Items 0..REFERENCE_BLOCK-1 of the
# first one are run and compared again after every timed phase, whatever
# the seed, so every run checks recorded outputs.
REFERENCE_SEEDS = (0, 7919)
REFERENCE_BLOCK = 4

# Input sizes. They are part of the benchmark's definition: changing one
# changes what every later commit is compared against.
FIT_BUDGET = 4
BOX_SAMPLES = 10**6
BOX_HALFWIDTH = 1000.0
LEVEL_BUDGET = 4
MULTIPLIER_SAMPLES = 100000
NONDEG_ATTEMPTS = 2
HULL_POINTS = 10
HULL_BASE_MAX_EXP = 4
TUPLE_POINTS = 3
TUPLE_MAX_EXP = 4
GENERICITY_TRIALS = 20
OPENNESS_TRIALS = 20
OPENNESS_EPSILON = 1e-6
SUPPORT_POINTS = 5
SUPPORT_MAX_EXP = 4


def item_rng(seed: int, workload_id: int, k: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, workload_id, k]))
    )


def item_seed(rng: np.random.Generator) -> int:
    """Seed handed to a seeded polyloj call, drawn from the item's stream."""
    return int(rng.integers(0, 2**31))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def serialize(command: str, config: RunConfig, inputs, result: dict) -> str:
    """The CLI's output path: one deterministic JSON report per item."""
    return dumps(build_report(command, config, inputs, result))


@functools.cache
def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _rational(rng, lo: int, hi: int, den_hi: int = 4) -> Fraction:
    num = 0
    while num == 0:
        num = int(rng.integers(lo, hi + 1))
    return Fraction(num, int(rng.integers(1, den_hi + 1)))


def _term(coeff: Fraction, exps) -> str:
    mono = "*".join(f"x{j + 1}^{e}" for j, e in enumerate(exps) if e)
    c = f"({coeff})"
    return f"{c}*{mono}" if mono else c


def _poly_text(terms) -> str:
    return " + ".join(_term(c, e) for e, c in terms)


def _distinct_points(rng, count: int, n: int, max_exp: int) -> list[tuple[int, ...]]:
    points: set[tuple[int, ...]] = set()
    while len(points) < count:
        points.add(tuple(int(v) for v in rng.integers(0, max_exp + 1, size=n)))
    return sorted(points)


# -- growth ---------------------------------------------------------------------

EX31 = ("(x1^2 - 1)^2 + (x1*x2 - 1)^2", "(x1^2 - 1)^2 + (x2^2 - 1)^2")
EX32 = ("x1^2 + x2^4", "x1^2 + x2^2")


class Growth:
    """Exponent fitting, inequality verification, curve hunting and the
    multiplier on 2-variable pairs (g, h).

    Items 0 and 1 are the paper's Examples 3.1 and 3.2. Every later item is
    g = c1 x1^(2a) + c2 x2^(2b) (+ c3 x1^2 x2^2), h = d1 x1^(2u) + d2 x2^(2v)
    with positive rational coefficients and u <= a, so g > 0 off the origin,
    every level set is nonempty, and the exponents are known in closed
    form: alpha = min(u/a, v/b), beta = max(u/a, v/b). On |g| = t each
    x_j^(2.) is at most t / c_j, so c|h| <= t^alpha + t^beta holds with
    1/c = d1 c1^(-u/a) + d2 c2^(-v/b).
    """

    name = "growth"
    # Its box sampling makes numpy passes over 10^6-point arrays, whose
    # speed drifts with the host's memory system as well as with the
    # interpreter's (hostspeed.py).
    host_kernel = "mixed"
    workload_id = 1
    corpus_size = 120

    def make(self, seed: int, k: int) -> dict:
        if k == 0:
            return {"kind": "ex31", "g": EX31[0], "h": EX31[1], "seed": 0}
        if k == 1:
            return {"kind": "ex32", "g": EX32[0], "h": EX32[1], "seed": 0}
        rng = item_rng(seed, self.workload_id, k)
        while True:
            a, b, u, v = (int(x) for x in rng.integers(1, 4, size=4))
            e1, e2 = Fraction(u, a), Fraction(v, b)
            if e1 <= 1 and (e1 == e2 or max(e1, e2) >= 2 * min(e1, e2)):
                break
        c1, c2, d1, d2 = (_rational(rng, 1, 4, 2) for _ in range(4))
        g_terms = [((2 * a, 0), c1), ((0, 2 * b), c2)]
        if rng.integers(0, 2):
            g_terms.append(((2, 2), _rational(rng, 1, 4, 2)))
        h_terms = [((2 * u, 0), d1), ((0, 2 * v), d2)]
        inv_c = float(d1) * float(c1) ** (-u / a) + float(d2) * float(c2) ** (-v / b)
        return {
            "kind": "pair",
            "g": _poly_text(g_terms),
            "h": _poly_text(h_terms),
            "alpha": float(min(e1, e2)),
            "beta": float(max(e1, e2)),
            "c": (1.0 - 1e-6) / inv_c,
            "seed": item_seed(rng),
        }

    def prepare(self, item: dict) -> dict:
        return dict(item, gp=parse_polynomial(item["g"], 2), hp=parse_polynomial(item["h"], 2))

    def run(self, p: dict) -> dict:
        g, h, seed = p["gp"], p["hp"], p["seed"]
        config = RunConfig(seed=seed, budget=FIT_BUDGET, samples=BOX_SAMPLES)
        inputs = [("g", p["g"]), ("h", p["h"])]
        out: dict = {}
        if p["kind"] == "ex31":
            # mu(t) is infinite near t = 1 and the small levels are tiny
            # ovals no ray from the origin meets, so there is nothing to fit:
            # the example's claim is the escape curve and the violation.
            curve = hunt_sequences(g, h, "SecondType", seed=seed)
            out["curve"] = curve
            out["inequality"] = verify_inequality(
                g, h, 0.5, 1.0, 1.0, box_count=BOX_SAMPLES, box_halfwidth=BOX_HALFWIDTH,
                level_budget=LEVEL_BUDGET, curves=(curve,) if curve else (), seed=seed,
            )
        else:
            out["fit"] = fit_exponents(g, h, budget=FIT_BUDGET, seed=seed)
            alpha, beta, c = (0.5, 1.0, 1.0) if p["kind"] == "ex32" else (
                p["alpha"], p["beta"], p["c"])
            out["inequality"] = verify_inequality(
                g, h, alpha, beta, c, box_count=BOX_SAMPLES, box_halfwidth=BOX_HALFWIDTH,
                level_budget=LEVEL_BUDGET, seed=seed,
            )
            out["curve"] = hunt_sequences(g, h, "SecondType", seed=seed)
            out["power"], out["multiplier"] = multiplier(
                g, h, alpha, ball_samples=MULTIPLIER_SAMPLES, seed=seed
            )
        result = {
            key: (val.to_json() if hasattr(val, "to_json") else val)
            for key, val in out.items()
        }
        out["report"] = serialize("growth", config, inputs, result)
        return out

    def check(self, p: dict, out: dict) -> list[str]:
        problems = []
        g, h = p["gp"], p["hp"]
        curve, ineq = out["curve"], out["inequality"]
        if p["kind"] == "ex31":
            if curve is None or curve.q != (1, -1) or curve.a != ("1", "1"):
                problems.append("Example 3.1: second-type curve x = (s, 1/s) not found")
            else:
                s = 1e-3
                point = [float(Fraction(aj)) * s**qj for aj, qj in zip(curve.a, curve.q)]
                if abs(g.evaluate_float(point) - 1.0) >= 1e-3:
                    problems.append("Example 3.1: g is not near 1 on the curve")
                if abs(h.evaluate_float(point)) <= 1e6:
                    problems.append("Example 3.1: h does not blow up on the curve")
            if ineq.holds:
                problems.append("Example 3.1: the (1/2, 1, 1) inequality was not violated")
            return problems
        fit = out["fit"]
        if p["kind"] == "ex32":
            alpha_ok = 0.45 <= fit.alpha <= 0.55
            beta_ok = 0.9 <= fit.beta <= 1.1
            alpha = 0.5
        else:
            alpha = p["alpha"]
            alpha_ok = abs(fit.alpha - alpha) <= 0.05 * alpha
            beta_ok = abs(fit.beta - p["beta"]) <= 0.1 * p["beta"]
        if not alpha_ok:
            problems.append(f"alpha {fit.alpha:.4f}, expected {alpha}: g = {p['g']}, h = {p['h']}")
        if not beta_ok:
            problems.append(f"beta {fit.beta:.4f} out of range: g = {p['g']}, h = {p['h']}")
        if not ineq.holds or ineq.box_count != BOX_SAMPLES:
            problems.append(f"{p['kind']}: the proven inequality did not hold on the samples")
        if curve is not None:
            problems.append(f"{p['kind']}: a second-type curve was reported for a proper g")
        expected_power = 2 * (math.floor(1.0 / alpha + 1e-12) + 1)
        if out["power"] != expected_power or not out["multiplier"].bounded:
            problems.append(f"{p['kind']}: multiplier N={out['power']}, expected {expected_power}")
        if p["kind"] == "ex32" and out["multiplier"].ball_max > 10.0:
            problems.append("Example 3.2: h^6 / g^2 exceeds 10 on the unit ball")
        return problems

    def verdicts(self, out: dict):
        return None

    def warmup_items(self) -> list[dict]:
        return [self.make(0, 1)]


# -- nondeg3 ----------------------------------------------------------------------

NONDEG_ANCHORS = (
    (("(x1+x2-x3)^2+1", "x1^2+x2^2+x3^2"), "Degenerate"),
    (("x1^4+x2^4+x3^4+1", "x1^2+x2^2+x3^2"), "NonDegenerate"),
    (("x1^2+x2^2+x3^2-x1*x2*x3",), "Undecided"),
)
PROVED = ("Degenerate", "NonDegenerate")
NONDEG_TERMS = 3
NONDEG_MAX_EXP = 4


class Nondeg3:
    """nondegenerate_at_infinity on random 3-variable, 2-component mappings
    (NONDEG_TERMS terms each, degree <= NONDEG_MAX_EXP in each variable,
    nonzero rational coefficients), after three fixed anchors. The term
    count is fixed because it sets how many face systems reach the search,
    which is most of an item's cost."""

    name = "nondeg3"
    host_kernel = "interpreter"
    workload_id = 2
    corpus_size = 250

    def make(self, seed: int, k: int) -> dict:
        if k < len(NONDEG_ANCHORS):
            texts, expected = NONDEG_ANCHORS[k]
            return {"kind": "anchor", "texts": list(texts), "expected": expected, "seed": 0}
        rng = item_rng(seed, self.workload_id, k)
        texts = []
        for _ in range(2):
            points = _distinct_points(rng, NONDEG_TERMS, 3, NONDEG_MAX_EXP)
            texts.append(_poly_text([(e, _rational(rng, -9, 9)) for e in points]))
        return {"kind": "random", "texts": texts, "seed": item_seed(rng)}

    def prepare(self, item: dict) -> dict:
        F = PolynomialMapping(tuple(parse_polynomial(t, 3) for t in item["texts"]))
        return dict(item, F=F, key=digest(" ; ".join(str(f) for f in F)))

    def run(self, p: dict) -> dict:
        report = nondegenerate_at_infinity(p["F"], attempts=NONDEG_ATTEMPTS, seed=p["seed"])
        config = RunConfig(seed=p["seed"], attempts=NONDEG_ATTEMPTS)
        inputs = [(f"f{i + 1}", t) for i, t in enumerate(p["texts"])]
        return {"report": serialize("check-nondegenerate", config, inputs, report.to_json()),
                "nondeg": report}

    def check(self, p: dict, out: dict) -> list[str]:
        problems = []
        report = out["nondeg"]
        witnesses = report.witness_entries()
        for entry in witnesses:
            ev = entry.evidence
            if ev.witness_exact is not None:
                x = tuple(Fraction(v) for v in ev.witness_exact)
            else:
                x = ev.witness
            if not check_witness(entry.system, x)[0]:
                problems.append(f"witness {ev.witness} fails check_witness")
        if report.verdict == "Degenerate" and not witnesses:
            problems.append("Degenerate verdict without a witness")
        if report.verdict == "NonDegenerate" and not (
            report.complete and all(e.evidence.passed for e in report.entries)
        ):
            problems.append("NonDegenerate verdict with an undecided face system")
        # An Undecided verdict may become proved; a proved one may never
        # flip to the opposite proved verdict.
        expected = p.get("expected") or load_reference()["nondeg3"].get(p["key"])
        if (
            expected in PROVED
            and report.verdict in PROVED
            and report.verdict != expected
        ):
            problems.append(f"verdict {report.verdict} contradicts the recorded {expected}")
        if p["kind"] == "anchor" and expected in PROVED and report.verdict != expected:
            problems.append(f"anchor {p['texts']}: {report.verdict}, expected {expected}")
        return problems

    def reference_value(self, p: dict, out: dict) -> str:
        return out["nondeg"].verdict

    def verdicts(self, out: dict):
        return (int(out["nondeg"].verdict != "Undecided"), 1)

    def warmup_items(self) -> list[dict]:
        return [self.make(0, 0), self.make(0, 1)]


# -- polytope4 --------------------------------------------------------------------

# Item 0: fixed inputs of each kind, checked against recorded digests.
POLYTOPE_ANCHOR = {
    "points": [
        [0, 0, 0, 0], [4, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4],
        [1, 1, 1, 1], [2, 2, 0, 1], [0, 3, 3, 0], [3, 0, 1, 2], [1, 2, 3, 4]],
    "supports": [
        [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 2]],
        [[1, 1, 0, 0], [0, 0, 1, 1], [3, 0, 0, 1]]],
    "texts": ["x1^2*x2^2*x3 + 3*x1^3*x2^3*x3*x4 - x1*x2*x4^2",
              "2*x1*x2*x3 - x1^2*x2^2*x4^2"],
}


def euler_holds(faces, dim: int) -> bool:
    """sum_{k<d} (-1)^k f_k = 1 - (-1)^d over the proper faces of a
    d-dimensional polytope."""
    total = sum((-1) ** f.dim for f in faces if f.dim < dim)
    return total == 1 - (-1) ** dim


def _parallel_mapping_texts(rng) -> list[str]:
    """Two components whose supports lie in translates of one lattice
    subspace of dimension 1..3 in 4 variables, so the mapping reduces."""
    dim = int(rng.integers(1, 4))
    while True:
        directions = rng.integers(0, 3, size=(dim, 4))
        if np.linalg.matrix_rank(directions) == dim:
            break
    texts = []
    for _ in range(2):
        offset = rng.integers(0, 3, size=4)
        points = set()
        for _ in range(int(rng.integers(2, 5))):
            steps = rng.integers(0, 3, size=dim)
            points.add(tuple(int(v) for v in offset + steps @ directions))
        texts.append(_poly_text([(e, _rational(rng, -5, 5, 1)) for e in sorted(points)]))
    return texts


class Polytope4:
    """Exact combinatorics in 4 variables. Every item does three things:
    the hull and face lattice of HULL_POINTS points (a, b, c) in
    [0, HULL_BASE_MAX_EXP]^3 lifted to (a, b, c, a^2 + b^2 + c^2), the
    negative face tuples of two TUPLE_POINTS-point supports, and the
    monomial reduction of a lattice-parallel mapping with its exact
    verification. Doing all three in one item keeps the item's cost
    unimodal, so its median and tail do not jump between kinds."""

    name = "polytope4"
    host_kernel = "interpreter"
    workload_id = 3
    corpus_size = 160

    def make(self, seed: int, k: int) -> dict:
        if k == 0:
            return dict(POLYTOPE_ANCHOR, seed=0, anchor=True)
        rng = item_rng(seed, self.workload_id, k)
        # Lifted to the paraboloid, every point is a vertex: the hull's
        # cost then varies little from seed to seed.
        base = _distinct_points(rng, HULL_POINTS, 3, HULL_BASE_MAX_EXP)
        return {
            "points": [[a, b, c, a * a + b * b + c * c] for a, b, c in base],
            "supports": [
                [list(v) for v in _distinct_points(rng, TUPLE_POINTS, 4, TUPLE_MAX_EXP)]
                for _ in range(2)
            ],
            "texts": _parallel_mapping_texts(rng),
            "seed": item_seed(rng),
            "anchor": False,
        }

    def prepare(self, item: dict) -> dict:
        F = PolynomialMapping(tuple(parse_polynomial(t, 4) for t in item["texts"]))
        return dict(item, F=F, key=digest(json.dumps(item, sort_keys=True)))

    def run(self, p: dict) -> dict:
        config = RunConfig(seed=p["seed"])
        out: dict = {}
        gamma = out["gamma"] = newton_polyhedron(p["points"])
        out["faces"] = all_faces(gamma)
        reports = [serialize(
            "hull", config, [("support", json.dumps(p["points"]))],
            {"polyhedron": gamma.to_json(), "faces": [f.to_json() for f in out["faces"]]},
        )]
        out["gammas"] = [newton_polyhedron(z) for z in p["supports"]]
        out["tuples"] = enumerate_negative_face_tuples(out["gammas"])
        reports.append(serialize(
            "tuples", config, [("supports", json.dumps(p["supports"]))], out["tuples"].to_json()
        ))
        reduced = out["reduced"] = reduce_mapping(p["F"])
        out["verification"] = verify_reduction(reduced, seed=p["seed"])
        reports.append(serialize(
            "reduce", config, [(f"f{i + 1}", t) for i, t in enumerate(p["texts"])],
            {"reduction": reduced.to_json(), "verification": out["verification"].to_json()},
        ))
        out["reports"] = reports
        return out

    def exact_digest(self, p: dict, out: dict) -> str:
        """Digest of the exact mathematical output, not of the report bytes,
        so report-format changes and a different choice of witness covector
        keep it."""
        gamma, reduced = out["gamma"], out["reduced"]
        content = [
            gamma.vertices,
            sorted((f.normal, f.offset) for f in gamma.facets),
            sorted(f.points for f in out["faces"]),
            sorted(ft.key() for ft in out["tuples"]),
            reduced.basis.rows,
            reduced.monomial_prefactors,
            [str(f) for f in reduced.reduced],
        ]
        return digest(repr(content))

    def check(self, p: dict, out: dict) -> list[str]:
        problems = []
        if not euler_holds(out["faces"], out["gamma"].dim):
            problems.append("face lattice breaks the Euler relation")
        if not out["tuples"].complete:
            problems.append("enumeration is incomplete")
        for ft in out["tuples"]:
            for gamma, face, degree in zip(out["gammas"], ft.faces, ft.degrees):
                d, exposed = d_and_face(ft.witness_q, gamma)
                if d != degree or d >= 0 or exposed.points != face.points:
                    problems.append(f"covector {ft.witness_q} does not expose its tuple")
        if not out["verification"].all_passed:
            problems.append("reduction failed its exact verification")
        recorded = load_reference()["polytope4"].get(p["key"])
        if recorded is not None and recorded != self.exact_digest(p, out):
            problems.append("output differs from the recorded digest")
        return problems

    def reference_value(self, p: dict, out: dict) -> str:
        return self.exact_digest(p, out)

    def verdicts(self, out: dict):
        return None

    def warmup_items(self) -> list[dict]:
        small = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]
        return [{"points": small, "supports": [small[:3], small[1:]],
                 "texts": POLYTOPE_ANCHOR["texts"], "seed": 0, "anchor": False}]


# -- generic2 ---------------------------------------------------------------------

PINNED_SUPPORT = [[(2, 0), (1, 1), (0, 2)]]


def _corner_dominated_component(rng) -> dict:
    """A 2-variable polynomial c1 x1^(2a) + c2 x2^(2b) + (SUPPORT_POINTS - 2
    terms strictly below the segment joining those corners), c1, c2 > 0.

    Every face of its Newton polyhedron with a negative degree is one of
    the two corners or the segment between them, and on each the face part
    (c1 x1^(2a), c2 x2^(2b) or their sum) has no real zero in the torus.
    So every face system that contains this component is empty, and any
    mapping of such components is non-degenerate, also after a small
    change of its coefficients."""
    while True:
        a, b = (int(v) for v in rng.integers(1, SUPPORT_MAX_EXP // 2 + 1, size=2))
        below = [(i, j) for i in range(2 * a) for j in range(2 * b)
                 if i * b + j * a < 2 * a * b]
        if len(below) >= SUPPORT_POINTS - 2:
            break
    chosen = rng.choice(len(below), size=SUPPORT_POINTS - 2, replace=False)
    terms = {(2 * a, 0): _rational(rng, 1, 9, 9), (0, 2 * b): _rational(rng, 1, 9, 9)}
    for index in sorted(int(c) for c in chosen):
        terms[below[index]] = _rational(rng, -9, 9, 9)
    return {exps: str(c) for exps, c in sorted(terms.items())}


class Generic2:
    """Coefficient-redraw experiments on 2-variable supports of
    SUPPORT_POINTS points each: mostly genericity_trial(mode="exact") over
    GENERICITY_TRIALS draws on a random pair of supports, every fourth item
    an openness_probe around a mapping of two corner-dominated components,
    which is non-degenerate by construction, after the pinned (1, -2, 1)
    anchor."""

    name = "generic2"
    host_kernel = "interpreter"
    workload_id = 4
    corpus_size = 1000

    def make(self, seed: int, k: int) -> dict:
        if k == 0:
            return {"kind": "pinned", "supports": PINNED_SUPPORT, "seed": 0}
        rng = item_rng(seed, self.workload_id, k)
        if k % 4 == 0:
            components = [_corner_dominated_component(rng) for _ in range(2)]
            return {
                "kind": "openness",
                "supports": [[list(e) for e in f] for f in components],
                "coefficients": [list(f.values()) for f in components],
                "seed": item_seed(rng),
            }
        supports = [
            _distinct_points(rng, SUPPORT_POINTS, 2, SUPPORT_MAX_EXP) for _ in range(2)
        ]
        return {"kind": "trial", "supports": supports, "seed": item_seed(rng)}

    def prepare(self, item: dict) -> dict:
        p = dict(item)
        if item["kind"] == "openness":
            p["F"] = PolynomialMapping(tuple(
                Polynomial.from_dict(2, {tuple(e): Fraction(c) for e, c in zip(z, row)})
                for z, row in zip(item["supports"], item["coefficients"])
            ))
        return p

    def run(self, p: dict) -> dict:
        config = RunConfig(seed=p["seed"], mode="exact")
        inputs = [("supports", json.dumps(p["supports"]))]
        out: dict = {}
        if p["kind"] == "openness":
            out["probe"] = openness_probe(
                p["F"], OPENNESS_EPSILON, trials=OPENNESS_TRIALS, seed=p["seed"], mode="exact"
            )
            result = out["probe"].to_json()
            command = "openness"
        else:
            if p["kind"] == "pinned":
                values = itertools.cycle([1.0, -2.0, 1.0])
                stats = genericity_trial(
                    p["supports"], sampler=lambda _rng: next(values), trials=1, mode="exact"
                )
            else:
                stats = genericity_trial(
                    p["supports"], trials=GENERICITY_TRIALS, seed=p["seed"], mode="exact"
                )
            out["stats"] = stats
            result = stats.to_json()
            command = "genericity"
        out["report"] = serialize(command, config, inputs, result)
        return out

    def check(self, p: dict, out: dict) -> list[str]:
        problems = []
        if p["kind"] == "openness":
            probe = out["probe"]
            if probe.passed != probe.trials or probe.trials != OPENNESS_TRIALS:
                problems.append(f"openness {probe.passed}/{probe.trials}")
            return problems
        stats = out["stats"]
        counted = stats.nondegenerate_count + stats.degenerate_count + stats.undecided_count
        if counted != stats.trials:
            problems.append("verdict counts do not add up to the trials")
        if p["kind"] == "pinned" and not (
            stats.degenerate_count == 1
            and stats.degenerate_instances == ((("1", "-2", "1"),),)
        ):
            problems.append("pinned (1, -2, 1) draw is not Degenerate")
        return problems

    def verdicts(self, out: dict):
        stats = out.get("stats")
        if stats is None:
            return None
        return (stats.nondegenerate_count + stats.degenerate_count, stats.trials)

    def warmup_items(self) -> list[dict]:
        return [self.make(0, 0)]


WORKLOADS = {w.name: w for w in (Growth(), Nondeg3(), Polytope4(), Generic2())}
