"""Monte-Carlo experiments over coefficient space.

Fix the supports Z_i and draw coefficients at random: non-degeneracy at
infinity should hold for essentially every draw, and should survive small
jitters of a mapping that already has it.  Supports never change inside an
experiment, so one NondegeneracyPlan (Newton polyhedra and negative face
tuples) is built per experiment and every trial only decides its face
systems with the fresh coefficients.  Trial k draws its coefficients and
its search seed from SeedSequence([seed, k]), so different seeds give
independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .nondegeneracy import (
    NondegeneracyPlan,
    NondegeneracyReport,
    check_witness,
    component_subtuples,
)
from .polynomials import Polynomial, PolynomialMapping

MIN_COEFF = 1e-3

Sampler = Callable[[np.random.Generator], float]


@dataclass(frozen=True)
class GenericityStats:
    """Tally of one experiment: how many random coefficient draws on the
    fixed supports were non-degenerate, with every degenerate draw saved
    (its witness re-checked) for inspection."""

    supports: tuple[tuple[tuple[int, ...], ...], ...]
    trials: int
    nondegenerate_count: int
    degenerate_count: int
    undecided_count: int
    degenerate_instances: tuple[tuple[tuple[str, ...], ...], ...]
    redraw_count: int
    seed: int

    def __post_init__(self):
        total = (
            self.nondegenerate_count
            + self.degenerate_count
            + self.undecided_count
        )
        if total != self.trials:
            raise ValueError("trial counts do not sum to the trial total")
        if len(self.degenerate_instances) != self.degenerate_count:
            raise ValueError("saved instances disagree with the degenerate count")

    @property
    def fraction_nondegenerate(self) -> float:
        return (
            self.nondegenerate_count / self.trials if self.trials else float("nan")
        )

    def to_json(self) -> dict:
        return {
            "supports": [[list(k) for k in z] for z in self.supports],
            "trials": self.trials,
            "nondegenerate": self.nondegenerate_count,
            "degenerate": self.degenerate_count,
            "undecided": self.undecided_count,
            "degenerate_instances": [
                [list(comp) for comp in inst] for inst in self.degenerate_instances
            ],
            "redraws": self.redraw_count,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class OpennessResult:
    passed: int
    trials: int
    redraws: int
    epsilon: float

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "trials": self.trials,
            "redraws": self.redraws,
            "epsilon": self.epsilon,
        }


def _normalize_supports(
    supports: Sequence[Sequence[Sequence[int]]],
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    if not supports:
        raise ValueError("need at least one support")
    out = []
    n = None
    for z in supports:
        pts = sorted({tuple(int(v) for v in kappa) for kappa in z})
        if not pts:
            raise ValueError("supports must be nonempty")
        if n is None:
            n = len(pts[0])
        if any(len(kappa) != n for kappa in pts):
            raise ValueError("support points have mixed dimensions")
        if any(v < 0 for kappa in pts for v in kappa):
            raise ValueError("support points must be nonnegative")
        out.append(tuple(pts))
    return tuple(out)


def _default_sampler(rng: np.random.Generator) -> float:
    return float(rng.uniform(-1.0, 1.0))


def _trial_stream(seed: int, trial: int) -> tuple[np.random.Generator, int]:
    """Trial `trial`'s coefficient generator and witness-search seed, both
    drawn from SeedSequence([seed, trial])."""
    coefficients, search = np.random.SeedSequence([seed, trial]).spawn(2)
    return np.random.default_rng(coefficients), int(search.generate_state(1)[0])


def _recheck_witnesses(report: NondegeneracyReport) -> None:
    """Re-check every witness of a Degenerate decision with check_witness,
    apart from the decision that produced it."""
    for entry in report.witness_entries():
        evidence = entry.evidence
        if evidence.witness_exact is not None:
            x = tuple(Fraction(v) for v in evidence.witness_exact)
        else:
            x = evidence.witness
        if not check_witness(entry.system, x)[0]:
            raise RuntimeError(
                f"the witness {evidence.witness} of a degenerate draw failed its re-check"
            )


def _draw_coefficient(
    rng: np.random.Generator, sampler: Sampler
) -> tuple[Fraction, int]:
    """One coefficient with |c| >= MIN_COEFF, counting rejected draws that
    would have killed a support point (and so changed the polyhedron)."""
    redraws = 0
    while True:
        value = sampler(rng)
        if abs(value) >= MIN_COEFF:
            return Fraction(value), redraws
        redraws += 1
        if redraws > 10000:
            raise RuntimeError("sampler cannot produce usable coefficients")


def genericity_trial(
    supports: Sequence[Sequence[Sequence[int]]],
    sampler: Optional[Sampler] = None,
    trials: int = 100,
    seed: int = 0,
    mode: str = "auto",
    attempts: int = 2000,
) -> GenericityStats:
    """Draw `trials` coefficient vectors on the fixed supports and count
    non-degeneracy verdicts.  Trial k draws from SeedSequence([seed, k]), so
    trials are independent and order-insensitive; coefficients are carried
    into exact arithmetic unchanged.  Every degenerate draw is saved, and
    its witness re-checked with check_witness before it is reported.
    """
    supports = _normalize_supports(supports)
    if sampler is None:
        sampler = _default_sampler
    plan = NondegeneracyPlan(supports, component_subtuples(len(supports)), seed=seed)
    nondeg = deg = undec = redraws = 0
    saved = []
    for trial in range(trials):
        rng, search_seed = _trial_stream(seed, trial)
        coeff_rows = []
        components = []
        for z in supports:
            coeffs = {}
            for kappa in z:
                value, r = _draw_coefficient(rng, sampler)
                redraws += r
                coeffs[kappa] = value
            coeff_rows.append(tuple(str(coeffs[k]) for k in z))
            components.append(Polynomial.from_dict(len(z[0]), coeffs))
        F = PolynomialMapping(tuple(components))
        report = plan.decide(F, mode, attempts, search_seed)
        if report.verdict == "NonDegenerate":
            nondeg += 1
        elif report.verdict == "Degenerate":
            deg += 1
            _recheck_witnesses(report)
            saved.append(tuple(coeff_rows))
        else:
            undec += 1
    return GenericityStats(
        supports=supports,
        trials=trials,
        nondegenerate_count=nondeg,
        degenerate_count=deg,
        undecided_count=undec,
        degenerate_instances=tuple(saved),
        redraw_count=redraws,
        seed=seed,
    )


def openness_probe(
    F: PolynomialMapping,
    epsilon: float,
    trials: int = 100,
    seed: int = 0,
    mode: str = "auto",
    attempts: int = 2000,
) -> OpennessResult:
    """Jitter every coefficient of a non-degenerate mapping by uniform
    +-epsilon and count how many perturbed mappings stay non-degenerate.
    Supports are preserved: a jitter that would zero out a coefficient
    (erasing a support point) is redrawn and the redraw reported."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    supports = _normalize_supports([f.support() for f in F])
    plan = NondegeneracyPlan(supports, component_subtuples(len(supports)), seed=seed)
    if plan.decide(F, mode, attempts, seed).verdict != "NonDegenerate":
        raise ValueError("openness probes require a non-degenerate input mapping")
    passed = redraws = 0
    for trial in range(trials):
        rng, search_seed = _trial_stream(seed, trial)
        components = []
        for f, z in zip(F, supports):
            coeffs = {}
            for kappa in z:
                base_c = f.coeff(kappa)
                while True:
                    jitter = Fraction(float(rng.uniform(-epsilon, epsilon)))
                    value = base_c + jitter
                    if value != 0 and abs(float(value)) >= 1e-12:
                        break
                    redraws += 1
                coeffs[kappa] = value
            components.append(Polynomial.from_dict(len(z[0]), coeffs))
        G = PolynomialMapping(tuple(components))
        if plan.decide(G, mode, attempts, search_seed).verdict == "NonDegenerate":
            passed += 1
    return OpennessResult(
        passed=passed, trials=trials, redraws=redraws, epsilon=epsilon
    )
