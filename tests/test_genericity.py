"""Genericity experiments: random coefficients on fixed supports are
non-degenerate almost always, and non-degeneracy survives small jitters."""

import itertools

import pytest

from polyloj import genericity, nondegeneracy
from polyloj import (
    PolynomialMapping,
    genericity_trial,
    nondegenerate_at_infinity,
    openness_probe,
    parse_polynomial,
)
from polyloj.polynomials import Polynomial


def cycling_sampler(values):
    """Deterministic sampler that replays a pinned coefficient list."""
    state = itertools.cycle(values)

    def draw(rng):
        return next(state)

    return draw


SUPPORT_SQUARE = [[(2, 0), (1, 1), (0, 2)]]


def test_pinned_coefficients_degenerate():
    # (1, -2, 1) on {(2,0),(1,1),(0,2)} assembles (x1 - x2)^2.
    stats = genericity_trial(
        SUPPORT_SQUARE, sampler=cycling_sampler([1.0, -2.0, 1.0]), trials=1
    )
    assert stats.degenerate_count == 1
    assert stats.nondegenerate_count == 0
    assert len(stats.degenerate_instances) == 1
    (coeffs,) = stats.degenerate_instances
    assert coeffs == (("1", "-2", "1"),)


def test_degenerate_instances_replay_through_public_checker():
    stats = genericity_trial(
        SUPPORT_SQUARE, sampler=cycling_sampler([1.0, -2.0, 1.0]), trials=2
    )
    for instance in stats.degenerate_instances:
        comps = []
        for support, row in zip(stats.supports, instance):
            from fractions import Fraction

            coeffs = {k: Fraction(c) for k, c in zip(support, row)}
            comps.append(Polynomial.from_dict(len(support[0]), coeffs))
        replay = nondegenerate_at_infinity(PolynomialMapping(tuple(comps)))
        assert replay.verdict == "Degenerate"


def test_degenerate_draw_witness_is_rechecked(monkeypatch):
    monkeypatch.setattr(genericity, "check_witness", lambda system, x: (False, {}))
    with pytest.raises(RuntimeError, match="re-check"):
        genericity_trial(
            SUPPORT_SQUARE, sampler=cycling_sampler([1.0, -2.0, 1.0]), trials=1
        )


def test_seeds_draw_independent_coefficients():
    draws = {0: [], 1: []}
    for seed, log in draws.items():

        def recording(rng, log=log):
            value = float(rng.uniform(-1.0, 1.0))
            log.append(value)
            return value

        genericity_trial(SUPPORT_SQUARE, sampler=recording, trials=5, seed=seed)
    assert len(draws[0]) == len(draws[1]) == 15
    assert set(draws[0]).isdisjoint(draws[1])


def test_supports_beyond_exact_enumeration_are_undecided():
    # n = 5 has no exact face-tuple enumeration: the plan samples covectors,
    # so it is incomplete and no draw can be proved non-degenerate.
    stats = genericity_trial([[(1, 1, 1, 1, 1)]], trials=2, seed=0, attempts=2)
    assert stats.undecided_count == 2


def test_random_coefficients_on_reference_supports():
    supports = [[(2, 0), (0, 4)], [(2, 0), (0, 2)]]
    stats = genericity_trial(supports, trials=100, seed=0)
    assert stats.trials == 100
    assert (
        stats.nondegenerate_count
        + stats.degenerate_count
        + stats.undecided_count
        == 100
    )
    assert stats.nondegenerate_count >= 99
    assert stats.undecided_count == 0


def test_trials_are_deterministic_per_seed():
    a = genericity_trial(SUPPORT_SQUARE, trials=25, seed=11)
    b = genericity_trial(SUPPORT_SQUARE, trials=25, seed=11)
    assert a.to_json() == b.to_json()
    c = genericity_trial(SUPPORT_SQUARE, trials=25, seed=12)
    assert a.seed != c.seed


def test_supports_validation():
    with pytest.raises(ValueError):
        genericity_trial([], trials=1)
    with pytest.raises(ValueError):
        genericity_trial([[]], trials=1)
    with pytest.raises(ValueError):
        genericity_trial([[(0, 1), (1,)]], trials=1)
    with pytest.raises(ValueError):
        genericity_trial([[(-1, 0)]], trials=1)


def test_openness_probe_reference_pair():
    F = PolynomialMapping(
        (
            parse_polynomial("x1^2 + x2^4", 2),
            parse_polynomial("x1^2 + x2^2", 2),
        )
    )
    result = openness_probe(F, epsilon=1e-6, trials=100, seed=0)
    assert result.passed == 100
    assert result.trials == 100


def test_openness_probe_enumerates_each_subtuple_once(monkeypatch):
    calls = []
    enumerate_tuples = nondegeneracy.enumerate_negative_face_tuples

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_tuples(*args, **kwargs)

    # Calls made through either module count.
    monkeypatch.setattr(nondegeneracy, "enumerate_negative_face_tuples", counting)
    monkeypatch.setattr(
        genericity, "enumerate_negative_face_tuples", counting, raising=False
    )
    F = PolynomialMapping(
        (
            parse_polynomial("x1^2 + x2^4", 2),
            parse_polynomial("x1^2 + x2^2", 2),
        )
    )
    result = openness_probe(F, epsilon=1e-6, trials=3, seed=0)
    assert result.passed == 3
    assert len(calls) == 3  # the sub-tuples (1), (2) and (1, 2)


def test_openness_probe_requires_nondegenerate_input():
    F = PolynomialMapping((parse_polynomial("(x1 - x2)^2", 2),))
    with pytest.raises(ValueError, match="non-degenerate"):
        openness_probe(F, epsilon=1e-6, trials=5)


def test_openness_probe_requires_positive_epsilon():
    F = PolynomialMapping((parse_polynomial("x1^2 + x2^2", 2),))
    with pytest.raises(ValueError, match="epsilon"):
        openness_probe(F, epsilon=0.0, trials=5)
