"""Self-test of the harness arithmetic on synthetic data, plus consistency
of BENCHMARK.json with metrics.py and of the seeding.

    python3 perfbench/selftest.py

Exits non-zero and names each failed check.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import metrics  # noqa: E402
import stats  # noqa: E402
from tracing import Span, self_times  # noqa: E402

FAILURES = []


def check(condition: bool, label: str) -> None:
    print(("ok    " if condition else "FAIL  ") + label)
    if not condition:
        FAILURES.append(label)


def close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-9


def test_tail_rule() -> None:
    value, pct, beyond = stats.tail_latency([float(v) for v in range(1, 101)])
    check((value, pct, beyond) == (90.0, 90.0, 10), "100 items: p90, exactly 10 beyond")
    value, pct, beyond = stats.tail_latency([5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 11.0, 10.0])
    check((value, beyond) == (1.0, 10) and close(pct, 100 / 11), "11 items: the smallest, 10 beyond")
    ordered = [float(v) for v in range(1, 38)]
    value, pct, beyond = stats.tail_latency(list(reversed(ordered)))
    check(value == 27.0 and sum(v > value for v in ordered) == 10, "37 items: 10 strictly beyond")
    check(stats.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0), "too few items: the maximum")


def test_self_times() -> None:
    spans = [
        Span("root", 0.0, 20.0, -1, 0),
        Span("P", 0.0, 10.0, 0, 0, hot_s=1.0),
        Span("Q", 10.0, 12.0, 0, 0),
        Span("A", 1.0, 3.0, 1, 0),
        Span("B", 2.0, 5.0, 1, 0),
        # C ends after its parent P and after P's last sibling Q.
        Span("C", 8.0, 15.0, 1, 0),
        Span("D", 9.0, 9.5, 5, 0),
    ]
    got = self_times(spans)
    # root: 20 - (P u Q = [0, 12]) = 8
    # P: 10 - (A u B = [1, 5]) - (C clipped = [8, 10]) - 1 hot = 3
    # C: 7 - D 0.5 = 6.5
    want = [8.0, 3.0, 2.0, 2.0, 3.0, 6.5, 0.5]
    check(all(close(a, b) for a, b in zip(got, want)), f"self times {got}")


def test_scaling() -> None:
    check(close(stats.rate([1.0, 1.0, 2.0]), 0.75), "rate: items per second of item time")
    # window 0 ran at half the reference speed, window 1 at the reference speed
    ref = hostspeed.REFERENCE_S["interpreter"]
    got = stats.scaled("interpreter", [2.0, 4.0, 3.0], [0, 0, 1], [[2 * ref], [2 * ref, 4 * ref], [ref]])
    want = [2.0 / 2, 4.0 / 2, 3.0]
    check(all(close(a, b) for a, b in zip(got, want)), f"per-window host scaling {got}")


def test_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        on_disk = json.load(fh)
    check(on_disk == metrics.benchmark_json(), "BENCHMARK.json matches metrics.py")
    check(all(len(w) <= 200 and "\n" not in w for w in metrics.WORKLOADS.values()), "why fits one line")
    check(all(0 < b <= 0.25 for *_, b in metrics.END_TO_END), "bounds within (0, 0.25]")
    setup = [b for n, *_, b in metrics.END_TO_END if n == "setup_s"]
    check(setup == [max(b for *_, b in metrics.END_TO_END)], "setup_s has the largest bound")
    names = [n for n, *_ in metrics.END_TO_END] + [n for n, *_ in metrics.PER_LAYER]
    check(len(names) == len(set(names)) and all(len(n) <= 64 for n in names), "names unique, short")


def test_seeding() -> None:
    import workloads

    for w in workloads.WORKLOADS.values():
        same = w.make(3, 40) == w.make(3, 40)
        streams = {json.dumps(w.make(seed, 40), sort_keys=True, default=str) for seed in (0, 1, 2)}
        check(same and len(streams) == 3, f"{w.name}: seeds give distinct, repeatable items")


def test_tracer_restores() -> None:
    import scipy.optimize

    import polyloj
    import tracing
    from polyloj import polyhedra, polynomials

    before = (polyloj.newton_polyhedron, polyhedra.lp_feasible,
              polynomials.Polynomial.evaluate_float, scipy.optimize.least_squares)
    tracer = tracing.Tracer()
    tracer.install()
    wrapped = polyhedra.lp_feasible is not before[1] and polyloj.newton_polyhedron is not before[0]
    polyloj.newton_polyhedron([(0, 0), (2, 0), (0, 2)])
    tracer.uninstall()
    after = (polyloj.newton_polyhedron, polyhedra.lp_feasible,
             polynomials.Polynomial.evaluate_float, scipy.optimize.least_squares)
    check(wrapped, "install rebinds consumers and the package")
    check(all(a is b for a, b in zip(before, after)), "uninstall restores every binding")
    check(any(s.name == "linalg.lp_feasible" for s in tracer.spans), "consumer calls are traced")


def main() -> int:
    for test in (test_tail_rule, test_self_times, test_scaling, test_benchmark_json,
                 test_seeding, test_tracer_restores):
        test()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
