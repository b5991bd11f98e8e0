"""Metric definitions shared by the harness, BENCHMARK.json and the
self-test, with the end-to-end metric and workload each per-layer metric
is predicted to move.

python3 perfbench/metrics.py prints the BENCHMARK.json these lists define.
"""

from __future__ import annotations

import json

RUN_SECONDS = 20

# name -> (sentence on why the workload exists, with its input size)
WORKLOADS = {
    "growth": "lojasiewicz and the float evaluators (scalar mu(t), batched box sampling) do the work: Examples 3.1, 3.2 + seeded convenient pairs; fit budget 4, box samples 1e6",
    "nondeg3": "witness_search dominates: nondegenerate_at_infinity on 3 anchors + seeded 3-variable 2-component mappings of 3 terms each, attempts 2; supports never repeat",
    "polytope4": "polyhedra, linalg and lattice do exact work, no float search: each item is hull + faces of 10 lifted 4D points, face tuples of two 3-point supports, 4D reduction + verification",
    "generic2": "one support plan, many cheap exact 2D decisions (exact_check_2d, Sturm): genericity_trial of 20 draws on two 5-point supports, every 4th item openness_probe on a mapping built non-degenerate",
}

# (name, unit, better, bound)
END_TO_END = (
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_p50_s", "s", "lower", 0.25),
    ("item_tail_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)

_ALL = "all workloads"

# (name, unit, better, predicted to move)
PER_LAYER = (
    ("polynomials.evaluate_float.calls", "count/item", "lower", "items_per_s on growth and nondeg3; no change on polytope4"),
    ("polynomials.evaluate_float.self_s", "s/item", "lower", "items_per_s on growth and nondeg3; no change on polytope4"),
    ("polynomials.evaluate_float_batch.points", "count/item", "lower", "items_per_s on growth (box sampling)"),
    ("polynomials.evaluate_float_batch.self_s", "s/item", "lower", "items_per_s on growth (box sampling)"),
    ("polynomials.face_part.self_s", "s/item", "lower", "items_per_s on generic2"),
    ("polynomials.parse_polynomial.self_s", "s", "lower", "setup_s on " + _ALL),
    ("nondegeneracy.face_system.calls", "count/item", "lower", "items_per_s on generic2"),
    ("nondegeneracy.face_system.self_s", "s/item", "lower", "items_per_s on generic2"),
    ("polyhedra.newton_polyhedron.calls", "count/item", "lower", "items_per_s, item_tail_s on polytope4; setup_s on generic2"),
    ("polyhedra.newton_polyhedron.self_s", "s/item", "lower", "items_per_s, item_tail_s on polytope4; setup_s on generic2"),
    ("polyhedra.minkowski_sum.self_s", "s/item", "lower", "items_per_s, item_tail_s on polytope4"),
    ("polyhedra.all_faces.self_s", "s/item", "lower", "items_per_s, item_tail_s on polytope4"),
    ("polyhedra.enumerate_negative_face_tuples.calls", "count/item", "lower", "items_per_s, item_tail_s on polytope4"),
    ("polyhedra.enumerate_negative_face_tuples.self_s", "s/item", "lower", "items_per_s, item_tail_s on polytope4"),
    ("polyhedra.enumerate_negative_face_tuples.tuples", "count/item", "lower", "none: fixed by the inputs; a change flags a changed enumeration"),
    ("linalg.lp_feasible.calls", "count/item", "lower", "items_per_s on polytope4"),
    ("linalg.lp_feasible.self_s", "s/item", "lower", "items_per_s on polytope4"),
    ("linalg.kernel_basis.calls", "count/item", "lower", "items_per_s on polytope4"),
    ("linalg.kernel_basis.self_s", "s/item", "lower", "items_per_s on polytope4"),
    ("nondegeneracy.witness_search.calls", "count/item", "lower", "items_per_s on nondeg3"),
    ("nondegeneracy.witness_search.self_s", "s/item", "lower", "items_per_s on nondeg3"),
    ("nondegeneracy.least_squares.starts", "count/item", "lower", "items_per_s on nondeg3"),
    ("nondegeneracy.least_squares.nfev", "count/item", "lower", "items_per_s on nondeg3"),
    ("nondegeneracy.least_squares.self_s", "s/item", "lower", "items_per_s on nondeg3"),
    ("nondegeneracy.systems", "count/item", "lower", "none: base of systems_decided_ratio"),
    ("nondegeneracy.systems_decided_ratio", "ratio", "higher", "decided_ratio on nondeg3"),
    ("nondegeneracy.evidence.EmptyZeroSet", "count/item", "higher", "decided_ratio on nondeg3"),
    ("nondegeneracy.evidence.FullRankEverywhere", "count/item", "higher", "decided_ratio on nondeg3"),
    ("nondegeneracy.evidence.Witness", "count/item", "higher", "decided_ratio on nondeg3"),
    ("nondegeneracy.evidence.SearchExhausted", "count/item", "lower", "decided_ratio and items_per_s on nondeg3"),
    ("nondegeneracy.exact_check_2d.calls", "count/item", "lower", "items_per_s on generic2"),
    ("nondegeneracy.exact_check_2d.self_s", "s/item", "lower", "items_per_s on generic2"),
    ("univariate.count_real_roots.calls", "count/item", "lower", "items_per_s on generic2"),
    ("univariate.count_real_roots.self_s", "s/item", "lower", "items_per_s on generic2"),
    ("lattice.reduce_mapping.self_s", "s/item", "lower", "items_per_s on polytope4"),
    ("lattice.verify_reduction.self_s", "s/item", "lower", "items_per_s on polytope4"),
    ("lojasiewicz.mu_estimate_detail.calls", "count/item", "lower", "items_per_s on growth"),
    ("lojasiewicz.mu_estimate_detail.self_s", "s/item", "lower", "items_per_s on growth"),
    ("lojasiewicz.mu_estimate_detail.crossings", "count/item", "lower", "items_per_s on growth"),
    ("lojasiewicz.fit_exponents.self_s", "s/item", "lower", "items_per_s on growth"),
    ("lojasiewicz.verify_inequality.self_s", "s/item", "lower", "items_per_s on growth"),
    ("lojasiewicz.hunt_sequences.self_s", "s/item", "lower", "items_per_s on growth"),
    ("lojasiewicz.multiplier.self_s", "s/item", "lower", "items_per_s on growth"),
    ("genericity.genericity_trial.self_s", "s/item", "lower", "items_per_s on generic2"),
    ("genericity.openness_probe.self_s", "s/item", "lower", "items_per_s on generic2"),
    ("reports.dumps.self_s", "s/item", "lower", "no change on any workload"),
    ("trace.items_per_s", "1/s", "higher", "none: traced throughput; against items_per_s it gives the tracing overhead"),
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
