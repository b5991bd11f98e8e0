"""Benchmark harness for polyloj.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --out FILE

One workload: prints each metric by name and unit, then, as the last line
of stdout, one JSON object {correct, attempted, failed, metrics}. With
--trace 0 the metrics are the end-to-end ones (BENCHMARK.json
"end_to_end"); with --trace 1 they are the per-layer ones, from a run that
wraps every public function of each polyloj module.

--workload all runs every workload untraced and traced on the same seed,
prints both, the tracing overhead and the correctness ratios, and with
--out writes a results file with the machine, versions and revision.

Each run happens in a fresh single-threaded worker process with
OPENBLAS/OMP/MKL threads pinned to 1 and PYTHONHASHSEED pinned. Set-up
runs SETUP_REPEATS times, each in its own process, and setup_s is their
median. Exits non-zero when any output is wrong or the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

from metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS  # noqa: E402

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}
SETUP_REPEATS = 5
# The timed phase stops after `seconds` of CPU time, or after WALL_FACTOR
# times `seconds` of wall time on a host too busy to give it the CPU.
WALL_FACTOR = 1.5
# Wall-time limits of one set-up and of the checks after the timed phase;
# a worker that overruns them is stopped and the run fails.
SETUP_LIMIT_S = 30
CHECK_LIMIT_S = 60


class HarnessError(RuntimeError):
    pass


def worker(args: list[str], timeout: float) -> dict:
    """Run worker.py with the pinned environment; return its JSON line."""
    env = dict(os.environ, **PINNED_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker {args} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    wall_limit = WALL_FACTOR * seconds
    result = worker(
        [*common, "--seconds", str(seconds), "--wall-limit", str(wall_limit),
         "--trace", str(trace)],
        SETUP_LIMIT_S + wall_limit + CHECK_LIMIT_S,
    )
    if not trace:
        setups = [result]
        for _ in range(SETUP_REPEATS - 1):
            setups.append(worker([*common, "--setup-only"], SETUP_LIMIT_S))
        result["setup_runs_s"] = [r["setup_s"] for r in setups]
        result["setup_raw_runs_s"] = [r["setup_raw_s"] for r in setups]
        result["setup_s"] = statistics.median(result["setup_runs_s"])
    return result


def is_correct(result: dict) -> bool:
    return (
        result["failed"] == 0
        and result["correct_items"] == result["attempted"]
        and result["reference_block_ok"]
    )


def contract_line(result: dict, trace: int) -> dict:
    if trace:
        metrics = {
            n: {"value": result["per_item"][n], "unit": u} for n, u, _, _ in PER_LAYER
        }
    else:
        metrics = {n: {"value": result[n], "unit": u} for n, u, _, _ in END_TO_END}
    return {
        "correct": is_correct(result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def ratios(result: dict) -> dict:
    """name -> (value, base count, what the base counts)."""
    attempted = result["attempted"]
    out = {
        "fail_ratio": (result["failed"] / attempted, attempted, "items"),
        "correct_ratio": (result["correct_items"] / attempted, attempted, "items"),
    }
    checked = result["mappings_checked"]
    if checked:
        out["decided_ratio"] = (result["mappings_proved"] / checked, checked, "mappings")
    return out


def print_run(result: dict, trace: int) -> None:
    name = result["workload"]
    print(f"# {name}  seed={result['seed']}  trace={trace}  items={result['attempted']}")
    if trace:
        for metric, unit, _, _ in PER_LAYER:
            print(f"{name}  {metric:<50} {result['per_item'][metric]:>14.6g} {unit}")
    else:
        for metric, unit, _, _ in END_TO_END:
            print(f"{name}  {metric:<16} {result[metric]:>12.6g} {unit}")
        print(
            f"{name}  item_tail_s is at percentile {result['item_tail_percentile']:.1f}"
            f" of {result['attempted']} items, {result['item_tail_beyond']} beyond it"
        )
        print(
            f"{name}  times are reference-host seconds: raw CPU times x {result['host_scale']:.4f}"
            f" (raw items_per_s {result['raw_items_per_s']:.6g},"
            f" raw item_p50_s {result['raw_item_p50_s']:.6g},"
            f" raw setup_s {statistics.median(result['setup_raw_runs_s']):.6g})"
        )
        for metric, (value, count, base) in ratios(result).items():
            print(f"{name}  {metric:<16} {value:>12.6g} ratio of {count} {base}")
    if result["reference_checked"]:
        print(f"{name}  {result['reference_checked']} outputs compared with reference.json")
    if result["corpus_exhausted"]:
        print(f"{name}  the corpus ran out before the time did")
    for problem in result["problems"]:
        print(f"{name}  PROBLEM {problem}")


def git_revision() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, seconds: int) -> dict:
    return {
        "git_revision": git_revision(),
        "seed": seed,
        "seconds": seconds,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "environment": {k: PINNED_ENV[k] for k in PINNED_ENV if k != "PYTHONDONTWRITEBYTECODE"},
    }


def run_all(seed: int, seconds: int, out_path: str | None) -> int:
    report = {"provenance": provenance(seed, seconds), "workloads": {}}
    ok = True
    for name in WORKLOADS:
        plain = run_workload(name, seed, seconds, 0)
        traced = run_workload(name, seed, seconds, 1)
        print_run(plain, 0)
        print_run(traced, 1)
        overhead = plain["items_per_s"] / traced["items_per_s"] - 1.0
        print(f"{name}  tracing overhead {overhead:+.1%}: untraced over traced items_per_s, same corpus")
        print()
        ok = ok and is_correct(plain) and is_correct(traced)
        report["workloads"][name] = {
            "end_to_end": {n: {"value": plain[n], "unit": u} for n, u, _, _ in END_TO_END},
            "ratios": {
                metric: {"value": value, "base": count, "of": base}
                for metric, (value, count, base) in ratios(plain).items()
            },
            "items": plain["attempted"],
            "reference_checked": plain["reference_checked"],
            "item_tail_percentile": plain["item_tail_percentile"],
            "setup_runs_s": plain["setup_runs_s"],
            "raw": {
                "host_scale": plain["host_scale"],
                "items_per_s": plain["raw_items_per_s"],
                "item_p50_s": plain["raw_item_p50_s"],
                "setup_runs_s": plain["setup_raw_runs_s"],
            },
            "per_layer": {
                n: {"value": traced["per_item"][n], "unit": u} for n, u, _, _ in PER_LAYER
            },
            "traced_items": traced["attempted"],
            "tracing_overhead": overhead,
            "correct": is_correct(plain) and is_correct(traced),
            "problems": plain["problems"] + traced["problems"],
        }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out_path}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="results file to write (--workload all)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "polyloj")):
        print(f"polyloj sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.out)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print(exc, file=sys.stderr)
        return 2
    print_run(result, args.trace)
    line = contract_line(result, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
