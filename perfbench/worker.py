"""One benchmark process: set up a workload, run it for a fixed time,
check every output, and print one JSON line of raw results.

run.py starts this file with the thread and hash environment pinned; it is
not meant to be run by hand. With --setup-only it stops after set-up and
reports only the set-up time, so run.py can repeat set-up in fresh
processes.
"""

import time

# Set-up is timed from here: imports count, interpreter start-up does not.
SETUP_START = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

# Every time is CPU time of this process, scaled to reference-host seconds
# (hostspeed.py). The workloads are CPU-bound, do no I/O and run on one
# thread, so CPU time is the time the program needs; unlike wall time it
# leaves out the time a shared host takes the CPU away.
CLOCK = time.process_time
WINDOWS = 5
# After an item, one calibration kernel per this much item time (at least
# one), so a window of long items still gets enough kernel samples.
KERNEL_EVERY_S = 0.2
# Kernel runs right after set-up that calibrate the set-up time.
SETUP_KERNELS = 10


def setup(workload, seed: int):
    corpus = [workload.prepare(workload.make(seed, k)) for k in range(workload.corpus_size)]
    for item in workload.warmup_items():
        workload.run(workload.prepare(item))
    return corpus


def reference_block(workload) -> tuple[int, list[str]]:
    """Run the first REFERENCE_BLOCK items of the first reference seed,
    untimed, and check them: whatever the run's seed, every run compares
    some outputs with recorded ones. Returns (items compared, problems)."""
    recorded = workloads.load_reference().get(workload.name)
    if recorded is None:
        return 0, []
    compared, problems = 0, []
    for k in range(workloads.REFERENCE_BLOCK):
        p = workload.prepare(workload.make(workloads.REFERENCE_SEEDS[0], k))
        if p["key"] not in recorded:
            problems.append(f"reference item {k}: nothing recorded")
            continue
        try:
            found = workload.check(p, workload.run(p))
        except Exception:
            found = [f"raised:\n{traceback.format_exc(limit=3)}"]
        compared += 1
        problems.extend(f"reference item {k}: {problem}" for problem in found)
    return compared, problems


def timed_phase(workload, corpus, seconds: float, wall_limit: float, tracer=None):
    """Run items in order until `seconds` of CPU time or `wall_limit`
    seconds of wall time have passed. Each item is timed on its own and
    followed by calibration kernels. The phase is cut into WINDOWS windows
    by item start time, and each window's times are scaled by its own
    kernel times."""
    records = []
    start = CLOCK()
    wall_deadline = time.monotonic() + wall_limit
    for k, prepared in enumerate(corpus):
        begin = CLOCK()
        if begin >= start + seconds or time.monotonic() >= wall_deadline:
            break
        if tracer is not None:
            tracer.item = k
        try:
            outcome, error = workload.run(prepared), None
        except Exception:  # an item that raises is counted as failed
            outcome, error = None, traceback.format_exc(limit=3)
        end = CLOCK()
        window = min(int((begin - start) / seconds * WINDOWS), WINDOWS - 1)
        kernels = hostspeed.sample(
            workload.host_kernel, max(1, round((end - begin) / KERNEL_EVERY_S))
        )
        records.append((k, end - begin, window, kernels, outcome, error))
    return records


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--wall-limit", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
    try:
        corpus = setup(workload, args.seed)
        setup_raw_s = CLOCK() - SETUP_START
        kind = workload.host_kernel
        setup_s = setup_raw_s * hostspeed.scale(kind, hostspeed.sample(kind, SETUP_KERNELS))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0
        if tracer is not None:
            tracer.start_items()
        records = timed_phase(workload, corpus, args.seconds, args.wall_limit, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    raw_latencies = [r[1] for r in records]
    windows = [r[2] for r in records]
    calibration = [r[3] for r in records]
    kind = workload.host_kernel
    latencies = stats.scaled(kind, raw_latencies, windows, calibration)
    run_scale = hostspeed.scale(kind, [c for cs in calibration for c in cs]) if records else 1.0
    failed = [(k, err) for k, _, _, _, _, err in records if err is not None]
    reference_checked, block_problems = reference_block(workload)
    problems = list(block_problems)
    recorded = workloads.load_reference().get(workload.name, {})
    correct_items = proved = checked = 0
    for k, _, _, _, outcome, error in records:
        if error is not None:
            continue
        found = workload.check(corpus[k], outcome)
        if corpus[k].get("key") in recorded:
            reference_checked += 1
        elif recorded and args.seed in workloads.REFERENCE_SEEDS:
            found.append("no recorded reference for an item of a reference seed")
        problems.extend(f"item {k}: {p}" for p in found)
        correct_items += not found
        counts = workload.verdicts(outcome)
        if counts is not None:
            proved += counts[0]
            checked += counts[1]
    tail, tail_pct, beyond = stats.tail_latency(latencies)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": len(records),
        "failed": len(failed),
        "correct_items": correct_items,
        "reference_checked": reference_checked,
        "reference_block_ok": not block_problems,
        "problems": problems[:20] + [f"item {k} raised:\n{e}" for k, e in failed[:3]],
        "corpus_exhausted": len(records) == len(corpus),
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "host_scale": run_scale,
        "raw_items_per_s": stats.rate(raw_latencies),
        "raw_item_p50_s": stats.median(raw_latencies),
        "items_per_s": stats.rate(latencies),
        "item_p50_s": stats.median(latencies),
        "item_tail_s": tail,
        "item_tail_percentile": tail_pct,
        "item_tail_beyond": beyond,
        "peak_rss_mib": peak_rss_mib,
        "mappings_proved": proved,
        "mappings_checked": checked,
    }
    if tracer is not None:
        result["per_item"] = stats.per_item(
            tracer.totals(), tracer.totals(setup=True), len(records), run_scale
        )
        result["per_item"]["trace.items_per_s"] = result["items_per_s"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
