"""One workload run in a fresh interpreter; started by run.py.

Prints one line, 'RESULT <json>', on standard output.  Everything groupkit
prints goes to in-memory buffers.  Times are CLOCK_MONOTONIC, which is shared
by all processes, so the set-up time counts from the moment run.py started
this interpreter.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def gauge() -> float:
    """Seconds for a fixed piece of pure-Python table and bitmask work,
    independent of groupkit: a probe of the machine's current speed."""
    start = time.perf_counter()
    n = 224
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    acc = 0
    for row in table:
        mask = 0
        for x in row:
            mask |= 1 << table[x][row[x]]
        acc ^= mask
    return time.perf_counter() - start


def run_round(wl, problems: list[str]) -> tuple[list[float], list[float], bool, int]:
    """One round; a gauge runs before each call, outside the call's time.

    Returns (call seconds, gauge seconds, failed, wrong answers)."""
    import workloads

    calls, gauges = [], []
    failed, wrong = False, 0
    for call in wl.calls:
        gauges.append(gauge())
        dt, call_failed, call_wrong = workloads.attempt(call, problems)
        calls.append(dt)
        failed |= call_failed
        wrong += call_wrong
    return calls, gauges, failed, wrong


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import groupkit

    src = Path(groupkit.__file__).resolve()
    if ROOT / "src" not in src.parents:
        print(f"groupkit was imported from {src}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    # One untimed warm-up round: first calls, lazy imports, allocator growth.
    gc.collect()
    _, setup_gauges, _, _ = run_round(wl, [])
    if tracer:
        tracer.take_self_times()
    setup_s = now() - args.spawned_at
    if args.setup_only:
        print("RESULT " + json.dumps({"setup_s": setup_s, "setup_gauge_s": setup_gauges}),
              flush=True)
        return 0

    round_s: list[float] = []
    gauge_s: list[list[float]] = []
    call_s: dict[str, list[float]] = {c.label: [] for c in wl.calls}
    layers: list[dict[str, float]] = []
    attempted = failed = wrong = work = 0
    problems: list[str] = []
    start = now()
    while attempted == 0 or now() - start < args.seconds:
        gc.collect()
        attempted += 1
        calls, gauges, round_failed, round_wrong = run_round(wl, problems)
        round_s.append(sum(calls))
        gauge_s.append(gauges)
        for call, dt in zip(wl.calls, calls):
            call_s[call.label].append(dt)
        wrong += round_wrong
        if tracer:
            layers.append(tracer.take_self_times())
        if round_failed:
            failed += 1
        else:
            work += wl.work_per_round()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    for call in wl.final_calls:
        wrong += workloads.attempt(call, problems)[2]

    result = {
        "setup_s": setup_s,
        "setup_gauge_s": setup_gauges,
        "attempted": attempted,
        "failed": failed,
        "correct": wrong == 0,
        "problems": problems[:20],
        "round_s": round_s,
        "gauge_s": gauge_s,
        "call_s": call_s,
        "work": work,
        "work_unit": wl.unit,
        "work_per_round": wl.work_per_round(),
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
