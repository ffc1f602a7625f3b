"""groupkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; groupkit is imported from
./src.  The run starts fresh interpreters (PYTHONHASHSEED=0, no GROUPKIT_*
settings): with --trace 0, SETUP_SAMPLES - 1 that only set up, then one
that sets up and runs timed rounds for --seconds; with --trace 1, only the
second kind, with spans around each layer.  Times are reported at a
reference speed (see GAUGE_REF_S).  It prints each metric by name and unit,
then, as the last line, one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
WORKLOADS = ("enum-crosscheck", "query-mix", "table-build")
# Per-layer metric name -> the tracer's layer whose self time it reports.
LAYER_METRICS = {
    "groups.build_s": "groups.build",
    "words.parse_s": "words.parse",
    "report.render_s": "report.render",
    "cli.self_s": "cli",
    "products.mid_s": "products.mid",
    "products.check_s": "products.check",
    "algorithms.search_s": "algorithms.search",
    "algorithms.validate_s": "algorithms.validate",
    "algorithms.enumerate_s": "algorithms.enumerate",
    "oracle.enumerate_s": "oracle.enumerate",
}
# A run never outlives this, whatever --seconds says.
DEADLINE_S = 170.0
# The host's speed drifts by 15-25% over tens of seconds.  Every reported
# time is therefore scaled to a reference speed: divided by the slowdown that
# the gauge (worker.gauge, pure-Python work independent of groupkit, timed
# before each call) showed in the same round, against this nominal gauge time.
GAUGE_REF_S = 0.010


def worker_env(fault: str | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GROUPKIT_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    if fault:
        env["GROUPKIT_FAULT_INJECT"] = fault
    return env


def start_worker(args, env, deadline: float, *, setup_only: bool) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode} and no result")
    return json.loads(lines[-1][len("RESULT "):])


def slowdown(gauges: list[float]) -> float:
    """How much slower than the reference speed the machine ran while these
    gauges were taken."""
    return sum(gauges) / len(gauges) / GAUGE_REF_S


def end_to_end(rec: dict, setups: list[tuple[float, list[float]]]) -> dict:
    rounds = [t / slowdown(g) for t, g in zip(rec["round_s"], rec["gauge_s"])]
    return {
        "setup_s": (statistics.median(t / slowdown(g) for t, g in setups), "s"),
        "op_p50_s": (statistics.median(rounds), "s"),
        "work_per_s": (rec["work"] / sum(rounds), "1/s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
    }


def per_layer(rec: dict) -> dict:
    speeds = [slowdown(g) for g in rec["gauge_s"]]
    out = {
        name: (statistics.median(r[layer] / s for r, s in zip(rec["layers"], speeds)), "s")
        for name, layer in LAYER_METRICS.items()
    }
    out["algorithms.search_over_oracle"] = (
        out["algorithms.enumerate_s"][0] / out["oracle.enumerate_s"][0],
        "ratio",
    )
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument(
        "--fault-inject",
        metavar="MODE",
        help="set GROUPKIT_FAULT_INJECT=MODE in the workers (for testing the failure path)",
    )
    p.add_argument("--out", type=Path, help="also write the full run record to this JSON file")
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 120:
        p.error("--seconds must lie in (0, 120]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "groupkit" / "__init__.py").is_file():
        print(f"error: no groupkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env(args.fault_inject)
    try:
        workers = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                workers.append(start_worker(args, env, deadline, setup_only=True))
        rec = start_worker(args, env, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = [(w["setup_s"], w["setup_gauge_s"]) for w in workers + [rec]]
    metrics = per_layer(rec) if args.trace else end_to_end(rec, setups)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    wall = statistics.median(rec["round_s"])
    speed = statistics.median(slowdown(g) for g in rec["gauge_s"])
    print(f"  wall-clock op_p50_s {wall:.6f} s{' with spans' if args.trace else ''};"
          f" gauge slowdown {speed:.3f}")
    print(f"  attempted {rec['attempted']}  failed {rec['failed']}  correct {rec['correct']}")
    for problem in rec["problems"]:
        print(f"  problem: {problem}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        rec["setup_samples"] = setups
        rec["metrics"] = {k: v for k, (v, _) in metrics.items()}
        rec["args"] = {**vars(args), "out": str(args.out)}
        args.out.write_text(json.dumps(rec, indent=1))
    print(json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
