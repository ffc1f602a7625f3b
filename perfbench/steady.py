"""Steadiness check: repeat each workload and print every end-to-end
metric's run-to-run spread beside its bound from BENCHMARK.json.

    python3 perfbench/steady.py --runs 10                 # all workloads
    python3 perfbench/steady.py --runs 5 --workload query-mix --traced

Each run is a separate run.py with its own seed (first-seed, first-seed+1,
...).  The spread is the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median; a metric is steady
when the spread stays under a third of its bound.  setup_s has no spread
limit, only its bound on the median.  With --traced, each seed is also run
with --trace 1 right after its plain run, and the per-layer medians and the
tracing overhead (traced minus untraced op_p50_s, both at reference speed)
are printed.  Run records go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import slowdown

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int, out: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(out.read_text())
    last["wall_op_p50_s"] = statistics.median(record["round_s"])
    last["scaled_op_p50_s"] = statistics.median(
        t / slowdown(g) for t, g in zip(record["round_s"], record["gauge_s"])
    )
    return last


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", action="append", choices=names, help="default: every workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--traced", action="store_true", help="also make one traced run per seed")
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2")

    stamp = time.strftime("%Y%m%d-%H%M%S")
    outdir = HERE / "results" / stamp
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {}
    for workload in args.workload or names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs, traced = [], []
        for s in seeds:  # traced runs interleave with plain ones, so drift hits both alike
            runs.append(one_run(workload, s, args.seconds, 0, outdir / f"{workload}-{s}.json"))
            if args.traced:
                traced.append(one_run(workload, s, args.seconds, 1,
                                      outdir / f"{workload}-{s}-traced.json"))
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s,"
              f" seeds {seeds.start}..{seeds.stop - 1}")
        print(f"  {'metric':24s} {'median':>14s} {'spread':>8s} {'bound':>6s}  verdict")
        rows = {}
        med, sp = spread([r["wall_op_p50_s"] for r in runs])
        print(f"  {'(wall-clock op_p50_s)':24s} {med:14.6f} {sp:8.2%}")
        for m in bench["end_to_end"]:
            med, sp = spread([r["metrics"][m["name"]]["value"] for r in runs])
            limit = None if m["name"] == "setup_s" else m["bound"] / 3
            verdict = "median only" if limit is None else "steady" if sp < limit else "NOT STEADY"
            print(f"  {m['name']:24s} {med:14.6f} {sp:8.2%} {m['bound']:6.0%}  {verdict}"
                  f"  [{m['unit']}]")
            rows[m["name"]] = {"median": med, "spread": sp, "bound": m["bound"]}
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        attempted = [r["attempted"] for r in runs]
        print(f"  attempted per run {min(attempted)}..{max(attempted)}; failed share {shares};"
              f" all correct: {all(r['correct'] for r in runs)}")
        entry = {"runs": runs, "end_to_end": rows}
        if args.traced:
            for m in bench["per_layer"]:
                values = [r["metrics"][m["name"]]["value"] for r in traced]
                print(f"  {m['name']:30s} {statistics.median(values):12.6f} {m['unit']}")
            plain = statistics.median(r["scaled_op_p50_s"] for r in runs)
            with_spans = statistics.median(r["scaled_op_p50_s"] for r in traced)
            print(f"  tracing overhead: op_p50_s {with_spans:.4f} s traced"
                  f" - {plain:.4f} s untraced = {with_spans - plain:+.4f} s"
                  f" ({(with_spans - plain) / plain:+.1%})")
            entry["traced"] = traced
        summary[workload] = entry
    (outdir / "steady.json").write_text(json.dumps(summary, indent=1))
    print(f"\nrecords in {outdir.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
