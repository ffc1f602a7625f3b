"""One-off reference figures that no workload includes, each taken in a
fresh interpreter:

- building cyclic:4096 (the default order cap): wall time and peak RSS;
- right transversals of Z32 with |H|=2 (65,536 sets): search against oracle.

    python3 perfbench/reference.py

They take about a minute; a workload would spend its whole run on one of
them, which is why they are figures in the README rather than workloads.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def build_4096() -> dict:
    import groupkit

    start = time.perf_counter()
    g = groupkit.build_group({"kind": "cyclic", "n": 4096})
    seconds = time.perf_counter() - start
    assert g.order == 4096
    return {"cyclic:4096 build_s": seconds,
            "cyclic:4096 peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def z32_search_vs_oracle() -> dict:
    import groupkit
    from groupkit import oracle

    g = groupkit.build_group({"kind": "cyclic", "n": 32})
    h = groupkit.parse_subset(g, "0,16")
    start = time.perf_counter()
    found = groupkit.enumerate_all_right_transversals(h)
    search_s = time.perf_counter() - start
    start = time.perf_counter()
    truth = oracle.all_right_transversals(h)
    oracle_s = time.perf_counter() - start
    assert found == truth and len(truth) == 2 ** 16
    return {"Z32 |H|=2 search_s": search_s, "Z32 |H|=2 oracle_s": oracle_s,
            "Z32 |H|=2 search_over_oracle": search_s / oracle_s}


FIGURES = {"build-4096": build_4096, "z32": z32_search_vs_oracle}


def main() -> int:
    if len(sys.argv) == 2 and sys.argv[1] in FIGURES:
        sys.path.insert(0, str(ROOT / "src"))
        print(json.dumps(FIGURES[sys.argv[1]]()))
        return 0
    env = {k: v for k, v in os.environ.items() if not k.startswith("GROUPKIT_")}
    env["PYTHONHASHSEED"] = "0"
    for name in FIGURES:
        out = subprocess.run([sys.executable, __file__, name], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=600, check=True).stdout
        for key, value in json.loads(out).items():
            print(f"{key:32s} {value:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
