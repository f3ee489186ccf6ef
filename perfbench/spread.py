"""Steadiness check: run workloads on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workloads ber_ctc2400 --seeds 0-9 [--out runs.json] [--record]

For every end-to-end metric it prints the median and the interquartile
range as a share of the median (``statistics.quantiles(values, n=4)``), next
to a third of the bound ``BENCHMARK.json`` fixes for it.  Runs are
sequential, one process at a time, so they do not disturb each other.
``--record`` stores the medians and spreads, with the host fingerprint, in
the ``steadiness`` section of ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    worst = 0.0
    for workload in args.workloads:
        runs[workload] = []
        for seed in _seeds(args.seeds):
            command = [sys.executable, str(ROOT / bench["command"][1]), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                       "--trace", "0"]
            start = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - start
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            runs[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={wall:.1f}s", flush=True)
        for name in runs[workload][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid if mid else 0.0
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            summary.setdefault(workload, {"seeds": args.seeds})[name] = {
                "median": round(mid, 6), "spread": round(spread, 4)
            }
            print(f"  {name:32s} median {mid:12.6g}  spread {spread:7.2%}"
                  + (f"  (bound/3 {bound / 3:.2%})" if bound is not None else ""))
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    if args.record:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
        from perfbench.common import host_fingerprint

        path = ROOT / "perfbench" / "reference.json"
        reference = json.loads(path.read_text())
        section = reference.setdefault("steadiness", {})
        section["host"] = host_fingerprint()
        section["run_seconds"] = bench["run_seconds"]
        section.setdefault("end_to_end", {}).update(summary)
        path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"worst spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
