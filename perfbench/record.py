"""Re-record ``perfbench/reference.json``: the values the benchmark checks against.

Usage (from the repository root)::

    python3 perfbench/record.py ber               # reference BER and FER per BER workload
    python3 perfbench/record.py table1            # Table-I fidelity ceilings
    python3 perfbench/record.py split --seed 0 --seconds 20   # traced layer split

Each section is merged into the existing file; sections not named are kept.
Re-record only when a change is *meant* to move these values, and say so.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference.json"

REFERENCE_SEED = 1_000_003
#: Batches recorded per BER workload.
RECORD_BATCHES = {"ber_ldpc576_fx": 400, "ber_ctc2400": 120}
#: Candidate factors on the measured design effect; the smallest one whose
#: resampled false-failure rate stays under FALSE_FAIL_MAX at every run size
#: is recorded.  Two checks per run, so a workload's ~50 runs fail falsely
#: with a chance of about 5% at most.
MARGINS = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
FALSE_FAIL_MAX = 5e-4
RESAMPLES = 40_000


def _run_batches(name: str) -> tuple[int, int]:
    """Batches one run checks: the workload's minimum, and a full quiet-host run."""
    from perfbench import ber
    from perfbench.common import HostSpeed

    spec = ber.WORKLOADS[name]
    return spec.min_ops, spec.full_run_ops


def _error_rate(batch_errors: list[int], trials: int, run_batches: tuple[int, ...]) -> dict:
    """Reference rate, design effect and check margin of one error statistic.

    ``batch_errors`` holds one count per recorded batch of ``trials``
    trials.  The margin comes from resampling the batches into runs of
    ``run_batches`` batches and counting how many fall outside the check's
    interval.  ``fails_above_x`` is the upper edge of that interval for the
    longest run, as a multiple of the reference rate: a run whose rate
    exceeds it fails.
    """
    import numpy as np

    from repro.sim.stats import wilson_interval

    from perfbench.ber import within_reference

    errors = np.asarray(batch_errors, dtype=np.float64)
    count = len(errors)
    rate = errors.sum() / (count * trials)
    measured = float(np.var(errors / trials, ddof=1) / (rate * (1.0 - rate) / trials))
    rng = np.random.default_rng(0)
    resampled = {
        k: errors[rng.integers(count, size=(RESAMPLES, k))].sum(axis=1) for k in run_batches
    }

    def false_fail(margin: float) -> float:
        reference = {"rate": rate, "design_effect": margin * measured}
        worst = 0.0
        for k, sums in resampled.items():
            outside = {
                e: not within_reference(int(e), int(k * trials), reference)
                for e in np.unique(sums)
            }
            worst = max(worst, float(np.mean([outside[e] for e in sums])))
        return worst

    rates = {margin: false_fail(margin) for margin in MARGINS}
    margin = next((m for m in MARGINS if rates[m] <= FALSE_FAIL_MAX), MARGINS[-1])
    n_eff = max(run_batches) * trials / (margin * measured)
    _, upper = wilson_interval(rate * n_eff, n_eff, 0.99)
    return {
        "batch_errors": [int(e) for e in errors],
        "trials_per_batch": int(trials),
        "rate": float(rate),
        "measured_design_effect": round(measured, 2),
        "margin": margin,
        "design_effect": round(margin * measured, 2),
        "false_fail_rate": {str(m): round(r, 5) for m, r in rates.items()},
        "fails_above_x": round(float(upper / rate), 2),
    }


def _ber() -> dict:
    """Reference BER and FER per BER workload, from ``RECORD_BATCHES`` batches."""
    from perfbench import ber
    from perfbench.common import HostSpeed

    out = {}
    for name, count in RECORD_BATCHES.items():
        chain, _ = ber._setup(ber.WORKLOADS[name], HostSpeed())
        points = [
            chain.runner(REFERENCE_SEED, i).run_point(chain.spec.ebn0_db) for i in range(count)
        ]
        out[name] = {"ebn0_db": chain.spec.ebn0_db, "batches": count}
        for stat, (error_field, trial_field) in ber.ERROR_RATES.items():
            trials = {getattr(p, trial_field) for p in points}
            assert len(trials) == 1, "every batch carries the same number of trials"
            errors = [getattr(p, error_field) for p in points]
            out[name][stat] = _error_rate(errors, trials.pop(), _run_batches(name))
    return out


def _table1() -> dict:
    from perfbench import noc

    code = noc.table1_code()
    points = noc.sweep(code)
    mbps, area, cells = noc.table1_errors(points)
    return {"cells": cells, "mbps_err_pct_max": round(mbps, 6), "area_err_pct_max": round(area, 6)}


def _split(seed: int, seconds: float) -> dict:
    from perfbench.common import host_fingerprint
    from perfbench.run import WORKLOADS

    split = {}
    for name in WORKLOADS:
        command = [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        split[name] = {k: round(v["value"], 6) for k, v in metrics.items() if v["value"]}
        print(name, split[name], flush=True)
    return {"host": host_fingerprint(), "seed": seed, "seconds": seconds, "workloads": split}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("section", choices=("ber", "table1", "split"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if args.section == "ber":
        reference["ber"] = _ber()
    elif args.section == "table1":
        reference["table1"] = _table1()
    else:
        reference["layer_split"] = _split(args.seed, args.seconds)
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    for name, entry in reference.get("ber", {}).items():
        for stat in ("ber", "fer"):
            summary = {k: v for k, v in entry[stat].items() if k != "batch_errors"}
            print(name, stat, summary, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
