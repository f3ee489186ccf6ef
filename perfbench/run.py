"""Run one benchmark workload and print its result as the last line of stdout.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ber_ldpc576_fx --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program under test is
imported from ``src/`` next to this directory; without it the run fails
before printing a result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ber_ldpc576_fx", "ber_ctc2400", "service_radio_frames", "noc_table1")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench.common import print_result

    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    if args.workload.startswith("ber_"):
        from perfbench import ber as module
    elif args.workload == "service_radio_frames":
        from perfbench import serving as module
    else:
        from perfbench import noc as module
    result = module.run(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
