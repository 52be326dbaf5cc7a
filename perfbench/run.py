#!/usr/bin/env python3
"""Run one kdfkit benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-7 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the traced run. The lines before the last are readable: the
metrics by name and unit, then one ``provenance`` JSON line. The last line is
the result as one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 when every output was correct,
1 when one was not, and 2 when the benchmark cannot run at all (for example
when ``src/kdfkit`` is missing).
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "kdfkit" / "__init__.py").is_file():
        print(f"error: no kdfkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import measure, targets
    if args.workload not in targets.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(targets.WORKLOADS)}")

    report = measure.run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report["result"]
    for name, metric in result["metrics"].items():
        print(f"{name:<44} {metric['value']:>14.6f} {metric['unit']}")
    for name in report["absent"]:
        print(f"{name:<44} {'absent':>14}")
    print(json.dumps({"provenance": report["provenance"]}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
