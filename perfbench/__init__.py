"""Benchmark of kdfkit's seven paper targets, with an outside-in primitive trace.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload from ``targets.WORKLOADS`` in a single process and thread.
It makes closed-loop, one-shot, sequential calls with one caller and checks
every output. It prints the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) as the last line of standard output.
The benchmark imports ``kdfkit`` from the ``src`` directory beside this
package and changes none of its modules. The trace wraps their entry points
at run time (see ``tracer``).
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
