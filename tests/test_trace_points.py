"""perfbench's trace wraps kdfkit's entry points by module and name.

A point that a change removes or renames is skipped silently at run time, and
its layer reports less time, or goes absent only when every point of the
layer is gone. This holds ``src`` to every point the trace names.
"""

from pathlib import Path

import kdfkit.cli  # noqa: F401  loads every kdfkit module the trace wraps

ROOT = Path(__file__).resolve().parents[1]

# Wrap points the benchmark still names for code deleted before it.
STALE_POINTS = {"kdfkit.primitives.HashSpec.digest"}


def test_every_traced_entry_point_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import tracer

    assert set(tracer.missing_points()) <= STALE_POINTS
