"""The benchmark's traced run wraps library functions by name.

``perfbench/smoke.py`` exercises the traced runs end to end but takes
about a minute; this binds and restores every traced name in a second,
so a rename in the library fails here instead of breaking ``--trace 1``.
"""

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import tracer  # noqa: E402


def test_tracer_binds_and_restores_every_name():
    with tracer.Patch() as patch:
        tracer.instrument(patch, tracer.Recorder())
    assert patch.restored()
