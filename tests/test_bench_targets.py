"""Every library name the benchmark wraps still exists, and unwrapping restores it.

The traced benchmark run wraps module-level names of ``vulncontext`` from
outside ``src/``; a refactor that deletes or renames one of them breaks that
run.  Installing and uninstalling the wrappers here catches it in the unit
tests, in well under a second, without running the benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402
import spans  # noqa: E402


def _current(target: str):
    return getattr(*spans.resolve(target))


def test_benchmark_wraps_existing_names_and_restores_them():
    recorder = spans.Recorder()
    try:
        bench.install_layers(recorder)
        wrappers = {target: _current(target) for target in recorder.targets}
    finally:
        recorder.uninstall()
    assert len(wrappers) == len(recorder.targets) >= 19
    for target, wrapper in wrappers.items():
        assert _current(target) == wrapper.__wrapped__, target
