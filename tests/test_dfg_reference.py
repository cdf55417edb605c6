"""The data-flow graph against ``reference_dfg``, and its memory bound.

``graphs._build_dfg`` replays only the steps that change the graph; the
reference walks every definition site's list of reached uses.  Both must give
the same nodes (ids, order and every field) and the same edges in the same
order.
"""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import given, settings

from fixtures import (
    CONTROL_PLUMBING,
    FIXTURE_CORPUS,
    GOTO_TANGLES,
    STATEMENT_CYCLES,
    TYPE_PLUMBING,
    c_functions,
    reference_parse,
)

from vulncontext.graphs import SourceFunction, _HeaderTypedefParser, parse

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

# Large-grid sizes are divided by this, so the quadratic reference stays cheap.
GRID_SHRINK = 8


def _assert_matches_reference(fn: SourceFunction) -> None:
    dfg = parse(fn).dfg
    expected = reference_parse(fn).dfg
    assert [astuple(n) for n in dfg.nodes] == [astuple(n) for n in expected.nodes], fn.id
    assert [astuple(e) for e in dfg.edges] == [astuple(e) for e in expected.edges], fn.id


def test_fixture_sources_match_the_reference():
    codes = [code for _name, code in FIXTURE_CORPUS]
    codes += [*GOTO_TANGLES, *STATEMENT_CYCLES, TYPE_PLUMBING, CONTROL_PLUMBING]
    for i, code in enumerate(codes):
        _assert_matches_reference(SourceFunction(id=f"fixture{i}", code=code))


@pytest.mark.parametrize("shape, size", workloads.LARGE_GRID)
def test_large_grid_shapes_match_the_reference(shape, size):
    generated = workloads.large_function(random.Random(f"dfg:{shape}:{size}"), 0, shape, size // GRID_SHRINK, "benign")
    _assert_matches_reference(SourceFunction(id=generated.id, code=generated.code))


def test_small_pairs_match_the_reference():
    rng = random.Random("dfg:small")
    fns = []
    for serial, target in enumerate(workloads.small_sizes(rng, 100)):
        fns += [SourceFunction(id=g.id, code=g.code) for g in workloads.small_pair(rng, serial, target)]
    assert len(fns) == 200
    for fn in fns:
        _assert_matches_reference(fn)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fn=c_functions())
def test_generated_functions_match_the_reference(fn):
    _assert_matches_reference(fn)


def _traced_peak(call) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Sites reached by many uses once cost memory in proportion to the
# (site, reached use) pairs: 18.5 times pycparser's own peak on ifs 600.
@pytest.mark.parametrize("shape, size", [("ifs", 600), ("nested", 400), ("straight", 3000)])
def test_parse_peak_stays_within_six_times_pycparsers(shape, size):
    code = workloads.large_function(random.Random(0), 0, shape, size, "benign").code
    fn = SourceFunction(id=f"{shape}-{size}", code=code)
    ours = _traced_peak(lambda: parse(fn))
    pycparser = _traced_peak(lambda: _HeaderTypedefParser().parse(code))
    assert ours < 6 * pycparser, (fn.id, ours / pycparser)
