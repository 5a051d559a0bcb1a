"""Tests of the benchmark's tracer.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import sys

import numpy.linalg
import scipy.linalg

import tracing
import workloads
from tracing import Span, Tracer, aggregate, self_times


def _snapshot():
    """Every attribute the tracer may patch, keyed by (owner, name)."""
    snap = {}
    for mod in tracing._bscount_modules():
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if isinstance(obj, type) and "__post_init__" in vars(obj):
                snap[(f"{mod.__name__}.{attr}", "__post_init__")] = vars(obj)["__post_init__"]
    for owner, attr, _ in tracing.LEAF_CALLS:
        snap[(owner, attr)] = getattr(sys.modules[owner], attr)
    return snap


def _traced_small_corpus(tmp_path):
    build, run, _ = workloads.WORKLOADS["small_corpus"]
    inputs = build(7)
    with Tracer() as tracer:
        run(inputs, str(tmp_path))
    return tracer


def test_traced_pass_restores_every_patched_attribute(tmp_path):
    before = _snapshot()
    tracer = Tracer().install()
    try:
        assert sys.modules["bscount.cli"].count_evs is not before[("bscount.cli", "count_evs")]
        assert numpy.linalg.eigh is not before[("numpy.linalg", "eigh")]
    finally:
        tracer.uninstall()
    _traced_small_corpus(tmp_path)
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert scipy.linalg.solveh_banded is before[("scipy.linalg", "solveh_banded")]


def test_self_time_with_nested_adjacent_and_overlapping_children():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 0, "m"),
        Span(2, "a", 1.0, 3.0, 1, 0, "m"),
        Span(3, "a.leaf", 1.5, 2.5, 2, 0, "m"),   # nested: counts against a only
        Span(4, "b", 3.0, 5.0, 1, 0, "m"),        # adjacent to a
        Span(5, "c", 4.0, 6.0, 1, 0, "m"),        # overlaps b (another thread)
        Span(6, "d", 9.0, 12.0, 1, 0, "m"),       # runs past the parent's end
    ]
    selfs = self_times(spans)
    assert selfs[1] == 10.0 - (6.0 - 1.0) - (10.0 - 9.0)
    assert selfs[2] == 2.0 - 1.0
    assert selfs[3] == 1.0
    assert selfs[4] == 2.0 and selfs[5] == 2.0 and selfs[6] == 3.0
    agg = aggregate(spans)
    assert agg["root"]["calls"] == 1 and agg["root"]["self_s"] == 4.0


def test_traced_small_corpus_sees_count_evs_from_cli_and_bsengine(tmp_path):
    tracer = _traced_small_corpus(tmp_path)
    callers = {s.caller for s in tracer.spans if s.name == "linop.count_evs"}
    assert {"bscount.cli", "bscount.bsengine"} <= callers
    by_id = {s.sid: s for s in tracer.spans}
    # spans made in the CLI's worker threads hang under the submitting cli.run
    kernel_points = [s for s in tracer.spans if s.name == "radial.resolvent_power_kernel"]
    assert kernel_points
    assert all(by_id[s.parent].name == "cli.run" for s in kernel_points)
