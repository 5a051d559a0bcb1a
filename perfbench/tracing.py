"""Span tracing for the benchmark, installed from outside the library.

``Tracer`` wraps the public functions of every ``bscount.*`` module, the
``__post_init__`` validators of its dataclasses, and the numpy/scipy
eigensolver and banded-solve entry points (as leaf spans).  Names bound at
import time (``from .linop import count_evs`` in ``cli``) are patched in every
``bscount`` namespace that holds them, and every patch is undone on exit.

Each span records its name, start, end, parent span, pass id, the module
that made the call and the dimension of its first argument when that is an
operator or an array.  Spans
stay in memory; ``self_times`` and ``aggregate`` turn them into per-layer
numbers after the pass.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

import numpy as np

LAYERS = ("linop", "bsengine", "iterbs", "radial", "efimov", "cli")

# (module, attribute, span name) of the solver entry points traced as leaves
LEAF_CALLS = (
    ("numpy.linalg", "eigh", "lapack.eigh"),
    ("numpy.linalg", "eigvalsh", "lapack.eigvalsh"),
    ("scipy.linalg", "eigvalsh_tridiagonal", "lapack.eigvalsh_tridiagonal"),
    ("scipy.linalg", "solveh_banded", "lapack.solveh_banded"),
)


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    caller: str
    dim: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children (from worker threads) are counted once.
    """
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = s.duration - covered
    return out


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, total (inclusive) and self seconds, and the
    calls and seconds per matrix dimension, largest self time first."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "by_dim": {}})
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += selfs[s.sid]
        if s.dim:
            cell = row["by_dim"].setdefault(s.dim, {"calls": 0, "s": 0.0})
            cell["calls"] += 1
            cell["s"] += s.duration
    return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_s"]))


def _dim(x) -> int:
    """Dimension of an operator-like argument: ``.dim`` or the last axis."""
    if isinstance(x, np.ndarray):
        return int(x.shape[-1]) if x.ndim else 0
    dim = getattr(x, "dim", None)
    return dim if isinstance(dim, int) else 0


def _bscount_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bscount" or name.startswith("bscount."))]


class Tracer:
    """Context manager that records spans while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- span stack, one per thread ---------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, validator=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            # a validator runs before its object is complete, so read no
            # dimension off it, and name the caller of the dataclass __init__
            caller = sys._getframe(2 if validator else 1).f_globals.get("__name__", "?")
            dim = _dim(args[0]) if args and not validator else 0
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent,
                                       self.pass_id, caller, dim))

        return wrapper

    def _adopt(self, parent, fn, *args, **kwargs):
        """Run ``fn`` in a pool thread as a child of the submitting span."""
        stack = self._stack()
        saved = list(stack)
        stack[:] = [] if parent is None else [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    def _traced_pool(self, base):
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                return super().submit(tracer._adopt, parent, fn, *args, **kwargs)

        return TracedPool

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install(self):
        import numpy.linalg  # noqa: F401  (make sure the owners are loaded)
        import scipy.linalg  # noqa: F401
        import bscount.cli  # noqa: F401  (loads every layer)

        wrappers = {}  # original function -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"bscount.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    # the dataclass __init__ looks the validator up on the class;
                    # the name of the class itself stays bound for isinstance
                    self._patch(obj, "__post_init__", self._wrap(
                        f"{layer}.{attr}", vars(obj)["__post_init__"], validator=True))
        for mod in _bscount_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        cli = sys.modules["bscount.cli"]
        self._patch(cli, "ThreadPoolExecutor", self._traced_pool(cli.ThreadPoolExecutor))
        for owner_name, attr, span_name in LEAF_CALLS:
            owner = sys.modules[owner_name]
            self._patch(owner, attr, self._wrap(span_name, getattr(owner, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False
