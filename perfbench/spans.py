"""Spans and counts around calls into smbraid's layers, installed at run time.

`Tracer.install()` replaces the public functions of the six modules `cli`,
`analysis`, `phi`, `reps`, `words` and `algebra` (and the public methods and
operators of their classes) with wrappers that count every call and record a
span -- name, start, end, parent -- for each call that crosses from one layer
into another.  Every module binding of a wrapped function is replaced, so
calls through `from .x import f` names are seen too.  `uninstall()` puts the
originals back.

`scalars` is not wrapped: its calls are too small and too many for a wrapper
to stay cheap, so scalar work is inside the self time of the layer that asks
for it, and `profile_scalars` gives the scalar numbers from cProfile instead.
"""

from __future__ import annotations

import cProfile
import enum
import functools
import gzip
import inspect
import os
import pstats
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cli", "analysis", "phi", "reps", "words", "algebra")
_OPERATORS = ("__init__", "__mul__", "__add__")


class Tracer:
    """Spans live in flat arrays, one entry per span: name id, parent span
    (-1 at the root), start and end in ns, and the query index."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.query_of = array("i")
        self.counts: Counter = Counter()
        self.query = 0
        self._stack: list = []  # (span id, layer) of the open spans
        self._patched: list = []
        self._search_keys: set | None = None

    # --- recording -----------------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        sid = len(self.start)
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.query_of.append(self.query)
        self.end.append(0)
        self._stack.append((sid, layer))
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        """A call from another layer opens a span; a call from inside the same
        layer is only counted, which leaves every layer's self time as it is."""
        tracer = self
        layer = name.split(".", 1)[0]
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    tracer.counts[name] += 1
                    boundary = not tracer._stack or tracer._stack[-1][1] != layer
                    sid = tracer._open(name, layer) if boundary else -1
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        if boundary:
                            tracer._close(sid)
                    tracer.counts[name + ":items"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            tracer._before(name, fn, args, kwargs)
            result = None
            try:
                if tracer._stack and tracer._stack[-1][1] == layer:
                    result = fn(*args, **kwargs)
                else:
                    sid = tracer._open(name, layer)
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        tracer._close(sid)
                return result
            finally:
                tracer._after(name, result)

        return wrapper

    def _before(self, name: str, fn, args: tuple, kwargs: dict) -> None:
        if name == "analysis.kernel_search_sm2":
            bounds = inspect.signature(fn).bind(*args, **kwargs).arguments
            self.counts["grid_cells"] += (bounds["p_max"] + 1) * (2 * bounds["q_max"] + 1)
        elif name == "analysis.find_scalar_witness":
            self._search_keys = set()

    def _after(self, name: str, result) -> None:
        """Runs after the call returns or raises (then `result` is None)."""
        if name == "algebra.element_key" and self._search_keys is not None and result is not None:
            self._search_keys.add(result)
            self.counts["search_evaluated"] += 1
        elif name == "analysis.find_scalar_witness":
            self.counts["search_distinct"] += len(self._search_keys)
            self._search_keys = None

    # --- installing ------------------------------------------------------------------

    def install(self, package: str = "smbraid") -> None:
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                    self._wrap_class(layer, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._patch(module, attr, replaced[obj])

    def _wrap_class(self, layer: str, cls) -> None:
        fields = getattr(cls, "__dataclass_fields__", {})
        for attr, raw in list(vars(cls).items()):
            if attr in fields or (attr.startswith("_") and attr not in _OPERATORS):
                continue
            if attr == "__init__" and fields:
                continue  # generated dataclass constructors
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- summaries --------------------------------------------------------------------

    def self_ns(self) -> Counter:
        """Per-layer self time: each span's duration minus its child spans."""
        child = [0] * len(self.start)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        out: Counter = Counter()
        for sid, nid in enumerate(self.name_id):
            layer = self.names[nid].split(".", 1)[0]
            out[layer] += self.end[sid] - self.start[sid] - child[sid]
        return out

    def inclusive_ns(self, name: str) -> int:
        """Total duration of the spans called `name` (calls from other layers)."""
        nid = self._name_ids.get(name)
        return sum(e - s for i, s, e in zip(self.name_id, self.start, self.end) if i == nid)

    def method_calls(self, layer: str, method: str) -> int:
        """Calls of `method` on any class of `layer`."""
        total = 0
        for name, calls in self.counts.items():
            parts = name.split(".")
            if len(parts) == 3 and parts[0] == layer and parts[2] == method:
                total += calls
        return total

    def write(self, path: str) -> None:
        """Gzipped TSV, one line per span: id, parent, query, start ns, end ns, name."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tquery\tstart_ns\tend_ns\tname\n")
            for sid, nid in enumerate(self.name_id):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.query_of[sid]}\t"
                    f"{self.start[sid]}\t{self.end[sid]}\t{self.names[nid]}\n"
                )


def profile_scalars(run) -> dict:
    """Run `run()` under cProfile and total the scalar layer: self time and
    calls of smbraid/scalars.py, with the stdlib fractions module counted as
    part of it, plus the Fraction and LaurentPoly constructor calls."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    scalars_file = os.path.join("smbraid", "scalars.py")
    out = {"self_s": 0.0, "calls": 0, "fraction_new": 0, "laurent_new": 0}
    for (filename, _, func), (_, ncalls, tottime, _, _) in pstats.Stats(prof).stats.items():
        in_scalars = filename.endswith(scalars_file)
        in_fractions = filename.endswith(os.path.join("", "fractions.py"))
        if in_scalars or in_fractions:
            out["self_s"] += tottime
        if in_scalars:
            out["calls"] += ncalls
            if func == "__init__":
                out["laurent_new"] += ncalls
        if in_fractions and func == "__new__":
            out["fraction_new"] += ncalls
    return out
