"""Spans around calls into the program's public functions, timed from outside.

``Tracer.install`` replaces each public function of the package's modules
with a wrapper in every module namespace that holds it, including the
names ``neurofuzzy.cli`` and the package itself import, and wraps the
membership-function methods on their classes and the ``numpy.linalg``
functions.  Each call records one span (name, start, end, parent) in
memory while ``recording`` is on; ``uninstall`` puts the originals
back.  A name that no longer exists is skipped, so its counters read
zero instead of failing.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy.linalg

LAYERS = ("fuzzy", "anfis", "mlp", "metrics", "data", "model_io")
MF_METHODS = ("degree", "degree_and_param_grads", "with_params")
# span names that merge several functions into one layer counter
ALIASES = {"data.binarize": "data.encode", "data.passthrough": "data.encode"}
LINALG_SPAN = "anfis.linalg"


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self._stack = []
        self._patches = []     # (owner, attribute, original)
        self.enabled = False

    @contextlib.contextmanager
    def recording(self):
        """Record spans only inside this block (the timed program calls)."""
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
        return traced

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "neurofuzzy"
                                         or name.startswith("neurofuzzy."))]
        for layer in LAYERS:
            module = sys.modules.get(f"neurofuzzy.{layer}")
            if module is None:
                continue
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                if inspect.isclass(obj):
                    for method in MF_METHODS if layer == "fuzzy" else ():
                        if method in vars(obj):
                            self._patch(obj, method, self._wrap(
                                f"fuzzy.{method}", vars(obj)[method]))
                elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    wrapped = self._wrap(name, obj)
                    for holder in modules:
                        for key, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, key, wrapped)
        for attr in numpy.linalg.__all__:
            obj = getattr(numpy.linalg, attr)
            if callable(obj) and not inspect.isclass(obj):
                self._patch(numpy.linalg, attr, self._wrap(LINALG_SPAN, obj))
        cli = sys.modules.get("neurofuzzy.cli")
        if cli is not None and hasattr(cli, "main"):
            self._patch(cli, "main", self._wrap("cli", cli.main))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self):
        """Per span name: calls, inclusive seconds and self seconds.

        A span nested in a span of the same name (a shape's ``degree``
        called from its own gradient method) adds to the calls but not
        again to the inclusive time.
        """
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            self_time[name] += end - start
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += end - start
        return calls, inclusive, self_time

    def dump(self):
        """The spans in a compact JSON-ready form."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}
