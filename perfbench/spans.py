"""Spans around every public doldseq function, installed from outside the package.

`Tracer.install` wraps each public function of the six layer modules and
rebinds the wrapper in every doldseq namespace that holds the original
(``dold`` keeps its own ``mobius``, ``divisors`` and ``factorize`` bound
from ``numth``, for instance).  The public methods of ``ModPoly`` and
``SequenceView`` are wrapped on their classes.  Spans (name, start, end,
parent) are kept in memory for one request; `Tracer.collect` then folds
them into per-name call counts and self times.  Untraced runs never call
`install`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

LAYERS = ("numth", "polyring", "factorint", "recurrence", "dold", "cli")
CLASSES = {"polyring": ("ModPoly",), "recurrence": ("SequenceView",)}
TERM = "recurrence.SequenceView.term"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.child_calls: Counter[tuple[str, str]] = Counter()  # (parent name, child name)
        self.term_bits_max = 0

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends, stack = self._name, self._parent, self._start, self._end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if name == TERM and result.bit_length() > self.term_bits_max:
                self.term_bits_max = result.bit_length()
            return result

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        package = importlib.import_module("doldseq")
        modules = {layer: importlib.import_module(f"doldseq.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._rebind(ns, key, wrapped)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    name = f"{layer}.{cls_name}.{attr}"
                    if isinstance(raw, staticmethod):
                        self._rebind(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
                    elif inspect.isfunction(raw):
                        self._rebind(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def collect(self) -> None:
        """Fold the spans recorded so far into the totals and drop them.

        A span's self time is its duration minus the durations of its
        direct children; spans nest because every call is synchronous.
        """
        ids, parents, starts, ends = self._name, self._parent, self._start, self._end
        n = len(ids)
        covered = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        names = self.names
        for i in range(n):
            name = names[ids[i]]
            self.calls[name] += 1
            self.self_s[name] += ends[i] - starts[i] - covered[i]
            p = parents[i]
            if p >= 0:
                self.child_calls[names[ids[p]], name] += 1
        for buf in (ids, parents, starts, ends):
            del buf[:]

    def layer_self_s(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix + "."))
