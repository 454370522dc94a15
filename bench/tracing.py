"""Traced mode: spans around jbstar's public functions, bound from outside.

``Tracer.install`` wraps every function listed in the ``__all__`` of the
layer modules and rebinds it wherever a jbstar module holds it: as a module
attribute (``from .calculus import exp_i``) or as a value of a module-level
dict (the sampler strategy table).  It also counts ``Element``
constructions.  ``remove`` restores the originals, so traced and untraced
rounds can alternate in one process.

A span is (name, parent, start, end, raised), kept in flat arrays while the
run lasts and written to an ``.npz`` file at its end.  A function's self
time is its spans' duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import time
import types
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("kernel", "algebras", "calculus", "peirce", "unitary", "samplers", "preservers", "measures", "cli")
ELEMENT_NEW = "algebras.Element.new"
OVERHEAD = "trace.overhead_pct"


class Tracer:
    def __init__(self, mods: types.SimpleNamespace, package_modules: list[types.ModuleType]):
        self._mods = mods
        self._package = package_modules
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack = [-1]
        self.elements = 0
        self._patches: list[tuple[object, str, object]] = []
        self._targets = []
        for layer in LAYERS:
            module = getattr(mods, layer)
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    self._targets.append((f"{layer}.{attr}", fn))

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        """Open a span; returns its index for ``finish``."""
        i = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int, raised: bool = False) -> None:
        self.end[i] = time.perf_counter()
        self.raised[i] = raised
        self._stack.pop()

    def _wrap(self, name: str, fn):
        fid = self._id(name)
        names, parent, start, end, raised, stack = (
            self.name, self.parent, self.start, self.end, self.raised, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(fid)
            parent.append(stack[-1])
            raised.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for name, fn in self._targets:
            wrapped = self._wrap(name, fn)
            for module in self._package:
                for attr, value in list(vars(module).items()):
                    if attr.startswith("__"):
                        continue
                    if value is fn:
                        self._patches.append((module, attr, fn))
                        setattr(module, attr, wrapped)
                    elif isinstance(value, dict):
                        for key, item in value.items():
                            if item is fn:
                                self._patches.append((value, key, fn))
                                value[key] = wrapped
        element = self._mods.algebras.Element
        post_init = element.__post_init__

        def counted(obj):
            self.elements += 1
            post_init(obj)

        self._patches.append((element, "__post_init__", post_init))
        element.__post_init__ = counted

    def remove(self) -> None:
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(name index, self seconds) per span."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return name, dur - covered

    def layer_metrics(self, rounds: int, scale: float) -> dict[str, float]:
        """Per-round calls, self time (times ``scale``) and raised count of
        every traced function, self time of each layer, and Element
        constructions."""
        name, self_s = self.self_times()
        calls = np.bincount(name, minlength=len(self.names))
        self_ms = np.bincount(name, weights=self_s, minlength=len(self.names)) * 1e3 * scale
        raised = np.bincount(name, weights=np.frombuffer(self.raised, dtype=np.int8), minlength=len(self.names))
        out: dict[str, float] = {}
        layer_ms = dict.fromkeys(LAYERS, 0.0)
        for fid, fname in enumerate(self.names):
            if fname.split(".")[0] not in layer_ms:
                continue  # the benchmark's own round and op spans
            out[f"{fname}.calls"] = calls[fid] / rounds
            out[f"{fname}.self_ms"] = self_ms[fid] / rounds
            out[f"{fname}.raised"] = raised[fid] / rounds
            layer_ms[fname.split(".")[0]] += self_ms[fid] / rounds
        out.update({f"{layer}.self_ms": ms for layer, ms in layer_ms.items()})
        out[ELEMENT_NEW] = self.elements / rounds
        return out

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            raised=np.frombuffer(self.raised, dtype=np.int8),
        )
