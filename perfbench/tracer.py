"""Traced in-process run of one ``repro`` command.

Wraps the public functions named in :mod:`layers` with timing shims,
bound at every import site (every ``repro`` module attribute that holds
the function, and the class attribute for methods), runs
``repro.cli.main(argv)`` in this process, removes the shims and writes
the per-layer record as JSON.  Spans are kept in memory; nothing is
written until the command has returned.

Usage: python perfbench/tracer.py OUT.json REPRO-ARGS...   (src/ on PYTHONPATH)

The command's stdout is left untouched, so it can be compared byte for
byte with an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pickle
import resource
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from layers import LAYERS

#: Marks a shim; its value is the wrapped original.
SHIM_ATTR = "__perfbench_shim__"


class Recorder:
    """Per-layer self time, outermost-call totals and exact counts."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.paused_s = 0.0
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = defaultdict(int)
        return local.stack, local.depth

    def push(self, layer: str) -> bool:
        """Open a span; True when it is the outermost one of its layer."""
        stack, depth = self._state()
        outermost = depth[layer] == 0
        if outermost:
            self.calls[layer] += 1
        depth[layer] += 1
        stack.append([layer, time.perf_counter(), 0.0, self.paused_s])
        return outermost

    def pop(self) -> None:
        end = time.perf_counter()
        stack, depth = self._state()
        layer, start, child_s, paused_at_start = stack.pop()
        duration = end - start - (self.paused_s - paused_at_start)
        self.self_s[layer] += duration - child_s
        depth[layer] -= 1
        if depth[layer] == 0:
            self.total_s[layer] += duration
        if stack:
            stack[-1][2] += duration

    @contextmanager
    def pause(self):
        """Exclude the shims' own bookkeeping from every open span."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - start


def _rows(value) -> int:
    shape = getattr(value, "shape", ())
    return shape[0] if len(shape) == 2 else 1


class _Hooks:
    """A target's counts (``layers.Count``), each taken at the point of a
    call its kind names.  Binding arguments and pickling run paused, so
    they add nothing to any span or to the traced wall time."""

    def __init__(self, rec: Recorder, target, fn) -> None:
        self._rec = rec
        self._signature = inspect.signature(fn)
        self._on_span, self._on_items = [], []
        self._after, self._every = [], []
        for count in target.counts:
            kind, field = count.kind, count.field
            if kind == "calls":
                self._on_span.append(count.name)
            elif kind == "items":
                self._on_items.append(count.name)
            elif kind == "arg":
                self._after.append((count.name, lambda res, arg, f=field: int(arg[f])))
            elif kind == "arg_rows":
                self._after.append((count.name, lambda res, arg, f=field: _rows(arg[f])))
            elif kind == "result":
                self._after.append((count.name, lambda res, arg, f=field: getattr(res, f)))
            elif kind == "pickled_args":
                self._every.append(count.name)
            else:
                raise ValueError(f"{count.name}: unknown count kind {kind!r}")

    def bind(self, args, kwargs) -> inspect.BoundArguments:
        return self._signature.bind(*args, **kwargs)

    def opened(self, outermost: bool) -> None:
        if outermost:
            for name in self._on_span:
                self._rec.counts[name] += 1

    def yielded(self, chunk) -> None:
        for name in self._on_items:
            self._rec.counts[name] += len(chunk)

    def called(self, args, kwargs) -> None:
        if self._every:
            with self._rec.pause():
                size = len(pickle.dumps(args[1:] + tuple(kwargs.values()), pickle.HIGHEST_PROTOCOL))
                for name in self._every:
                    self._rec.counts[name] += size

    def returned(self, outermost: bool, result, args, kwargs) -> None:
        if outermost and self._after:
            with self._rec.pause():
                arguments = self.bind(args, kwargs).arguments
                for name, value in self._after:
                    self._rec.counts[name] += value(result, arguments)


class _TimedIterator:
    """Times each ``next`` of an iterator as one span of ``layer``."""

    def __init__(self, rec: Recorder, layer: str, hooks: _Hooks, iterator) -> None:
        self._rec, self._layer, self._hooks = rec, layer, hooks
        self._iterator = iter(iterator)

    def __iter__(self):
        return self

    def __next__(self):
        self._hooks.opened(self._rec.push(self._layer))
        try:
            chunk = next(self._iterator)
        finally:
            self._rec.pop()
        self._hooks.yielded(chunk)
        return chunk


def _span(rec: Recorder, layer: str, hooks: _Hooks, fn):
    """``fn`` timed as one span of ``layer`` per call."""

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        hooks.called(args, kwargs)
        outermost = rec.push(layer)
        hooks.opened(outermost)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.pop()
        hooks.returned(outermost, result, args, kwargs)
        return result

    return shim


def _shim_for(rec: Recorder, layer: str, target, fn):
    """The shim for one target, built by its ``span`` kind."""
    hooks = _Hooks(rec, target, fn)
    if target.span == "call":
        shim = _span(rec, layer, hooks, fn)
    elif target.span == "builder":
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            bound = hooks.bind(args, kwargs)
            bound.arguments["builder"] = _span(rec, layer, hooks, bound.arguments["builder"])
            return fn(*bound.args, **bound.kwargs)
    elif target.span == "each_next":
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            result = fn(*args, **kwargs)
            if isinstance(result, tuple):
                return (*result[:-1], _TimedIterator(rec, layer, hooks, result[-1]))
            return _TimedIterator(rec, layer, hooks, result)
    elif target.span == "first_call":
        seen = set()
        timed = _span(rec, layer, hooks, fn)

        @functools.wraps(fn)
        def shim(self, *args, **kwargs):
            key = (id(self), getattr(self, "generation", None))
            if key in seen:
                hooks.called((self, *args), kwargs)
                return fn(self, *args, **kwargs)
            seen.add(key)
            return timed(self, *args, **kwargs)
    else:
        raise ValueError(f"{target.qualname}: unknown span kind {target.span!r}")
    setattr(shim, SHIM_ATTR, fn)
    return shim


class Patches:
    """Installed shims, so they can be removed exactly."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(rec: Recorder) -> tuple[Patches, list[str]]:
    """Bind every layer's shims; also returns the targets the program no
    longer has, so a renamed function empties its layer instead of
    failing the run."""
    patches, missing = Patches(), []
    for module in ("repro.switches.registry", "repro.faults.injector"):
        importlib.import_module(module)
    for layer in LAYERS:
        for target in layer.targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                module = None
            cls_name, _, attr = target.qualname.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                missing.append(f"{target.module}.{target.qualname}")
            elif isinstance(original, property):
                fget = _shim_for(rec, layer.name, target, original.fget)
                patches.set(owner, attr, property(fget, original.fset))
            elif cls_name:
                patches.set(owner, attr, _shim_for(rec, layer.name, target, original))
            else:
                shim = _shim_for(rec, layer.name, target, original)
                for site in _repro_modules():
                    for name, value in list(vars(site).items()):
                        if value is original:
                            patches.set(site, name, shim)
    return patches, missing


def leftover_shims() -> int:
    """Shims still reachable from any ``repro`` module or class."""
    found = 0
    for module in _repro_modules():
        for value in list(vars(module).values()):
            if hasattr(value, SHIM_ATTR):
                found += 1
            if isinstance(value, type):
                for member in vars(value).values():
                    if isinstance(member, property):
                        member = member.fget
                    if hasattr(member, SHIM_ATTR):
                        found += 1
    return found


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    start = time.perf_counter()
    rec.push("cli.import")
    import repro.cli

    rec.pop()
    with rec.pause():
        patches, missing = install(rec)
    try:
        code = repro.cli.main(argv)
    finally:
        wall_s = time.perf_counter() - start - rec.paused_s
        patches.restore()
    leftover = leftover_shims()
    # Join the pool so the workers' CPU time is reaped into RUSAGE_CHILDREN.
    reaped_cpu_s = _children_cpu_s()
    pool = sys.modules.get("repro.engine.backends.pool")
    if hasattr(pool, "shutdown_pools"):
        pool.shutdown_pools()
    record = {
        "exit_code": code,
        "wall_s": wall_s,
        "self_s": dict(rec.self_s),
        "total_s": dict(rec.total_s),
        "calls": dict(rec.calls),
        "counts": dict(rec.counts),
        "worker_cpu_s": _children_cpu_s() - reaped_cpu_s,
        "leftover_shims": leftover,
        "missing_targets": missing,
    }
    with open(out, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
