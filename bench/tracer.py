"""Outside-in tracer for rirkit's public functions.

The tracer wraps every public function of the traced modules (plus a few
named methods) and rebinds each wrapper under every name that held the
original anywhere in the ``rirkit`` package: module globals, the package's
re-exports, dict values such as the CLI's command table, and class
attributes.  After rebinding it asks the garbage collector who still refers
to each original; any referrer other than the tracer's own bookkeeping is a
binding that would bypass the tracer, and ``install`` raises instead of
letting the traced run under-count silently.

Per wrapped function it keeps call count, total time, self time (total minus
the time spent in wrapped callees) and an optional work count.  Statistics
are aggregated in memory; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import types
from time import perf_counter


class UnwrappedBinding(RuntimeError):
    """A traced function is still reachable through an unwrapped name."""


class Tracer:
    def __init__(self, modules: list[str], methods: list[tuple[str, str]],
                 work: dict):
        """``modules`` are short names under ``rirkit`` (``"transfer"``);
        ``methods`` are ``(class path, method)`` pairs such as
        ``("transfer.RationalTF", "poles")``; ``work`` maps a traced name
        to a function of the call's arguments returning a work count."""
        self._modules = modules
        self._methods = methods
        self._work = work
        self._stack: list[float] = []
        self.stats: dict[str, list[float]] = {}
        self._originals: dict[str, types.FunctionType] = {}
        self._wrappers: dict[str, types.FunctionType] = {}
        self._bindings: list[tuple[object, str, object]] = []
        self._build()

    # -- wrapping ----------------------------------------------------------

    def _targets(self):
        for short in self._modules:
            mod = sys.modules[f"rirkit.{short}"]
            for name, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    yield f"{short}.{name}", obj
        for cls_path, meth in self._methods:
            short, cls_name = cls_path.split(".")
            cls = getattr(sys.modules[f"rirkit.{short}"], cls_name)
            yield f"{cls_path}.{meth}", cls.__dict__[meth]

    def _build(self) -> None:
        for name, fn in self._targets():
            self.stats[name] = [0, 0.0, 0.0, 0]
            self._originals[name] = fn
            self._wrappers[name] = self._wrap(name, fn)

    def _wrap(self, name: str, fn):
        st = self.stats[name]
        stack = self._stack
        work = self._work.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st[0] += 1
            if work is not None:
                st[3] += work(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                st[1] += dt
                st[2] += dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    # -- installing --------------------------------------------------------

    def _namespaces(self):
        """Every mutable namespace in the package that can hold a binding."""
        for modname, mod in list(sys.modules.items()):
            if modname != "rirkit" and not modname.startswith("rirkit."):
                continue
            yield vars(mod)
            for obj in list(vars(mod).values()):
                if isinstance(obj, dict):
                    yield obj
                elif (inspect.isclass(obj)
                      and obj.__module__.startswith("rirkit")):
                    yield obj

    def install(self) -> None:
        self._rebind()
        self._check()  # after _rebind's frame, and its references, are gone

    def _rebind(self) -> None:
        by_id = {id(fn): name for name, fn in self._originals.items()}
        for ns in self._namespaces():
            items = (list(vars(ns).items()) if inspect.isclass(ns)
                     else list(ns.items()))
            for key, val in items:
                name = by_id.get(id(val))
                if name is None:
                    continue
                self._bindings.append((ns, key, val))
                if inspect.isclass(ns):
                    setattr(ns, key, self._wrappers[name])
                else:
                    ns[key] = self._wrappers[name]

    def uninstall(self) -> None:
        for ns, key, val in reversed(self._bindings):
            if inspect.isclass(ns):
                setattr(ns, key, val)
            else:
                ns[key] = val
        self._bindings.clear()

    def _check(self) -> None:
        """Raise if any original is still referenced outside the tracer."""
        allowed = {id(self._originals), id(self._bindings)}
        allowed.update(id(b) for b in self._bindings)
        for w in self._wrappers.values():
            allowed.add(id(w.__dict__))
            allowed.update(id(c) for c in w.__closure__ or ())
        gc.collect()  # drop dead temporaries that still point at originals
        missed = []
        # iterate over names: an items() iterator would itself hold a
        # (name, function) tuple and show up as a referrer
        for name in list(self._originals):
            for ref in gc.get_referrers(self._originals[name]):
                if id(ref) in allowed or isinstance(ref, types.FrameType):
                    continue
                missed.append(f"{name} via {type(ref).__name__} "
                              f"{_describe(ref)}")
        if missed:
            self.uninstall()
            raise UnwrappedBinding("unwrapped bindings: " + "; ".join(missed))

    # -- reading -----------------------------------------------------------

    def reset(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0, 0]

    def snapshot(self) -> dict[str, tuple]:
        return {k: tuple(v) for k, v in self.stats.items()}


def _describe(ref) -> str:
    if isinstance(ref, dict):
        for modname, mod in sys.modules.items():
            if vars(mod) is ref:
                return f"globals of {modname}"
        return f"dict with keys {sorted(map(str, ref))[:5]}"
    return repr(ref)[:80]
