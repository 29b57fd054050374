"""Per-layer call counts and self time, measured from outside the program.

:class:`LayerTimer` wraps public functions and methods of the ``repro``
package for the duration of a ``with`` block and restores the originals on
exit.  A function is patched at *every* module that bound it by import, so
``trim_outliers`` (defined in :mod:`repro.sequential.assignment`) is timed
also where :mod:`repro.sequential.local_search` calls it through its own
imported name.

Self time is a wrapped call's duration minus the durations of the wrapped
calls nested inside it on the same thread, so the self times of one thread
add up to the time that thread spent inside any wrapped call.  Each thread
keeps its own nesting stack; calls made by other threads are reported, but
kept out of the main thread's sum so that overlapping threads never count
twice.

A target is ``"module:attr"`` for a function or ``"module:Class.method"``
for a method.  A method is patched on the class and on every subclass that
overrides it.  ``context=True`` marks a function returning a context
manager: its enter and exit are timed as one call, since the work of a
``@contextmanager`` function runs there and not in the call itself.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

#: Only modules of this package are searched for imported bindings.
PACKAGE = "repro"


@dataclass(frozen=True)
class Target:
    """One layer function to time: its row name and where it is defined."""

    name: str
    spec: str
    context: bool = False


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in out:
            out.append(current)
            todo.extend(current.__subclasses__())
    return out


class LayerTimer:
    """Context manager recording ``calls`` and ``self_s`` per target name."""

    def __init__(self, targets: Iterable[Target]):
        self.targets = list(targets)
        self.calls: Dict[str, int] = {t.name: 0 for t in self.targets}
        self.self_s: Dict[str, float] = {t.name: 0.0 for t in self.targets}
        #: Main-thread share of ``self_s`` (what the wall-time sum uses).
        self.main_self_s: Dict[str, float] = {t.name: 0.0 for t in self.targets}
        #: Main-thread time inside any outermost wrapped call.
        self.main_covered_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._patches: List[Tuple[object, str, object]] = []

    # -- bookkeeping -------------------------------------------------------

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> float:
        self._stack().append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, start: float, count: bool = True) -> None:
        elapsed = time.perf_counter() - start
        stack = self._stack()
        nested = stack.pop()
        own = elapsed - nested
        main = threading.get_ident() == self._main
        if stack:
            stack[-1] += elapsed
        with self._lock:
            self.calls[name] += count
            self.self_s[name] += own
            if main:
                self.main_self_s[name] += own
                if not stack:
                    self.main_covered_s += elapsed

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, start)

        return wrapper

    def _wrap_context(self, name: str, fn: Callable) -> Callable:
        timer = self

        class _Timed:
            def __init__(self, manager):
                self._manager = manager

            def __enter__(self):
                start = timer._enter()
                try:
                    return self._manager.__enter__()
                finally:
                    timer._exit(name, start, count=False)

            def __exit__(self, *exc):
                start = timer._enter()
                try:
                    return self._manager.__exit__(*exc)
                finally:
                    timer._exit(name, start)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _Timed(fn(*args, **kwargs))

        return wrapper

    # -- patching ----------------------------------------------------------

    @staticmethod
    def _resolve(spec: str) -> Tuple[object, str]:
        """``"module:Class.method"`` -> ``(Class, "method")``; likewise for functions."""
        module_name, _, path = spec.partition(":")
        owner: object = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        return owner, attr

    def _patch(self, holder: object, attr: str, value: object) -> None:
        self._patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def __enter__(self) -> "LayerTimer":
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self._restore()
            raise
        return self

    def _install(self, target: Target) -> None:
        owner, attr = self._resolve(target.spec)
        if isinstance(owner, type):
            # A method: patch the class and every override below it.
            for cls in _subclasses(owner):
                original = cls.__dict__.get(attr)
                if original is not None:
                    self._patch(cls, attr, self._wrap_call(target.name, original))
            return
        original = getattr(owner, attr)
        make = self._wrap_context if target.context else self._wrap_call
        wrapper = make(target.name, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != PACKAGE:
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, wrapper)

    def _restore(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __exit__(self, *exc) -> None:
        self._restore()
