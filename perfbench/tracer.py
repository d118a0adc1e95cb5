"""Per-layer probes for the traced run.

The probes wrap public entry points of the ``hstl`` modules from the
outside, by replacing module and class attributes for the duration of a
traced pass; nothing under ``src/`` is edited.  Every probe keeps, in
memory, its call count, its inclusive busy time (outermost call only,
so recursion is not counted twice) and its self time (inclusive time
minus the time of probes and frames nested inside it).  The self times
of all probes and frames partition the traced time that any of them
covers, which is how the run checks that the layers account for its
wall time.

A probe whose target no longer exists is reported as unmeasured rather
than failing the run.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class ProbeStats:
    calls: int = 0
    time: float = 0.0
    self_time: float = 0.0
    counters: dict = field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point.

    ``targets`` lists ``(module, attribute path)`` pairs that all name
    the same callable, such as a function and the names other modules
    imported it under.  ``only_under`` restricts measurement to calls
    made inside another probe; ``skip_under`` excludes calls made inside
    one (those calls still run, unmeasured, inside their parent).
    ``count`` receives ``(stats, args, result)`` after each measured call.
    """

    name: str
    targets: tuple[tuple[str, str], ...]
    only_under: str | None = None
    skip_under: str | None = None
    count: object = None


class Tracer:
    """Probes plus named frames that the benchmark opens itself with :meth:`call`."""

    def __init__(self, probes: list[Probe], frames: tuple[str, ...] = ()):
        self.probes = probes
        self.names = [p.name for p in probes] + list(frames)
        self.stats = {name: ProbeStats() for name in self.names}
        self.unmeasured: list[str] = []
        self._stack: list[list] = []  # [name, child time]
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        self.unmeasured = []
        for probe in self.probes:
            resolved = []
            for module_name, path in probe.targets:
                owner, attr = _resolve_owner(module_name, path)
                if owner is None or not callable(getattr(owner, attr, None)):
                    resolved = None
                    break
                resolved.append((owner, attr))
            if not resolved:
                self.unmeasured.append(probe.name)
                continue
            original = getattr(*resolved[0])
            wrapper = self._wrap(probe, original)
            for owner, attr in resolved:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        self.stats = {name: ProbeStats() for name in self.names}
        self._stack = []

    def _active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _wrap(self, probe: Probe, fn):
        tracer = self
        name = probe.name

        def wrapper(*args, **kwargs):
            if (probe.only_under and not tracer._active(probe.only_under)) or (
                probe.skip_under and tracer._active(probe.skip_under)
            ):
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs, probe.count)

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        """Run ``fn`` inside a frame named ``name`` and record it."""
        stack = self._stack
        outermost = not self._active(name)
        frame = [name, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            stats = self.stats[name]
            if outermost:
                stats.calls += 1
                stats.time += elapsed
            stats.self_time += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
        if count is not None and outermost:
            count(stats, args, result)
        return result


def _resolve_owner(module_name: str, path: str):
    """(object holding the attribute, attribute name), or (None, None)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, attr
