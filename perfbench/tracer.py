"""Span tracer for the benchmark's traced pass.

The tracer wraps public methods of the simulator's layers at class
level, and module-level functions at every ``repro`` module that
imported them, records one span per call, and puts every original back
when :meth:`Tracer.restore` runs.  Nothing inside ``src/`` knows about
it: the spans sit on the calls into each layer, seen from outside.

A span's *self time* is its duration minus the time of the spans nested
directly inside it.  ``Topology.recompute`` runs lazily wherever the
adjacency is first read in a step (usually inside
``BatchAgentEngine.step_agents``), so its time is subtracted from that
caller.  Self times are only accumulated for spans opened inside the
root span ``sim.engine.step``; they therefore sum to the root's total.
Spans outside a step (network generation, world construction) keep only
their inclusive totals.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["ROOT", "SPANS", "Tracer"]

#: the span every per-step self time is nested in.
ROOT = "sim.engine.step"

#: span name -> (module, ``Class.method`` or ``function``).
SPANS: Dict[str, Tuple[str, str]] = {
    ROOT: ("repro.sim.engine", "TimeStepEngine.step"),
    "net.topology.advance": ("repro.net.topology", "Topology.advance"),
    "net.topology.recompute": ("repro.net.topology", "Topology.recompute"),
    "net.topology.consistency_problems": (
        "repro.net.topology",
        "Topology.consistency_problems",
    ),
    "sim.invariants.check_now": ("repro.sim.invariants", "InvariantChecker.check_now"),
    "core.batch.step_agents": ("repro.core.batch", "BatchAgentEngine.step_agents"),
    "routing.connectivity.connected": (
        "repro.routing.connectivity",
        "FunctionalConnectivity.connected",
    ),
    "routing.table.expire_all": ("repro.routing.table", "TableBank.expire_all"),
    "traffic.plane.step": ("repro.traffic.plane", "TrafficPlane.step"),
    "core.mapping_agents.observe": ("repro.core.mapping_agents", "MappingAgent.observe"),
    "core.mapping_agents.choose_next": (
        "repro.core.mapping_agents",
        "MappingAgent.choose_next",
    ),
    "core.comms.exchange_mapping_knowledge": (
        "repro.core.comms",
        "exchange_mapping_knowledge",
    ),
    "core.knowledge.absorb": ("repro.core.knowledge", "TopologyKnowledge.absorb"),
    "core.migration.attempt_hop": ("repro.core.migration", "ReliableMigration.attempt_hop"),
    "mapping.metrics.record": ("repro.mapping.metrics", "KnowledgeTracker.record"),
    "net.generator.generate_manet": ("repro.net.generator", "NetworkGenerator.generate_manet"),
    "net.generator.generate_static": ("repro.net.generator", "NetworkGenerator.generate_static"),
}

_MISSING = object()


class Tracer:
    """Class-level span wrappers with self-time accounting.

    Use as ``tracer.install()`` … ``tracer.restore()``.  Spans whose
    target no longer exists are listed in :attr:`absent` instead of
    failing the run.
    """

    def __init__(self, spans: Dict[str, Tuple[str, str]] = SPANS) -> None:
        self.spans = dict(spans)
        #: self seconds per span, accumulated inside ``ROOT`` only.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: inclusive seconds per span, accumulated everywhere.
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: the receiver of the latest call of each method span, so the
        #: benchmark can read that object's public counters afterwards.
        self.last_self: Dict[str, Any] = {}
        self.absent: List[str] = []
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every span target; record the ones that are missing."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, (module_name, path) in self.spans.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            if "." in path:
                self._wrap_method(name, module, path)
            else:
                self._wrap_function(name, module, path)
        return self

    def _wrap_method(self, name: str, module: Any, path: str) -> None:
        class_name, attr = path.split(".", 1)
        owner = getattr(module, class_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.absent.append(name)
            return
        self._patch(owner, attr, self._wrap(name, original, method=True))

    def _wrap_function(self, name: str, module: Any, attr: str) -> None:
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = self._wrap(name, original, method=False)
        # ``from module import function`` copies the reference, so every
        # ``repro`` module holding the same object is patched too.
        for other_name, other in sorted(sys.modules.items()):
            if other is None or not (other_name == "repro" or other_name.startswith("repro.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._patch(other, key, wrapper)

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _wrap(self, name: str, function: Callable, method: bool) -> Callable:
        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        last_self = self.last_self

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                total_s[name] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                if name == ROOT or (stack and stack[0][0] == ROOT):
                    self_s[name] += elapsed - frame[1]
                    calls[name] += 1
                if method:
                    last_self[name] = args[0]

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def is_installed(self) -> bool:
        """Whether any wrapper is currently in place."""
        return bool(self._patches)
