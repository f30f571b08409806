"""The instrumentation bus: typed pub/sub for domain events.

One :class:`EventBus` carries two channels:

- **Domain events** — frozen dataclasses from :mod:`repro.obs.events`,
  published by the execution engine, the failure-delivery points, and
  the datacenter mapping loop.  Handlers subscribe by event type
  (optionally filtered to one ``app_id``) or to every event.
- **Kernel taps** — the raw ``(time, kind, payload)`` stream of every
  event the simulation kernel executes.  This is the hot path: taps
  are a plain list the kernel checks inline, so an empty bus costs one
  attribute access and a truthiness test per executed event.

Publishing is strictly one-way: handlers observe, they never mutate
simulation state, so any sink configuration produces bit-identical
simulation results.

Interest is typed: :meth:`EventBus.wants_any` answers whether any
subscriber would receive an event of the given types.  The execution
engine asks it about the events its failure-horizon fast path folds
away without publishing, so a subscriber that wants only rarer events
(the live feed of a watched job) leaves the fast path on, while kernel
taps and catch-all handlers, which want everything, turn it off.
"""

from __future__ import annotations

from typing import (
    AbstractSet, Any, Callable, Dict, Hashable, List, Set, Tuple,
)

from repro.sim.events import EventKind

#: Domain-event handler.
Handler = Callable[[Any], None]
#: Kernel tap: ``(time, kind, payload)`` of one executed kernel event.
KernelTap = Callable[[float, EventKind, Any], None]


class EventBus:
    """Lightweight synchronous pub/sub for simulation instrumentation."""

    __slots__ = (
        "kernel_taps", "_all", "_by_type", "_keyed", "_active",
        "_wants_all", "_wanted",
    )

    def __init__(self) -> None:
        #: Kernel-event taps, exposed as a plain attribute so the
        #: kernel hot loop can check emptiness without a method call.
        self.kernel_taps: List[KernelTap] = []
        self._all: List[Handler] = []
        self._by_type: Dict[type, List[Handler]] = {}
        self._keyed: Dict[Tuple[type, Hashable], List[Handler]] = {}
        self._active = False
        #: The interest answer, kept current at subscribe time: True
        #: once a kernel tap or catch-all handler is registered, else
        #: the event types some typed or keyed handler receives.
        self._wants_all = False
        self._wanted: Set[type] = set()

    # -- subscription ------------------------------------------------------

    def subscribe(self, event_type: type, handler: Handler) -> None:
        """Call *handler* for every published event of *event_type*."""
        self._by_type.setdefault(event_type, []).append(handler)
        self._active = True
        self._wanted.add(event_type)

    def subscribe_key(
        self, event_type: type, key: Hashable, handler: Handler
    ) -> None:
        """Call *handler* for *event_type* events whose ``app_id`` is
        *key* (constant-time dispatch however many apps share the bus)."""
        self._keyed.setdefault((event_type, key), []).append(handler)
        self._active = True
        self._wanted.add(event_type)

    def subscribe_all(self, handler: Handler) -> None:
        """Call *handler* for every published domain event."""
        self._all.append(handler)
        self._active = True
        self._wants_all = True

    def add_kernel_tap(self, tap: KernelTap) -> None:
        """Receive every executed kernel event as ``(time, kind,
        payload)`` — the :class:`repro.obs.sinks.TraceSink` channel."""
        self.kernel_taps.append(tap)
        self._wants_all = True

    @property
    def has_subscribers(self) -> bool:
        """True when any domain-event handler is registered."""
        return self._active

    def wants_any(self, event_types: AbstractSet[type]) -> bool:
        """True when some subscriber would receive an event of one of
        *event_types*: always once a kernel tap or catch-all handler is
        registered (they see every event), otherwise when a typed or
        keyed handler is registered for one of the types.

        The execution engine asks this on every main-loop iteration
        about the events its fast path folds away, falling back to the
        stepped path when the answer is yes.  The interest is kept
        current at subscribe time, so the query walks no handler
        list."""
        return self._wants_all or not self._wanted.isdisjoint(event_types)

    def subscriber_count(self) -> int:
        """Number of registered domain-event handlers (all channels)."""
        return (
            len(self._all)
            + sum(len(v) for v in self._by_type.values())
            + sum(len(v) for v in self._keyed.values())
        )

    # -- publication -------------------------------------------------------

    def publish(self, event: Any) -> None:
        """Dispatch *event* to matching handlers (no-op when none)."""
        if not self._active:
            return
        for handler in self._all:
            handler(event)
        event_type = type(event)
        handlers = self._by_type.get(event_type)
        if handlers is not None:
            for handler in handlers:
                handler(event)
        if self._keyed:
            key = getattr(event, "app_id", None)
            if key is not None:
                handlers = self._keyed.get((event_type, key))
                if handlers is not None:
                    for handler in handlers:
                        handler(event)
