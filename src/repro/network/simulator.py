"""The discrete-event engine.

A :class:`Simulator` owns virtual time and a calendar queue of events.  Every
other message-passing component (the network, nodes, timers, workload
clients) schedules callbacks on it.  The engine is deliberately minimal: the
interesting modelling (latencies, CPU queues, Byzantine behaviour) lives in
:mod:`repro.network.node` and above.

The queue is *slotted* rather than a single binary heap: events land in
fixed-width time buckets (append-only lists, in scheduling order), a small
heap orders only the bucket keys, and one bucket at a time is sorted and
drained through a cursor.  Scheduling is an O(1) list append in the common
case; the heap churn is per *bucket*, not per event.  The observable order
is exactly the classic ``(time, sequence)`` total order: a bucket's events
are appended in increasing sequence order, so a stable sort by time alone
reproduces it, and events scheduled into the bucket being drained are
insorted behind the cursor by the same key.  The bucket width is therefore a
pure performance knob — no value of it can reorder two events.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Callable, Dict, List, Optional

from repro.common.errors import SimulationError

# Calendar-slot width in virtual seconds.  Latencies in this repository sit
# in the 10us..100ms band, so one slot holds a handful of events at typical
# load; performance-only (see module docstring), never ordering.
_BUCKET_WIDTH = 1e-3


class Event:
    """A scheduled callback.

    Events are ordered by ``(time, sequence)``; the sequence number makes the
    order total and deterministic when several events share a timestamp.
    """

    __slots__ = ("time", "sequence", "action", "cancelled", "label", "_simulator")

    def __init__(
        self,
        time: float,
        sequence: int,
        action: Callable[[], None],
        label: str = "",
        simulator: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.action = action
        self.cancelled = False
        self.label = label
        self._simulator = simulator

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.sequence) < (other.time, other.sequence)

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        # Keep the owning simulator's live-event counter exact: an event
        # that already ran (or was already dropped) detached itself first.
        if self._simulator is not None:
            self._simulator._live -= 1
            self._simulator = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"Event(t={self.time:.6f}, seq={self.sequence}, {state}, {self.label!r})"


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator is single-threaded: events run one at a time, in timestamp
    order, and may schedule further events.  ``run`` drives the loop until
    the queue drains, a time horizon is reached, or an event budget is
    exhausted (a guard against accidental livelock in protocol code).
    """

    def __init__(self) -> None:
        # Future buckets: slot key -> events in scheduling (= sequence)
        # order.  ``_bucket_keys`` is a heap of the dict's keys; each key is
        # pushed exactly once, when its bucket is created.
        self._buckets: Dict[int, List[Event]] = {}
        self._bucket_keys: List[int] = []
        # The sorted front run being drained, and the cursor into it.  Holds
        # the events of the lowest bucket (plus any late arrivals that sort
        # at or before its key); everything in ``_current[_position:]``
        # precedes everything still in ``_buckets``.
        self._current: List[Event] = []
        self._position = 0
        self._current_key = -1
        self._sequence = 0
        self._live = 0
        self._now = 0.0
        self.processed_events = 0
        # Optional observability hook (repro.obs.MetricsRegistry).  The
        # engine only *counts* into it — once per run() call, never per
        # event — so attaching a registry cannot perturb event ordering,
        # timing or any seeded stream (the telemetry invariant).
        self.metrics = None

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self._now

    def schedule(self, delay: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay}s in the past")
        return self._push(self._now + delay, action, label)

    def schedule_at(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at an absolute virtual time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at {time} (current time is {self._now})"
            )
        return self._push(time, action, label)

    def _push(self, time: float, action: Callable[[], None], label: str) -> Event:
        event = Event(time, self._sequence, action, label, self)
        self._sequence += 1
        self._live += 1
        key = int(time / _BUCKET_WIDTH)
        if key <= self._current_key:
            # A late arrival for the bucket being drained (time >= now keeps
            # it at or behind the cursor); insert by (time, sequence).
            insort(self._current, event, lo=self._position)
        else:
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [event]
                heapq.heappush(self._bucket_keys, key)
            else:
                bucket.append(event)
        return event

    def _peek(self) -> Optional[Event]:
        """The next live event, or ``None``; discards cancelled ones."""
        while True:
            while self._position < len(self._current):
                event = self._current[self._position]
                if event.cancelled:
                    self._position += 1
                    continue
                return event
            if not self._bucket_keys:
                return None
            key = heapq.heappop(self._bucket_keys)
            bucket = self._buckets.pop(key)
            # Appended in increasing sequence order, so a stable sort by
            # time alone is the full (time, sequence) order.
            bucket.sort(key=_event_time)
            self._current = bucket
            self._position = 0
            self._current_key = key

    def _pop(self, event: Event) -> None:
        """Consume the event ``_peek`` returned."""
        self._position += 1
        self._live -= 1
        event._simulator = None

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Run events until the queue drains or a limit is hit.

        Parameters
        ----------
        until:
            Stop once virtual time would exceed this horizon.
        max_events:
            Stop after this many events (guards against livelock).  The
            budget errors only when exceeding it would have *mattered*: a
            queue that drains cleanly on exactly the last allowed event is a
            completed run, not a livelock.
        stop_when:
            Optional predicate checked after every event; the run stops as
            soon as it returns ``True`` (used to stop when a workload has
            fully committed).

        Returns the virtual time at which the run stopped.
        """
        executed = 0
        try:
            while True:
                event = self._peek()
                if event is None:
                    break
                if until is not None and event.time > until:
                    self._now = until
                    break
                self._pop(event)
                self._now = event.time
                event.action()
                self.processed_events += 1
                executed += 1
                if stop_when is not None and stop_when():
                    break
                if max_events is not None and executed >= max_events:
                    if self._live:
                        raise SimulationError(
                            f"simulation exceeded the event budget of {max_events}; "
                            "a protocol is likely flooding the network"
                        )
                    break
        finally:
            if executed and self.metrics is not None:
                self.metrics.inc("sim.events", executed)
                self.metrics.inc("sim.runs")
        return self._now

    def run_until_quiescent(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain (the common case in tests)."""
        return self.run(max_events=max_events)

    # -- incremental driving ------------------------------------------------------------------
    #
    # The cluster's execution backends advance many independent simulators in
    # lockstep epochs: each shard repeatedly runs *up to* the next settlement
    # barrier, the barriers exchange certificates, and the loop needs to know
    # when each simulator will next do something.  ``run`` already supports a
    # horizon; these two entry points make the epoch pattern first-class.

    def run_until(self, time: float, max_events: Optional[int] = None) -> float:
        """Run every event scheduled at or before ``time``; idempotent.

        Unlike :meth:`run`, a horizon in the past (or at the current time with
        nothing scheduled) is a no-op rather than an error, so a scheduler can
        call ``run_until(barrier)`` for a fixed barrier sequence without
        tracking which simulators have already reached it.  The clock advances
        to ``time`` when undelivered events remain beyond the horizon, and
        stays at the last executed event when the queue drains.
        """
        if time < self._now:
            return self._now
        return self.run(until=time, max_events=max_events)

    @property
    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` when quiescent.

        Cancelled events at the head of the queue are discarded on the way, so
        the answer is exact, not an upper bound.
        """
        event = self._peek()
        return event.time if event is not None else None

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued.

        O(1): a live counter maintained on schedule/cancel/pop, not a queue
        scan — this property sits in ``__repr__`` and in the quiescence
        probes the epoch scheduler runs after every barrier.
        """
        return self._live

    def live_event_labels(self) -> List[str]:
        """Labels of every not-yet-cancelled queued event (unordered scan).

        The checkpoint seam uses this to decide whether a shard is
        *protocol-quiescent*: a shard can only be checkpointed when every
        pending event is a client arrival that can be re-scheduled from the
        routed-submission spec.  In-flight protocol messages hold closures
        over live node state, so their presence blocks a checkpoint.
        """
        labels = [
            event.label
            for event in self._current[self._position :]
            if not event.cancelled
        ]
        for bucket in self._buckets.values():
            labels.extend(event.label for event in bucket if not event.cancelled)
        return labels

    def restore_counters(self, now: float, sequence: int, processed_events: int) -> None:
        """Force the clock and counters to a checkpoint's values.

        Used when rehydrating a shard from a checkpoint: the twin schedules
        the remaining client arrivals first (they take fresh low sequence
        numbers — all below the checkpoint's, preserving their relative order
        and their order against every post-checkpoint protocol event), then
        jumps the clock and the sequence counter here so deterministic
        re-execution assigns the exact sequence numbers of the original run.
        """
        if sequence < self._sequence:
            raise SimulationError(
                f"cannot rewind the sequence counter from {self._sequence} to {sequence}"
            )
        self._now = now
        self._sequence = sequence
        self.processed_events = processed_events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.6f}, pending={self.pending_events})"


def _event_time(event: Event) -> float:
    return event.time
