"""Deterministic discrete-event queue.

A thin priority queue over ``(time, sequence)`` pairs.  The sequence
number is a global tie-breaker, so two events scheduled for the same
virtual instant always fire in insertion order — this is what makes whole
simulation runs bit-reproducible regardless of hash seeds or dict
ordering.

Performance note: :class:`Event` is a :class:`typing.NamedTuple` rather
than a dataclass so heap ordering is plain C-level tuple comparison —
``(time, seq)`` decides before the callable is ever looked at (``seq``
is unique, so comparison never reaches the non-orderable fields).  Event
ordering used to dominate simulated-run profiles; see ``repro.bench``.

The queue never *invokes* ``action`` itself — the driver popping events
owns the calling convention.  :class:`~repro.runtime.engine.SimulatedEngine`
pushes two-argument bound methods and calls ``action(payload, time)``
(operand in the payload, no per-event closure); a standalone driver is
free to push one-argument callables and call ``action(time)``.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, NamedTuple

from ..runtime.errors import SchedulerError

__all__ = ["Event", "EventQueue"]


class Event(NamedTuple):
    """One scheduled occurrence; ordering is (time, seq).

    ``action``'s signature is a contract between whoever pushes the
    event and whoever pops it (see module docstring); the queue only
    stores it.
    """

    time: float
    seq: int
    action: Callable[..., None]
    tag: str = ""
    payload: Any = None


class EventQueue:
    """Min-heap of :class:`Event` with monotone pop times."""

    __slots__ = ("_heap", "_next_seq", "_last_pop")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._next_seq = itertools.count().__next__
        self._last_pop = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(
        self,
        time: float,
        action: Callable[..., None],
        tag: str = "",
        payload: Any = None,
    ) -> Event:
        """Schedule ``action`` to fire at virtual ``time``.

        Events may only be scheduled at or after the time of the last pop
        — scheduling into the already-processed past would make the
        simulation acausal.
        """
        if time < self._last_pop - 1e-12:
            raise SchedulerError(
                f"event {tag!r} scheduled at {time} before already-"
                f"processed time {self._last_pop}"
            )
        ev = Event(time, self._next_seq(), action, tag, payload)
        heappush(self._heap, ev)
        return ev

    def pop(self) -> Event:
        if not self._heap:
            raise SchedulerError("pop from empty event queue")
        ev = heappop(self._heap)
        self._last_pop = ev.time
        return ev

    def peek_time(self) -> float | None:
        """Time of the next event, or None when the queue is empty."""
        return self._heap[0].time if self._heap else None

    def clear(self) -> None:
        self._heap.clear()
        self._last_pop = 0.0
