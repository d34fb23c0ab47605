"""Virtual-time discrete-event simulator.

A :class:`Simulator` owns the virtual clock and an event queue.  Components
schedule callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time) and the loop executes them in
timestamp order.  The clock only moves when events execute, so simulated
seconds are free — only the *number* of events costs wall-clock time.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.events import EventHandle, EventQueue


class SimulationError(RuntimeError):
    """Raised on invalid scheduling (e.g. scheduling in the past)."""


class Simulator:
    """Deterministic single-threaded discrete-event loop."""

    __slots__ = ("now", "_queue", "_running", "_stopped", "_executed")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self._executed = 0

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` virtual seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._queue.push(self.now + delay, fn, args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time!r}, now is {self.now!r}")
        return self._queue.push(time, fn, args)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far (monitoring/tests)."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Events still scheduled (cancelled ones excluded)."""
        return len(self._queue)

    def clear(self) -> None:
        """Drop every pending event (the clock and counters stay)."""
        self._queue.clear()

    def stop(self) -> None:
        """Request the run loop to halt after the current event."""
        self._stopped = True

    def run_until(self, t_end: float) -> None:
        """Execute events with timestamp <= ``t_end``; clock ends at ``t_end``.

        Events scheduled exactly at ``t_end`` are executed.
        """
        if self._running:
            raise SimulationError("simulator is re-entrant only via schedule()")
        self._running = True
        self._stopped = False
        queue = self._queue
        try:
            while not self._stopped:
                next_time = queue.peek_time()
                if next_time is None or next_time > t_end:
                    break
                handle = queue.pop()
                assert handle is not None  # peek said there is one
                self.now = handle.time
                self._executed += 1
                handle.fn(*handle.args)
        finally:
            self._running = False
        if not self._stopped and self.now < t_end:
            self.now = t_end

    def run(self) -> None:
        """Execute until the event queue drains (or :meth:`stop` is called)."""
        if self._running:
            raise SimulationError("simulator is re-entrant only via schedule()")
        self._running = True
        self._stopped = False
        queue = self._queue
        try:
            while not self._stopped:
                handle = queue.pop()
                if handle is None:
                    break
                self.now = handle.time
                self._executed += 1
                handle.fn(*handle.args)
        finally:
            self._running = False
