"""Core of the discrete-event engine: clock, events, processes.

Time is an integer number of **nanoseconds**.  All hardware cost models in
:mod:`repro.hw` produce integer nanosecond durations, so simulations are
exactly reproducible and there is no floating-point event-ordering jitter.

Events at the same timestamp are processed in FIFO scheduling order (a
monotonically increasing sequence number breaks ties), which matches the
intuition that a cause scheduled earlier fires earlier.  There is one
engine (DESIGN.md §9, "One engine"): one heap pop and one callback
dispatch per event, drained by the one-frame loop in
:meth:`Environment.run`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional


def resolve_engine(engine: Optional[str] = None) -> str:
    """``"scalar"``, the only engine; any other name is a
    :class:`SimulationError`.  Kept because ``perfbench/worker.py:177``
    prints it."""
    if engine not in (None, "scalar"):
        raise SimulationError(
            f"unknown simulation engine {engine!r}; there is only 'scalar'")
    return "scalar"


#: One nanosecond (the base unit of simulated time).
NS = 1
#: One microsecond in nanoseconds.
US = 1_000
#: One millisecond in nanoseconds.
MS = 1_000_000
#: One second in nanoseconds.
SEC = 1_000_000_000


def us(value: float) -> int:
    """Convert microseconds (possibly fractional) to integer nanoseconds."""
    return int(round(value * US))


def ns_to_us(value: int) -> float:
    """Convert integer nanoseconds to (float) microseconds."""
    return value / US


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (double triggering, bad yields...)."""


class SimulationStalled(SimulationError):
    """``run(until=event)`` drained the queue before ``event`` fired:
    nothing left can ever fire it.  Carries the clock (``now``), the
    awaited ``event`` and, when that is a :class:`Process`, its ``name``
    and the event it is blocked on (``blocked_on``)."""

    def __init__(self, now: int, event: "Event"):
        self.now = now
        self.event = event
        self.name: Optional[str] = None
        self.blocked_on: Optional[Event] = None
        waiting = ""
        if isinstance(event, Process):
            self.name, self.blocked_on = event.name, event._target
            waiting = (f"; process {self.name!r} is blocked on "
                       f"{self.blocked_on!r}")
        super().__init__(
            f"run(until={event!r}): queue drained before it fired "
            f"(deadlock at t={now} ns{waiting})")


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries whatever object the interrupter passed;
    the VMMC LCP uses this to preempt its tight sending loop when an
    incoming packet arrives (paper section 5.3).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Sentinel distinguishing "not yet triggered" from "triggered with None".
_PENDING = object()
# Same-time ranks in the heap key ``(time, rank, seq)``: an interrupt
# (``Environment.PRIORITY_URGENT``) goes before normal events.
_URGENT, _NORMAL = 0, 1


class Event:
    """A one-shot occurrence that processes may wait on.

    An event is *triggered* once, either successfully (:meth:`succeed`) with
    an optional value, or unsuccessfully (:meth:`fail`) with an exception.
    Callbacks attached before triggering run when the environment processes
    the event; callbacks attached afterwards run immediately.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._scheduled = False
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value (or an exception)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A waiting process receives the exception via ``throw``.  If nobody
        ever waits on a failed event the environment re-raises it when the
        event is processed, so programming errors cannot vanish silently —
        unless :meth:`defuse` was called.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def _settle(self, value: Any) -> None:
        """Succeed with ``value`` *and* count as processed, scheduling
        nothing — for an event no callback is attached to: a store
        hand-off that completes at once, a process that finishes with
        nobody waiting on it.  (A free resource's ``Request`` is born in
        this state.)"""
        self._value = value
        self._scheduled = True
        self.callbacks = None

    def _end(self, value: Any = None) -> None:
        """Succeed with ``value`` the way a process ends: scheduled if
        anything waits on the event, settled in place if nothing does —
        for a library call that returns an event instead of a process."""
        if self.callbacks:
            self.succeed(value)
        else:
            self._settle(value)

    def _fire(self, value: Any = None) -> None:
        """Succeed with ``value`` and run the callbacks now, scheduling
        nothing — for an operation that ends inside the dispatch of
        another event (a queued :class:`~repro.sim.server.Server`
        operation's stand-in, a scatter's last piece): its waiters run
        in that dispatch, as if they were that event's callbacks."""
        callbacks = self.callbacks
        self._value = value
        self._scheduled = True
        self.callbacks = None
        for callback in callbacks:
            callback(self)

    def defuse(self) -> None:
        """Mark a failed event as handled so it will not escalate."""
        self._defused = True

    def defused_fail(self, exception: BaseException) -> "Event":
        """Fail, pre-defused (used internally for chained failures)."""
        self.fail(exception)
        self._defused = True
        return self

    # -- composition -------------------------------------------------------
    def __and__(self, other: "Event") -> "Event":
        from repro.sim.conditions import AllOf

        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "Event":
        from repro.sim.conditions import AnyOf

        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        # Born triggered and scheduled: fill the slots and push, without
        # the Event.__init__ / _schedule calls (the commonest event).
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._defused = False
        self.delay = delay = int(delay)
        heapq.heappush(env._queue,
                       (env._now + delay, _NORMAL, next(env._seq), self))


def _not_an_event(what: str, target: Any) -> SimulationError:
    """The error for a non-event where an event was required.  A bare
    generator — a generator helper yielded with the ``from`` forgotten —
    is named and the two fixes spelled out; it is never wrapped into a
    process silently."""
    if hasattr(target, "throw"):
        name = getattr(target, "__qualname__", type(target).__name__)
        return SimulationError(
            f"{what} the generator {name}() where an event is required: "
            f"use `yield from {name}(...)` to run it inline or "
            f"`env.process({name}(...))` to run it concurrently")
    return SimulationError(f"{what} non-event {target!r}")


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._scheduled = True
        self._defused = False
        heapq.heappush(env._queue,
                       (env._now, _NORMAL, next(env._seq), self))


class Process(Event):
    """Wraps a generator; the process is also an event that fires when the
    generator returns (with its return value) or raises.

    Processes yield events to wait for them; the event's value becomes the
    result of the ``yield`` expression.  Yielding a failed event re-raises
    the exception inside the generator.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator,
                 name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"process requires a generator, got {generator!r}")
        # Event.__init__, inlined.
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._scheduled = False
        self._defused = False
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        interruption = Event(self.env)
        interruption._ok = False
        interruption._value = Interrupt(cause)
        interruption._defused = True
        interruption.callbacks.append(self._resume)
        self.env._schedule(interruption, rank=_URGENT)

    def _resume(self, event: Event) -> None:
        while True:
            if event._ok:
                try:
                    target = self._generator.send(event._value)
                except StopIteration as exc:
                    self._finish_ok(exc.value)
                    break
                except BaseException as exc:
                    self._finish_fail(exc)
                    break
            else:
                # Deliver the failure into the generator.
                event._defused = True
                try:
                    target = self._generator.throw(event._value)
                except StopIteration as exc:
                    self._finish_ok(exc.value)
                    break
                except BaseException as exc:
                    # Unhandled (the delivered failure itself) or raised
                    # anew: either way it is this process's failure, not
                    # the engine's.
                    self._finish_fail(exc)
                    break
            if not isinstance(target, Event):
                exc = _not_an_event(f"process {self.name!r} yielded", target)
                try:
                    self._generator.throw(exc)
                except StopIteration as stop:
                    self._finish_ok(stop.value)
                except BaseException as raised:
                    self._finish_fail(raised)
                break
            if target.callbacks is None:
                # Already processed (fired earlier, or settled in place):
                # loop immediately with its value.
                event = target
                continue
            target.callbacks.append(self._resume)
            self._target = target
            break

    def _finish_ok(self, value: Any) -> None:
        self._target = None
        if self._value is _PENDING:
            # With nobody waiting it is done in place: a later ``yield``,
            # ``AllOf`` or ``run(until=...)`` takes the value at once.  A
            # failure is always scheduled, so an unobserved one escalates.
            self._end(value)

    def _finish_fail(self, exc: BaseException) -> None:
        self._target = None
        if self._value is _PENDING:
            self._ok = False
            self._value = exc
            self.env._schedule(self)


class Environment:
    """Simulation clock plus event queue.

    Usage::

        env = Environment()

        def ping():
            yield env.timeout(5 * US)
            return "done"

        proc = env.process(ping())
        env.run()
        assert proc.value == "done"
    """

    #: Rank of an interrupt, so it beats same-time normal events.
    PRIORITY_URGENT = _URGENT

    # ``engine`` is accepted only as ``None``/``"scalar"``: kept because
    # ``perfbench/tracing.py:204`` passes it.
    def __init__(self, initial_time: int = 0, tracer: Optional[Any] = None,
                 engine: Optional[str] = None):
        resolve_engine(engine)
        self._now = int(initial_time)
        self._queue: list[tuple[int, int, int, Event]] = []
        self._seq = itertools.count()
        self.tracer = tracer
        #: The installed :class:`~repro.obs.metrics.MetricsRegistry`, if
        #: any (``MetricsRegistry.install`` sets it).
        self.metrics = None
        #: Statistics collectors of the objects built on it (obs.metrics).
        self.collectors: list = []
        #: Events popped off the queue so far, one per heap entry — the
        #: per-operation budgets in ``tests/test_event_budget.py``.
        self.events_processed = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- event factories -----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> Event:
        from repro.sim.conditions import AllOf

        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> Event:
        from repro.sim.conditions import AnyOf

        return AnyOf(self, list(events))

    # -- scheduling / execution ---------------------------------------------
    def _schedule(self, event: Event, delay: int = 0,
                  rank: int = _NORMAL) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        heapq.heappush(
            self._queue, (self._now + delay, rank, next(self._seq), event))

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the queue is empty."""
        return self._queue[0][0] if self._queue else None

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be ``None`` (drain the queue), an integer time in
        nanoseconds, or an :class:`Event` — in which case its value is
        returned (or its exception raised).

        Each event is popped, its callbacks run, and a failure nobody
        observed is re-raised, all inside this one frame (there is no
        per-event method call); ``events_processed`` is bumped per pop so
        callbacks observe exact counts.
        """
        queue = self._queue
        pop = heapq.heappop
        if isinstance(until, Event):
            stop, deadline = until, None
        elif hasattr(until, "throw"):
            raise _not_an_event("run(until=...) was given", until)
        else:
            stop = None
            deadline = None if until is None else int(until)
            if deadline is not None and deadline < self._now:
                raise SimulationError(
                    f"run(until={deadline}): the clock is already at "
                    f"now={self._now} ns and cannot run backwards")
        while queue:
            if stop is not None:
                if stop.callbacks is None:
                    break
            elif deadline is not None and queue[0][0] > deadline:
                break
            when, _rank, _seq, event = pop(queue)
            self._now = when
            self.events_processed += 1
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused and not callbacks:
                # A failure nobody observed: escalate so bugs surface.
                raise event._value
        if stop is None:
            if deadline is not None:
                self._now = deadline
            return None
        if stop._value is _PENDING:
            raise SimulationStalled(self._now, stop)
        if stop._ok:
            return stop._value
        stop._defused = True
        raise stop._value


class VectorEnvironment(Environment):
    """Constructed nowhere; kept because ``perfbench/tracing.py:192,228``
    imports it and patches ``run`` on each class that defines one."""
