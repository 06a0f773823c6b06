"""A capacity-1 FIFO server run by callbacks: a bus or a DMA engine.

Each piece of hardware in :mod:`repro.hw` that does one transaction at a
time — a PCI or EISA bus, a LANai DMA engine, SHRIMP's state machine and
outbound port — is a :class:`Server`.  An operation on it is a plain
call that returns the event it ends on; no generator and no process is
made for it.

The rules keep every simulated time and every same-nanosecond order that
a :class:`~repro.sim.resources.Resource` held by a generator gave:

* A free server starts the operation **at the call** (a free resource's
  request was granted in place).
* A busy one queues it; the release that frees the server for it
  schedules one event at ``now`` that starts it — the grant event a
  queued request used to be.  The server stays busy in between, so a
  newcomer in that nanosecond queues behind.
* An operation ends on **one** event — a bus hold's ``Timeout``, a
  link's tail timer — whose callbacks run in order: whatever the
  operation appended (a bus's release, then an engine's finish), this
  server's release, then the waiters.  A queued operation's caller got
  a stand-in event before the operation began; it is fired in place
  (:meth:`Event._fire`) inside that same dispatch, so no "done" event
  goes between the end and the waiter.

A ``Timeout`` is born triggered, so whether an operation has ended is
``event.processed``, never ``event.triggered``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.sim.core import Environment, Event


class Server:
    """One operation at a time, granted in arrival order."""

    __slots__ = ("env", "busy", "_waiting")

    def __init__(self, env: Environment):
        self.env = env
        #: True from a grant until the release that frees the server.
        self.busy = False
        self._waiting: deque[tuple[Callable[..., Event], tuple, Event]] = \
            deque()

    @property
    def queue_length(self) -> int:
        """Operations waiting for the server."""
        return len(self._waiting)

    def serve(self, start: Callable[..., Event], *args: Any) -> Event:
        """Run one operation: once the server is granted, ``start(*args)``
        begins it and returns the event it ends on, the operation's own
        finish already among that event's callbacks; the server appends
        its release.  Returns that event — or, if the operation has to
        queue, a stand-in fired in place when it ends."""
        if self.busy:
            done = Event(self.env)
            self._waiting.append((start, args, done))
            return done
        self.busy = True
        end = start(*args)
        end.callbacks.append(self.release)
        return end

    def release(self, _end: Event | None = None) -> None:
        """Free the server, or hand it to the next waiter through a grant
        event at ``now``."""
        if not self._waiting:
            self.busy = False
            return
        start, args, done = self._waiting.popleft()

        def granted() -> None:
            end = start(*args)
            end.callbacks.append(self.release)
            end.callbacks.append(lambda _end: done._fire())

        at_now(self.env, granted)


def at_now(env: Environment, action: Callable[[], Any]) -> None:
    """Run ``action()`` from an event scheduled at ``now``: behind
    everything already due this nanosecond, which is where a hand-off to
    a waiting party (a grant, a FIFO slot) resumes it."""
    event = Event(env)
    event.callbacks.append(lambda _event: action())
    event.succeed()


def then(event: Event, callback: Callable[[Event], Any]) -> None:
    """Run ``callback(event)`` once ``event`` is processed — at once if it
    already is, where a process that yielded it would have gone on."""
    if event.callbacks is None:
        callback(event)
    else:
        event.callbacks.append(callback)
