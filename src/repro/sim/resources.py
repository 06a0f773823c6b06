"""What a *process* waits on: a :class:`Resource` is a FIFO lock (a DSM
page or sync lock, the Ethernet wire), a :class:`Store` an unbounded
FIFO queue (a daemon mailbox, a protocol's delivery queue).  The buses
and DMA engines of :mod:`repro.hw` are callback-driven
:class:`~repro.sim.server.Server` objects instead."""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.sim.core import Environment, Event


class Request(Event):
    """Event that fires when the lock is granted to this request.  As a
    context manager (``with res.request() as req: yield req; ...``) it is
    released on exit, or dropped from the queue if still waiting.

    A request that finds the lock free is granted **in place**: it is
    born processed, so ``yield req`` falls through and no grant event is
    scheduled.  A contended request queues FIFO until
    :meth:`Resource.release` hands it the lock.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.resource = resource
        # Free means nobody is queued (release hands the lock on): grant
        # in place, filling the slots of a processed event directly.
        if resource._holder is None:
            self.env = resource.env
            self.callbacks = None
            self._value = resource
            self._ok = True
            self._scheduled = True
            self._defused = False
            resource._holder = self
        else:
            super().__init__(resource.env)
            resource._queue.append(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request."""
        if self in self.resource._queue:
            self.resource._queue.remove(self)


class Resource:
    """A lock held by one request at a time, granted in FIFO order."""

    def __init__(self, env: Environment):
        self.env = env
        self._holder: Optional[Request] = None
        self._queue: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of requests holding the lock (0 or 1)."""
        return 0 if self._holder is None else 1

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self._queue)

    def request(self) -> Request:
        """Queue a request; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Release a granted request, or withdraw a queued one."""
        if request is not self._holder:
            request.cancel()
        elif self._queue:
            nxt = self._holder = self._queue.popleft()
            nxt.succeed(self)
        else:
            self._holder = None


class StoreGet(Event):
    __slots__ = ()


class Store:
    """Unbounded FIFO queue.  ``put`` returns a processed event; ``get``
    an event with the next item, processed in place if there is one,
    else succeeded by the put that brings it."""

    def __init__(self, env: Environment):
        self.env = env
        self.items: deque[Any] = deque()
        self._getters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        event = Event(self.env)
        event._settle(None)
        # Getters only ever wait on an empty store: this item is theirs.
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)
        return event

    def get(self) -> StoreGet:
        event = StoreGet(self.env)
        if self.items:
            event._settle(self.items.popleft())
        else:
            self._getters.append(event)
        return event
