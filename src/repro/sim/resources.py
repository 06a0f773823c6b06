"""Capacity-limited resources and FIFO stores.

These primitives model contention a *process* waits on: a
:class:`Resource` is a lock or a shared segment (a DSM page, a message
channel, the Ethernet wire), and a :class:`Store` is any
bounded/unbounded queue of objects — a daemon mailbox, a protocol's
delivery queue.  The buses and DMA engines of :mod:`repro.hw` are not
resources: each is a callback-driven :class:`~repro.sim.server.Server`.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Any, Optional

from repro.sim.core import Environment, Event, SimulationError


class Request(Event):
    """Event that fires when the resource grants this request.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ... hold the resource ...
        # released on exit

    A request that finds nobody queued and spare capacity is granted
    **in place**: it is born already processed, so ``yield req`` falls
    straight through and no grant event is scheduled.  A contended
    request queues in ``(priority, ticket)`` order and is granted by a
    later :meth:`Resource.release`.
    """

    __slots__ = ("resource", "priority", "_order")

    def __init__(self, resource: "Resource", priority: int = 0):
        self.resource = resource
        self.priority = priority
        self._order = next(resource._ticket)
        if not resource._queue and len(resource._users) < resource.capacity:
            # Granted in place (the commonest request): the slots of a
            # processed event, filled directly.
            self.env = resource.env
            self.callbacks = None
            self._value = resource
            self._ok = True
            self._scheduled = True
            self._defused = False
            resource._users.append(self)
        else:
            super().__init__(resource.env)
            insort(resource._queue, self, key=_grant_order)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request."""
        if self in self.resource._queue:
            self.resource._queue.remove(self)


def _grant_order(request: Request) -> tuple[int, int]:
    return request.priority, request._order


class Resource:
    """A resource with integer capacity and FIFO (or priority) granting."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._queue: list[Request] = []
        self._users: list[Request] = []
        self._ticket = iter(range(1 << 62))

    @property
    def count(self) -> int:
        """Number of requests currently holding the resource."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self._queue)

    def request(self, priority: int = 0) -> Request:
        """Queue a request; the returned event fires when granted."""
        return Request(self, priority)

    def release(self, request: Request) -> None:
        """Release a previously granted request."""
        users = self._users
        if request in users:
            users.remove(request)
            if self._queue:
                self._grant()
        else:
            request.cancel()

    def _grant(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            nxt = self._queue.pop(0)
            self._users.append(nxt)
            nxt.succeed(self)


class StoreGet(Event):
    __slots__ = ()


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, env: Environment, item: Any):
        super().__init__(env)
        self.item = item


class Store:
    """FIFO queue of arbitrary items with optional capacity.

    ``put`` returns an event that fires when the item is accepted
    (immediately for unbounded stores); ``get`` returns an event that fires
    with the next item.

    A hand-off that can complete at once completes **in place**, like a
    free :class:`Resource` grant: a put that finds room and no queued
    putter, or a get that finds an item and no queued getter, returns an
    event that is already processed, and no event is scheduled for it.
    Queued waiters are served by :meth:`_dispatch` as before.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise SimulationError("store capacity must be >= 1 or None")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[StoreGet] = deque()
        self._putters: deque[StorePut] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        event = StorePut(self.env, item)
        if not self._putters and (
                self.capacity is None or len(self.items) < self.capacity):
            self.items.append(item)
            event._settle(None)
        else:
            self._putters.append(event)
        self._dispatch()
        return event

    def get(self) -> StoreGet:
        event = StoreGet(self.env)
        if not self._getters and self.items:
            event._settle(self.items.popleft())
        else:
            self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Admit queued puts while there is room.
            while self._putters and (
                    self.capacity is None or len(self.items) < self.capacity):
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed(None)
                progress = True
            # Serve queued gets while there are items.
            while self._getters and self.items:
                get = self._getters.popleft()
                get.succeed(self.items.popleft())
                progress = True
