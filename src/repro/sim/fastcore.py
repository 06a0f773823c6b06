"""The vector engine: a drop-in fast path for :class:`~repro.sim.core.Environment`.

``VectorEnvironment`` keeps the scalar engine's event model byte for byte
— same heap, same ``(time, priority, seq)`` total order, same callback
semantics — and buys its speed from two mechanical changes:

* **an inlined drain loop** — :meth:`VectorEnvironment.run` fuses
  ``while queue: step()`` into one frame, eliminating a Python method
  call, an attribute reload and a bounds re-check per event.  This is
  where the dominant Timeout→resume→Timeout chains of the LANai, DMA and
  link pipelines spend their time; the chain itself cannot be elided
  (user generator code runs between the timeouts) but its per-event
  engine tax can.
* **array-backed deadline rings** — :meth:`Environment.timeout_batch`
  populations stay in numpy.  Where the scalar oracle materialises one
  heap entry per member, the vector engine reserves the member sequence
  block arithmetically and pushes **one** group entry per distinct
  expiry timestamp, at exactly the heap position the oracle's last group
  member would occupy.  A thousand same-tick DMA completion deadlines
  cost one pop instead of a thousand.

An earlier prototype replaced the heap with a literal calendar queue
(dict-of-buckets, rotating cursor); measured on this repo's workloads it
was *slower* than CPython's C ``heapq`` (0.2–0.8x) because the bucket
bookkeeping is pure-Python bytecode.  The lesson is recorded in
DESIGN.md: in a Python DES the win is fewer bytecodes per event, not a
better asymptotic queue — hence batching (fewer pops) and inlining
(cheaper pops), with the heap kept as the ordering ground truth.  That
choice is also what makes bit-identity with the oracle a structural
property rather than a testing aspiration: both engines push through the
same ``_schedule`` and pop the same tuples.

Selection is ``Environment(engine="vector")`` or
``REPRO_SIM_ENGINE=vector``; see :func:`repro.sim.core.resolve_engine`.
The differential harness (``tests/test_sim_differential.py``) replays
the chaos, fig3, DSM-smoke and fabric-smoke workloads on both engines
and asserts identical traces, metrics and artifacts.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.sim.core import (_PENDING, BatchTimeout, Environment, Event,
                            SimulationError, _batch_groups)

__all__ = ["VectorEnvironment"]


class _BatchGroup(Event):
    """One heap entry standing in for a same-timestamp batch-member group.

    Never exposed to user code: it is pushed directly onto the queue at
    the position of its group's last member and exists only to run the
    group's fire action when popped.
    """

    __slots__ = ()


class VectorEnvironment(Environment):
    """Vectorized engine; see the module docstring for the design.

    Everything not overridden here — scheduling, ``step()``, ``peek()``,
    event factories, process semantics — is inherited verbatim from the
    scalar engine, which is the point: the engines differ only in how
    fast they drain the queue, never in what order.
    """

    engine = "vector"

    # -- batched deadline rings -------------------------------------------
    def _arm_batch(self, batch: BatchTimeout, members: Any,
                   on_fire: Optional[Callable[[int, Any], None]]) -> None:
        """Vector batch arming: one heap entry per distinct timestamp.

        The scalar oracle creates members in index order, so member ``i``
        gets sequence number ``start + i``; a group therefore sits in the
        total order at the seq of its last member.  We reproduce that
        arithmetically: reserve the whole block from the counter, then
        push one group event at ``start + indices[-1]``.
        """
        start = next(self._seq)
        self._seq = itertools.count(start + batch.total)
        push, queue, prio = heapq.heappush, self._queue, self.PRIORITY_NORMAL
        for when, indices in _batch_groups(self._now, members):
            group = _BatchGroup(self)
            group._scheduled = True
            group.callbacks.append(
                lambda _ev, w=when, ix=indices:
                    self._batch_group_fired(batch, w, ix, on_fire))
            push(queue, (when, prio, start + int(indices[-1]), group))

    def _batch_group_fired(self, batch: BatchTimeout, when: int, indices: Any,
                           on_fire: Optional[Callable[[int, Any], None]],
                           ) -> None:
        # The pop itself counted one event; the rest of the group's
        # members are accounted here, so events_processed totals match
        # the oracle's one-pop-per-member count at every point foreign
        # code can observe (member seq blocks are contiguous, so no
        # foreign event interleaves a partially-counted group).
        self.events_processed += len(indices) - 1
        batch._group_fired(when, indices, on_fire)

    # -- inlined drain loop -------------------------------------------------
    def run(self, until: Optional[Any] = None) -> Any:
        """Scalar :meth:`Environment.run` semantics, one frame, no calls.

        The body of :meth:`Environment.step` is fused into each loop so
        the per-event cost is a heappop, a callback dispatch and the
        unobserved-failure check — nothing else.  ``events_processed``
        is bumped per pop (not batched locally) so callbacks observe the
        same counts they would under the oracle.
        """
        queue = self._queue
        pop = heapq.heappop
        if isinstance(until, Event):
            stop = until
            while queue and stop.callbacks is not None:
                when, _prio, _seq, event = pop(queue)
                self._now = when
                self.events_processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused and not callbacks:
                    raise event._value
            if stop._value is _PENDING:
                raise SimulationError(
                    f"run(until={stop!r}): queue drained before it fired "
                    f"(deadlock at t={self._now} ns?)")
            if stop._ok:
                return stop._value
            stop._defused = True
            raise stop._value
        deadline = None if until is None else int(until)
        if deadline is not None and deadline < self._now:
            raise SimulationError(
                f"run(until={deadline}): the clock is already at "
                f"now={self._now} ns and cannot run backwards")
        while queue:
            if deadline is not None and queue[0][0] > deadline:
                self._now = deadline
                return None
            when, _prio, _seq, event = pop(queue)
            self._now = when
            self.events_processed += 1
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused and not callbacks:
                raise event._value
        if deadline is not None:
            self._now = deadline
        return None
