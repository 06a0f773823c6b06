"""The vector engine: array-backed deadline rings for
:class:`~repro.sim.core.Environment`.

``VectorEnvironment`` keeps the scalar engine's event model byte for byte
— same heap, same ``(time, priority, seq)`` total order, same callback
semantics, the same one-frame drain loop (:meth:`Environment.run`, which
this class inherits) — and differs in one thing:
:meth:`Environment.timeout_batch` populations stay in numpy.  Where the
scalar oracle materialises one heap entry per member, the vector engine
reserves the member sequence block arithmetically and pushes **one**
group entry per distinct expiry timestamp, at exactly the heap position
the oracle's last group member would occupy.  A thousand same-tick DMA
completion deadlines cost one pop instead of a thousand.

An earlier prototype replaced the heap with a literal calendar queue
(dict-of-buckets, rotating cursor); measured on this repo's workloads it
was *slower* than CPython's C ``heapq`` (0.2–0.8x) because the bucket
bookkeeping is pure-Python bytecode.  The lesson is recorded in
DESIGN.md: in a Python DES the win is fewer bytecodes per event, not a
better asymptotic queue — hence batching (fewer pops) and the inlined
drain loop (cheaper pops), with the heap kept as the ordering ground
truth.  That choice is also what makes bit-identity with the oracle a
structural property rather than a testing aspiration: both engines push
through the same ``_schedule`` and pop the same tuples.

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

from repro.sim.core import BatchTimeout, Environment, Event, _batch_groups

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

    Everything not overridden here — scheduling, ``run()``, ``step()``,
    ``peek()``, event factories, process semantics — is inherited
    verbatim from the scalar engine, which is the point: the engines
    differ only in how a batch occupies the queue, never in what order
    anything fires.
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
