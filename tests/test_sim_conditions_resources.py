"""Tests for condition events, resources, stores and tracing."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Resource,
    SimulationError,
    Store,
    Tracer,
    TracerOverflowWarning,
)
from repro.sim.resources import StoreGet, StorePut
from repro.sim.trace import emit


# ---------------------------------------------------------------- conditions
def test_all_of_waits_for_all():
    env = Environment()
    times = {}

    def proc():
        t1 = env.timeout(5, value="a")
        t2 = env.timeout(9, value="b")
        result = yield AllOf(env, [t1, t2])
        times["done"] = env.now
        times["values"] = sorted(result.values())

    env.process(proc())
    env.run()
    assert times["done"] == 9
    assert times["values"] == ["a", "b"]


def test_any_of_fires_on_first():
    env = Environment()
    got = {}

    def proc():
        fast = env.timeout(2, value="fast")
        slow = env.timeout(50, value="slow")
        result = yield AnyOf(env, [fast, slow])
        got["t"] = env.now
        got["values"] = list(result.values())

    env.process(proc())
    env.run()
    assert got["t"] == 2
    assert got["values"] == ["fast"]


def test_and_or_operators():
    env = Environment()
    got = {}

    def proc():
        a = env.timeout(1, value=1)
        b = env.timeout(2, value=2)
        res = yield a & b
        got["and_t"] = env.now
        c = env.timeout(1, value=3)
        d = env.timeout(100, value=4)
        res2 = yield c | d
        got["or_t"] = env.now
        got["or_vals"] = list(res2.values())

    env.process(proc())
    env.run()
    assert got["and_t"] == 2
    assert got["or_t"] == 3
    assert got["or_vals"] == [3]


def test_empty_all_of_fires_immediately():
    env = Environment()
    got = {}

    def proc():
        res = yield AllOf(env, [])
        got["t"] = env.now
        got["res"] = res

    env.process(proc())
    env.run()
    assert got == {"t": 0, "res": {}}


def test_condition_failure_propagates():
    env = Environment()
    caught = {}

    def failer():
        yield env.timeout(1)
        raise RuntimeError("inner failure")

    def waiter():
        try:
            yield AllOf(env, [env.timeout(100), env.process(failer())])
        except RuntimeError as exc:
            caught["exc"] = exc

    env.process(waiter())
    env.run()
    assert "exc" in caught


def test_condition_mixed_environments_rejected():
    env1, env2 = Environment(), Environment()
    with pytest.raises(SimulationError):
        AllOf(env1, [env1.timeout(1), env2.timeout(1)])


# ---------------------------------------------------------------- resources
def test_resource_capacity_one_serializes():
    env = Environment()
    log = []

    def user(res, tag, hold):
        with res.request() as req:
            yield req
            log.append((tag, "in", env.now))
            yield env.timeout(hold)
            log.append((tag, "out", env.now))

    res = Resource(env, capacity=1)
    env.process(user(res, "a", 10))
    env.process(user(res, "b", 10))
    env.run()
    assert log == [
        ("a", "in", 0), ("a", "out", 10),
        ("b", "in", 10), ("b", "out", 20),
    ]


def test_resource_capacity_two_overlaps():
    env = Environment()
    entries = []

    def user(res, tag):
        with res.request() as req:
            yield req
            entries.append((tag, env.now))
            yield env.timeout(10)

    res = Resource(env, capacity=2)
    for tag in "abc":
        env.process(user(res, tag))
    env.run()
    assert entries == [("a", 0), ("b", 0), ("c", 10)]


def test_resource_priority_order():
    env = Environment()
    order = []

    def holder(res):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def user(res, tag, prio, delay):
        yield env.timeout(delay)
        with res.request(priority=prio) as req:
            yield req
            order.append(tag)

    res = Resource(env, capacity=1)
    env.process(holder(res))
    env.process(user(res, "low", 5, 1))
    env.process(user(res, "high", 0, 2))  # arrives later, higher priority
    env.run()
    assert order == ["high", "low"]


def test_resource_counts():
    env = Environment()
    res = Resource(env, capacity=1)
    snap = {}

    def a():
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def b():
        yield env.timeout(1)
        req = res.request()
        snap["queued"] = res.queue_length
        snap["count"] = res.count
        yield req
        res.release(req)

    env.process(a())
    env.process(b())
    env.run()
    assert snap == {"queued": 1, "count": 1}
    assert res.count == 0


def test_free_resource_is_granted_in_place():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def user():
        with res.request() as req:
            assert req.processed and req.value is res    # no grant event
            yield req                                    # falls through
            log.append(("in", env.now, env.events_processed))
            both = yield AllOf(env, [req, env.timeout(3)])
            assert both[req] is res
            first = yield AnyOf(env, [req, env.timeout(9)])
            assert list(first) == [req]
            req.cancel()                                 # late: a no-op
            assert res.count == 1
        assert res.count == 0
        again = res.request()
        assert again.processed and res.count == 1 and res.queue_length == 0
        res.release(again)
        res.release(again)                               # idempotent
        assert res.count == 0

    env.run(until=env.process(user()))
    # Entered at t=0 on the process's own start event: nothing scheduled
    # for the grant.
    assert log == [("in", 0, 1)]


_RESOURCE_OPS = st.one_of(
    st.tuples(st.just("request"), st.integers(0, 2)),
    st.tuples(st.just("release"), st.integers(0, 30)),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("timeout"), st.integers(0, 3)),
)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 3), script=st.lists(_RESOURCE_OPS, max_size=40))
def test_resource_matches_the_sort_and_grant_model(capacity, script):
    """Same holders, grant order, grant times, count and queue_length as
    the reference: append, stable-sort by (priority, ticket), grant while
    capacity — whether a grant is made in place or by a release."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    reqs, fired = [], {}                     # real side
    queue, users, model_time = [], [], {}    # model side: ids
    priority, grant_order, model_order = [], [], []

    def model_grant():
        queue.sort(key=lambda i: (priority[i], i))
        while queue and len(users) < capacity:
            users.append(queue.pop(0))
            model_time[users[-1]] = env.now
            model_order.append(users[-1])

    def driver():
        for op, arg in script:
            if op == "timeout":
                yield env.timeout(arg)
                continue
            if op == "request":
                ident = len(reqs)
                req = res.request(priority=arg)
                reqs.append(req)
                priority.append(arg)
                if req.processed:
                    fired[ident] = env.now
                else:
                    req.callbacks.append(
                        lambda _e, i=ident: fired.__setitem__(i, env.now))
                queue.append(ident)
            elif reqs:
                ident = arg % len(reqs)
                if op == "release":
                    res.release(reqs[ident])
                    if ident in users:
                        users.remove(ident)
                    elif ident in queue:
                        queue.remove(ident)
                else:
                    reqs[ident].cancel()
                    if ident in queue:
                        queue.remove(ident)
            model_grant()
            # A grant decision is visible at once, in place or not.
            granted = [i for i, r in enumerate(reqs)
                       if r.triggered and i not in grant_order]
            assert len(granted) <= 1
            grant_order.extend(granted)
            assert grant_order == model_order
            assert res.count == len(users)
            assert res.queue_length == len(queue)
            holders = {i for i in grant_order if reqs[i] in res._users}
            assert holders == set(users)

    env.run(until=env.process(driver()))
    env.run()
    assert fired == model_time


def test_resource_bad_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


# ------------------------------------------------------------------- stores
def test_store_fifo_order():
    env = Environment()
    got = []

    def producer(store):
        for i in range(3):
            yield env.timeout(1)
            store.put(i)

    def consumer(store):
        for _ in range(3):
            item = yield store.get()
            got.append((item, env.now))

    s = Store(env)
    env.process(producer(s))
    env.process(consumer(s))
    env.run()
    assert got == [(0, 1), (1, 2), (2, 3)]


def test_store_get_blocks_until_put():
    env = Environment()
    got = {}

    def consumer(store):
        got["item"] = yield store.get()
        got["t"] = env.now

    def producer(store):
        yield env.timeout(42)
        store.put("pkt")

    s = Store(env)
    env.process(consumer(s))
    env.process(producer(s))
    env.run()
    assert got == {"item": "pkt", "t": 42}


def test_bounded_store_put_blocks_when_full():
    env = Environment()
    log = []

    def producer(store):
        for i in range(3):
            yield store.put(i)
            log.append(("put", i, env.now))

    def consumer(store):
        yield env.timeout(10)
        item = yield store.get()
        log.append(("get", item, env.now))

    s = Store(env, capacity=2)
    env.process(producer(s))
    env.process(consumer(s))
    env.run()
    # Third put had to wait for the consumer to drain one item at t=10.
    assert ("put", 0, 0) in log and ("put", 1, 0) in log
    assert ("put", 2, 10) in log


def test_store_len():
    env = Environment()
    s = Store(env)
    s.put("x")
    s.put("y")
    env.run()
    assert len(s) == 2


def test_store_bad_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Store(env, capacity=0)


def test_store_hand_off_completes_in_place():
    env = Environment()
    s = Store(env)
    put = s.put("x")
    assert put.processed and env._queue == []          # no put event
    got = s.get()
    assert got.processed and got.value == "x" and env._queue == []
    assert len(s) == 0
    # A get with nothing there waits; the put that serves it is itself
    # in place and schedules only the waiter's wake-up.
    waiting = s.get()
    assert not waiting.triggered
    assert s.put("y").processed
    assert waiting.value == "y" and len(env._queue) == 1
    # Bounded: a put into a full store waits; the get that makes room
    # is in place and admits it.
    bounded = Store(env, capacity=1)
    assert bounded.put("a").processed
    blocked = bounded.put("b")
    assert not blocked.triggered
    got = bounded.get()
    assert got.processed and got.value == "a"
    assert blocked.triggered and list(bounded.items) == ["b"]
    env.run()

    def user():
        yield s.put("z")                                # falls through
        return (yield s.get()), env.events_processed

    before = env.events_processed
    assert env.run(until=env.process(user())) == ("z", before + 1)


class _OldStore:
    """The oracle: ``Store`` before hand-offs completed in place.  Every
    put and get queues, and ``_dispatch`` triggers it — an event each."""

    def __init__(self, env, capacity=None):
        self.env = env
        self.capacity = capacity
        self.items = deque()
        self._getters = deque()
        self._putters = deque()

    def __len__(self):
        return len(self.items)

    def put(self, item):
        event = StorePut(self.env, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self):
        event = StoreGet(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self):
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


_STORE_OPS = st.one_of(
    st.tuples(st.just("put"), st.booleans()),       # and wait for it?
    st.tuples(st.just("get"), st.just(0)),
    st.tuples(st.just("coalesce"), st.just(0)),     # snoop.py's pipeline
    st.tuples(st.just("sleep"), st.integers(0, 3)),
)


@settings(max_examples=300, deadline=None)
@given(capacity=st.one_of(st.none(), st.integers(1, 3)),
       actors=st.lists(st.lists(_STORE_OPS, max_size=12),
                       min_size=1, max_size=4))
def test_store_matches_the_queue_and_dispatch_model(capacity, actors):
    """Each call is made on ``Store`` and on the old code at the same
    instant: the same items, the same value for every get, the same
    waiters resumed in the same order at the same times, the same
    ``len()`` — and a hand-off is in place exactly when the old code
    completed it within the call."""
    env = Environment()
    store, model = Store(env, capacity), _OldStore(env, capacity)
    resumed = {"store": [], "model": []}
    in_place, model_in_place = [], []
    serial, tags = iter(range(1 << 30)), iter(range(1 << 30))

    def record(log, ident, event):
        event.callbacks.append(
            lambda ev: log.append((ident, env.now, ev.value)))

    def call(op, *args):
        ident = next(serial)
        new, old = getattr(store, op)(*args), getattr(model, op)(*args)
        assert new.processed == old.triggered
        if new.processed:
            assert new.value == old.value
            in_place.append((ident, env.now, new.value))
            record(model_in_place, ident, old)
        else:
            record(resumed["store"], ident, new)
            record(resumed["model"], ident, old)
        assert list(store.items) == list(model.items)
        assert len(store) == len(model)
        return new

    def actor(ops):
        for op, arg in ops:
            if op == "sleep":
                yield env.timeout(arg)
            elif op == "put":
                put = call("put", next(tags))
                if arg:
                    yield put
            elif op == "get":
                yield call("get")
            else:
                # snoop.py: take one, then absorb what is already queued.
                yield call("get")
                while len(store):
                    assert store.items[0] == model.items[0]
                    yield call("get")

    for ops in actors:
        env.process(actor(ops))
    env.run()
    assert resumed["store"] == resumed["model"]
    assert in_place == model_in_place


# ------------------------------------------------------------------ tracing
def test_tracer_records_and_filters():
    tracer = Tracer(keep=lambda c: c.startswith("pci."))
    env = Environment(tracer=tracer)

    def proc():
        emit(env, "pci.dma.start", size=4096)
        yield env.timeout(100)
        emit(env, "lanai.loop", n=1)  # filtered out
        emit(env, "pci.dma.done", size=4096)

    env.process(proc())
    env.run()
    assert tracer.categories() == ["pci.dma.start", "pci.dma.done"]
    assert tracer.records[0].time == 0
    assert tracer.records[1].time == 100
    assert tracer.records[0].payload["size"] == 4096
    assert len(tracer.by_category("pci.dma")) == 2


def test_emit_without_tracer_is_noop():
    env = Environment()
    emit(env, "anything", x=1)  # must not raise


def test_tracer_limit():
    tracer = Tracer(limit=2)
    env = Environment(tracer=tracer)
    with pytest.warns(TracerOverflowWarning):
        for i in range(5):
            emit(env, f"cat{i}")
    assert len(tracer) == 2
    assert tracer.dropped == 3         # over-limit records are counted
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.dropped == 0
