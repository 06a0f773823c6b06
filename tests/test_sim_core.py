"""Unit tests for the discrete-event engine core (Environment/Event/Process)."""

import pytest

from repro.sim import (
    US,
    AllOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    SimulationStalled,
    Timeout,
    ns_to_us,
    us,
)


def test_time_helpers_roundtrip():
    assert us(9.8) == 9800
    assert ns_to_us(9800) == pytest.approx(9.8)
    assert us(0) == 0


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0
    assert env.now_us == 0.0


def test_timeout_advances_clock():
    env = Environment()
    done = {}

    def proc():
        yield env.timeout(5 * US)
        done["t"] = env.now

    env.process(proc())
    env.run()
    assert done["t"] == 5 * US
    assert env.now == 5 * US


def test_timeout_value_passed_through():
    env = Environment()
    got = {}

    def proc():
        got["v"] = yield env.timeout(10, value="payload")

    env.process(proc())
    env.run()
    assert got["v"] == "payload"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_process_return_value_is_event_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 42

    p = env.process(proc())
    env.run()
    assert p.triggered and p.ok
    assert p.value == 42


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(3)
        return "done"

    p = env.process(proc())
    assert env.run(until=p) == "done"


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10)

    env.process(proc())
    env.run(until=105)
    assert env.now == 105


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(100)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_waits_on_another_process():
    env = Environment()
    log = []

    def child():
        yield env.timeout(7)
        log.append(("child", env.now))
        return "child-result"

    def parent():
        result = yield env.process(child())
        log.append(("parent", env.now))
        assert result == "child-result"

    env.process(parent())
    env.run()
    assert log == [("child", 7), ("parent", 7)]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    got = {}

    def waiter():
        got["v"] = yield gate

    def opener():
        yield env.timeout(50)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert got["v"] == "open"


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_failed_event_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = {}

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught["exc"] = exc

    def failer():
        yield env.timeout(1)
        gate.fail(ValueError("boom"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert isinstance(caught["exc"], ValueError)


def test_unhandled_failed_event_escalates():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()


def test_process_exception_propagates_to_waiter():
    env = Environment()
    caught = {}

    def bad():
        yield env.timeout(1)
        raise KeyError("inner")

    def outer():
        try:
            yield env.process(bad())
        except KeyError as exc:
            caught["exc"] = exc

    env.process(outer())
    env.run()
    assert "exc" in caught


def test_run_until_failed_process_raises():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("surface me")

    p = env.process(bad())
    with pytest.raises(ValueError, match="surface me"):
        env.run(until=p)


def test_yield_non_event_is_error():
    env = Environment()
    caught = {}

    def bad():
        try:
            yield 123
        except SimulationError as exc:
            caught["exc"] = exc

    env.process(bad())
    env.run()
    assert "exc" in caught


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(1000)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def interrupter(target):
        yield env.timeout(10)
        target.interrupt("wake-up")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [(10, "wake-up")]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    assert not p.is_alive
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def worker():
        try:
            yield env.timeout(1000)
        except Interrupt:
            log.append("interrupted")
        yield env.timeout(5)
        log.append(env.now)

    def poker(target):
        yield env.timeout(10)
        target.interrupt()

    p = env.process(worker())
    env.process(poker(p))
    env.run()
    assert log == ["interrupted", 15]


def test_run_until_event_deadlock_detected():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError, match="deadlock") as info:
        env.run(until=never)
    stalled = info.value
    assert isinstance(stalled, SimulationStalled)
    assert (stalled.now, stalled.event, stalled.name, stalled.blocked_on) \
        == (0, never, None, None)


def test_a_stalled_process_names_what_it_is_blocked_on():
    env = Environment()
    never = env.event()

    def waiter():
        yield env.timeout(40)
        yield never

    proc = env.process(waiter(), name="waiter")
    with pytest.raises(SimulationStalled, match="'waiter' is blocked on") \
            as info:
        env.run(until=proc)
    stalled = info.value
    assert (stalled.now, stalled.event, stalled.name, stalled.blocked_on) \
        == (40, proc, "waiter", never)


def test_peek_and_step():
    env = Environment()
    env.timeout(25)
    assert env.peek() == 25
    env.step()
    assert env.now == 25
    assert env.peek() is None
    with pytest.raises(SimulationError):
        env.step()


def test_already_processed_event_yield_returns_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    env.run()  # process the event so it is 'processed'
    got = {}

    def late_waiter():
        got["v"] = yield ev
        got["t"] = env.now

    env.process(late_waiter())
    env.run()
    assert got == {"v": "early", "t": 0}


def test_nested_process_chain_times_accumulate():
    env = Environment()

    def inner():
        yield env.timeout(3)
        return 1

    def middle():
        v = yield env.process(inner())
        yield env.timeout(4)
        return v + 1

    def outer():
        v = yield env.process(middle())
        yield env.timeout(5)
        return v + 1

    p = env.process(outer())
    env.run()
    assert p.value == 3
    assert env.now == 12


def test_interrupt_beats_same_time_timeout():
    # An interrupt scheduled at the same timestamp as the timeout the
    # process waits on must be delivered as the interrupt, not the timeout.
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(10)
            log.append("timeout")
        except Interrupt:
            log.append("interrupt")

    def poker(target):
        yield env.timeout(10)
        if target.is_alive:
            target.interrupt()

    p = env.process(sleeper())
    env.process(poker(p))
    env.run()
    # sleeper's timeout fires first in FIFO order (it was scheduled first),
    # so by the time poker runs the process is done and not interrupted.
    assert log == ["timeout"]


def test_many_processes_scale():
    env = Environment()
    counter = {"n": 0}

    def worker(i):
        yield env.timeout(i)
        counter["n"] += 1

    for i in range(1000):
        env.process(worker(i))
    env.run()
    assert counter["n"] == 1000
    assert env.now == 999


# -- coverage gaps: combinators, interrupts, defusing, error propagation ----
def test_event_and_combinator_waits_for_both():
    env = Environment()
    got = {}

    def proc():
        result = yield env.timeout(5, value="a") & env.timeout(9, value="b")
        got["values"] = sorted(result.values())
        got["t"] = env.now

    env.process(proc())
    env.run()
    assert got["values"] == ["a", "b"]
    assert got["t"] == 9


def test_event_or_combinator_fires_on_first():
    env = Environment()
    got = {}

    def proc():
        result = yield env.timeout(5, value="fast") | env.timeout(50)
        got["values"] = list(result.values())
        got["t"] = env.now

    env.process(proc())
    env.run()
    assert got["values"] == ["fast"]
    assert got["t"] == 5


def test_interrupt_during_timeout_preempts_the_wait():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(1000)
            log.append(("slept", env.now))
        except Interrupt as exc:
            log.append(("interrupted", env.now, exc.cause))

    def poker(target):
        yield env.timeout(7)
        target.interrupt("wake up")

    target = env.process(sleeper())
    env.process(poker(target))
    env.run()
    # The interrupt lands mid-timeout; the abandoned timeout still fires
    # at t=1000 but resumes nothing.
    assert log == [("interrupted", 7, "wake up")]
    assert env.now == 1000


def test_defuse_silences_unobserved_failure():
    env = Environment()
    bad = env.event()
    bad.fail(RuntimeError("nobody is listening"))
    bad.defuse()
    env.run()  # would raise without the defuse
    assert not bad.ok


def test_unobserved_failure_escalates_without_defuse():
    env = Environment()
    env.event().fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_defused_fail_combines_fail_and_defuse():
    env = Environment()
    bad = env.event()
    bad.defused_fail(ValueError("pre-handled"))
    env.run()
    assert bad.triggered and not bad.ok
    assert isinstance(bad.value, ValueError)


def test_simulation_error_propagates_through_nested_processes():
    env = Environment()

    def inner():
        yield "not an event"  # engine misuse -> SimulationError

    def middle():
        yield env.process(inner())

    def outer():
        yield env.process(middle())

    top = env.process(outer())
    with pytest.raises(SimulationError, match="non-event"):
        env.run(until=top)


class Wire:
    """A device model whose operation is a generator function."""

    def __init__(self, env):
        self.env = env
        self.settled = []

    def settle(self, ns):
        self.settled.append(ns)
        yield self.env.timeout(ns)


def test_yielding_a_bare_generator_names_it_and_both_fixes():
    # `yield wire.settle(n)` with the `from` forgotten: never
    # auto-wrapped into a process.
    env = Environment()
    wire = Wire(env)

    def app():
        yield wire.settle(64)

    with pytest.raises(SimulationError) as raised:
        env.run(until=env.process(app()))
    message = str(raised.value)
    assert "process 'app' yielded the generator Wire.settle()" in message
    assert "`yield from Wire.settle(...)`" in message
    assert "`env.process(Wire.settle(...))`" in message
    assert env.events_processed == 2      # app's start and its failure
    assert wire.settled == []             # the operation never began


def test_run_until_a_bare_generator_is_a_typed_error():
    env = Environment()

    def app():
        yield env.timeout(5)

    with pytest.raises(SimulationError,
                       match=r"run\(until=\.\.\.\) was given the generator "
                             r".*app\(\).*env\.process"):
        env.run(until=app())
    assert env.now == 0 and env.events_processed == 0


def test_nested_process_exception_can_be_caught_by_parent():
    env = Environment()
    got = {}

    def inner():
        yield env.timeout(1)
        raise ValueError("inner exploded")

    def outer():
        try:
            yield env.process(inner())
        except ValueError as exc:
            got["caught"] = str(exc)

    env.process(outer())
    env.run()
    assert got["caught"] == "inner exploded"


# -- one engine ------------------------------------------------------------
def test_only_the_scalar_engine_exists():
    from repro.cluster import Cluster
    from repro.sim import resolve_engine

    assert resolve_engine() == resolve_engine("scalar") == "scalar"
    with pytest.raises(SimulationError, match="vector"):
        Environment(engine="vector")
    with pytest.raises(SimulationError, match="vector"):
        Cluster.build(engine="vector")


def test_run_variants():
    env = Environment()

    def work():
        yield env.timeout(7)
        return "ret"

    assert env.run(until=env.process(work())) == "ret"

    env2 = Environment()
    env2.timeout(100)
    env2.run(until=50)
    assert env2.now == 50
    assert env2.events_processed == 0

    env3 = Environment()
    with pytest.raises(SimulationError, match="deadlock"):
        env3.run(until=env3.event())


def test_run_until_past_time_is_refused():
    env = Environment()
    env.timeout(100)
    env.run()
    assert env.now == 100
    with pytest.raises(SimulationError, match=r"until=50.*now=100"):
        env.run(until=50)
    assert env.now == 100          # the clock did not rewind
    env.run(until=100)             # "until now" stays a legal no-op
    assert env.now == 100


# -- a finished process nobody waits on ---------------------------------------
def test_unwatched_process_finish_schedules_nothing():
    env = Environment()

    def work():
        yield env.timeout(5)
        return "ret"

    p = env.process(work())
    env.run()
    # Its start and its one timeout: the finish is settled in place.
    assert env.events_processed == 2
    assert p.processed and p.ok and p.value == "ret" and not p.is_alive
    assert env._queue == []


def test_watched_process_finish_is_still_an_event():
    env = Environment()

    def work():
        yield env.timeout(5)
        return "ret"

    def waiter(p):
        return (yield p)

    w = env.process(waiter(env.process(work())))
    env.run()
    # Two starts, the timeout, the watched finish (the waiter's own end
    # is unwatched).
    assert env.events_processed == 4
    assert w.value == "ret"


def test_a_finished_process_gives_its_value_at_once():
    env = Environment()

    def work():
        yield env.timeout(3)
        return "ret"

    p = env.process(work())
    env.run()
    assert p.processed
    got = []

    def late():
        got.append(((yield p), env.now))
        both = yield AllOf(env, [p])
        got.append((both[p], env.now))

    env.run(until=env.process(late()))
    assert got == [("ret", 3), ("ret", 3)]
    before = env.events_processed
    assert env.run(until=p) == "ret"
    assert env.events_processed == before and env.now == 3


def test_an_unwatched_failure_still_escalates():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise KeyError("unobserved")

    env.process(bad())
    with pytest.raises(KeyError, match="unobserved"):
        env.run()


def test_interrupting_a_process_finished_in_place_raises():
    env = Environment()

    def quick():
        return "done"
        yield  # pragma: no cover - makes this a generator

    p = env.process(quick())
    env.run()
    assert p.processed and p.value == "done"
    with pytest.raises(SimulationError, match="finished"):
        p.interrupt("late")
