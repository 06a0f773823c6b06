"""Seeded fuzz: random process/timeout/interrupt programs against
recorded logs.

Each seed generates a random program *spec* (numpy RNG, fixed by the
seed): a handful of processes whose op lists mix sleeps, shared-event
waits and fires, AND/OR combinators, same-tick deadline populations
(``all_of`` over a list of timeouts), process joins, and interrupts of
other live processes.  Executing a spec logs every observable step —
start/end of each process, values received, interrupt catches and
timestamps — and the log's sha256 must equal the one in
``RECORDED_ORDER``; the events the program cost must equal
``RECORDED_EVENTS``.  The two are pinned apart so that a change in event
*accounting* (an event no longer scheduled) cannot pass for, or hide
behind, a change in event *order*.

The order digests descend from logs recorded on the engine as it stood
when a second, vectorized engine was still held bit-identical to it
(hence "both engines" in the test name: the recording one and the one
under test).  This is what locks in the same-timestamp FIFO tie-break:
the programs deliberately pile many events onto shared timestamps
(delays are drawn from a tiny quantized range), so any change to the
``(time, priority, seq)`` total order shows up as a different digest.
"""

import hashlib

import numpy as np
import pytest

from repro.sim import Environment, Interrupt

N_SEEDS = 40
OPS = ("sleep", "wait_shared", "fire_shared", "population", "join",
       "interrupt", "all_of", "any_of")


def _generate_spec(seed):
    """A random program: per-process op lists, all plain data."""
    rng = np.random.default_rng(seed)
    nprocs = int(rng.integers(3, 7))
    nshared = int(rng.integers(2, 5))
    spec = []
    for p in range(nprocs):
        ops = []
        for _ in range(int(rng.integers(4, 9))):
            kind = OPS[int(rng.integers(0, len(OPS)))]
            if kind == "sleep":
                # Tiny quantized delays: maximum same-timestamp pileup.
                ops.append(("sleep", int(rng.integers(0, 6))))
            elif kind == "wait_shared":
                ops.append(("wait_shared", int(rng.integers(0, nshared))))
            elif kind == "fire_shared":
                ops.append(("fire_shared", int(rng.integers(0, nshared)),
                            int(rng.integers(0, 100))))
            elif kind == "population":
                ops.append(("population",
                            [int(d) for d in
                             rng.integers(0, 8, size=int(rng.integers(1, 24)))]))
            elif kind == "join":
                ops.append(("join", int(rng.integers(0, nprocs))))
            elif kind == "interrupt":
                ops.append(("interrupt", int(rng.integers(0, nprocs)),
                            int(rng.integers(0, 100))))
            else:  # all_of / any_of over two shared-event timeouts
                ops.append((kind, int(rng.integers(1, 6)),
                            int(rng.integers(1, 6))))
        spec.append(ops)
    return spec


def _execute(spec):
    """Run the spec; return the observable log."""
    env = Environment()
    log = []
    shared = {}
    procs = {}
    started = set()

    def get_shared(idx):
        if idx not in shared:
            shared[idx] = env.event()
        return shared[idx]

    def body(name, ops):
        started.add(name)
        log.append(("start", name, env.now))
        try:
            for op in ops:
                kind = op[0]
                if kind == "sleep":
                    yield env.timeout(op[1])
                elif kind == "wait_shared":
                    value = yield get_shared(op[1])
                    log.append(("got", name, env.now, value))
                elif kind == "fire_shared":
                    ev = get_shared(op[1])
                    if not ev.triggered:
                        ev.succeed(op[2])
                        log.append(("fired", name, env.now, op[1]))
                elif kind == "population":
                    done = yield env.all_of([env.timeout(d) for d in op[1]])
                    log.append(("population", name, env.now, len(done)))
                elif kind == "join":
                    target = f"p{op[1]}"
                    if target in procs and target != name:
                        value = yield procs[target]
                        log.append(("joined", name, env.now, target, value))
                elif kind == "interrupt":
                    target = f"p{op[1]}"
                    victim = procs.get(target)
                    if (target in started and target != name
                            and victim is not None and victim.is_alive):
                        victim.interrupt(op[2])
                        log.append(("poked", name, env.now, target))
                elif kind == "all_of":
                    result = yield (env.timeout(op[1], value="l")
                                    & env.timeout(op[2], value="r"))
                    log.append(("all", name, env.now,
                                sorted(result.values())))
                else:  # any_of
                    result = yield (env.timeout(op[1], value="l")
                                    | env.timeout(op[2], value="r"))
                    log.append(("any", name, env.now,
                                sorted(result.values())))
        except Interrupt as exc:
            log.append(("interrupted", name, env.now, exc.cause))
            return exc.cause
        log.append(("end", name, env.now))
        return name

    for i, ops in enumerate(spec):
        name = f"p{i}"
        procs[name] = env.process(body(name, ops), name=name)
    env.run()
    log.append(("final", env.now))
    return log, env.events_processed


def _digest(log):
    return hashlib.sha256(repr(log).encode()).hexdigest()


#: sha256 of ``repr(log)`` for ``log, _ = _execute(_generate_spec(seed))``,
#: seed 0..N_SEEDS-1: the event *order*.  Recorded while every finished
#: process still scheduled a completion event, on the tree that
#: reproduced the two-engine digests, and unchanged since.
RECORDED_ORDER = [
    "8efdebca135e8a168e00b2286f5f32383da416328b9471be3ca513037d493fe8",
    "925b3f1298f842fe229e8608e764eba0cb9284e7a87963ed5ec1c9d35357b3bf",
    "c6d87e2917d42229f13ff9c371b5709ee618a71d1c253ad55fa7db0e3d740521",
    "d2f676ed7be31c9750162422fe8a7a2f4819ee9134c0025c62b5b65b66b72926",
    "8217e551dc319dfaf7e82e40a0bb347ab210a71ca531cf2d70b589707d2dc787",
    "faaf2d6071fcba89513a79dc399b7dcaed10a8a94e8a6b09ac653093bce91140",
    "72ae50ded807e096435441752e7dac9fbc6e58b1e7376071f9eb890fa61113ea",
    "5b0a1bfe29bee31ee3662f966bd06f02b1cd4615a9db67d01b3da162f89dd976",
    "6ab28b0d2a4f57ade67b768fc753c40e16d4ed76dd209f092264f339790bc24b",
    "342947404ffdbd8c4f7e0564a73593e76135ef8a013dc7d11d8814119cc16949",
    "94be4438a90f0ab7f08c66f36f1b8bb14e789f2fd799b7d75a65ff504dfce267",
    "9c788be95d21e85301fc8a1e66c3ef20968e0d0cabc9c9a932dc9c8108a10941",
    "fdb55e7f2dd7b114c543901a8f3bf30f3ed8e5cf376c16c2b26496f05c3bedd0",
    "71a6cb69ea3abe15c4ddd1a64e40c99752f7397b9c0991eda5240f87a61373e0",
    "a4d923b92e5badcfe47579f7d64a68cf40439230d05710ba339bcb44144eb579",
    "69b78f0217dbb3e9a3260678710b59baa351ab420e535cdb642122575af07843",
    "2318a32d332d2342b2c764bf3a7483da74132ac820b80bb1c76898d991561942",
    "e1cd4efbe42f0c10d75e9e8b29e4685960bac33987582f13ad6dc87df4b0fa0c",
    "72c9451900f15baf659b2730cb515a76760d1b24dead0522742fb470c211245d",
    "de040b54ae47c4744e682af718f3112b1edfb52a64bfe78b7268f51dcfd2c53a",
    "1d016a78293e0b7e30bbdbfac9cc470b79821f9c21ccba14d2c03c86670846cc",
    "0449cee3d499473bb718eb534607e8ece217e20b97a434d23c60d86349574929",
    "f6650ce62d05da610ec596874e6003d31fe2764cc970acff633a13cd264dee15",
    "40590678f2e35a282d01f02aeb660fa474cc19a681024656cb3e3021c93e671b",
    "f591983580c168cdc8ea6c73533ba42c635f383ba372d2ce2966b43c021b0f64",
    "3dabfb39d59a90260c01357b74360cf93b5a70a560da708848a3bd81f20ee4bf",
    "8eb7f04220f92eca4feb393134fa9eb09e9d8740668f5cf0d222e9812dd52988",
    "f92c73d2ed655c6b53bba29f6959c936132e713957dc36cec0dd40c2de79c066",
    "72feed6b51268c30b45152e335aedb8b2c840c44767bd065fefb6b98fd8a7784",
    "b3fd65707761c3023c06fd9f4c0c0ebd4cf74fd24a0d9b6aff2710f023ead64b",
    "508607c72eae17012a2048ac61d95c7184128094dcc9885ce182e9b04a1b679f",
    "c642c0b562e69c7c0bf188d2c1bd6f4ce53454e610b117234d2c31d026ea8ba2",
    "badc0e4d17af410908a633c1f9d602d06350da8ef22831a45136e19e0bc4702a",
    "a7bd40d57cefecb9c70c940a1000e802d307e423d3d4323cc198cd9e9cf6f076",
    "b68ce46dce68f12aa9673fd082498008e09f50543ccd4e1d7ff0ae8c59677930",
    "a0652fe4edd903ef8eac226eb4f1c9583b0c0c34dc2fffe988d406778fff7c49",
    "7727992fa06a911272e17a68dd20328965ddac1960ad475b6ef43e3f5716fc6d",
    "9da75dff065812b1ebaf78505e208ace310eead57c11aa6224b36e095cf5846e",
    "4f273fe8e474342208611db6a4c3589367ed13b3c624497a7366f2266d9ecd64",
    "9ca08473557fbdd011bc8392011dbd32df7621f71708b3def1c238084792b980",
]

#: ``events_processed`` at the end of each program, seed 0..N_SEEDS-1.  A
#: process that finishes with nobody waiting on it is done in place, so
#: each is one lower per such process than when every completion was an
#: event (110, 78, 106, 59, ... then).
RECORDED_EVENTS = [
    106, 75, 102, 54, 56, 60, 60, 81, 84, 55, 54, 20, 71, 106, 21, 44, 70,
    25, 48, 68, 126, 70, 111, 52, 63, 32, 33, 39, 60, 95, 77, 51, 72, 37,
    23, 46, 86, 14, 28, 94,
]


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_random_program_identical_on_both_engines(seed):
    log, events = _execute(_generate_spec(seed))
    assert _digest(log) == RECORDED_ORDER[seed], (
        f"seed {seed}: the event order of this program moved")
    assert events == RECORDED_EVENTS[seed], (
        f"seed {seed}: same order, but the program now costs {events} "
        f"events, not {RECORDED_EVENTS[seed]}")


def test_fuzz_covers_the_interesting_ops():
    # The generator must actually exercise interrupts, populations and
    # combinators across the seed range, or the suite proves nothing.
    kinds = set()
    for seed in range(N_SEEDS):
        log, _ = _execute(_generate_spec(seed))
        kinds.update(entry[0] for entry in log)
    assert {"interrupted", "population", "all", "any", "got",
            "fired", "joined"} <= kinds


def test_scalar_rerun_is_deterministic():
    spec = _generate_spec(123)
    assert _execute(spec) == _execute(spec)
