"""Every script in ``examples/`` runs: each ``main()`` checks its own
result (bytes delivered, a numpy reference matched) and raises if it
does not hold, so an example that rots fails here."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro import Cluster, TestbedConfig
from repro.faults import (DAEMON_COLD_CRASH, FaultCampaign, FaultEvent,
                          FaultInjector, LINK_ERROR_BURST)
from repro.mp import build_world

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def load(path):
    spec = importlib.util.spec_from_file_location(
        f"examples.{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.py")),
                         ids=lambda path: path.stem)
def test_example_runs(path, capsys):
    load(path).main()
    assert capsys.readouterr().out


HALO_FAULTS = {
    "error-burst": FaultCampaign.of("halo-burst", [
        FaultEvent(at_ns=100_000, kind=LINK_ERROR_BURST, target=link,
                   duration_ns=400_000, params={"rate": 0.5})
        for link in ("node1->sw0", "sw0->node2")]),
    "daemon-cold-crash": FaultCampaign.of("halo-cold-crash", [
        FaultEvent(at_ns=100_000, kind=DAEMON_COLD_CRASH, target="node2",
                   duration_ns=250_000)]),
}


@pytest.mark.parametrize("scenario", sorted(HALO_FAULTS))
def test_stencil_halo_exchange_is_bit_exact_under_faults(scenario):
    """The stencil's halos ride reliable channels: a bit-error burst on
    node 1's and node 2's links, or a cold restart of node 2's daemon in
    the middle of the run, is recovered and the grid still equals the
    single-node reference bit for bit."""
    stencil = load(EXAMPLES / "stencil_heat.py")
    nranks = 4
    cluster = Cluster.build(TestbedConfig(nnodes=nranks, memory_mb=32))
    env = cluster.env
    comms = build_world(cluster, slot_bytes=8192)
    full = np.random.default_rng(42).random(
        (nranks * stencil.ROWS_PER_RANK, stencil.WIDTH))
    results = {}
    FaultInjector(cluster).run(HALO_FAULTS[scenario])
    procs = [env.process(stencil.rank_program(comm, strip, results))
             for comm, strip in zip(comms, np.split(full, nranks))]
    for proc in procs:
        env.run(until=proc)
    computed = np.vstack([results[rank]["grid"] for rank in range(nranks)])
    assert np.array_equal(computed, stencil.reference(full, stencil.STEPS))
    # The faults hit the halo traffic and the channels recovered them.
    recoveries = [tx.stats.retransmits + tx.stats.reimports
                  for comm in comms for tx in comm._tx.values()]
    assert sum(recoveries) > 0
