"""Canonical hardware configuration of the paper's testbed (section 5.1).

"Our implementation and experimentation environment consists of four PCI
PCs connected to a Myrinet switch (M2F-SW8) via Myrinet PCI network
interfaces (M2F-PCI32).  In addition, the PCs are also connected by an
Ethernet.  Each PC is a Dell Dimension P166 with a 166 MHz Pentium CPU
with 512 KByte L2 cache ... Intel 430FX (Triton) chipset ... 64 MBytes of
EDO main memory ... Linux OS version 2.0."

Every cost constant in the simulator is reachable from this one object so
benchmarks, tests and ablations share a single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from repro.hw.bus.eisa import EISAParams
from repro.hw.bus.membus import MemoryBusParams
from repro.hw.bus.pci import PCIParams
from repro.hw.myrinet.link import LinkParams
from repro.hw.myrinet.topology import TopologySpec
from repro.hostos.ethernet import EthernetParams
from repro.hostos.kernel import KernelParams
from repro.vmmc.lcp import LCPCosts


@dataclass(frozen=True)
class TestbedConfig:
    """All tunables of one simulated cluster."""

    #: Not a pytest test class despite the name.
    __test__ = False

    nnodes: int = 4
    memory_mb: int = 64
    #: The fabric: a :class:`~repro.hw.myrinet.topology.TopologySpec`, a
    #: compact string (``"fattree:4"``, ``"mesh:8x8"`` — see
    #: :func:`repro.hw.myrinet.topology.parse`), or the legacy names
    #: ``"single_switch"`` / ``"dual_switch"`` sized by ``nnodes``.  When
    #: the spec fixes its own host count (every non-legacy form),
    #: :class:`~repro.cluster.Cluster` normalizes ``nnodes`` to match.
    topology: Union[str, TopologySpec] = "single_switch"
    pci: PCIParams = field(default_factory=PCIParams)
    eisa: EISAParams = field(default_factory=EISAParams)
    membus: MemoryBusParams = field(default_factory=MemoryBusParams)
    link: LinkParams = field(default_factory=LinkParams)
    ethernet: EthernetParams = field(default_factory=EthernetParams)
    kernel: KernelParams = field(default_factory=KernelParams)
    lcp: LCPCosts = field(default_factory=LCPCosts)

    def with_(self, **overrides) -> "TestbedConfig":
        """A modified copy (ablation helper)."""
        return replace(self, **overrides)

    @property
    def memory_bytes(self) -> int:
        return self.memory_mb * 1024 * 1024


#: The configuration used by all paper-reproduction benchmarks.
PAPER_TESTBED = TestbedConfig()
