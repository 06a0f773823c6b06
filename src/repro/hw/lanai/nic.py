"""The assembled Myrinet PCI network interface (M2F-PCI32).

:class:`LanaiNIC` wires the SRAM, processor and three DMA engines together
and exposes the two host-visible surfaces:

* the **MMIO window** — the host reads/writes LANai SRAM with programmed
  I/O across the PCI bus (this is how send requests are posted and how
  short-message data is copied into the send queue), and
* the **interrupt line** — the LCP raises host interrupts (software-TLB
  miss, notification delivery), dispatched to the registered driver.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim import Environment, Event
from repro.sim.trace import emit
from repro.mem.physical import PhysicalMemory
from repro.hw.bus.pci import PCIBus
from repro.hw.lanai.dma import HostDMAEngine, NetRecvEngine, NetSendEngine
from repro.hw.lanai.processor import LANaiProcessor
from repro.hw.lanai.sram import SRAM
from repro.hw.myrinet.network import MyrinetNetwork


class LanaiNIC:
    """One Myrinet PCI interface installed in one host."""

    def __init__(self, env: Environment, network: MyrinetNetwork,
                 host_name: str, bus: PCIBus, host_memory: PhysicalMemory):
        self.env = env
        self.host_name = host_name
        self.bus = bus
        self.sram = SRAM()
        self.processor = LANaiProcessor(env)
        self.host_dma = HostDMAEngine(env, bus, host_memory,
                                      self.sram, name=host_name)
        self.net_send = NetSendEngine(env, network, host_name)
        self.net_recv = NetRecvEngine(env, network, host_name, self.sram)
        self._interrupt_handler: Optional[Callable[[str, Any], Any]] = None
        self.interrupts_raised = 0

    # -- host-side MMIO access to SRAM ---------------------------------------
    def host_write_sram(self, addr: int, payload, words: int | None = None):
        """Generator: host writes ``payload`` into SRAM via programmed I/O.

        Cost: one posted PCI write per 32-bit word (section 5.2's
        0.121 µs each).  The byte payload lands in SRAM when the last
        write completes.
        """
        data = bytes(payload)
        nwords = words if words is not None else max(1, (len(data) + 3) // 4)
        yield from self.bus.mmio_write(nwords)
        self.sram.write(addr, data)
        emit(self.env, "nic.host_write_sram", addr=addr, nbytes=len(data))

    def host_read_sram(self, addr: int, nbytes: int):
        """Generator: host reads SRAM via programmed I/O (0.422 µs/word);
        returns the bytes read."""
        yield from self.bus.mmio_read(max(1, (nbytes + 3) // 4))
        return self.sram.read(addr, nbytes)

    # -- interrupt line ----------------------------------------------------------
    def set_interrupt_handler(self,
                              handler: Callable[[str, Any], Any]) -> None:
        """The driver registers its IRQ entry point here."""
        self._interrupt_handler = handler

    def raise_interrupt(self, reason: str, payload: Any = None):
        """Assert the PCI interrupt line; returns a generator that ends
        when the host driver has serviced it (the LCP blocks on TLB-miss
        service) and returns the handler's result."""
        if self._interrupt_handler is None:
            raise RuntimeError(
                f"{self.host_name}: interrupt with no driver attached")
        self.interrupts_raised += 1
        emit(self.env, "nic.interrupt", reason=reason)
        return self._serviced(self._interrupt_handler(reason, payload))

    def _serviced(self, result: Any):
        if hasattr(result, "__next__"):
            result = yield from result
        elif isinstance(result, Event):
            result = yield result
        return result

    # -- resource accounting (section 6 tradeoffs) ------------------------------
    def sram_usage(self) -> dict[str, int]:
        return self.sram.usage_report()
