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

from repro.sim import Environment, Event, SimulationError
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
    def host_write_sram(self, addr: int, payload,
                        words: int | None = None) -> Event:
        """Host writes ``payload`` into SRAM via programmed I/O; the event
        fires when the last write completes, which is when the bytes land.

        Cost: one posted PCI write per 32-bit word (section 5.2's
        0.121 µs each).
        """
        data = bytes(payload)
        nwords = words if words is not None else max(1, (len(data) + 3) // 4)

        def landed(_writes):
            self.sram.write(addr, data)
            if self.env.tracer is not None:
                emit(self.env, "nic.host_write_sram", addr=addr,
                     nbytes=len(data))

        written = self.bus.mmio_write(nwords)
        written.callbacks.append(landed)
        return written

    def host_read_sram(self, addr: int, nbytes: int) -> Event:
        """Host reads SRAM via programmed I/O (0.422 µs/word); the event's
        value is the bytes read."""
        done = Event(self.env)
        self.bus.mmio_read(max(1, (nbytes + 3) // 4)).callbacks.append(
            lambda _reads: done._fire(self.sram.read(addr, nbytes)))
        return done

    # -- interrupt line ----------------------------------------------------------
    def set_interrupt_handler(self,
                              handler: Callable[[str, Any], Any]) -> None:
        """The driver registers its IRQ entry point here: it returns an
        event whose value is the service's result (the driver's ISR
        process), or the result itself."""
        self._interrupt_handler = handler

    def raise_interrupt(self, reason: str, payload: Any = None) -> Event:
        """Assert the PCI interrupt line; returns the event that fires
        when the host driver has serviced it (the LCP blocks on TLB-miss
        service), valued with the handler's result."""
        if self._interrupt_handler is None:
            raise RuntimeError(
                f"{self.host_name}: interrupt with no driver attached")
        self.interrupts_raised += 1
        if self.env.tracer is not None:
            emit(self.env, "nic.interrupt", reason=reason)
        result = self._interrupt_handler(reason, payload)
        if isinstance(result, Event):
            return result
        if hasattr(result, "throw"):
            raise SimulationError(
                f"{self.host_name}: the interrupt handler returned a "
                f"generator; return the process that runs it")
        serviced = Event(self.env)
        serviced._settle(result)
        return serviced

    # -- resource accounting (section 6 tradeoffs) ------------------------------
    def sram_usage(self) -> dict[str, int]:
        return self.sram.usage_report()
