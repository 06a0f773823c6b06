"""One cluster node: PC + Myrinet NIC + OS + VMMC system software."""

from __future__ import annotations

from typing import Optional

from repro.sim import Environment
from repro.mem.buffers import UserBuffer
from repro.mem.physical import PhysicalMemory
from repro.mem.virtual import AddressSpace, PAGE_SIZE
from repro.hw.bus.membus import MemoryBus
from repro.hw.bus.pci import PCIBus
from repro.hw.lanai.nic import LanaiNIC
from repro.hw.myrinet.network import MyrinetNetwork
from repro.hostos.ethernet import EthernetNetwork
from repro.hostos.kernel import Kernel
from repro.hostos.process import UserProcess
from repro.vmmc.api import VMMCEndpoint
from repro.vmmc.daemon import VMMCDaemon
from repro.vmmc.driver import VMMCDriver
from repro.vmmc.lcp import VmmcLCP
from repro.cluster.config import TestbedConfig


class Node:
    """A Dell Dimension P166 with a Myrinet PCI interface."""

    def __init__(self, env: Environment, name: str, index: int,
                 fabric: MyrinetNetwork, ether: EthernetNetwork,
                 config: TestbedConfig):
        self.env = env
        self.name = name
        self.index = index
        self.config = config
        # Hardware.
        self.memory = PhysicalMemory(config.memory_bytes, reserved_frames=64)
        self.pci = PCIBus(env, config.pci, name=f"{name}.pci")
        self.membus = MemoryBus(env, config.membus)
        self.nic = LanaiNIC(env, fabric, name, self.pci, self.memory)
        # OS + VMMC system software.
        self.kernel = Kernel(env, name=f"{name}.kernel",
                             params=config.kernel)
        self.lcp = VmmcLCP(env, self.nic, index, self.memory.nframes,
                           costs=config.lcp, name=f"{name}.lcp")
        self.driver = VMMCDriver(env, self.kernel, self.lcp,
                                 name=f"{name}.vmmc_drv")
        self.daemon = VMMCDaemon(env, name, self.kernel, self.driver, ether)
        self._booted = False

    # -- boot -------------------------------------------------------------------
    def boot(self, routes: dict[int, list[int]]) -> None:
        """Install the mapping phase's routes and start the system software."""
        if self._booted:
            raise RuntimeError(f"{self.name} already booted")
        self.lcp.install_routes(routes)
        self.lcp.start()
        self.daemon.start()
        self._booted = True

    # -- process management ----------------------------------------------------------
    def attach_process(self, proc_name: str = ""
                       ) -> tuple[UserProcess, VMMCEndpoint]:
        """Create a user process on this node and open VMMC for it.

        Allocates the process's pinned completion-word page and registers
        the process with the driver/LCP (send queue, outgoing page table
        and software TLB appear in NIC SRAM at this point).
        """
        if not self._booted:
            raise RuntimeError(f"{self.name}: attach before boot")
        space = AddressSpace(self.memory,
                             name=proc_name or f"{self.name}.proc")
        process = UserProcess(space, proc_name)
        completion = UserBuffer.alloc(space, PAGE_SIZE)
        space.pin_range(completion.vaddr, completion.nbytes)
        completion_paddr = space.translate(completion.vaddr)
        ctx = self.driver.attach_process(process, completion_paddr)
        endpoint = VMMCEndpoint(self.env, self.name, process, ctx,
                                self.lcp, self.driver, self.daemon,
                                self.membus)
        return process, endpoint

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.name}, index={self.index})"
