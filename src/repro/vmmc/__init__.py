"""Virtual memory-mapped communication (VMMC) — the paper's contribution.

VMMC transfers data directly between the sender's and receiver's virtual
address spaces (section 2):

* a receiver **exports** regions of its address space as receive buffers;
* a sender **imports** them (subject to the exporter's restrictions) into
  its *destination proxy space*;
* ``SendMsg(srcAddr, destProxyAddr, nbytes)`` moves bytes from local
  virtual memory straight into the imported remote buffer — no receive
  operation, no receiver CPU involvement, no copies;
* optional **notifications** invoke a user-level handler in the receiving
  process after delivery.

Implementation pieces (section 4):

====================  =====================================================
module                role
====================  =====================================================
``pagetables``        incoming (per interface) and outgoing (per process)
                      page tables kept in LANai SRAM
``proxy``             destination proxy address space management
``tlb``               two-way set-associative software TLB in SRAM
``sendqueue``         per-process send queues in SRAM; short/long formats
``lcp``               the VMMC LANai control program (the firmware)
``mapping_lcp``       boot-time network mapping producing static routes
``driver``            the loadable kernel driver (TLB refill interrupts,
                      notification delivery via signals)
``daemon``            the per-node VMMC daemon (export/import matchmaking
                      over Ethernet)
``api``               the user-level VMMC basic library; lifecycle-aware
                      export/import handles and typed ``ProxyAddress``
                      send destinations (see docs/API.md)
``reliable``          retransmission layer over the API (extension): ACK
                      by remote-memory write, timeout + backoff + bounded
                      retries, exactly-once payload application
====================  =====================================================
"""

from repro.vmmc.errors import (
    CompletionError,
    ExportError,
    ImportDenied,
    ImportStale,
    ImportTimeout,
    InvalidSendError,
    ProxyFault,
    RetriesExhausted,
    SendError,
    VMMCError,
)
from repro.vmmc.api import (
    ExportHandle,
    ImportedBuffer,
    LifecycleState,
    ProxyAddress,
    SendHandle,
    VMMCEndpoint,
)
from repro.vmmc.daemon import ImportGrant
from repro.vmmc.pagetables import IncomingPageTable, OutgoingPageTable
from repro.vmmc.proxy import ProxySpace
from repro.vmmc.tlb import SoftwareTLB
from repro.vmmc.sendqueue import SendQueue, SHORT_SEND_LIMIT
from repro.vmmc.reliable import (
    ReliableReceiver,
    ReliableSender,
    ReliableStats,
    open_channel,
    open_mesh,
)

__all__ = [
    "CompletionError",
    "ExportError",
    "ExportHandle",
    "ImportDenied",
    "ImportGrant",
    "ImportStale",
    "ImportTimeout",
    "ImportedBuffer",
    "IncomingPageTable",
    "InvalidSendError",
    "LifecycleState",
    "OutgoingPageTable",
    "ProxyAddress",
    "ProxyFault",
    "ProxySpace",
    "ReliableReceiver",
    "ReliableSender",
    "ReliableStats",
    "RetriesExhausted",
    "SHORT_SEND_LIMIT",
    "SendError",
    "SendHandle",
    "SendQueue",
    "SoftwareTLB",
    "VMMCEndpoint",
    "VMMCError",
    "open_channel",
    "open_mesh",
]
