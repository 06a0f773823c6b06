"""Page-based distributed shared memory over VMMC (extension).

The paper's automatic-update and deliberate-update mappings give
processes windows into each other's memory; this package builds the
classic next step the VMMC authors position the primitive for — a
**shared virtual address space** spanning the cluster, implemented
entirely with the library's own layers:

* page data moves as VMMC remote writes over
  :mod:`repro.vmmc.reliable` channels (crash-hardened, exactly-once);
* coherence is home-based MRSW write-invalidate realising sequential
  consistency (:mod:`repro.dsm.directory`, :mod:`repro.dsm.node`);
* barriers and locks are requests to rank 0 on the same channels
  (``wire.OP_BARRIER`` / ``OP_LOCK`` / ``OP_UNLOCK``), behind the
  application facade in :mod:`repro.dsm.sync`;
* every run is audited by a linearizability-witness checker
  (:mod:`repro.dsm.checker`) and can execute under seeded fault
  campaigns (:mod:`repro.dsm.bench`, ``python -m repro campaign run dsm``).
"""

from repro.dsm.checker import DsmOp, check_sequential_consistency
from repro.dsm.directory import (DirEntry, DirectoryError, EXCLUSIVE,
                                 PageDirectory, SHARED)
from repro.dsm.node import DsmError, DsmNode, wire_dsm
from repro.dsm.sync import DsmSegment, build_dsm_world, wire_dsm_world
from repro.dsm.bench import run_dsm_trial

__all__ = [
    "DirEntry",
    "DirectoryError",
    "DsmError",
    "DsmNode",
    "DsmOp",
    "DsmSegment",
    "EXCLUSIVE",
    "PageDirectory",
    "SHARED",
    "build_dsm_world",
    "check_sequential_consistency",
    "run_dsm_trial",
    "wire_dsm",
    "wire_dsm_world",
]
