"""A message-passing library built on VMMC — the intended use of the model.

The paper positions VMMC as the substrate for "a high-performance server
out of a network of commodity computer systems"; the applications its
introduction motivates are message-passing programs.  This package is the
library such programs would link: MPI-flavoured point-to-point messaging
with tags, plus the standard collectives, implemented entirely with the
*public* VMMC API in the style the paper intends:

* each ordered pair of ranks shares one :mod:`repro.vmmc.reliable`
  channel — a sequence-stamped ring in the receiver's exported memory and
  an ACK word in the sender's, both written only by ``SendMsg`` — so the
  messaging layer inherits retransmission and cold-restart recovery and
  keeps no protocol of its own;
* messages larger than a ring slot are fragmented, posted in one call so
  their fragments stay contiguous, and reassembled per channel into
  inboxes keyed by ``(source, tag)``.

Collectives (barrier, broadcast, reduce, allreduce, gather, scatter,
alltoall) are binomial-tree / linear compositions of the point-to-point
layer.
"""

from repro.mp.comm import Communicator, MPError, build_world
from repro.mp.collectives import (
    allreduce,
    alltoall,
    barrier,
    broadcast,
    gather,
    reduce,
    scatter,
)

__all__ = [
    "Communicator",
    "MPError",
    "allreduce",
    "alltoall",
    "barrier",
    "broadcast",
    "gather",
    "reduce",
    "scatter",
    "build_world",
]
