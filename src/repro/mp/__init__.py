"""A message-passing library built on VMMC — the intended use of the model.

The paper positions VMMC as the substrate for "a high-performance server
out of a network of commodity computer systems"; the applications its
introduction motivates are message-passing programs.  This package is the
library such programs would link: MPI-flavoured point-to-point messaging
with tags, plus the standard collectives, implemented entirely with the
*public* VMMC API in the style the paper intends:

* each pair of ranks shares a one-way **data ring** in the receiver's
  exported memory; senders deposit fragments with ``SendMsg`` and write
  the fragment header (sequence/tag/length) *last*, so in-order delivery
  makes the header's arrival publish the payload;
* flow control is VMMC-native: the receiver acknowledges consumption by
  writing a credit counter **directly into the sender's exported credit
  word** — data and acknowledgements are both just remote memory writes,
  no kernel anywhere;
* receivers spin on exported memory (no receive operation exists), and
  messages larger than a ring slot are fragmented and reassembled.

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
