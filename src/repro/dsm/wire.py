"""DSM protocol frames, XDR-encoded (RFC 4506 via :mod:`repro.rpc.xdr`).

Every protocol message on a DSM channel is one frame::

    u32 op        one of the OP_* codes below
    u32 req_id    request correlator (0 for one-way pushes)
    u32 src       sending rank
    u32[]         per-op integer arguments (counted array)
    opaque<>      blob (page data for OP_PAGE, empty otherwise)

The frame is deliberately generic — the per-op meaning of ``ints`` is
documented on each opcode — so the directory protocol can grow ops
without touching the codec.
"""

from __future__ import annotations

from repro.rpc.xdr import XdrDecoder, pack_uints

#: Read fault → home.  ints = [page].  Reply ints = [status, xfer]
#: (``xfer`` non-zero when page data is being pushed separately).
OP_READ_FAULT = 1
#: Write fault → home.  ints = [page].  Reply ints = [status, xfer].
OP_WRITE_FAULT = 2
#: Home → copyset member: drop your read copy.  ints = [page].
OP_INVALIDATE = 3
#: Home → owner: push the page to ``to_rank`` then drop it (ownership
#: migrates to the write faulter).  ints = [page, to_rank, xfer].
OP_FLUSH = 4
#: Home → exclusive owner: push the page to ``to_rank`` and downgrade
#: WRITE → READ (a reader joins the copyset).  ints = [page, to_rank,
#: xfer].
OP_DOWNGRADE = 5
#: Home → shared owner: push the page to ``to_rank``, state unchanged.
#: ints = [page, to_rank, xfer].
OP_PUSH = 6
#: Page data push (one-way, may race the grant reply).  ints = [page,
#: xfer]; blob = the page bytes.
OP_PAGE = 7
#: Segment allocation → rank 0's bump allocator.  ints = [npages].
#: Reply ints = [status, first_page].
OP_ALLOC = 8
#: Reply to a request; req_id echoes the request's.  ints = [status,
#: *extras].
OP_REPLY = 9
#: Barrier arrival → rank 0's arrival counter.  ints = [].  The reply
#: is the release: it is sent when the last rank of the epoch arrives.
OP_BARRIER = 10
#: Lock acquire → rank 0's lock table.  ints = [lock_id].  The reply is
#: the grant (FIFO per lock id).
OP_LOCK = 11
#: Lock release → rank 0's lock table.  ints = [lock_id].  Reply status
#: is ``STATUS_NOT_HELD`` when ``src`` does not hold the lock.
OP_UNLOCK = 12

#: OP_REPLY status codes.
STATUS_OK = 0
STATUS_ERANGE = 1
STATUS_NOT_HELD = 2

_OP_NAMES = {
    OP_READ_FAULT: "read_fault", OP_WRITE_FAULT: "write_fault",
    OP_INVALIDATE: "invalidate", OP_FLUSH: "flush",
    OP_DOWNGRADE: "downgrade", OP_PUSH: "push", OP_PAGE: "page",
    OP_ALLOC: "alloc", OP_REPLY: "reply", OP_BARRIER: "barrier",
    OP_LOCK: "lock", OP_UNLOCK: "unlock",
}


def op_name(op: int) -> str:
    return _OP_NAMES.get(op, f"op{op}")


def encode(op: int, req_id: int, src: int,
           ints: tuple | list = (), blob: bytes = b"") -> bytes:
    ints = [int(v) for v in ints]
    blob = bytes(blob)
    return (pack_uints(op, req_id, src, len(ints), *ints, len(blob)) + blob
            + b"\0" * (-len(blob) % 4))


def decode(data: bytes) -> tuple[int, int, int, tuple, bytes]:
    """Returns ``(op, req_id, src, ints, blob)``."""
    dec = XdrDecoder(data)
    op, req_id, src, count = dec.unpack_uints(4)
    ints = dec.unpack_uints(count)
    return op, req_id, src, ints, dec.unpack_opaque()
