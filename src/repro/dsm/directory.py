"""The home-based page directory — pure state, no simulation.

Each page has exactly one **home** (``page % nranks``); the home's
directory holds the page's authoritative protocol state:

* ``owner`` — the rank holding the authoritative copy (supplier of page
  data for fetches);
* ``mode`` — ``SHARED`` (owner plus zero or more readers, nobody
  writable) or ``EXCLUSIVE`` (owner writable, nobody else has a copy);
* ``copyset`` — every rank holding a valid copy.

This is MRSW write-invalidate: a read fault joins the copyset (the
exclusive owner, if any, is first downgraded); a write fault invalidates
every other copy and migrates ownership to the faulter.  The class is
deliberately simulation-free — ``begin_*`` computes the transition plan,
the caller performs the messaging, ``commit_*`` applies the new state —
so the state machine is unit-testable without a cluster.

Trusting the directory, not the client: a faulter's claim to hold a copy
is ignored — ``needs_data`` is computed from the copyset, because an
invalidation may have raced the fault request (the client believed it
had a copy when it asked; by the time the home serialises the fault the
copy is gone).  Conversely ``requester in copyset`` proves the copy is
still valid: transitions are serialised per page at the home, so no
invalidation targeting the requester can be in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dsm import wire

SHARED = "shared"
EXCLUSIVE = "exclusive"

#: Plan actions (what the home asks each involved rank to do): each is
#: the wire op that carries it.
INVALIDATE = wire.OP_INVALIDATE  #: drop your copy
FLUSH = wire.OP_FLUSH            #: push the page to the faulter, drop it
DOWNGRADE = wire.OP_DOWNGRADE    #: push the page, WRITE → READ, keep it
PUSH = wire.OP_PUSH              #: push the page, state unchanged


class DirectoryError(RuntimeError):
    """Protocol invariant violated (a bug, not a runtime condition)."""


@dataclass
class DirEntry:
    owner: int
    mode: str = SHARED
    copyset: set = field(default_factory=set)

    def check(self, page: int) -> None:
        if self.mode == EXCLUSIVE:
            if self.copyset != {self.owner}:
                raise DirectoryError(
                    f"page {page}: exclusive but copyset "
                    f"{sorted(self.copyset)} != owner {self.owner}")
        elif self.owner not in self.copyset:
            raise DirectoryError(
                f"page {page}: shared but owner {self.owner} not in "
                f"copyset {sorted(self.copyset)}")


class PageDirectory:
    """Directory state for the pages homed at one rank."""

    def __init__(self, rank: int, nranks: int, npages: int):
        self.rank = rank
        self.nranks = nranks
        self.entries: dict[int, DirEntry] = {
            page: DirEntry(owner=rank, mode=SHARED, copyset={rank})
            for page in range(npages) if page % nranks == rank
        }

    def entry(self, page: int) -> DirEntry:
        try:
            return self.entries[page]
        except KeyError:
            raise DirectoryError(
                f"page {page} not homed at rank {self.rank}") from None

    # -- read fault ---------------------------------------------------------
    def begin_read(self, page: int, requester: int) -> tuple[int, int]:
        """Plan a read fault: returns ``(supplier, action)`` — the rank
        that must push the page to the requester and what it does to its
        own copy (``DOWNGRADE`` when it was writing, ``PUSH`` when it is
        a shared owner).  Supplier ``== requester`` never happens: the
        owner holds a copy, so it cannot read-fault."""
        entry = self.entry(page)
        if requester == entry.owner:
            raise DirectoryError(
                f"page {page}: owner {requester} read-faulted")
        action = DOWNGRADE if entry.mode == EXCLUSIVE else PUSH
        return entry.owner, action

    def commit_read(self, page: int, requester: int) -> None:
        entry = self.entry(page)
        entry.mode = SHARED
        entry.copyset.add(entry.owner)
        entry.copyset.add(requester)
        entry.check(page)

    # -- write fault --------------------------------------------------------
    def begin_write(self, page: int, requester: int
                    ) -> tuple[list[tuple[int, int]], bool]:
        """Plan a write fault: returns ``(plan, needs_data)``.  ``plan``
        is ``[(rank, action), ...]`` in deterministic (sorted-rank)
        order; the owner gets ``FLUSH`` when the requester needs the page
        bytes, everyone else ``INVALIDATE``.  ``needs_data`` is computed
        from the copyset (see module docstring)."""
        entry = self.entry(page)
        needs_data = (requester not in entry.copyset
                      and entry.owner != requester)
        members = sorted((entry.copyset | {entry.owner}) - {requester})
        plan = [(member,
                 FLUSH if (member == entry.owner and needs_data)
                 else INVALIDATE)
                for member in members]
        return plan, needs_data

    def commit_write(self, page: int, requester: int) -> None:
        entry = self.entry(page)
        entry.owner = requester
        entry.mode = EXCLUSIVE
        entry.copyset = {requester}
        entry.check(page)

    # -- introspection ------------------------------------------------------
    def check_invariants(self) -> None:
        for page, entry in self.entries.items():
            entry.check(page)

    def as_dict(self) -> dict:
        return {
            page: {"owner": entry.owner, "mode": entry.mode,
                   "copyset": sorted(entry.copyset)}
            for page, entry in sorted(self.entries.items())
        }
