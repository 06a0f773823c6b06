"""User process model: identity, address space, signal handlers.

A :class:`UserProcess` is not itself a simulation process — application
code in examples/benchmarks runs as plain generators that call library
functions.  The object carries what the OS needs to know: the pid, the
address space, and registered signal handlers (VMMC notifications are
delivered as signals, section 5.1).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from repro.mem.virtual import AddressSpace

_pids = itertools.count(100)


@contextmanager
def fresh_pid_namespace(first: int = 100) -> Iterator[None]:
    """Run a block with pid allocation restarted from ``first``.

    Pids are allocation-order identifiers from a process-global counter,
    so two otherwise identical simulations started at different points
    in one interpreter get different pids.  The campaign runner
    (:func:`repro.campaign.runner.run_trial`) wraps every trial in this,
    so a trial's fingerprint does not depend on what ran before it, and
    an inline run and a forked pool agree; the previous counter is
    restored on exit.
    """
    global _pids
    saved = _pids
    _pids = itertools.count(first)
    try:
        yield
    finally:
        _pids = saved


class UserProcess:
    """One user process on one node."""

    def __init__(self, space: AddressSpace, name: str = ""):
        self.pid = next(_pids)
        self.space = space
        self.name = name or f"pid{self.pid}"
        self._signal_handlers: dict[int, Callable[[Any], object]] = {}
        self.signals_received: list[tuple[int, Any]] = []

    def register_signal_handler(self, signo: int,
                                handler: Callable[[Any], object]) -> None:
        self._signal_handlers[signo] = handler

    def signal_handler(self, signo: int) -> Optional[Callable[[Any], object]]:
        return self._signal_handlers.get(signo)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UserProcess({self.name}, pid={self.pid})"
