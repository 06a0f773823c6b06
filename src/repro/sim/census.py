"""Count the simulator's own work (DESIGN.md §9, "Counting the engine's
work"): heap pushes by site, ``Process``es and Python calls."""

import gc
import os
import sys
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace

from repro.sim import core

_SIM = os.path.dirname(__file__) + os.sep
_REPRO = os.path.dirname(os.path.dirname(__file__))
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}


@contextmanager
def census():
    """Swap ``repro.sim.core.heapq`` for a counting shim and wrap
    ``Process.__init__`` until the ``with`` exits, however it exits; yield
    the pushes (all, and ``at_now``) by site, ``timeouts``, ``processes``."""
    counts = SimpleNamespace(pushes=Counter(), at_now=Counter(),
                             timeouts=0, processes=[])
    heap, init = core.heapq, core.Process.__init__
    run = core.Environment.run.__code__

    def heappush(queue, item):
        heap.heappush(queue, item)
        # The site: the first frame outside ``repro/sim/`` and not a
        # comprehension (3.12 inlines them), or a core callback of ``run``.
        frame = sys._getframe(1)
        while (frame.f_code.co_filename.startswith(_SIM)
               and frame.f_back.f_code is not run
               or frame.f_code.co_name in _COMPREHENSIONS):
            frame = frame.f_back
        site = f"{frame.f_globals['__name__']}:{frame.f_code.co_name}"
        counts.pushes[site] += 1
        if item[0] == item[3].env._now:
            counts.at_now[site] += 1
        counts.timeouts += type(item[3]) is core.Timeout

    def counted_init(process, *args, **kwargs):
        init(process, *args, **kwargs)
        counts.processes.append(process.name)

    core.heapq = SimpleNamespace(heappush=heappush, heappop=heap.heappop)
    core.Process.__init__ = counted_init
    try:
        yield counts
    finally:
        core.heapq, core.Process.__init__ = heap, init


def repro_calls(work) -> int:
    """Python calls into ``src/repro`` but this file's that ``work()``
    makes, after older garbage (closing a generator is a call) is gone."""
    calls = [0]

    def profile(frame, event, _arg):
        code = frame.f_code.co_filename
        if event == "call" and code.startswith(_REPRO) and code != __file__:
            calls[0] += 1

    gc.collect()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(previous)
    return calls[0]
