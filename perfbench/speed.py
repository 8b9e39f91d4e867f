"""The host's speed of the moment, from a fixed reference burst.

The CPUs this benchmark runs on are shared with other machines, and
their speed moves by up to a factor of two within seconds and by tens
of percent between minutes.  Process CPU time does not leave this out:
a fixed pure-Python loop took 0.060-0.140 s of CPU time per repeat,
exactly as much as its wall time, with steal time near 0.  So the
benchmark measures the host's speed beside the program instead.  After
every round it times one *burst*, a fixed piece of work of its own
whose make-up resembles the engine's (object churn, dict and JSON work,
small numpy arrays and thread hand-offs through a queue), and it states
each timing figure at the speed at which a burst takes
:data:`NOMINAL_S`:

    figure = measured time * NOMINAL_S / (bursts' mean time nearby)

Over 40 one-second windows of ``http_mixed`` a window's time
correlated at 0.96-0.97 with the time of either half of its bursts,
and the variation of the window times fell from 13 % to 4 % once
divided.  A change of the program's own speed
does not move the bursts, since they run no program code; a change that
makes the program's threads busy *between* requests would slow the
bursts as well and be divided away (the engine serves on demand only).
"""

from __future__ import annotations

import gc
import json
import queue
import threading
import time

import numpy as np

#: What a burst takes at the reference speed: about its median in the
#: runs of both workloads behind the reference figures in README.md
#: (4.8-5.3 ms on that 2-vCPU host).  Only ratios between runs matter;
#: a fixed divisor keeps the figures in milliseconds and seconds.
NOMINAL_S = 0.005

_ARRAY = np.random.default_rng(0).uniform(size=(256, 3))
_DOC = {"coeffs": [1.5, -2.5] * 50, "name": {"dataset": "x" * 20}}


class _Record:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


class Speed:
    """Times bursts; one echo thread serves their hand-offs."""

    HANDOFFS = 100
    CHURN = 30

    def __init__(self) -> None:
        self._requests: queue.Queue = queue.Queue()
        self._replies: queue.Queue = queue.Queue()
        self._echo = threading.Thread(target=self._serve, daemon=True,
                                      name="perfbench-speed")
        self._echo.start()

    def _serve(self) -> None:
        while True:
            item = self._requests.get()
            if item is None:
                return
            self._replies.put(item)

    def burst(self) -> float:
        """Seconds one burst takes now (garbage collection held off, so
        the program's heap does not enter the figure)."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            total = 0.0
            for i in range(self.CHURN):
                records = [_Record(j, 2 * j) for j in range(40)]
                table = {record.key: record.value for record in records}
                total += sum(table.values())
                total += float((_ARRAY[:, 0] * 0.5 + _ARRAY[:, 1]).sum())
                total += len(json.loads(json.dumps(_DOC))["coeffs"])
            for i in range(self.HANDOFFS):
                self._requests.put(i)
                self._replies.get()
            return time.perf_counter() - started
        finally:
            if collecting:
                gc.enable()

    def close(self) -> None:
        self._requests.put(None)
        self._echo.join()
