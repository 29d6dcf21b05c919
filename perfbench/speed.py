"""Machine speed, measured with a fixed piece of pure-Python work.

On a shared virtual machine the speed a process gets can drift by 20% or
more over minutes, in CPU time as much as in wall time. The harness
rescales each time it reports to the speed measured while that time was
taken, so the end-to-end times compare across runs made minutes apart.
"""
from __future__ import annotations

import statistics
import threading
import time

#: loop time the rescaled metrics refer to
LOOP_REF_S = 0.0003


def loop() -> None:
    """The unit of machine speed."""
    total = 0
    for i in range(5000):
        total += i * i


def loop_time() -> float:
    """Median of five timings of ``loop`` in the calling thread."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Times ``loop`` every 20 ms on a helper thread while a pass runs.

    The helper holds the interpreter lock while it times the loop, so it
    samples the speed the pass is getting at that moment.
    """

    def __init__(self):
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(0.02):
            start = time.perf_counter()
            loop()
            self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:  # a pass shorter than one probe interval
            self.samples.append(loop_time())
