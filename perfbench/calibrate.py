"""Host-speed calibration: a fixed probe timed next to every timed interval.

The shared host this benchmark was tuned on changes speed by up to 1.6x between
stretches of seconds to minutes (thread CPU time tracks wall time, so it is
slower execution, not preemption).  Raw wall times then follow the host more
than the program.  So every op is preceded by a probe that does not touch
lbverify, and one more follows the last op:

* in-process ops: ``kernel()``, a fixed piece of scalar-Python and numpy
  float work;
* ops and set-up probes that start an interpreter: ``spawn_probe()``, the
  wall time of ``python -c "import numpy"``, before every ``SPAWN_EVERY``-th
  op and before every set-up probe.  Interpreter start and imports do not
  follow the kernel's speed (loading files and shared objects, not float
  work), but they do follow this (correlation 0.7-0.76 in log time, against
  0.55-0.61 for ``python -c pass``).

Every time is then reported at the reference speed:

    ms_at_ref = ms * ref / median(probe times)

where ``ref`` is a constant (``REF_MS`` or ``REF_SPAWN_MS``: the probe's time
on the baseline host), so the unit stays milliseconds: milliseconds on a
host where the probe takes ``ref``.  A change to the program moves the
numerator only.  Kernel times are taken around each op (``local_factors``),
since the host's speed changes from one op to the next; spawn probes cost
as much as an op, so the median of all of a run's probes is used.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

#: Median kernel time on the baseline host (2 vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6).
REF_MS = 5.0
#: Median ``python -c "import numpy"`` time on the same host.
REF_SPAWN_MS = 160.0
#: Ops per spawn probe.
SPAWN_EVERY = 4
#: Kernel times the local median spans, centred on the op: the kernels right
#: before and right after it.  Wider windows tracked the host's op-to-op
#: changes less well (20 runs per workload, 4 and 8 against 2).
WINDOW = 2

_GRID = np.linspace(0.1, 10.0, 16384)
_SMALL = np.linspace(0.1, 10.0, 256)


def _scalar(x: float) -> float:
    return math.exp(-x) * math.sqrt(x) / (1.0 + x * x)


def kernel() -> float:
    """Run the calibration kernel once and return its wall time in ms.

    It mixes what lbverify spends its time on: scalar float functions called
    one point at a time, numpy calls on short arrays and on long ones.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 8000):
        acc += _scalar(i * 1e-3)
    for _ in range(200):
        acc += float((np.exp(-_SMALL) * np.sqrt(_SMALL) / (1.0 + _SMALL * _SMALL)).sum())
    for _ in range(10):
        acc += float((np.exp(-_GRID) * np.sqrt(_GRID) / (1.0 + _GRID * _GRID)).sum())
    elapsed = (time.perf_counter() - t0) * 1e3
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite sum")
    return elapsed


def spawn_probe(env: dict[str, str]) -> float:
    """Start ``python -c "import numpy"`` with the program's environment; return its wall time in ms."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True, timeout=60)
    return (time.perf_counter() - t0) * 1e3


def local_factors(cal_ms: list[float], ref: float, window: int = WINDOW) -> list[float]:
    """Speed factor of each op from the probe times around it.

    ``cal_ms`` holds one more time than there are ops: probe i ran right
    before op i, and the last one after the last op.  Op i's factor is
    ``ref`` over the median of the ``window`` probe times centred on the op,
    that is probes i - window/2 + 1 ... i + window/2.
    """
    n = len(cal_ms)
    factors = []
    for i in range(n - 1):
        lo = max(0, min(i + 1 - window // 2, n - window))
        factors.append(ref / statistics.median(cal_ms[lo:lo + window]))
    return factors
