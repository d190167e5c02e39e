"""Fixed reference computations, timed beside the measured work to factor out machine speed.

On a shared machine the speed of one core drifts by tens of percent, in
phases of seconds to minutes. A time divided by a kernel's time taken beside
it keeps a change to the package and loses most of that drift. Neither kernel
touches the package.

- ``Calibration`` repeats the operation the selector spends its time in, a
  dense symmetric eigendecomposition, at the workload's order ``n - 1``;
  measured beside PoCS-heavy units it also tracked their drift better than a
  loop of small matrix-vector products did. The units are timed against it.
- ``interpreter_kernel`` unmarshals code objects, builds dictionaries and
  runs a bytecode loop, the kind of work an ``import`` does. Set-up time is
  almost all imports, so set-up is timed against it.
"""

from __future__ import annotations

import marshal
from time import perf_counter

# the interpreter kernel's time on a core at reference speed: set-up seconds are
# reported as set-up time over the kernel's time beside it, times this constant
# (about the kernel's time on a 2-core x86-64 container at its faster speed)
INTERPRETER_REF_S = 0.030

_SOURCE = "\n".join(f"def f{i}(a, b={i}):\n    return [a * b + j for j in range(3)]\n" for i in range(200))
_CODE = marshal.dumps(compile(_SOURCE, "<kernel>", "exec"))


def interpreter_kernel() -> float:
    """Seconds taken by a fixed piece of pure-Python work."""
    start = perf_counter()
    for _ in range(40):
        marshal.loads(_CODE)
        {f"k{i}": [i, str(i)] for i in range(300)}
    total = 0
    for i in range(300_000):
        total += i * i
    return perf_counter() - start


class Calibration:
    """Times a dense symmetric eigendecomposition of order ``n - 1``."""

    def __init__(self, n: int):
        import numpy as np

        a = np.random.default_rng(0).standard_normal((n - 1, n - 1))
        self._sym = a + a.T
        self._eigh = np.linalg.eigh
        # 40 of order 99 at n=100 and the floor of 3 of order 399 at n=400: about
        # 42 and 50 ms on one core of a 2-core x86-64 container
        self._reps = max(3, round(40 * (100 / n) ** 3))
        self.samples: list[float] = []

    def run(self, times: int = 1) -> None:
        for _ in range(times):
            start = perf_counter()
            for _ in range(self._reps):
                self._eigh(self._sym)
            self.samples.append(perf_counter() - start)
