"""Machine-speed yardstick for the timings.

On a shared machine the speed of one core changes by 20-40% for seconds
at a time when other tenants load it, and a run-long average does not
cancel that. The harness therefore times a fixed piece of work every
0.1-0.4 s of a run and scales each operation's duration by ref_s / (the
work's time around that operation). Reported times read as if the work
took ref_s, its time on an unloaded 2-core Intel Xeon (Python 3.11).

Each workload picks the work whose slowdown under contention matches its
own: sparse rational polynomial products on plain dicts, small for
cli-session and eliminate and large for expand (the kind of work torsal's
kernel does), and the start of a bare interpreter for cold-start. The
match is not exact (loaded phases still read a few percent off), and the
work calls nothing in torsal, so no change to torsal moves it.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from math import gcd
from time import perf_counter


def _operand(rng, terms, nvars, num, den):
    return {
        tuple(rng.randint(0, 6) for _ in range(nvars)):
            (rng.randint(1, num) * rng.choice((1, -1)), rng.randint(1, den))
        for _ in range(terms)
    }


_RNG = random.Random(0)
# small products of small coefficients, like cli-session's and eliminate's
_SMALL = (_operand(_RNG, 40, 4, 99, 30), _operand(_RNG, 40, 4, 99, 30))
# larger products of big coefficients, like expand's, which are not all in cache
_LARGE = (_operand(_RNG, 64, 5, 10**12, 10**7), _operand(_RNG, 64, 5, 10**12, 10**7))


def _product(a, b):
    out = {}
    for e1, (n1, d1) in a.items():
        for e2, (n2, d2) in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            n, d = n1 * n2, d1 * d2
            g = gcd(n, d)
            cur = out.get(key)
            if cur is None:
                out[key] = (n // g, d // g)
            else:
                n = cur[0] * d + n * cur[1]
                d = cur[1] * d
                g = gcd(n, d)
                out[key] = (n // g, d // g)
    return out


class Yardstick:
    """Timed samples of a fixed piece of work over one run, and the scale they give."""

    @classmethod
    def small(cls) -> "Yardstick":
        """2 ms of small products; its time on the reference machine is 2.1 ms."""
        return cls(lambda: _product(*_SMALL), ref_s=0.0021, every_s=0.1, repeat=2)

    @classmethod
    def large(cls) -> "Yardstick":
        """12 ms of large products; its time on the reference machine is 12 ms."""
        return cls(lambda: _product(*_LARGE), ref_s=0.012, every_s=0.2)

    def __init__(self, work, ref_s, every_s, repeat=1):
        self.work, self.ref_s, self.every_s, self.repeat = work, ref_s, every_s, repeat
        self.times = []
        self.values = []

    def sample(self) -> None:
        best = None
        for _ in range(self.repeat):
            start = perf_counter()
            self.work()
            took = perf_counter() - start
            best = took if best is None else min(best, took)
        self.times.append(perf_counter())
        self.values.append(best)

    def due(self) -> bool:
        return not self.times or perf_counter() - self.times[-1] >= self.every_s

    def scale_at(self, when: float) -> float:
        """``ref_s`` over the work's time at ``when``, interpolated."""
        i = bisect_left(self.times, when)
        if i == 0:
            value = self.values[0]
        elif i == len(self.times):
            value = self.values[-1]
        else:
            t0, t1 = self.times[i - 1], self.times[i]
            v0, v1 = self.values[i - 1], self.values[i]
            value = v0 + (v1 - v0) * (when - t0) / (t1 - t0)
        return self.ref_s / value
