"""pytest-benchmark cases for one arrival-to-arrival ``step`` at occupancy
1, 10 and 100 under ``half_interference``.

Each call admits one customer into ``n - 1`` atoms of 1..10 and drains for
1e-3, too short for anyone to leave, so every call drains exactly ``n``
customers.  Kept outside ``testpaths``; ``bench/write_bench.py`` turns the
timings into µs per step.
"""

import numpy as np
import pytest

from gpsq.dynamics import step
from gpsq.measures import CountingMeasure
from gpsq.rates import half_interference

CALLS = 1000


@pytest.mark.parametrize("n", [1, 10, 100])
def test_step(benchmark, n):
    mu = CountingMeasure(np.random.default_rng(0).uniform(1.0, 10.0, n - 1))
    r = half_interference()

    def steps():
        for _ in range(CALLS):
            step(mu, 5.0, 1e-3, r)

    benchmark(steps)
    assert step(mu, 5.0, 1e-3, r).num_atoms == n
    benchmark.extra_info.update(unit="us_per_step", count=CALLS)
