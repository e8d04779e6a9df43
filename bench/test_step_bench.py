"""pytest-benchmark cases for the two forward engines of the recursion:
one arrival-to-arrival ``step`` at occupancy 1, 10 and 100 under
``half_interference``, and the O(log n) heap path ``simulate_queue_path``.

Each ``step`` call admits one customer into ``n - 1`` atoms of 1..10 and
drains for 1e-3, too short for anyone to leave, so every call drains
exactly ``n`` customers.  The heap path runs ``PATH_STEPS`` steps of
``classical_ps`` at load 0.8 from the empty profile (the long-run drift
test's input), on marks read before timing, so only the heap loop is
timed.  Kept outside ``testpaths``; ``bench/write_bench.py`` turns the
timings into µs per step.
"""

import numpy as np
import pytest

from gpsq.dynamics import simulate_queue_path, step
from gpsq.input_process import Exponential, iid_input
from gpsq.measures import CountingMeasure
from gpsq.rates import classical_ps, half_interference

CALLS = 1000
PATH_STEPS = 20_000


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


class _Marks:
    """Marks read once, handed out by ``sample_block`` as lists."""

    def __init__(self, gen, n):
        self.xs, self.ss = gen.sample_block(0, n)

    def sample_block(self, a, b):
        return self.xs[a:b], self.ss[a:b]


def test_simulate_queue_path(benchmark):
    marks = _Marks(iid_input(Exponential(1.0), Exponential(0.8), seed=2024), PATH_STEPS)
    path = benchmark(simulate_queue_path, marks, classical_ps(), PATH_STEPS)
    assert path.q.size == PATH_STEPS + 1
    benchmark.extra_info.update(unit="us_per_step", count=PATH_STEPS)
