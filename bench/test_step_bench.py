"""pytest-benchmark cases for the forward dynamics of the recursion: one
arrival-to-arrival ``step`` at occupancy 1, 10 and 100 under
``half_interference``, a forward ``leg`` as the perfect sampler runs it,
and the O(log n) heap engine ``trajectory``.

Each ``step`` call admits one customer into ``n - 1`` atoms of 1..10 and
drains for 1e-3, too short for anyone to leave, so every call drains
exactly ``n`` customers.  The ``leg`` case steps ``LEG_STEPS`` marks from
the empty profile, shaped like a forward leg of perfbench's ``sweep_mm`` at
load 0.9: its Markov-modulated input with the demands scaled to load 0.9 of
its table rate's floor, on that table rate.  The heap engine runs the
first ``PATH_STEPS`` marks of the long-run drift test's input
(``classical_ps`` at load 0.8, seed 2024) from the empty profile; the
marks are drawn before timing, so the timed call is the heap loop and the
columns it writes.  Kept outside
``testpaths``; ``bench/write_bench.py`` turns the timings into µs per
step.
"""

import numpy as np
import pytest

from gpsq.dynamics import leg, step, trajectory
from gpsq.input_process import (
    Exponential,
    generator_from_config,
    iid_input,
    replication_seed,
    scale_sigma,
)
from gpsq.measures import ZERO, CountingMeasure
from gpsq.rates import classical_ps, half_interference, table_rate

CALLS = 1000
PATH_STEPS = 20_000
LEG_STEPS = 500

# perfbench's sweep_mm input and rate
SWEEP_INPUT = {
    "model": "markov_modulated",
    "transition": [[0.9, 0.1], [0.2, 0.8]],
    "states": [
        {"xi": {"dist": "exp", "mean": 1.5}, "sigma": {"dist": "exp", "mean": 0.5}},
        {"xi": {"dist": "exp", "mean": 0.5},
         "sigma": {"dist": "uniform", "low": 0.0, "high": 2.0}},
    ],
}
SWEEP_RATE = table_rate({n: (0.9 + 0.1 / n) / n for n in range(1, 33)}, declared_floor=0.9)


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


def test_leg(benchmark):
    base = generator_from_config(SWEEP_INPUT, seed_override=replication_seed(7, 0))
    load = 0.9 * SWEEP_RATE.declared_floor * base.mean_xi() / base.mean_sigma()
    xs, ss = scale_sigma(base, load).sample_block(-LEG_STEPS, 0)
    mu = benchmark(leg, ZERO, xs, ss, SWEEP_RATE)
    assert mu == leg(ZERO, xs, ss, SWEEP_RATE)
    benchmark.extra_info.update(unit="us_per_step", count=LEG_STEPS)


def test_trajectory_steps(benchmark):
    xs, ss = iid_input(Exponential(1.0), Exponential(0.8), seed=2024).sample_block(0, PATH_STEPS)
    rows = benchmark(trajectory, ZERO, xs, ss, classical_ps())
    assert len(rows) >= PATH_STEPS  # each arrival starts a row
    benchmark.extra_info.update(unit="us_per_step", count=PATH_STEPS)
