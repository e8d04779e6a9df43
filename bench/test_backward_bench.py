"""pytest-benchmark cases for the backward scans: ``lindley_W``,
``loynes_L`` and ``stationary_profile_gginf``, in µs per term read.

Every case reads exactly ``TERMS`` backward terms and certifies nothing:
``lindley_W`` at perfbench's probe shape (the shipped iid input at drain
rate 0.5, a window twice the lookback), the two record scans on Pareto
demands, whose service quantile (about 1e6) no 10 000 exponential gaps of
mean 3 can reach.  Kept outside ``testpaths``; ``bench/write_bench.py``
turns the timings into µs per term.
"""

import pytest

from gpsq.input_process import Exponential, Pareto, iid_input
from gpsq.stationary import lindley_W, loynes_L, stationary_profile_gginf

TERMS = 10_000

SHIPPED = iid_input(Exponential(3.0), Exponential(1.0), seed=12345)
HEAVY = iid_input(Exponential(3.0), Pareto(1.5, 1.0), seed=12345)

SCANS = {
    "lindley_W": lambda: lindley_W(SHIPPED, 0.5, max_lookback=TERMS,
                                   improvement_window=2 * TERMS),
    "loynes_L": lambda: loynes_L(HEAVY, max_lookback=TERMS),
    "stationary_profile_gginf": lambda: stationary_profile_gginf(HEAVY, max_lookback=TERMS),
}


@pytest.mark.parametrize("scan", list(SCANS))
def test_backward_scan(benchmark, scan):
    res = benchmark(SCANS[scan])
    assert not res.converged and res.iterations == TERMS
    benchmark.extra_info.update(unit="us_per_term", count=TERMS)
