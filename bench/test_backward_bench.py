"""pytest-benchmark cases for the backward scans: ``lindley_W``,
``loynes_L`` and ``stationary_profile_gginf``, in µs per term read.

Every case reads exactly ``TERMS`` backward terms and certifies nothing:
``lindley_W`` at perfbench's probe shape (the shipped iid input at drain
rate 0.5, a window twice the lookback), the two record scans on Pareto
demands, whose service quantile (about 1e6) no 10 000 exponential gaps of
mean 3 can reach.  Kept outside ``testpaths``; ``bench/write_bench.py``
turns the timings into µs per term.

``test_coupler_pass`` times one depth pass of the perfect sampler, in µs
per term read: ``backward_coupling_ps_batch`` on a batch of ``ROWS``
shipped-law inputs with a window above ``2·max_lookback``, so that the
first depth is the cap, no epoch is tested and every row reads exactly
``TERMS`` terms (drawing the marks, the prefix sums and the suffix maxima)
and reports ``lookback_exhausted``.

``test_perfect_sample`` times ``backward_coupling_ps`` in ms per sample on
M/M/1-PS input (``classical_ps``, exponential gaps of mean 1 and demands
of mean ``rho``) at loads 0.5, 0.9 and 1.1, one sample each for
``SAMPLES`` replication seeds.  The window is fixed at 200.  At load 1.1
there is no stationary law: the sampler reports ``drift_nonnegative`` for
every sample without reading a term, window or not, so that case times the
refusal (mostly the rate's validation).
"""

import pytest

from gpsq.input_process import Exponential, Pareto, iid_input, replication_seed
from gpsq.rates import classical_ps, half_interference
from gpsq.stationary import (
    backward_coupling_ps,
    backward_coupling_ps_batch,
    lindley_W,
    loynes_L,
    stationary_profile_gginf,
)

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


ROWS = 32


def test_coupler_pass(benchmark):
    gens = [iid_input(Exponential(3.0), Exponential(1.0), seed=replication_seed(12345, i))
            for i in range(ROWS)]
    r = half_interference()

    def run():
        return backward_coupling_ps_batch(gens, r, max_lookback=TERMS // 2,
                                          improvement_window=TERMS + 1)

    reports = benchmark(run)
    assert [(rep.reason, rep.iterations_used) for rep in reports] == [
        ("lookback_exhausted", TERMS)] * ROWS
    benchmark.extra_info.update(unit="us_per_term", count=ROWS * TERMS)


SAMPLES = 8


@pytest.mark.parametrize("rho", [0.5, 0.9, 1.1])
def test_perfect_sample(benchmark, rho):
    gens = [iid_input(Exponential(1.0), Exponential(rho), seed=replication_seed(7, i))
            for i in range(SAMPLES)]
    r = classical_ps()

    def draw():
        return [backward_coupling_ps(g, r, max_lookback=10_000, improvement_window=200)
                for g in gens]

    reports = benchmark(draw)
    coupled = [rep.coupled for rep in reports]
    # below load 1 every sample couples; at 1.1 none is searched for
    assert all(coupled) if rho < 1.0 else not any(coupled)
    benchmark.extra_info.update(unit="ms_per_sample", count=SAMPLES)
