"""pytest-benchmark cases for the backward scans: ``lindley_W`` and the
infinite-server pass ``gginf_stationary``, in µs per term read.

Every case reads exactly ``TERMS`` backward terms and certifies nothing:
``lindley_W`` at perfbench's probe shape (the shipped iid input at drain
rate 0.5, a window twice the lookback), ``gginf_stationary`` on Pareto
demands, whose service quantile (about 1e6) no 10 000 exponential gaps of
mean 3 can reach, so neither its profile nor its record stops.  Kept outside ``testpaths``; ``bench/write_bench.py``
turns the timings into µs per term.

``test_coupler_pass`` times one depth pass of the perfect sampler, in µs
per term read: ``backward_coupling_ps_batch`` on a batch of ``ROWS``
shipped-law inputs with a window above ``2·max_lookback``, so that the
first depth is the cap, no epoch is tested and every row reads exactly
``TERMS`` terms (drawing the marks, the prefix sums and the suffix maxima)
and reports ``lookback_exhausted``.

``test_shipped_batch`` times ``backward_coupling_ps_batch`` on perfbench's
``ps_shipped`` shape, in ms per sample: one batch of ``ROWS`` inputs with
the shipped law (exponential gaps of mean 3 and demands of mean 1 against
``half_interference``, load 2/3), window 200 and lookback 10 000.  Every
row certifies at the first depth, 400, so the case times one many-seed
read, the screened search and the forward legs.

``test_deep_batch`` times ``backward_coupling_ps_batch`` on perfbench's
``sweep_mm`` input, in ms per sample: ``DEEP_ROWS`` replications of the
two-state Markov-modulated input against its 32-key table rate, with
demands scaled to load 0.9 of the table's floor and lookback 1000.  Its
rows certify at depths 256 and 1024, and their regeneration prefixes need
exact marks for 584 of the 1536 indices read: the deep path of the
screened search, which ``test_shipped_batch``, certifying every row at
the first depth, does not take.

``test_perfect_sample`` times ``backward_coupling_ps`` in ms per sample on
M/M/1-PS input (``classical_ps``, exponential gaps of mean 1 and demands
of mean ``rho``) at loads 0.5, 0.9 and 1.1, one sample each for
``SAMPLES`` replication seeds.  The window is fixed at 200.  At load 1.1
there is no stationary law: the sampler reports ``drift_nonnegative`` for
every sample without reading a term, window or not, so that case times the
refusal (mostly the rate's validation).
"""

import pytest

from gpsq.input_process import (
    Exponential,
    Pareto,
    generator_from_config,
    iid_input,
    replication_seed,
    scale_sigma,
)
from gpsq.rates import classical_ps, half_interference, table_rate
from gpsq.stationary import (
    backward_coupling_ps,
    backward_coupling_ps_batch,
    gginf_stationary,
    lindley_W,
)

TERMS = 10_000

SHIPPED = iid_input(Exponential(3.0), Exponential(1.0), seed=12345)
HEAVY = iid_input(Exponential(3.0), Pareto(1.5, 1.0), seed=12345)


def lindley_scan():
    return (lindley_W(SHIPPED, 0.5, max_lookback=TERMS, improvement_window=2 * TERMS),)


SCANS = {
    "lindley_W": lindley_scan,
    "gginf_stationary": lambda: gginf_stationary(HEAVY, max_lookback=TERMS),
}


@pytest.mark.parametrize("scan", list(SCANS))
def test_backward_scan(benchmark, scan):
    results = benchmark(SCANS[scan])
    assert all(not res.converged and res.iterations == TERMS for res in results)
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


def test_shipped_batch(benchmark):
    gens = [iid_input(Exponential(3.0), Exponential(1.0), seed=replication_seed(42, i))
            for i in range(ROWS)]
    reports = benchmark(backward_coupling_ps_batch, gens, half_interference(),
                        max_lookback=10_000, improvement_window=200)
    assert all(rep.coupled for rep in reports)
    benchmark.extra_info.update(unit="ms_per_sample", count=ROWS)


# perfbench's sweep_mm input and rate (perfbench/workloads.py)
MM_INPUT = {
    "model": "markov_modulated",
    "transition": [[0.9, 0.1], [0.2, 0.8]],
    "states": [
        {"xi": {"dist": "exp", "mean": 1.5}, "sigma": {"dist": "exp", "mean": 0.5}},
        {"xi": {"dist": "exp", "mean": 0.5}, "sigma": {"dist": "uniform", "low": 0.0, "high": 2.0}},
    ],
}
MM_RATE = table_rate({n: (0.9 + 0.1 / n) / n for n in range(1, 33)}, declared_floor=0.9)
DEEP_ROWS = 3


def test_deep_batch(benchmark):
    base = generator_from_config(MM_INPUT)
    scaled = scale_sigma(base, 0.9 * MM_RATE.declared_floor * base.mean_xi() / base.mean_sigma())
    gens = [scaled.with_seed(replication_seed(7, i)) for i in range(DEEP_ROWS)]
    reports = benchmark(backward_coupling_ps_batch, gens, MM_RATE, max_lookback=1000)
    assert all(rep.coupled for rep in reports)
    # the rows leave the batch at different depths D = iterations_used - m
    assert len({rep.iterations_used + rep.regeneration_index for rep in reports}) > 1
    benchmark.extra_info.update(unit="ms_per_sample", count=DEEP_ROWS)


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
