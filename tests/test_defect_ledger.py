"""The defect ledger: each measured wrong answer of the package is a strict
xfail, so it shows as ``xfailed`` in every test run.

A change that fixes one sees ``XPASS(strict)`` fail, and takes that marker
off, so the test stays as a regression test.  Each marker's reason names
the ROADMAP direction that owns the defect.  The seeds and counts are the
ledger's: changing them to make a test pass defeats it.

Unless a test says otherwise the rate is ``classical_ps`` with exp(1)
arrivals, the draws come from ``backward_coupling_ps_batch`` with
``max_lookback`` 5000, and input ``i`` of seed ``s`` is
``replication_seed(s, i)``.  With Poisson arrivals the occupancy of an M/G/1
processor-sharing queue is geometric, with mean ``rho / (1 - rho)`` and
variance ``rho / (1 - rho)**2`` whatever the service law (insensitivity);
"within 3 SE" uses that exact variance.
"""

import math

import pytest

from gpsq.input_process import Exponential, Pareto, iid_input, replication_seed
from gpsq.rates import classical_ps, table_rate
from gpsq.stationary import backward_coupling_ps_batch, check_stability
from test_golden import NEAR_PS_TABLE

DRAWS = 2000


def ledger(direction, defect):
    """A ledger entry's marker: any other exception than the failed
    assertion is a real failure."""
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP direction {direction}: {defect}")


def mean_n(xi, sigma, seeds, **kw):
    """Mean occupancy of ``DRAWS`` perfect samples per seed, pooled."""
    ns = []
    for s in seeds:
        gens = [iid_input(xi, sigma, seed=replication_seed(s, i)) for i in range(DRAWS)]
        ns += [rep.stationary_profile.num_atoms
               for rep in backward_coupling_ps_batch(gens, classical_ps(), **kw)]
    return sum(ns) / len(ns), len(ns)


def assert_geometric_mean(mean, count, rho):
    exact = rho / (1.0 - rho)
    se = math.sqrt(rho / (1.0 - rho) ** 2 / count)
    assert abs(mean - exact) <= 3.0 * se, f"mean_n {mean:.4f}, z = {(mean - exact) / se:.2f}"


def test_control_mm1_at_half_load():
    # entry 1's assertion where the sampler is right: it raises no false alarm
    assert_geometric_mean(*mean_n(Exponential(1.0), Exponential(0.5), (11, 12, 13),
                                  max_lookback=5000), 0.5)


@ledger(1, "the certificate's margin is too small near rho = 1 "
           "(mean_n 8.43 against 9 at rho = 0.9)")
def test_entry_1_mm1_at_rho_0_9():
    assert_geometric_mean(*mean_n(Exponential(1.0), Exponential(0.9), (11, 12, 13),
                                  max_lookback=5000), 0.9)


@ledger(11, "with infinite-variance service the certificate states no bound "
            "(mean_n 5.25 against 9)")
def test_entry_11_pareto_service_at_rho_0_9():
    # Pareto(1.5, 0.3) has mean 0.9
    assert_geometric_mean(*mean_n(Exponential(1.0), Pareto(1.5, 0.3), (11,),
                                  max_lookback=5000), 0.9)


@ledger(12, "the certificate's absolute tolerance depends on the time unit "
            "(mean_n 1.66 against 7/3)")
def test_entry_12_time_unit_2_to_the_minus_30():
    # the M/M/1 case at rho = 0.7 in a time unit of 2**30, default max_lookback
    unit = 2.0**-30
    assert_geometric_mean(*mean_n(Exponential(unit), Exponential(0.7 * unit), (11,)), 0.7)


@ledger(2, "the verdict compares with the throughput floor, but this table's "
           "throughput grows without bound")
def test_entry_2_growing_table_is_not_unstable():
    gen = iid_input(Exponential(1.0), Exponential(1.08), seed=7)
    rep = check_stability(gen, table_rate(NEAR_PS_TABLE, declared_floor=0.9), n_samples=1000)
    assert rep.verdict != "unstable", f"{rep.verdict}, margin {rep.margin:.3f}"
