"""Tests for the one-step recursion, trajectories, the fluid oracle and
the heap fast path.

Expected values for the worked examples were computed two independent
ways: by hand from the departure-time induction, and by the event-driven
fluid oracle; the randomized campaigns then tie the closed form and the
oracle together on broad instance families.
"""

import bisect
import math
import signal
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpsq import checks
from gpsq.checks import CATALOG, random_instance
from gpsq.dynamics import (
    _ORACLE_EPS,
    _drain,
    fluid_oracle_phi,
    gamma,
    gamma_values,
    last_departure_index,
    leg,
    phi,
    simulate_queue_path,
    step,
    trajectory,
)
from gpsq.input_process import Exponential, Uniform, iid_input
from gpsq.measures import ZERO, CountingMeasure
from gpsq.rates import (
    _CHECK_TOL,
    classical_ps,
    half_interference,
    pure_delay,
    scaled_ps,
    table_rate,
)

CPS = classical_ps()
HI = half_interference()
PD = pure_delay()


class TestGamma:
    def test_worked_example(self):
        mu = CountingMeasure([2, 4])
        assert gamma_values(mu, 5, CPS)[0] == pytest.approx(2.5)
        assert gamma_values(mu, 5, CPS)[1] == pytest.approx(3.0)

    def test_constant_rate_gives_x(self):
        mu = CountingMeasure([1.0, 2.5, 7.0])
        for i in (1, 2, 3):
            assert gamma_values(mu, 4.2, PD)[i - 1] == pytest.approx(4.2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gamma_values(ZERO, 1.0, CPS)
        with pytest.raises(ValueError):
            gamma(ZERO, 1.0, CPS)

    def test_max_values(self):
        mu = CountingMeasure([2, 4])
        assert gamma(mu, 5, CPS) == pytest.approx(3.0)
        assert gamma(mu, 2, CPS) == pytest.approx(1.0)
        assert gamma(CountingMeasure([3, 6, 9]), 7.5, PD) == pytest.approx(7.5)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            mu, x, r = random_instance(rng, min_atoms=1)
            assert gamma(mu, x, r) >= 0.0


class TestLastDepartureIndex:
    def test_worked_examples(self):
        mu = CountingMeasure([2, 4])
        assert last_departure_index(mu, 5, CPS) == 1
        assert last_departure_index(mu, 6, CPS) == 2
        assert last_departure_index(mu, 1, CPS) == 0

    def test_boundary_counts_as_departed(self):
        # lone customer finishing exactly at the next arrival
        assert last_departure_index(CountingMeasure([3.0]), 3.0, PD) == 1


class TestPhi:
    def test_worked_examples(self):
        mu = CountingMeasure([2, 4])
        assert phi(mu, 5, CPS).atoms == (1.0,)
        assert phi(mu, 2, CPS).atoms == (1.0, 3.0)

    def test_zero_measure_fixed_point(self):
        assert phi(ZERO, 7.0, CPS) == ZERO

    def test_pure_delay_is_plain_shift(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            mu = CountingMeasure(rng.uniform(0, 10, rng.integers(0, 8)))
            x = float(rng.uniform(0, 15))
            assert phi(mu, x, PD).tv_distance(mu.shift(x)) == 0

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError):
            phi(CountingMeasure([1.0]), -0.5, CPS)


class TestStep:
    def test_worked_examples(self):
        assert step(ZERO, 3, 1, CPS).atoms == (2.0,)
        assert step(CountingMeasure([2]), 4, 5, CPS).atoms == (1.0,)
        assert step(ZERO, 1, 3, HI) == ZERO


    def test_negative_marks_raise(self):
        with pytest.raises(ValueError, match="atom must be nonnegative"):
            step(ZERO, -1.0, 1.0, CPS)
        with pytest.raises(ValueError, match="cycle length must be nonnegative"):
            step(CountingMeasure([2.0]), 1.0, -0.5, CPS)


# perfbench's sweep_mm rate: n r(n) = 0.9 + 0.1 / n up to n = 32, then r(32)
SWEEP_TABLE = table_rate({n: (0.9 + 0.1 / n) / n for n in range(1, 33)}, declared_floor=0.9)
DRAIN_RATES = (
    CPS, HI, PD, scaled_ps(0.7), SWEEP_TABLE,
    # a step function: runs of equal rates between its keys
    table_rate({1: 1.0, 3: 0.5, 7: 0.2, 12: 0.1}, declared_floor=0.5),
    # consecutive rates an ulp apart
    table_rate({1: 1.0, 2: math.nextafter(1.0, 0.0), 3: 0.5, 4: math.nextafter(0.5, 0.0)},
               declared_floor=1.0),
    # a rise that validate allows, so the drain scans in full
    table_rate({1: 1.0, 2: 0.5, 3: 0.5 + _CHECK_TOL / 2, 6: 0.25}, declared_floor=0.9),
)


def ulps(v, k):
    """``v`` moved by ``k`` ulps."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.inf if k > 0 else 0.0)
    return v


@st.composite
def drain_cases(draw):
    """Sorted atoms, a cycle length and a rate.  An atom is drawn freely or
    within a few ulps of its own threshold (which the atoms below it fix),
    so that the thresholds turn on near-ties."""
    r = draw(st.sampled_from(DRAIN_RATES))
    n = draw(st.integers(1, 48))
    x = draw(st.one_of(st.floats(0.0, 50.0), st.sampled_from([0.0, 5e-324, 1e-300, 1e-9])))
    rates = r.rate_vector(n)
    atoms, corr = [], 0.0
    for i in range(1, n + 1):
        g = rates[n - i + 1] * (x - corr)
        if g > 0.0 and draw(st.integers(0, 3)):
            a = ulps(g, draw(st.integers(-3, 3)))
        else:
            a = draw(st.floats(0.0, 60.0))
        atoms.append(max(a, atoms[-1] if atoms else 0.0))
        if i < n:
            corr += atoms[-1] * (1.0 / rates[n - i + 1] - 1.0 / rates[n - i])
    return atoms, x, r


def head_step(mu, sigma, xi, r):
    """One step by the full threshold scan: the atom added, then the shift
    by the largest of every threshold."""
    arrived = mu.add_atom(sigma)
    return arrived.shift(max(gamma_values(arrived, xi, r)))


class ReadCounting(list):
    """A list that notes which indices are read."""

    def __init__(self, xs):
        super().__init__(xs)
        self.read = set()

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)


class TestDrain:
    @settings(max_examples=400, deadline=None)
    @given(drain_cases())
    # runs of atoms on their thresholds, where a scan that stopped at the
    # first threshold below the maximum would miss a later, larger one
    @example(([0.3953387887297386] * 2 + [0.3953387887297387] * 4 + [2.0663931855291646]
              + [7.712933030060357] * 3 + [8.525120626820518], 4.348726676027125, CPS))
    @example(([1.374833237444956] * 2 + [7.624798179508924] * 4 + [10.78422193693732],
              9.62383266211469, CPS))
    @example(([0.13554895945452666] * 3 + [7.79516368006254] * 2 + [8.389945069219317] * 3
              + [11.872305337297764] * 2, 1.489549004994799, SWEEP_TABLE))
    def test_equals_the_full_scan_bit_for_bit(self, case):
        atoms, x, r = case
        mu = CountingMeasure(atoms)
        assert gamma(mu, x, r).hex() == max(gamma_values(mu, x, r)).hex()
        rates = r.rate_vector(len(atoms))
        assert _drain(atoms, x, rates, False).hex() == max(gamma_values(mu, x, r)).hex()

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(DRAIN_RATES), st.lists(st.floats(0.0, 20.0), max_size=6),
           st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)), max_size=40))
    def test_leg_is_repeated_steps(self, r, start, marks):
        mu = CountingMeasure(start)
        expected = mu
        for xi, sigma in marks:
            expected = head_step(expected, sigma, xi, r)
        got = leg(mu, [xi for xi, _ in marks], [sigma for _, sigma in marks], r)
        assert got.atoms == expected.atoms
        assert [a.hex() for a in got.atoms] == [a.hex() for a in expected.atoms]
        if marks:
            xi, sigma = marks[0]
            assert step(mu, sigma, xi, r) == head_step(mu, sigma, xi, r)

    def test_leg_refuses_what_step_refuses(self):
        with pytest.raises(ValueError, match="atom must be nonnegative"):
            leg(ZERO, [1.0, 1.0], [1.0, -1.0], CPS)
        with pytest.raises(ValueError, match="cycle length must be nonnegative"):
            leg(ZERO, [1.0, -1.0], [1.0, 1.0], CPS)
        with pytest.raises(ValueError):
            leg(ZERO, [1.0, 1.0], [1.0], CPS)
        assert leg(CountingMeasure([3.0]), [], [], CPS) == CountingMeasure([3.0])

    def test_scan_reads_about_one_atom_per_departure(self):
        rng = np.random.default_rng(11)
        big = np.sort(rng.uniform(1.0, 10.0, 1000)).tolist()
        # a cycle too short for anyone to leave: the second threshold is
        # below the first, and the scan ends there
        atoms = ReadCounting(big)
        _drain(atoms, 1e-3, HI.rate_vector(1000), True)
        assert atoms.read == {0}
        # five customers leave: their atoms and the one above them
        atoms = ReadCounting([1e-6 * k for k in range(1, 6)] + big)
        g = _drain(atoms, 0.1, HI.rate_vector(1005), True)
        assert atoms.read == set(range(6))
        assert g == max(gamma_values(CountingMeasure(atoms), 0.1, HI))
        assert CountingMeasure(atoms).shift(g).num_atoms == 1000
        # without the early stop (a rate that rises somewhere) every
        # threshold is formed
        atoms = ReadCounting(big[:10])
        _drain(atoms, 1e-3, HI.rate_vector(10), False)
        assert atoms.read == set(range(9))

    def test_equal_rates_are_passed_over(self):
        big = ReadCounting(np.linspace(1.0, 10.0, 200).tolist())
        # pure delay: every threshold is x
        assert _drain(big, 0.5, PD.rate_vector(200), True) == 0.5
        assert big.read == set()
        # the sweep table past its last key: the scan starts at occupancy 32
        g = _drain(big, 1e-3, SWEEP_TABLE.rate_vector(200), True)
        assert big.read == {200 - 32}
        assert g == max(gamma_values(CountingMeasure(big), 1e-3, SWEEP_TABLE))


def departure_times(mu, r, horizon):
    """The instants at which ``mu``'s customers leave when nothing arrives:
    one per departed customer, read off the ends of the busy segments of
    :func:`trajectory` (simultaneous departures end one segment)."""
    times = []
    rows = trajectory(mu, [], horizon, r)
    for (_, t_end, q, _, _), nxt in zip(rows, rows[1:] + [(0, 0, 0, 0, 0)]):
        times += [t_end] * (q - nxt[2])
    return times


class TestDepartureSchedule:
    # departure times of an arrival-free drain, by the induction
    # T_i = T_{i-1} + (a_i - a_{i-1}) / r(n-i+1)
    def test_two_customer_example(self):
        assert departure_times(CountingMeasure([2, 4]), CPS, 7.0) == [4.0, 6.0]

    def test_single_customer(self):
        # alone from its arrival at t = 10, it leaves at 10 + 1.5 / r(1)
        rows = trajectory(ZERO, [(10.0, 1.5)], 12.0, HI)
        assert [t_end for _, t_end, q, _, _ in rows if q == 1] == [11.5]
        assert departure_times(CountingMeasure([1.5]), HI, 2.0) == [1.5]

    def test_pure_delay_departs_at_remaining_times(self):
        assert departure_times(CountingMeasure([1, 2, 3]), PD, 4.0) == [1.0, 2.0, 3.0]

    def test_schedule_invariants_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            mu, x, r = random_instance(rng, min_atoms=1)
            times = departure_times(mu, r, 1e6)
            assert len(times) == mu.num_atoms
            assert all(b >= a for a, b in zip(times, times[1:]))
            assert 0 <= last_departure_index(mu, x, r) <= mu.num_atoms
            assert gamma(mu, x, r) == max(gamma_values(mu, x, r))

    def test_duplicate_atoms_depart_together(self):
        rows = trajectory(CountingMeasure([2.0, 2.0]), [], 5.0, CPS)
        assert rows[0] == (0.0, 4.0, 2, 4.0, 1.0)
        assert departure_times(CountingMeasure([2.0, 2.0]), CPS, 5.0) == [4.0, 4.0]


class TestThresholdShape:
    def test_rises_to_peak_then_falls(self):
        res = checks.threshold_unimodality(np.random.default_rng(4), 1100)
        assert res.failures == 0 and res.checked >= 1000, res.detail


class TestFluidOracle:
    def test_agrees_on_worked_example(self):
        assert fluid_oracle_phi(CountingMeasure([2, 4]), 5, CPS).atoms == (1.0,)

    def test_pure_delay_is_plain_shift(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            mu = CountingMeasure(rng.uniform(0, 10, rng.integers(0, 8)))
            x = float(rng.uniform(0, 15))
            assert fluid_oracle_phi(mu, x, PD).tv_distance(mu.shift(x)) == 0

    def test_randomized_equivalence(self):
        res = checks.oracle_equivalence(np.random.default_rng(6), 2000)
        assert res.failures == 0, res.detail


@st.composite
def dominated_pair(draw):
    base = sorted(draw(st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=8)))
    # bumps are zero or well above float resolution: a sub-ulp inflation
    # makes the dominance smaller than the drain arithmetic can resolve
    bump = st.one_of(st.just(0.0),
                     st.floats(min_value=1e-6, max_value=2.0, allow_nan=False))
    bumps = draw(st.lists(bump, min_size=len(base), max_size=len(base)))
    extras = draw(st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False), max_size=3))
    mu = CountingMeasure(base)
    nu = CountingMeasure([a + b for a, b in zip(base, bumps)] + extras)
    return mu, nu


class TestMonotonicity:
    @settings(max_examples=300, deadline=None)
    @given(
        pair=dominated_pair(),
        x=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        ridx=st.integers(min_value=0, max_value=len(CATALOG) - 1),
    )
    def test_monotone_in_profile(self, pair, x, ridx):
        mu, nu = pair
        r = CATALOG[ridx]
        assert mu.leq(nu)
        assert phi(mu, x, r).leq(phi(nu, x, r)), (mu.atoms, nu.atoms, x, r.kind)

    @settings(max_examples=300, deadline=None)
    @given(
        atoms=st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                       min_size=1, max_size=8),
        x=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        scale=st.floats(min_value=0.1, max_value=0.95, allow_nan=False),
    )
    def test_monotone_in_rate(self, atoms, x, scale):
        # slower service (pointwise smaller rate) leaves a larger profile;
        # the scale stays clear of 1.0 so the dominance is not below float
        # resolution
        mu = CountingMeasure(atoms)
        fast = CPS
        slow = scaled_ps(scale)
        assert phi(mu, x, fast).leq(phi(mu, x, slow))

    def test_catalog_rate_pair(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            mu = CountingMeasure(rng.uniform(0, 10, rng.integers(1, 9)))
            x = float(rng.uniform(0, 20))
            assert phi(mu, x, CPS).leq(phi(mu, x, HI))


class TestConstantThroughputDrain:
    def test_single_step_workload_identity(self):
        # at constant total throughput k the cycle removes exactly
        # min(workload, k*x) units of work
        rng = np.random.default_rng(11)
        for _ in range(500):
            mu = CountingMeasure(rng.uniform(0, 10, rng.integers(1, 9)))
            x = float(rng.uniform(0, 20))
            k = float(rng.uniform(0.2, 1.5))
            got = phi(mu, x, scaled_ps(k)).workload
            want = max(mu.workload - k * x, 0.0)
            assert got == pytest.approx(want, abs=1e-9), (mu.atoms, x, k)


def reference_trajectory_rows(mu0, events, horizon, r):
    """The segment loop as first written: the atom list rebuilt for each
    segment, one r(q) call per segment, min() for the next event and
    ``w_start`` as ``sum(atoms)``.  It works on remaining times, not on
    absolute levels, so it rounds differently from :func:`trajectory`;
    the tests compare the two within :data:`TRAJ_TOL`."""
    atoms = [a for a in mu0.atoms if a > 0.0]
    rows = []
    t = 0.0
    ev = 0
    while t < horizon:
        next_arrival = events[ev][0] if ev < len(events) else float("inf")
        if atoms:
            q = len(atoms)
            rate = r(q)
            finish = t + atoms[0] / rate
            if finish <= t:
                d = atoms[0]
                atoms = [a - d for a in atoms]
            t_next = min(finish, next_arrival, horizon)
            drain = q * rate
        else:
            q, rate, drain = 0, 0.0, 0.0
            t_next = min(next_arrival, horizon)
        if t_next > t:
            rows.append((t, t_next, q, sum(atoms), drain))
            if atoms:
                d = rate * (t_next - t)
                atoms = [a - d for a in atoms]
        t = t_next
        while atoms and atoms[0] <= _ORACLE_EPS:
            atoms.pop(0)
        if ev < len(events) and events[ev][0] == t and t < horizon:
            bisect.insort(atoms, events[ev][1])
            ev += 1
    return rows


@st.composite
def trajectory_case(draw):
    # on a 1/4 grid, arrivals land exactly on departures (pure_delay,
    # classical_ps at q = 1), which exercises the departure-first rule
    if draw(st.booleans()):
        value = st.integers(min_value=1, max_value=12).map(lambda k: k / 4)
    else:
        value = st.floats(min_value=1e-6, max_value=3.0, allow_nan=False)
    mu0 = CountingMeasure(draw(st.lists(value, min_size=1, max_size=6)))
    gaps = draw(st.lists(value, max_size=25))
    demands = draw(st.lists(st.one_of(st.just(0.0), value),
                            min_size=len(gaps), max_size=len(gaps)))
    times, t = [], 0.0
    for g in gaps:
        times.append(t)
        t += g
    horizon = t + draw(value)
    return mu0, list(zip(times, demands)), horizon


#: Largest difference allowed between a time or workload of :func:`trajectory`
#: and of :func:`reference_trajectory_rows` on the hypothesis cases, whose
#: clocks and workloads stay below 100; 20 000 cases read 2.9e-14.
TRAJ_TOL = 1e-12


def longer_than(rows, tol):
    """The segments of ``rows`` longer than ``tol``."""
    return [row for row in rows if row[1] - row[0] > tol]


def w_end(segment):
    """Workload at the end of a ``(t_start, t_end, q, w_start, drain_rate)``
    segment, on which it falls linearly."""
    t_start, t_end, _, w_start, drain_rate = segment
    return w_start - drain_rate * (t_end - t_start)


class TestTrajectory:
    def test_single_arrival(self):
        segs = trajectory(ZERO, [(0.0, 2.0)], 3.0, CPS)
        assert [s[:3] for s in segs] == [(0.0, 2.0, 1), (2.0, 3.0, 0)]
        assert segs[0][4] == 1.0
        assert w_end(segs[0]) == pytest.approx(0.0)

    def test_classical_ps_conserves_unit_drain(self):
        segs = trajectory(ZERO, [(0.0, 2.0), (1.0, 2.0)], 5.0, CPS)
        busy = [s for s in segs if s[2] > 0]
        assert all(drain == 1.0 for _, _, _, _, drain in busy)
        assert sum(t1 - t0 for t0, t1, _, _, _ in busy) == pytest.approx(4.0)

    def test_interference_slows_drain(self):
        segs = trajectory(ZERO, [(0.0, 1.0), (0.5, 1.0)], 3.0, HI)
        two_busy = [s for s in segs if s[2] == 2]
        assert len(two_busy) == 1
        assert two_busy[0][4] == pytest.approx(0.5)
        assert two_busy[0][:2] == (0.5, 2.5)

    def test_workload_continuous_up_to_arrival_jumps(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n_ev = int(rng.integers(1, 8))
            times = np.sort(rng.uniform(0, 9, n_ev))
            if len(set(times)) != n_ev:
                continue
            events = [(float(t), float(rng.uniform(0, 3))) for t in times]
            segs = trajectory(ZERO, events, 10.0, CPS)
            arrivals = dict(events)
            for a, b in zip(segs, segs[1:]):
                assert a[1] == b[0]
                jump = arrivals.get(b[0], 0.0)
                assert b[3] == pytest.approx(w_end(a) + jump, abs=1e-9)

    def test_workload_nonnegative_on_every_segment(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n_ev = int(rng.integers(1, 8))
            times = np.sort(rng.uniform(0, 9, n_ev))
            if len(set(times)) != n_ev:
                continue
            events = [(float(t), float(rng.uniform(0, 3))) for t in times]
            r = CATALOG[int(rng.integers(0, len(CATALOG)))]
            for seg in trajectory(ZERO, events, 10.0, r):
                assert seg[3] >= 0.0
                assert w_end(seg) >= -1e-9

    def test_count_jump_bookkeeping(self):
        # jumps of q across segment boundaries = arrivals - departures
        segs = trajectory(ZERO, [(0.0, 2.0), (1.0, 2.0)], 5.0, CPS)
        qs = [0] + [s[2] for s in segs]
        ups = sum(max(b - a, 0) for a, b in zip(qs, qs[1:]))
        downs = sum(max(a - b, 0) for a, b in zip(qs, qs[1:]))
        assert ups == 2
        assert downs == 2

    def test_departure_first_on_tie(self):
        # second arrival lands exactly when the first customer finishes:
        # the count stays at 1 through the boundary instead of touching 2
        segs = trajectory(ZERO, [(0.0, 1.0), (1.0, 1.0)], 3.0, PD)
        assert [s[:3] for s in segs] == [
            (0.0, 1.0, 1),
            (1.0, 2.0, 1),
            (2.0, 3.0, 0),
        ]

    def test_unordered_events_rejected(self):
        with pytest.raises(ValueError):
            trajectory(ZERO, [(1.0, 1.0), (0.5, 1.0)], 3.0, CPS)
        with pytest.raises(ValueError):
            trajectory(ZERO, [(0.0, 1.0), (0.0, 1.0)], 3.0, CPS)

    def test_event_outside_horizon_rejected(self):
        with pytest.raises(ValueError):
            trajectory(ZERO, [(3.0, 1.0)], 3.0, CPS)

    def test_nonempty_initial_profile(self):
        segs = trajectory(CountingMeasure([1.0, 2.0]), [], 5.0, CPS)
        assert [s[2] for s in segs] == [2, 1, 0]
        assert segs[0][3] == pytest.approx(3.0)

    def test_finish_time_rounding_onto_clock_departs(self):
        # past t = 2**14 half an ulp of the clock exceeds 1e-12, so the
        # tiny atom's finish time t + a / r(1) rounds back onto t; it must
        # still leave instead of stalling the clock
        def stalled(signum, frame):
            raise TimeoutError("trajectory stalled")

        previous = signal.signal(signal.SIGALRM, stalled)
        signal.alarm(10)
        try:
            segs = trajectory(ZERO, [(17259.0, 1.54e-12)], 17260.0, CPS)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert [s[:3] for s in segs] == [
            (0.0, 17259.0, 0),
            (17259.0, 17260.0, 0),
        ]

    def test_tiny_demand_departs_inside_a_busy_period(self):
        # the same rounding at q >= 2: past t = 2**14 the tiny customer's
        # remaining work (level less offset) gives a finish time that
        # rounds back onto the clock, so it must leave through the offset
        def stalled(signum, frame):
            raise TimeoutError("trajectory stalled")

        events = [(17255.0, 8.0), (17256.0, 8.0), (17259.0, 1.5e-12)]
        previous = signal.signal(signal.SIGALRM, stalled)
        signal.alarm(10)
        try:
            segs = trajectory(ZERO, events, 17300.0, PD)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert 17259.0 + 1.5e-12 / PD(3) == 17259.0
        # the tiny customer leaves as it arrives, so the count stays at 2
        assert [s[2] for s in segs] == [0, 1, 2, 2, 1, 0]
        assert [s[0] for s in segs[:4]] == [0.0, 17255.0, 17256.0, 17259.0]
        # at rate 1 the two demands of 8 leave 8 after their arrivals
        assert segs[3][1] == pytest.approx(17263.0, abs=1e-9)
        assert segs[4][1] == pytest.approx(17264.0, abs=1e-9)
        ends = [0.0] + [s[1] for s in segs]
        assert [s[0] for s in segs] == ends[:-1]

    def test_snapped_departures_land_on_exact_times(self):
        # each departure drains exactly the smallest remaining work, so
        # pure_delay's customers leave at their own remaining times; the
        # reference loop ends the last one at 2 - 2**-52 and adds an
        # ulp-long empty segment before the horizon
        mu0 = CountingMeasure([0.1925471981272454, 0.7, 2.0])
        assert [row[:3] for row in trajectory(mu0, [], 2.0, PD)] == [
            (0.0, 0.1925471981272454, 3),
            (0.1925471981272454, 0.7, 2),
            (0.7, 2.0, 1),
        ]

    @settings(max_examples=300, deadline=None)
    @given(case=trajectory_case(),
           ridx=st.integers(min_value=0, max_value=len(CATALOG) - 1))
    @example(case=(CountingMeasure([0.1925471981272454, 0.7, 2.0]), [], 2.0), ridx=0)
    def test_matches_the_reference_loop(self, case, ridx):
        mu0, events, horizon = case
        r = CATALOG[ridx]
        rows = trajectory(mu0, events, horizon, r)
        ref = reference_trajectory_rows(mu0, events, horizon, r)
        # the two round differently, so one may end a segment an ulp before
        # the other and emit an ulp-long segment the other has not; past
        # those, the segments pair up one to one
        kept, ref = longer_than(rows, TRAJ_TOL), longer_than(ref, TRAJ_TOL)
        assert len(kept) == len(ref)
        assert [row[2] for row in kept] == [row[2] for row in ref]
        assert [row[4].hex() for row in kept] == [row[4].hex() for row in ref]
        for got, want in zip(kept, ref):
            for k in (0, 1, 3):
                assert abs(got[k] - want[k]) <= TRAJ_TOL, (k, got, want)
        assert all(type(row) is tuple and len(row) == 5 for row in rows)
        # the contract forward_sim's CSV renderer relies on: rows join bit
        # for bit from 0.0, and each q has the one drain q * r(q)
        # (float.hex tells every two floats of different bits apart)
        ends = [0.0.hex()] + [row[1].hex() for row in rows]
        assert [row[0].hex() for row in rows] == ends[:-1]
        assert all(drain.hex() == (q * r.rate_vector(q)[q]).hex()
                   for _, _, q, _, drain in rows)


class TestTrajectoryLongRun:
    # trajectory's workload at each arrival drifts like any engine on an
    # absolute clock: about 3e-10 and 4e-10 on these runs (clock near 1e5),
    # 2.2e-9 at 10**6 arrivals of classical_ps at load 0.8, where the
    # reference loop reads 5.1e-9; without the offset restart on an empty
    # queue these runs read 4.9e-9 and 1.9e-9
    LONG = [(CPS, 0.95, 100_000), (HI, 0.45, 100_000)]

    @staticmethod
    def run(r, mean_sigma, n_steps):
        g = iid_input(Exponential(1.0), Exponential(mean_sigma), seed=2024)
        xs, ss = g.sample_block(0, n_steps)
        times = list(accumulate(xs, initial=0.0))
        rows = trajectory(ZERO, list(zip(times, ss)), times[-1], r)
        return g, times, ss, rows

    @pytest.mark.parametrize("r, mean_sigma, n_steps", LONG,
                             ids=["classical_ps", "half_interference"])
    def test_matches_the_fast_path_at_every_arrival(self, r, mean_sigma, n_steps):
        g, times, ss, rows = self.run(r, mean_sigma, n_steps)
        assert times[-1] > 2.0**14
        path = simulate_queue_path(g, r, n_steps)
        starts = {row[0]: row for row in rows}
        w_err = 0.0
        for k in range(n_steps):
            _, _, q, w_start, _ = starts[times[k]]
            assert q == path.q[k] + 1, k
            w_err = max(w_err, abs(w_start - (path.w[k] + ss[k])))
        assert w_err <= 1e-9

    def test_segments_match_the_reference_loop_on_a_long_run(self):
        # at this size a heap that drains a departure by rate * dt instead
        # of snapping its offset to the departing level emits 199 993
        # segments, one of them ulp-long, where both loops emit 199 992
        _, times, ss, rows = self.run(*self.LONG[0])
        ref = reference_trajectory_rows(ZERO, list(zip(times, ss)), times[-1], CPS)
        assert len(rows) == len(ref) == 199_992
        assert [row[2] for row in rows] == [row[2] for row in ref]


class TestFastPath:
    def test_matches_step_by_step(self):
        rng = np.random.default_rng(9)
        for k in range(100):
            g = iid_input(Exponential(2.0), Uniform(0.0, 3.0), seed=int(rng.integers(1, 2**62)))
            r = CATALOG[k % len(CATALOG)]
            mu = CountingMeasure(rng.uniform(0, 5, rng.integers(0, 5)))
            path = simulate_queue_path(g, r, n_steps=50, initial=mu)
            ref = mu
            for n, (xi, sigma) in enumerate(zip(*g.sample_block(0, 50))):
                assert path.q[n] == ref.num_atoms
                assert path.w[n] == pytest.approx(ref.workload, abs=1e-7)
                ref = step(ref, sigma, xi, r)
            assert path.final_profile.tv_distance(ref) == 0
            assert path.q[50] == ref.num_atoms

    @pytest.mark.parametrize(
        "r, mean_sigma, n_steps",
        [(CPS, 0.8, 1_000_000), (HI, 0.4, 300_000)],
        ids=["classical_ps", "half_interference"],
    )
    def test_long_run_does_not_drift(self, r, mean_sigma, n_steps):
        # load 0.8 against the throughput floor; unless the lazy offset
        # restarts when the queue empties, its rounding error reaches
        # ~1e-8 by 3e5 steps
        g = iid_input(Exponential(1.0), Exponential(mean_sigma), seed=2024)
        path = simulate_queue_path(g, r, n_steps=n_steps)
        xs, ss = g.sample_block(0, n_steps)
        ref = ZERO
        w_err = 0.0
        for n in range(n_steps):
            assert path.q[n] == ref.num_atoms, n
            w_err = max(w_err, abs(path.w[n] - ref.workload))
            ref = step(ref, ss[n], xs[n], r)
        assert path.q[n_steps] == ref.num_atoms
        assert w_err <= 1e-9

    def test_zero_steps(self):
        mu = CountingMeasure([1.0, 2.0])
        g = iid_input(Exponential(1.0), Exponential(1.0), seed=1)
        path = simulate_queue_path(g, CPS, n_steps=0, initial=mu)
        assert path.q[0] == 2
        assert path.final_profile.tv_distance(mu) == 0


class _Marks:
    """Explicit marks ``(xs[n], ss[n])`` for indices ``n = 0 .. len - 1``."""

    def __init__(self, xs, ss):
        self.xs, self.ss = xs, ss

    def sample_block(self, a, b):
        return self.xs[a:b], self.ss[a:b]


class TestFastPathTies:
    # dyadic rates and marks on a 1/8 grid keep every finish time exact, so
    # departures land exactly on arrival instants over and over
    DYADIC = table_rate({1: 1.0, 2: 0.5, 3: 0.25, 5: 0.125}, declared_floor=0.5)

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_ties_depart_before_the_arrival_on_both_paths(self, seed):
        rng = np.random.default_rng(seed)
        n = 400
        xs = (rng.integers(1, 9, n) / 8.0).tolist()
        ss = (rng.integers(0, 13, n) / 8.0).tolist()
        path = simulate_queue_path(_Marks(xs, ss), self.DYADIC, n)
        ref = ZERO
        ties = 0
        for k in range(n):
            assert path.q[k] == ref.num_atoms, k
            assert path.w[k] == ref.workload, k
            arrived = ref.add_atom(ss[k])
            # some customer finishes exactly when the next one arrives
            ties += gamma(arrived, xs[k], self.DYADIC) in arrived.atoms
            ref = step(ref, ss[k], xs[k], self.DYADIC)
        assert path.final_profile.tv_distance(ref, tol=0.0) == 0
        assert ties > 10
