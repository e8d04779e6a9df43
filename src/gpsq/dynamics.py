"""One-step dynamics of the measure-valued processor-sharing recursion.

State is a :class:`~gpsq.measures.CountingMeasure` of remaining processing
times.  All present customers are served simultaneously at the common rate
``r(n)`` given by a :class:`~gpsq.rates.RateFunction`.  Between two arrival
epochs separated by ``x`` time units the profile evolves by pure drain:
customers leave in increasing order of remaining work, and each departure
raises the per-customer rate of the survivors.

The closed-form route (:func:`phi`) computes, for each atom index ``i``
(ascending), the per-customer work ``gamma_i`` that customer ``i`` would
need to have received by the next arrival for the drain analysis to place
its departure inside the cycle.  A customer departs iff its remaining work
is at most its ``gamma_i``; the overall per-customer drain of the cycle is
``gamma = max_i gamma_i``, and the next profile is ``mu.shift(gamma)``.
The thresholds rise while customers depart and fall after, so the drain
(:func:`_drain`) stops its scan once a threshold lies provably below the
maximum: about one threshold per departure.  :func:`leg` steps a run of
marks on one sorted list, with :func:`step` its one-mark case.

The independent check (:func:`fluid_oracle_phi`) simulates the same cycle
event by event -- advance to the next emptying atom at the current rate,
subtract the drained work from everyone, repeat -- and shares no code with
the closed form.  Their agreement is part of the acceptance suite.

The two forward engines for long runs keep a min-heap of absolute
levels (remaining work plus a lazy per-customer drain offset), so each
event costs O(log n): :func:`trajectory` lists the continuous-time
segments that ``forward_sim`` writes, and :func:`simulate_queue_path`
reads the profile just before each arrival.  Their agreement with each
other, with repeated :func:`step` and with the segment loop as first
written is property-tested.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from operator import neg
from typing import Sequence

import numpy as np

from .measures import ATOM_TOL, CountingMeasure, ZERO, left_sum
from .rates import RateFunction

#: Departure threshold for the event-driven oracle's drained atoms.
_ORACLE_EPS = 1e-12

#: Rates from here up scan every threshold: the drain's early stop assumes
#: that ``1 / r(n)`` is a normal float.
_RATE_CAP = 2.0**1000


def gamma_values(mu: CountingMeasure, x: float, r: RateFunction) -> tuple[float, ...]:
    """Per-atom drain thresholds ``gamma_i`` for a cycle of length ``x``.

    ``gamma_i = r(n-i+1) * (x - c_i)`` where ``c_i`` accumulates, over the
    atoms below ``i``, the extra time those earlier departures spent being
    served at lower rates (``alpha_j * (1/r(n-j+1) - 1/r(n-j))``).
    """
    if mu.is_empty:
        raise ValueError("gamma values are undefined for the zero measure")
    if x < 0.0:
        raise ValueError(f"cycle length must be nonnegative, got {x!r}")
    atoms = mu.atoms
    n = len(atoms)
    rates = r.rate_vector(n)
    out = []
    corr = 0.0
    for i in range(1, n + 1):
        out.append(rates[n - i + 1] * (x - corr))
        if i < n:
            corr += atoms[i - 1] * (1.0 / rates[n - i + 1] - 1.0 / rates[n - i])
    return tuple(out)


def last_departure_index(mu: CountingMeasure, x: float, r: RateFunction) -> int:
    """Index of the last customer departing within the cycle (0 if none).

    A customer departs iff its remaining work is at most its threshold,
    within :data:`~gpsq.measures.ATOM_TOL`: one finishing exactly at the
    arrival instant counts as departed, and float noise must not flip that.
    """
    gs = gamma_values(mu, x, r)
    atoms = mu.atoms
    last = 0
    for i in range(len(atoms), 0, -1):
        if atoms[i - 1] <= gs[i - 1] + ATOM_TOL:
            last = i
            break
    return last


def gamma(mu: CountingMeasure, x: float, r: RateFunction) -> float:
    """Per-customer work drained over a cycle of length ``x``: the max of
    the thresholds, ``max(gamma_values(mu, x, r))`` bit for bit, by the
    drain :func:`_drain`.  Never negative, since the first threshold is
    ``r(n) * x``."""
    if mu.is_empty:
        raise ValueError("gamma values are undefined for the zero measure")
    if x < 0.0:
        raise ValueError(f"cycle length must be nonnegative, got {x!r}")
    return _drain(mu.atoms, x, r.rate_vector(mu.num_atoms), r.falls)


def _drain(atoms: Sequence[float], x: float, rates: list[float], falls: bool) -> float:
    """``max(gamma_values)`` of the sorted ``atoms`` for a cycle of length
    ``x``, bit for bit; ``rates`` holds ``r(1) .. r(n)`` at least, and
    ``falls`` says they never rise (:attr:`RateFunction.falls`).

    The thresholds are those of :func:`gamma_values`, in the same float
    operations.  Two consecutive equal rates leave ``corr`` and the
    threshold as they were (``1/r - 1/r`` is exactly 0), so they are
    passed over.  When ``falls``, the scan starts past the run of rates
    equal to ``r(n)``, whose thresholds all equal the first, and stops at
    the first threshold below the running maximum by more than the bound
    ``E`` of the README's "Numerical conventions": no later threshold can
    then exceed the maximum."""
    n = len(atoms)
    rate = rates[n]
    best = rate * x
    m = n
    stop = math.inf
    if falls and n > 1:
        if rates[n - 1] == rate:
            m = bisect.bisect_left(rates, -rate, 1, n, key=neg)
        r1 = rates[1]
        if r1 < _RATE_CAP:
            stop = (n + 8) * 2.0**-52 * r1 * x + (n + 2) * (r1 + 1.0) * 2.0**-1070
    corr = 0.0
    for q in range(m, 1, -1):  # the atom at occupancy q, then the one above it
        nxt = rates[q - 1]
        if nxt != rate:
            corr += atoms[n - q] * (1.0 / rate - 1.0 / nxt)
            g = nxt * (x - corr)
            if g > best:
                best = g
            elif g < best - stop:
                break
            rate = nxt
    return best


def phi(mu: CountingMeasure, x: float, r: RateFunction) -> CountingMeasure:
    """Profile at the end of an arrival-free cycle of length ``x``.

    The zero measure is a fixed point: nothing to drain.
    """
    if x < 0.0:
        raise ValueError(f"cycle length must be nonnegative, got {x!r}")
    if mu.is_empty:
        return ZERO
    return mu.shift(gamma(mu, x, r))


def step(
    mu: CountingMeasure, sigma: float, xi: float, r: RateFunction
) -> CountingMeasure:
    """One arrival-to-arrival step: admit a customer with service demand
    ``sigma``, then drain for the inter-arrival time ``xi``.

    Returns the profile just before the next arrival: the :func:`leg` of
    one mark.
    """
    return leg(mu, (xi,), (sigma,), r)


def leg(
    mu: CountingMeasure, xis: Sequence[float], sigmas: Sequence[float], r: RateFunction
) -> CountingMeasure:
    """The profile after the steps of the marks ``(sigmas[k], xis[k])``, in
    order: repeated :func:`step`, bit for bit, run on one sorted list.

    Each mark inserts its demand, drains by :func:`_drain` and keeps the
    atoms above the drain, less the drain, as ``phi`` does; the measure is
    built once, at the end.  A negative demand or cycle length raises
    ``ValueError``, as in ``CountingMeasure.add_atom`` and :func:`phi`."""
    atoms = list(mu.atoms)
    rates = r.rate_vector(1)
    for x, s in zip(xis, sigmas, strict=True):
        if s < 0.0:
            raise ValueError(f"atom must be nonnegative, got {s!r}")
        if x < 0.0:
            raise ValueError(f"cycle length must be nonnegative, got {x!r}")
        bisect.insort(atoms, float(s))
        n = len(atoms)
        if n >= len(rates):
            rates = r.rate_vector(n)
        g = _drain(atoms, x, rates, r.falls)
        atoms = [a - g for a in atoms if a > g]
    return CountingMeasure.of_sorted(atoms)


# ---------------------------------------------------------------------------
# continuous-time trajectory
# ---------------------------------------------------------------------------


def trajectory(
    mu0: CountingMeasure,
    events: Sequence[tuple[float, float]],
    horizon: float,
    r: RateFunction,
) -> list[tuple]:
    """Piecewise description of (customer count, workload) on [0, horizon]
    as plain ``(t_start, t_end, q, w_start, drain_rate)`` tuples, one per
    maximal interval of constant count ``q``, on which the workload falls
    linearly from ``w_start`` at ``drain_rate = q * r(q)`` (0 when empty).

    ``events`` is a list of ``(arrival_time, service_demand)`` pairs with
    strictly increasing times in ``[0, horizon)``.  The count jumps +1 at
    arrivals and -1 at departures; an arrival landing exactly on a
    departure instant is processed departure-first (the recursion's
    just-before-arrival convention).  Zero-length segments are dropped.

    Contract (``forward_sim``'s CSV renderer formats from it): the first
    row starts at 0.0 and each later one at the previous row's ``t_end``,
    bit for bit, and ``drain_rate`` is ``q * r.rate_vector(q)[q]``, one
    value per ``q``.  An empty segment's ``w_start`` is the int ``0``.

    The customers present sit on a min-heap of absolute levels, each its
    remaining work plus ``offset``, the per-customer work drained since
    the queue last emptied, and ``w_start`` comes from a running total of
    the levels: O(log n) per event.  A segment that ends at a departure
    sets ``offset`` to the departing level, so the departure drains
    exactly its remaining work; ``offset`` and the total restart at 0
    whenever the queue empties.
    """
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    prev_t = -1.0
    for t, s in events:
        if t <= prev_t:
            raise ValueError(f"arrival times must be strictly increasing, got {t!r}")
        if not 0.0 <= t < horizon:
            raise ValueError(f"arrival time {t!r} outside [0, horizon)")
        if s < 0.0:
            raise ValueError(f"service demand must be nonnegative, got {s!r}")
        prev_t = t

    heap = [a for a in mu0.atoms if a > 0.0]  # sorted, so already a heap
    offset = 0.0
    total = left_sum(heap)
    rows: list[tuple] = []
    append = rows.append
    push, pop = heapq.heappush, heapq.heappop
    eps = _ORACLE_EPS
    # r's own rate cache, grown to each occupancy as the run reaches it
    rates = r.rate_vector(0)
    n_events = len(events)
    next_arrival = events[0][0] if n_events else float("inf")
    t = 0.0
    ev = 0
    while t < horizon:
        q = len(heap)
        if q:
            if q >= len(rates):
                rates = r.rate_vector(q)
            rate = rates[q]
            finish = t + (heap[0] - offset) / rate
            if finish <= t:
                # the smallest atom's finish time rounds back onto the
                # clock (possible once t passes 2**14): it departs at t
                offset = heap[0]
            # min(finish, next_arrival, horizon), with min's tie order
            t_next = finish
            if next_arrival < t_next:
                t_next = next_arrival
            if horizon < t_next:
                t_next = horizon
            if t_next > t:
                append((t, t_next, q, total - offset * q, q * rate))
                # a departure drains exactly the smallest remaining work
                offset = heap[0] if t_next == finish else offset + rate * (t_next - t)
        else:
            t_next = horizon if horizon < next_arrival else next_arrival
            if t_next > t:
                append((t, t_next, 0, 0, 0.0))
        t = t_next
        # departures first, then the arrival sharing the same instant
        while heap and heap[0] - offset <= eps:
            total -= pop(heap)
        if not heap:
            offset = total = 0.0
        if next_arrival == t and t < horizon:
            level = events[ev][1] + offset
            push(heap, level)
            total += level
            ev += 1
            next_arrival = events[ev][0] if ev < n_events else float("inf")
    return rows


# ---------------------------------------------------------------------------
# independent fluid oracle
# ---------------------------------------------------------------------------


def fluid_oracle_phi(
    mu: CountingMeasure, x: float, r: RateFunction
) -> CountingMeasure:
    """Event-driven drain of one cycle, written independently of
    :func:`phi` for cross-checking.

    Repeatedly: find how long the smallest remaining atom survives at the
    current per-customer rate, advance by the smaller of that and the
    remaining budget, subtract the drained work from every atom, drop the
    emptied ones.  No threshold formulas, no shift operator.
    """
    if x < 0.0:
        raise ValueError(f"cycle length must be nonnegative, got {x!r}")
    atoms = [a for a in mu.atoms if a > 0.0]
    budget = x
    while atoms and budget > 0.0:
        rate = r(len(atoms))
        dt = min(atoms[0] / rate, budget)
        d = rate * dt
        atoms = [a - d for a in atoms]
        budget -= dt
        while atoms and atoms[0] <= _ORACLE_EPS:
            atoms.pop(0)
    return CountingMeasure(a for a in atoms if a > _ORACLE_EPS)


# ---------------------------------------------------------------------------
# long-run fast path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueuePath:
    """Per-epoch observables of a forward run.

    ``q[n]`` and ``w[n]`` are the customer count and workload just before
    arrival ``n`` (so ``q[0]``/``w[0]`` describe the initial profile).
    ``final_profile`` is the profile just before arrival ``n_steps``.
    """

    q: np.ndarray
    w: np.ndarray
    final_profile: CountingMeasure


def simulate_queue_path(
    gen,
    r: RateFunction,
    n_steps: int,
    initial: CountingMeasure = ZERO,
) -> QueuePath:
    """Run ``n_steps`` arrival-to-arrival steps of the recursion.

    Equivalent to iterating :func:`step` with the marks of ``gen`` at
    indices ``0, 1, ...`` (``gen.shift(k)`` starts at index ``k``), but
    using a lazy global drain offset and a min-heap of absolute finish
    levels, so each step costs O(log n) plus one event per departure.
    Intended for the long
    statistical runs where the per-step closed form would be quadratic
    overall.  The offset and the level total restart from zero whenever
    the queue empties, so their rounding error does not build up over a
    long run.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    offset = 0.0  # cumulative per-customer drained work since the start
    heap = [a for a in initial.atoms if a > 0.0]
    heapq.heapify(heap)
    total = left_sum(heap)  # sum of absolute levels currently in the heap
    q = np.empty(n_steps + 1, dtype=np.int64)
    w = np.empty(n_steps + 1, dtype=np.float64)
    rates = r.rate_vector(0)  # grown as in trajectory
    xs, ss = gen.sample_block(0, n_steps)
    for n in range(n_steps):
        q[n] = len(heap)
        w[n] = total - offset * len(heap)
        xi, sigma = xs[n], ss[n]
        level = sigma + offset
        heapq.heappush(heap, level)
        total += level
        b = xi
        while heap and b > 0.0:
            k = len(heap)
            if k >= len(rates):
                rates = r.rate_vector(k)
            rate = rates[k]
            dt = (heap[0] - offset) / rate
            if dt <= b:
                b -= dt
                offset = heap[0]
                total -= heapq.heappop(heap)
            else:
                offset += rate * b
                b = 0.0
        while heap and heap[0] - offset <= 0.0:
            total -= heapq.heappop(heap)
        if not heap:
            offset = total = 0.0
    q[n_steps] = len(heap)
    w[n_steps] = total - offset * len(heap)
    final = CountingMeasure(v - offset for v in heap)
    return QueuePath(q=q, w=w, final_profile=final)
