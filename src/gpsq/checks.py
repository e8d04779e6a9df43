"""The package's invariants, each defined once.

``simctl verify`` runs every check at small counts and the acceptance gate
(``tests/test_acceptance.py``, C1-C8) at larger ones.  A check takes its
instance source (a ``np.random.Generator``, or a base seed for input
realizations) and a count; its caller decides what passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import input_process
from .dynamics import fluid_oracle_phi, gamma, gamma_values, last_departure_index, phi, step
from .input_process import (
    _PURPOSE_CHAIN,
    _PURPOSE_MARKS,
    Exponential,
    Uniform,
    _rng_at,
    generator_from_config,
    iid_input,
    replication_seed,
    sample_blocks,
)
from .measures import ATOM_TOL, ZERO, CountingMeasure
from .rates import classical_ps, half_interference, pure_delay, scaled_ps, table_rate
from .stationary import backward_coupling_ps, lindley_W, loynes_L, stationary_profile_gginf

#: Window of the Lindley certificate in the checks' constant-drain scans:
#: an epoch is certified only with this many terms read past it, and the
#: exact fixed-point comparisons want a deep one.
WINDOW = 200

#: Rates the random one-step instances draw from: every shipped kind plus a
#: table rate with gaps.
CATALOG = (
    pure_delay(),
    classical_ps(),
    half_interference(),
    scaled_ps(0.7),
    table_rate({1: 1.0, 2: 0.495, 3: 0.3, 100: 0.008}, declared_floor=0.8),
)

#: (slower, faster) rate pairs, the first pointwise below the second.
RATE_PAIRS = (
    (half_interference(), classical_ps()),
    (scaled_ps(0.4), classical_ps()),
    (scaled_ps(0.3), scaled_ps(0.9)),
    (scaled_ps(0.5), pure_delay()),
)


@dataclass(frozen=True)
class CheckResult:
    """Instances (seeds, steps) tested and tests failed; ``converged``
    counts the seeds whose backward scans converged or coupled, for the
    checks that need certified scans."""

    checked: int
    failures: int
    detail: str
    converged: int | None = None


def _result(
    checked: int, bad: list[str], detail: str, converged: int | None = None
) -> CheckResult:
    if bad:
        detail = f"{bad[0]} ({len(bad)} failures, {checked} checked)"
    return CheckResult(checked, len(bad), detail, converged)


def random_instance(rng: np.random.Generator, min_atoms: int = 0):
    """A random one-step instance ``(mu, x, r)``: ``min_atoms`` to 10 atoms
    uniform on [0, 10), a budget uniform on [0, 20) and a rate from
    :data:`CATALOG`."""
    mu = CountingMeasure(rng.uniform(0.0, 10.0, rng.integers(min_atoms, 11)))
    x = float(rng.uniform(0.0, 20.0))
    return mu, x, CATALOG[int(rng.integers(0, len(CATALOG)))]


def _stable_input(seed: int):
    # load 1/3 at unit rate, below the half_interference floor of 1/2
    return iid_input(Exponential(3.0), Exponential(1.0), seed=seed)


def _stable_inputs(base_seed: int, count: int):
    """``(input, xi_0, sigma_0)`` for the stable inputs of ``count``
    replication seeds, the marks at index 0 read in one many-seed pass."""
    gens = [_stable_input(replication_seed(base_seed, i)) for i in range(count)]
    xs, ss = sample_blocks(gens, 0, 1)
    return list(zip(gens, xs[:, 0].tolist(), ss[:, 0].tolist()))


def measures(rng: np.random.Generator, count: int) -> CheckResult:
    """Counting-measure laws: shifts compose, ``add_atom`` keeps the count
    and the maximum, rank-wise bumps are ordered, the order implies
    step-integral dominance and survives a common shift."""
    bad: list[str] = []
    for _ in range(count):
        mu = CountingMeasure(rng.uniform(0, 10, rng.integers(0, 8)))
        x, y = rng.uniform(0, 5, 2)
        if mu.shift(x).shift(y).tv_distance(mu.shift(x + y), tol=1e-9) != 0:
            bad.append("shift composition failed")
        s = rng.uniform(0, 10)
        grown = mu.add_atom(s)
        if grown.num_atoms != mu.num_atoms + 1 or grown.largest_atom != max(mu.largest_atom, s):
            bad.append("add_atom bookkeeping failed")
        base = np.sort(rng.uniform(0, 10, rng.integers(1, 8)))
        nu = CountingMeasure(np.concatenate([base + rng.uniform(0, 2, base.size),
                                             rng.uniform(0, 10, rng.integers(0, 3))]))
        mu2 = CountingMeasure(base)
        if not mu2.leq(nu):
            bad.append("constructed dominating pair not ordered")
        thresholds = rng.uniform(0, 12, 6)
        f = lambda a: sum(1.0 for t in thresholds if a > t)
        if mu2.integrate(f) > nu.integrate(f) + 1e-9:
            bad.append("order does not imply step-integral dominance")
        if not mu2.shift(x).leq(nu.shift(x)):
            bad.append("shift not monotone")
    return _result(count, bad, f"shift/order/add_atom laws on {count} random instances")


def oracle_equivalence(rng: np.random.Generator, count: int) -> CheckResult:
    """The closed-form one-step map equals the event-driven fluid oracle."""
    bad: list[str] = []
    for _ in range(count):
        mu, x, r = random_instance(rng)
        if phi(mu, x, r).tv_distance(fluid_oracle_phi(mu, x, r)) != 0:
            bad.append(f"closed form vs fluid oracle mismatch on {mu.atoms} x={x} {r.kind}")
    return _result(count, bad, f"closed form matches fluid oracle on {count} random instances")


def threshold_unimodality(rng: np.random.Generator, count: int) -> CheckResult:
    """The drain is the largest threshold, reached at the last departure,
    and the thresholds rise to that peak and fall after it.  Empty
    profiles (no thresholds) are drawn and skipped."""
    bad: list[str] = []
    checked = 0
    for _ in range(count):
        mu, x, r = random_instance(rng)
        if mu.is_empty:
            continue
        checked += 1
        gs = gamma_values(mu, x, r)
        peak = min(last_departure_index(mu, x, r) + 1, len(gs))
        g = gamma(mu, x, r)
        if g != max(gs) or abs(g - gs[peak - 1]) > 1e-12:
            bad.append(f"drain is not the peak threshold on {mu.atoms} x={x} {r.kind}")
        elif any(gs[i] < gs[i - 1] - 1e-12 for i in range(1, peak)):
            bad.append("thresholds not non-decreasing before the peak")
        elif any(gs[i] > gs[i - 1] + 1e-12 for i in range(peak, len(gs))):
            bad.append("thresholds not non-increasing after the peak")
    return _result(
        checked, bad, f"threshold unimodality on {checked} nonempty of {count} random instances"
    )


def profile_monotonicity(rng: np.random.Generator, count: int) -> CheckResult:
    """A rank-wise dominated profile is ordered below its dominator, and
    stays below it through one step."""
    bad: list[str] = []
    for _ in range(count):
        base = np.sort(rng.uniform(0.0, 10.0, rng.integers(1, 9)))
        nu = CountingMeasure(np.concatenate([np.sort(base + rng.uniform(0.0, 2.0, base.size)),
                                             rng.uniform(0.0, 10.0, rng.integers(0, 4))]))
        mu = CountingMeasure(base)
        x = float(rng.uniform(0.0, 20.0))
        r = CATALOG[int(rng.integers(0, len(CATALOG)))]
        if not mu.leq(nu):
            bad.append("constructed dominating pair not ordered")
        elif not phi(mu, x, r).leq(phi(nu, x, r)):
            bad.append("one-step map not monotone in the profile")
    return _result(count, bad, f"profile monotonicity on {count} dominating pairs")


def rate_monotonicity(rng: np.random.Generator, count: int) -> CheckResult:
    """A pointwise slower rate leaves a larger profile after one step."""
    bad: list[str] = []
    for _ in range(count):
        slow, fast = RATE_PAIRS[int(rng.integers(0, len(RATE_PAIRS)))]
        mu = CountingMeasure(rng.uniform(0.0, 10.0, rng.integers(1, 9)))
        x = float(rng.uniform(0.0, 20.0))
        if not phi(mu, x, fast).leq(phi(mu, x, slow)):
            bad.append(f"slower rate {slow.kind} leaves a smaller profile than {fast.kind}")
    return _result(count, bad, (
        f"rate monotonicity on {count} instances over {len(RATE_PAIRS)} dominated rate pairs"
    ))


def gginf_fixed_point(base_seed: int, count: int) -> CheckResult:
    """Over ``count`` seeds: the stationary infinite-server profile solves
    its one-step equation under an origin shift, and its largest atom is
    the Loynes record."""
    bad: list[str] = []
    converged = 0
    for g, xi0, sig0 in _stable_inputs(base_seed, count):
        a = stationary_profile_gginf(g)
        b = stationary_profile_gginf(g.shift(1))
        rec = loynes_L(g)
        if not (a.converged and b.converged and rec.converged):
            continue
        converged += 1
        if b.profile.tv_distance(a.profile.add_atom(sig0).shift(xi0)) != 0:
            bad.append("stationary infinite-server profile fails its one-step equation")
        if abs(a.profile.largest_atom - rec.value) > ATOM_TOL:
            bad.append("largest stationary atom differs from the backward record")
    return _result(
        converged, bad,
        f"one-step equation and record identity on {converged} converged seeds", converged,
    )


def record_and_workload_fixed_points(base_seed: int, count: int) -> CheckResult:
    """Over ``count`` seeds: the Loynes record and the constant-drain
    Lindley workload solve their one-step recursions under an origin
    shift.  ``converged`` is the smaller of the two converged counts."""
    bad: list[str] = []
    rec_checked = work_checked = 0
    for g, xi0, sig0 in _stable_inputs(base_seed, count):
        a, b = loynes_L(g), loynes_L(g.shift(1))
        if a.converged and b.converged:
            rec_checked += 1
            if abs(b.value - max(max(a.value, sig0) - xi0, 0.0)) > ATOM_TOL:
                bad.append("backward record fails its one-step equation")
        wa = lindley_W(g, 0.5, improvement_window=WINDOW)
        wb = lindley_W(g.shift(1), 0.5, improvement_window=WINDOW)
        if wa.converged and wb.converged:
            work_checked += 1
            if abs(wb.value - max(wa.value + sig0 - 0.5 * xi0, 0.0)) > ATOM_TOL:
                bad.append("constant-drain workload fails its one-step equation")
    return _result(
        rec_checked + work_checked, bad,
        f"one-step record equation on {rec_checked} and workload equation on "
        f"{work_checked} converged seeds",
        min(rec_checked, work_checked),
    )


def coupling_stationarity(base_seed: int, count: int) -> CheckResult:
    """Over ``count`` seeds: perfect sampling under ``half_interference``
    couples, and where it couples at both origins the sample pushed one
    step reproduces the next origin's sample.  ``converged`` counts the
    seeds that coupled at the first origin."""
    r = half_interference()
    bad: list[str] = []
    coupled = checked = 0
    for g, xi0, sig0 in _stable_inputs(base_seed, count):
        rep = backward_coupling_ps(g, r, max_lookback=10_000, improvement_window=WINDOW)
        if not rep.coupled:
            continue
        coupled += 1
        rep1 = backward_coupling_ps(g.shift(1), r, max_lookback=10_000, improvement_window=WINDOW)
        if not rep1.coupled:
            continue
        checked += 1
        if step(rep.stationary_profile, sig0, xi0, r).tv_distance(rep1.stationary_profile) != 0:
            bad.append("perfect sample fails the stationary one-step equation")
    return _result(checked, bad, f"perfect-sample stationarity on {checked} coupled seeds", coupled)


def workload_identity(seed: int, steps: int) -> CheckResult:
    """Over ``steps`` steps: a constant-throughput queue tracks the scalar
    workload recursion, and a ``half_interference`` queue started empty
    stays below that recursion started from the certified stationary
    Lindley workload."""
    g = _stable_input(seed)
    marks = list(zip(*g.sample_block(0, steps)))
    k = 0.5
    constant = scaled_ps(k)
    bad: list[str] = []
    mu, w, worst = ZERO, 0.0, 0.0
    for xi, sig in marks:
        mu = step(mu, sig, xi, constant)
        w = max(w + sig - k * xi, 0.0)
        worst = max(worst, abs(mu.workload - w))
    if worst > ATOM_TOL:
        bad.append(f"constant-throughput workload deviates by {worst:.2e}")
    rec = lindley_W(g, k, improvement_window=WINDOW)
    if not rec.converged:
        bad.append("stationary constant-drain workload not certified")
    r = half_interference()
    mu, w = ZERO, rec.value
    for n, (xi, sig) in enumerate(marks):
        if mu.workload > w + ATOM_TOL:
            bad.append(f"workload domination fails at step {n}")
        mu = step(mu, sig, xi, r)
        w = max(w + sig - k * xi, 0.0)
    return _result(
        2 * steps, bad,
        f"tracking (max error {worst:.2e}) and domination from a certified "
        f"workload over {steps} steps",
    )


def input_determinism(rng: np.random.Generator, ranges: int) -> CheckResult:
    """Inputs are functions of (seed, index), read through one Philox
    kernel, for an iid and a Markov-modulated input.  On ``ranges`` random
    ranges per input: the kernel's uniforms for both purposes equal those
    of numpy's own ``Philox`` generator, and a block read equals its two
    halves read apart, split at a random point (the Markov-modulated chain
    restarts its coupling from the past there).  On ``ranges // 4`` ranges
    of 9 seeds, many-seed reads equal per-seed reads.  On a 20-index
    window, single-index reads equal re-reads, shifted reads and the
    block."""
    g = iid_input(Exponential(2.0), Uniform(0.0, 3.0), seed=31415)
    mm = generator_from_config({
        "model": "markov_modulated",
        "transition": [[0.9, 0.1], [0.2, 0.8]],
        "states": [
            {"xi": {"dist": "exp", "mean": 1.5}, "sigma": {"dist": "deterministic", "value": 0.5}},
            {"xi": {"dist": "deterministic", "value": 0.5},
             "sigma": {"dist": "pareto", "alpha": 2.5, "scale": 0.6}},
        ],
        "seed": 2**64 - 27,
    })
    bad: list[str] = []
    checked = 0
    for gen in (g, mm):
        for _ in range(ranges):
            checked += 1
            a = int(rng.integers(-10**6, 10**6))
            b = a + int(rng.integers(0, 64))
            for purpose in (_PURPOSE_CHAIN, _PURPOSE_MARKS):
                # through the module: the kernel checked is the one in use
                u = input_process._philox_uniforms((gen.seed,), purpose, a, b)[0].tolist()
                if u != [_rng_at(gen.seed, purpose, n).random(2).tolist() for n in range(a, b)]:
                    bad.append(f"kernel uniforms of [{a}, {b}) differ from numpy's Philox")
            c = int(rng.integers(a, b, endpoint=True))
            (x1, s1), (x2, s2) = gen.sample_block(a, c), gen.sample_block(c, b)
            if gen.sample_block(a, b) != (x1 + x2, s1 + s2):
                bad.append(f"block read of [{a}, {b}) differs from its halves split at {c}")
        for _ in range(ranges // 4):
            checked += 1
            a = int(rng.integers(-10**6, 10**6))
            b = a + int(rng.integers(0, 300))
            seeds = rng.integers(0, 2**64 - 1, 9, dtype=np.uint64, endpoint=True)
            gens = [gen.with_seed(int(s)) for s in seeds]
            xs, ss = sample_blocks(gens, a, b)
            if any((xs[k].tolist(), ss[k].tolist()) != one.sample_block(a, b)
                   for k, one in enumerate(gens)):
                bad.append(f"many-seed read of [{a}, {b}) differs from per-seed reads")
    xs, ss = g.sample_block(-10, 10)
    for n in range(-10, 10):
        checked += 1
        mark = g.sample(n)
        if mark != (xs[n + 10], ss[n + 10]) or g.sample(n) != mark:
            bad.append("a single-index read differs from the block or from its re-read")
        if g.shift(7).sample(n - 7) != mark:
            bad.append("shift is not an index translation")
    return _result(checked, bad, (
        f"kernel equals numpy's Philox and blocks equal their split halves on {2 * ranges} "
        f"random ranges, many-seed reads equal per-seed reads on {2 * (ranges // 4)} ranges "
        "of 9 seeds (iid and Markov-modulated); single-index reads agree on a 20-index window"
    ))
