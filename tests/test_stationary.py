"""Tests for the backward constructions and perfect sampling."""

import math
import random
from itertools import accumulate
from dataclasses import dataclass, replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpsq import checks, stationary
from gpsq.dynamics import step
from gpsq.input_process import (
    Deterministic,
    Exponential,
    MarkedInputGenerator,
    MarkovModulatedModel,
    Pareto,
    Uniform,
    deterministic_input,
    generator_from_config,
    iid_input,
    replication_seed,
    scale_sigma,
)
from gpsq.measures import ATOM_TOL, ZERO, CountingMeasure
from gpsq.rates import classical_ps, half_interference, pure_delay, table_rate
from gpsq.stationary import (
    BATCH_ROWS,
    DEFAULT_QUANTILE,
    CouplingReport,
    LoynesResult,
    StationaryProfileResult,
    backward_coupling_ps,
    backward_coupling_ps_batch,
    check_stability,
    gginf_stationary,
    lindley_W,
)

MM_XI_MEAN = 3.0
MM_SIGMA_MEAN = 1.0


def mm_input(seed: int):
    return iid_input(Exponential(MM_XI_MEAN), Exponential(MM_SIGMA_MEAN), seed=seed)


@dataclass(frozen=True)
class CyclicInput:
    """Periodic deterministic marks; a minimal stand-in input source.

    ``sigma`` cycles through ``sigmas`` by index (``sigmas[n % len]``);
    ``xi`` is constant.  Means are the cycle averages.
    """

    xis: tuple[float, ...]
    sigmas: tuple[float, ...]
    offset: int = 0

    def sample(self, n: int):
        k = n + self.offset
        return self.xis[k % len(self.xis)], self.sigmas[k % len(self.sigmas)]

    def sample_block(self, a: int, b: int):
        marks = [self.sample(n) for n in range(a, b)]
        return [x for x, _ in marks], [s for _, s in marks]

    def shift(self, k: int):
        return replace(self, offset=self.offset + k)

    def mean_xi(self):
        return sum(self.xis) / len(self.xis)

    def mean_sigma(self):
        return sum(self.sigmas) / len(self.sigmas)

    def sigma_quantile(self, p: float):
        return max(self.sigmas)


def record(gen, max_lookback=100_000):
    """The Loynes record half of :func:`gginf_stationary`."""
    return gginf_stationary(gen, max_lookback)[1]


class TestLoynesRecord:
    def test_deterministic_positive_record(self):
        res = record(deterministic_input(1.0, 2.5))
        assert res.value == pytest.approx(1.5)
        assert res.converged

    def test_deterministic_zero_record(self):
        res = record(deterministic_input(3.0, 1.0))
        assert res.value == 0.0
        assert res.converged

    def test_zero_services(self):
        res = record(deterministic_input(2.0, 0.0))
        assert res.value == 0.0
        assert res.converged

    def test_one_step_equation_under_shift(self):
        res = checks.record_and_workload_fixed_points(101, 200)
        assert res.failures == 0, res.detail

    def test_horizon_exhaustion_reported(self):
        # heavy-tailed services: the quantile bound is huge, so a short
        # scan cannot certify
        g = iid_input(Exponential(1.0), Pareto(1.5, 1.0), seed=3)
        res = record(g, max_lookback=50)
        assert not res.converged
        assert res.iterations == 50
        assert res.reason == "lookback_exhausted"


class TestStationaryInfiniteServer:
    def test_deterministic_profile(self):
        res, _ = gginf_stationary(deterministic_input(1.0, 2.5))
        assert res.profile.atoms == (0.5, 1.5)
        assert res.converged

    def test_all_clear_profile_is_empty(self):
        res, _ = gginf_stationary(deterministic_input(3.0, 1.0))
        assert res.profile == ZERO
        assert res.converged

    def test_one_step_reproduction(self):
        # pushing the stationary profile through one step reproduces the
        # profile seen by the shifted origin
        res = checks.gginf_fixed_point(33, 100)
        assert res.failures == 0, res.detail

    def test_largest_atom_is_the_record(self):
        res = checks.gginf_fixed_point(55, 100)
        assert res.failures == 0, res.detail

    def test_backward_iterates_are_monotone(self):
        # deeper restarts from empty can only grow the profile at the origin
        for r in (pure_delay(), classical_ps()):
            g = mm_input(991)
            prev = forward_from(g, r, 0)
            for n in range(1, 25):
                cur = forward_from(g, r, n)
                assert prev.leq(cur, tol=1e-12), (r.kind, n)
                prev = cur


class TestLindleyWorkload:
    def test_negative_drift_zero(self):
        res = lindley_W(deterministic_input(3.0, 1.0), 0.5)
        assert res.value == 0.0
        assert res.converged

    def test_positive_drift_exhausts_horizon(self, monkeypatch):
        # no stationary workload: refused at once, nothing read
        def unread(*args):
            raise AssertionError("a nonnegative drift reads no input")

        monkeypatch.setattr(stationary, "sample_blocks", unread)
        res = lindley_W(deterministic_input(1.0, 2.0), 1.0, max_lookback=500)
        assert (res.value, res.converged, res.iterations) == (0.0, False, 0)
        assert res.reason == "drift_nonnegative"

    def test_alternating_prefix_maximum(self):
        # sigma alternates 1.5, 0.1 against xi = 1 at unit drain; the
        # brute-force prefix maximum over one full period is 1.5 - 1 = 0.5
        # (the cycle's drift is negative, but two terms cannot certify)
        g = CyclicInput(xis=(1.0,), sigmas=(0.1, 1.5))  # sigma at index -1 is 1.5
        prefix = []
        s = 0.0
        for j in (1, 2):
            xi, sig = g.sample(-j)
            s += sig - 1.0 * xi
            prefix.append(s)
        assert max(prefix) == pytest.approx(0.5)
        res = lindley_W(g, 1.0, max_lookback=2)
        assert res.value == pytest.approx(0.5)
        assert not res.converged  # truncated at the lookback

    def test_one_step_equation_under_shift(self):
        res = checks.record_and_workload_fixed_points(77, 200)
        assert res.failures == 0, res.detail

    def test_requires_positive_drain(self):
        for k_r in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                lindley_W(deterministic_input(1.0, 1.0), k_r)

    def test_hand_set_window_certifies_nothing_above_load_one(self):
        # M/M/1 at load 1.1 has no stationary workload; a 200-term window
        # alone once certified every one of these 8 seeds
        for i in range(8):
            g = iid_input(Exponential(1.0), Exponential(1.1), seed=replication_seed(7, i))
            res = lindley_W(g, 1.0, 10_000, improvement_window=200)
            assert (res.converged, res.iterations) == (False, 0)

    @pytest.mark.parametrize("window", [0, -5])
    def test_window_below_one_refused(self, window):
        g = iid_input(Exponential(3.0), Exponential(1.0), seed=5)
        with pytest.raises(ValueError, match="improvement_window must be >= 1"):
            lindley_W(g, 0.5, improvement_window=window)
        with pytest.raises(ValueError, match="improvement_window must be >= 1"):
            backward_coupling_ps(g, half_interference(), improvement_window=window)


class TestConstantThroughputIdentity:
    def test_workload_tracks_scalar_recursion(self):
        res = checks.workload_identity(864, 3000)
        assert res.failures == 0, res.detail

    def test_domination_by_constant_drain_bound(self):
        res = checks.workload_identity(865, 3000)
        assert res.failures == 0, res.detail


class TestPerfectSampling:
    def test_always_clearing_input_couples_at_origin(self):
        rep = backward_coupling_ps(deterministic_input(3.0, 1.0), half_interference())
        assert rep.coupled
        assert rep.regeneration_index == 0
        assert rep.stationary_profile == ZERO

    def test_unstable_input_never_couples(self):
        rep = backward_coupling_ps(
            deterministic_input(1.0, 2.0), classical_ps(), max_lookback=2000
        )
        assert not rep.coupled
        assert rep.stationary_profile is None
        assert rep.regeneration_index is None

    def test_stable_mm_couples_and_is_stationary(self):
        res = checks.coupling_stationarity(4242, 60)
        assert res.failures == 0, res.detail
        # the nearest zero-workload epoch lies within the lookback on
        # (nearly) every seed at load 2/3
        assert res.converged >= 57

    def test_invalid_rate_rejected(self):
        # unit rate flagged single-server violates the throughput cap: it
        # cannot be built, so no sampler ever receives it
        with pytest.raises(ValueError, match="single-server"):
            replace(pure_delay(), single_server=True)

    @pytest.mark.parametrize("floor", [math.nan, math.inf, -0.5, 0.0])
    def test_floor_must_be_finite_and_positive(self, floor):
        with pytest.raises(ValueError, match="floor"):
            backward_coupling_ps(deterministic_input(3.0, 1.0), table_rate({1: 1.0}, floor))

    @pytest.mark.parametrize("gen, rate, kw, reason, iterations", [
        (deterministic_input(3.0, 1.0), half_interference(), {}, "certified", 256),
        # no negative drift: no window can be derived, nothing is read
        (deterministic_input(1.0, 2.0), classical_ps(), {"max_lookback": 2000},
         "drift_nonnegative", 0),
        # a window given by hand does not make the drift negative
        (deterministic_input(1.0, 2.0), classical_ps(),
         {"max_lookback": 2000, "improvement_window": 10}, "drift_nonnegative", 0),
    ])
    def test_reason(self, gen, rate, kw, reason, iterations):
        rep = backward_coupling_ps(gen, rate, **kw)
        assert rep.reason == reason
        assert rep.coupled == (reason == "certified")
        assert rep.iterations_used == iterations

    def test_hand_set_window_certifies_nothing_above_load_one(self, monkeypatch):
        # M/M/1-PS at load 1.1 has no stationary law, yet seeds 0, 2 and 5
        # of these 8 hold a quiet run that a 200-term window alone certifies
        gens = [iid_input(Exponential(1.0), Exponential(1.1), seed=replication_seed(7, i))
                for i in range(8)]

        def unread(*args):
            raise AssertionError("a drift_nonnegative batch reads no input")

        monkeypatch.setattr(stationary, "sample_blocks", unread)
        reports = backward_coupling_ps_batch(gens, classical_ps(), 10_000, improvement_window=200)
        assert [fields(rep) for rep in reports] == [
            fields(reference_coupling(g, classical_ps(), 10_000, improvement_window=200))
            for g in gens
        ] == [(False, None, None, 0, "drift_nonnegative")] * 8

    def test_climb_late_in_the_buffer_blocks_the_certificate(self):
        # unit marks falling 0.5 per term, but index -151 brings a demand
        # of 101: the workload at the origin is 25, although the partial
        # sums fall steadily for the first 150 terms
        sigmas = tuple(101.0 if i == 149 else 0.5 for i in range(300))
        rep = backward_coupling_ps(CyclicInput(xis=(1.0,), sigmas=sigmas), classical_ps())
        assert rep.regeneration_index == -151
        assert rep.iterations_used == 256 + 151
        assert rep.stationary_profile.workload == pytest.approx(25.0)

    def test_workload_within_atom_tol_counts_as_zero(self):
        # index -1 leaves 5e-13 of work at the origin, within ATOM_TOL
        g = CyclicInput(xis=(1.0,), sigmas=(0.5, 1.0 + 5e-13))
        assert backward_coupling_ps(g, classical_ps()).regeneration_index == 0

    def test_margin_is_inclusive(self):
        # load 1/2 against unit drain: the derived margin is 50 * 0.5 = 25;
        # the first 256 backward terms are -25/256 each, exact in binary,
        # so the first depth ends exactly 25 down
        g = CyclicInput(xis=(1.0,), sigmas=(25 / 256,) * 256 + (231 / 256,) * 256)
        assert stationary._stopping_rule(g, 1.0, None) == (20, 25.0)
        rep = backward_coupling_ps(g, classical_ps())
        assert (rep.regeneration_index, rep.iterations_used) == (0, 256)

    def test_report_invariants(self):
        for gen in (deterministic_input(3.0, 1.0), deterministic_input(1.0, 2.0)):
            rep = backward_coupling_ps(gen, half_interference(), max_lookback=500)
            assert (rep.stationary_profile is not None) == rep.coupled
            assert (rep.regeneration_index is not None) == rep.coupled
            assert (rep.reason == "certified") == rep.coupled


def birth_death_law(lam, mu, r, tol=1e-16):
    """``pi(n)`` proportional to ``prod_{k<=n} lam / (mu k r(k))``: the
    processor-sharing occupancy under Poisson arrivals at rate ``lam`` and
    exponential service at rate ``mu``, a birth-death chain with death rate
    ``mu n r(n)``; truncated where the terms fall below ``tol``."""
    w = [1.0]
    while w[-1] > tol:
        k = len(w)
        w.append(w[-1] * lam / (mu * k * r(k)))
    return [x / sum(w) for x in w]


class TestStationaryLaw:
    @pytest.mark.parametrize("rate, mean_xi, mean_sigma, exact, kw", [
        # M/M/1-PS: geometric law, E[N] = rho / (1 - rho)
        (classical_ps(), 1.0, 0.5, 1.0, {"max_lookback": 5000}),
        (classical_ps(), 1.0, 0.8, 4.0, {"max_lookback": 5000}),
        # the shipped perfect-sample config
        (half_interference(), 3.0, 1.0, 1.5, {"improvement_window": 200}),
    ])
    def test_occupancy_follows_the_birth_death_law(self, rate, mean_xi, mean_sigma, exact, kw):
        count = 2000
        gens = [iid_input(Exponential(mean_xi), Exponential(mean_sigma),
                          seed=replication_seed(11, i)) for i in range(count)]
        reps = backward_coupling_ps_batch(gens, rate, **kw)
        assert all(rep.coupled for rep in reps)
        ns = [rep.stationary_profile.num_atoms for rep in reps]
        pi = birth_death_law(1.0 / mean_xi, 1.0 / mean_sigma, rate)
        assert sum(n * p for n, p in enumerate(pi)) == pytest.approx(exact)
        mean = sum(ns) / count
        se = math.sqrt(sum((n - mean) ** 2 for n in ns) / (count - 1) / count)
        assert abs(mean - exact) <= 3.0 * se
        # chi-square over the leading bins expecting at least 5 draws each,
        # the rest pooled, against the Wilson-Hilferty 0.999 quantile
        k = 0
        while pi[k] * count >= 5 and (1.0 - sum(pi[: k + 1])) * count >= 5:
            k += 1
        observed = [ns.count(n) for n in range(k)] + [sum(n >= k for n in ns)]
        expected = [p * count for p in pi[:k]] + [(1.0 - sum(pi[:k])) * count]
        chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        df = k
        assert chi2 <= df * (1 - 2 / (9 * df) + 3.09 * math.sqrt(2 / (9 * df))) ** 3


class TestStabilityVerdict:
    def test_stable(self):
        g = mm_input(10)  # E[sigma]=1 < 0.5 * 3
        rep = check_stability(g, half_interference(), n_samples=20_000)
        assert rep.verdict == "stable"

    def test_unstable(self):
        rep = check_stability(deterministic_input(1.0, 2.0), classical_ps(), n_samples=100)
        assert rep.verdict == "unstable"
        assert rep.margin == pytest.approx(-1.0)

    def test_inconclusive_on_boundary(self):
        rep = check_stability(deterministic_input(1.0, 1.0), classical_ps(), n_samples=100)
        assert rep.verdict == "inconclusive"


class TestForwardCoupling:
    def test_stable_inputs_merge(self):
        # two starts on one stable input path forget their difference
        r = half_interference()
        merged = 0
        for i in range(50):
            g = mm_input(replication_seed(606, i))
            x, y = ZERO, CountingMeasure([0.7, 1.4])
            for xi, sigma in zip(*g.sample_block(0, 5000)):
                if x.tv_distance(y) == 0:
                    break
                x, y = step(x, sigma, xi, r), step(y, sigma, xi, r)
            merged += x.tv_distance(y) == 0
        assert merged >= 49


class TestZeroRecordProbability:
    def test_mm_interior(self):
        # P(L = 0) is interior: the record converges on all 200 replication
        # seeds, and both zero and positive records occur
        recs = [record(mm_input(replication_seed(2026, i))) for i in range(200)]
        assert all(rec.converged for rec in recs)
        zeros = sum(rec.value <= ATOM_TOL for rec in recs)
        assert 0 < zeros < 200


# -- the prefix passes against the scalar loops they replaced ----------------


def backward_marks(gen, max_lookback):
    """``(xi_{-j}, sigma_{-j})`` for ``j = 1 .. max_lookback``, in one read."""
    xs, ss = gen.sample_block(-max_lookback, 0)
    return zip(reversed(xs), reversed(ss))


def reference_loynes_L(gen, max_lookback=100_000, quantile=DEFAULT_QUANTILE):
    """The scalar record loop, as it was before the prefix pass."""
    qp = gen.sigma_quantile(quantile)
    best = -math.inf
    sum_xi = 0.0
    converged = False
    j = 0
    for j, (xi, sigma) in enumerate(backward_marks(gen, max_lookback), 1):
        sum_xi += xi
        cand = sigma - sum_xi
        best = max(best, cand)
        if qp - sum_xi <= best:
            converged = True
            break
    return LoynesResult(
        value=max(best, 0.0),
        iterations=j,
        reason="certified" if converged else "lookback_exhausted",
    )


def reference_gginf(gen, max_lookback=100_000, quantile=DEFAULT_QUANTILE):
    """The scalar infinite-server loop, as it was before the prefix pass."""
    qp = gen.sigma_quantile(quantile)
    atoms = []
    sum_xi = 0.0
    converged = False
    i = 0
    for i, (xi, sigma) in enumerate(backward_marks(gen, max_lookback), 1):
        sum_xi += xi
        v = sigma - sum_xi
        if v >= 0.0:
            atoms.append(v)
        if sum_xi > qp:
            converged = True
            break
    return StationaryProfileResult(
        profile=CountingMeasure(atoms),
        iterations=i,
        reason="certified" if converged else "lookback_exhausted",
    )


def reference_rule(gen, k_r, improvement_window=None):
    """The window default and the derived margin of the Lindley
    certificate, or ``None`` without negative drift."""
    mean_xi, mean_sigma = gen.mean_xi(), gen.mean_sigma()
    gap = k_r * mean_xi - mean_sigma
    if not gap > 0.0:
        return None
    rho_hat = mean_sigma / (k_r * mean_xi)
    if improvement_window is None:
        improvement_window = math.ceil(10.0 / (1.0 - rho_hat))
    return improvement_window, 50.0 * gap


def prefix_sums(gen, k_r, depth):
    """Python-float prefix sums ``S_0 = 0, S_1 .. S_depth`` of the backward
    terms ``sigma - K_r xi``."""
    xs, ss = gen.sample_block(-depth, 0)
    s = [0.0]
    for xi, sigma in zip(reversed(list(xs)), reversed(list(ss))):
        s.append(s[-1] + (float(sigma) - k_r * float(xi)))
    return s


def certified_epochs(gen, k_r, depth, window, margin, max_lookback):
    """Every epoch ``m`` certified by the first ``depth`` backward terms:
    each ``m`` checked against the largest ``S_j`` over the whole buffer
    past it."""
    s = prefix_sums(gen, k_r, depth)
    ahead = list(accumulate(reversed(s[1:]), max))[::-1]  # ahead[m] = max S_j, j > m
    return [
        m for m in range(min(depth - window, max_lookback) + 1)
        if ahead[m] - s[m] <= ATOM_TOL and s[m] - s[depth] >= margin
    ]


def reference_lindley_W(gen, k_r, max_lookback=100_000, improvement_window=None):
    """Brute-force Lindley workload: at each depth ``d`` of the fixed
    schedule every epoch is checked against the whole buffer, and the first
    depth with a certified epoch (or the cap) gives the largest prefix sum."""
    rule = reference_rule(gen, k_r, improvement_window)
    if rule is None:
        return LoynesResult(0.0, 0, "drift_nonnegative")
    window, margin = rule
    d = min(max_lookback, max(256, 2 * window))
    while not (found := certified_epochs(gen, k_r, d, window, margin, max_lookback)):
        if d == max_lookback:
            break
        d = min(max_lookback, 2 * d)
    reason = "certified" if found else "lookback_exhausted"
    return LoynesResult(max(prefix_sums(gen, k_r, d)), d, reason)


def forward_from(gen, r, m):
    """The recursion run from the empty profile at epoch ``-m`` to the origin."""
    mu = ZERO
    for xi, sigma in zip(*gen.sample_block(-m, 0)):
        mu = step(mu, sigma, xi, r)
    return mu


def reference_coupling(gen, r, max_lookback=10_000, improvement_window=None):
    """Brute-force search of one replication: at each depth ``d`` of the
    fixed schedule, every epoch is checked against the whole buffer, and
    the nearest certified one runs its forward leg."""
    k_r = r.declared_floor
    rule = reference_rule(gen, k_r, improvement_window)
    if rule is None:
        return CouplingReport(None, None, 0, "drift_nonnegative")
    window, margin = rule
    cap = 2 * max_lookback
    d = min(cap, max(256, 2 * window))
    while True:
        found = certified_epochs(gen, k_r, d, window, margin, max_lookback)
        if found:
            m = found[0]
            return CouplingReport(-m, forward_from(gen, r, m), d + m, "certified")
        if d == cap:
            return CouplingReport(None, None, cap, "lookback_exhausted")
        d = min(cap, 2 * d)


def fields(rep):
    atoms = None if rep.stationary_profile is None else rep.stationary_profile.atoms
    return rep.coupled, rep.regeneration_index, atoms, rep.iterations_used, rep.reason


MM_SPEC = {
    "model": "markov_modulated",
    "transition": [[0.9, 0.1], [0.2, 0.8]],
    "states": [
        {"xi": {"dist": "exp", "mean": 1.5}, "sigma": {"dist": "exp", "mean": 0.5}},
        {"xi": {"dist": "exp", "mean": 0.5},
         "sigma": {"dist": "uniform", "low": 0.0, "high": 2.0}},
    ],
}
RATES = [
    half_interference(),
    classical_ps(),
    table_rate({n: (0.9 + 0.1 / n) / n for n in range(1, 33)}, declared_floor=0.9),
]


@st.composite
def batches(draw):
    """A batch of inputs sharing one law at load ``rho`` against the rate's
    floor, and the rate."""
    r = draw(st.sampled_from(RATES))
    rho = draw(st.floats(0.2, 1.4))
    size = draw(st.integers(1, 70))
    base = draw(st.integers(0, 2**64 - 1))
    seeds = [replication_seed(base, i) for i in range(size)]
    kind = draw(st.sampled_from(["iid", "deterministic", "mm", "cyclic"]))
    k_r = r.declared_floor
    if kind == "iid":
        gens = [iid_input(Exponential(1.0), Exponential(rho * k_r), seed=s) for s in seeds]
    elif kind == "deterministic":
        gens = [deterministic_input(1.0, rho * k_r, seed=s) for s in seeds]
    elif kind == "mm":
        # E[xi] = 7/6 and E[sigma] = 2/3 under the stationary law
        factor = rho * k_r * 7.0 / 4.0
        gens = [scale_sigma(generator_from_config(MM_SPEC, seed_override=s), factor)
                for s in seeds]
    else:
        period = draw(st.integers(1, 9))
        sigmas = tuple(draw(st.lists(st.floats(0.0, 3.0), min_size=period, max_size=period)))
        mean = sum(sigmas) / period
        xi = max(mean / (rho * k_r), 1e-3)
        gens = [CyclicInput(xis=(xi,), sigmas=sigmas, offset=draw(st.integers(-50, 50)))
                for _ in seeds]
    return gens, r


#: lookbacks at the edges of the first blocks of the depth schedule
BLOCK_EDGES = [1, 255, 256, 257, 511, 512, 513]


def lookbacks():
    return st.one_of(st.sampled_from(BLOCK_EDGES), st.integers(1, 3000), st.just(20_000))


@st.composite
def backward_inputs(draw):
    """One input, shifted: iid with exponential, Pareto or uniform demands,
    deterministic, Markov-modulated or cyclic."""
    kind = draw(st.sampled_from(["iid", "deterministic", "mm", "cyclic"]))
    seed = draw(st.integers(0, 2**64 - 1))
    # small gaps make the record scans certify deep in the schedule
    xi = draw(st.one_of(st.sampled_from([0.005, 0.02, 0.05]), st.floats(0.001, 2.0)))
    if kind == "iid":
        sigma = draw(st.sampled_from([Exponential(1.0), Pareto(1.5, 1.0), Uniform(0.0, 2.0)]))
        g = iid_input(Exponential(xi), sigma, seed=seed)
    elif kind == "deterministic":
        g = deterministic_input(xi, draw(st.floats(0.0, 30.0)), seed=seed)
    elif kind == "mm":
        g = scale_sigma(generator_from_config(MM_SPEC, seed_override=seed),
                        draw(st.floats(0.1, 20.0)))
    else:
        period = draw(st.integers(1, 9))
        sigmas = tuple(draw(st.lists(st.floats(0.0, 30.0), min_size=period, max_size=period)))
        g = CyclicInput(xis=(xi,), sigmas=sigmas)
    return g.shift(draw(st.integers(-100, 100)))


def backward_cycle(*sigmas):
    """A cyclic input with unit gaps whose demand at index ``-j`` is
    ``sigmas[j - 1]``."""
    return CyclicInput(xis=(1.0,), sigmas=tuple(reversed(sigmas)))


QUANTILES = st.sampled_from([DEFAULT_QUANTILE, 0.999999, 0.999, 0.5])


class TestRecordPasses:
    # the quantile moves both stops of gginf_stationary, and each may fall
    # in another block; each half is held to its own scalar loop

    @settings(max_examples=150, deadline=None)
    @given(backward_inputs(), lookbacks(), QUANTILES)
    def test_loynes_L_equals_the_scalar_loop(self, g, max_lookback, quantile):
        with mock.patch.object(stationary, "DEFAULT_QUANTILE", quantile):
            _, got = gginf_stationary(g, max_lookback)
        assert got == reference_loynes_L(g, max_lookback, quantile)

    @settings(max_examples=150, deadline=None)
    @given(backward_inputs(), lookbacks(), QUANTILES)
    def test_gginf_equals_the_scalar_loop(self, g, max_lookback, quantile):
        with mock.patch.object(stationary, "DEFAULT_QUANTILE", quantile):
            got, _ = gginf_stationary(g, max_lookback)
        assert got == reference_gginf(g, max_lookback, quantile)

    @pytest.mark.parametrize("max_lookback", BLOCK_EDGES + [100_000])
    @pytest.mark.parametrize("stop", BLOCK_EDGES)
    def test_stops_at_the_block_edges(self, stop, max_lookback):
        # unit gaps, and a demand of stop - 0.5 at index -stop only: both
        # stops of the infinite-server pass certify at term `stop`
        g = backward_cycle(*(stop - 0.5 if j == stop else 0.0 for j in range(1, 601)))
        assert gginf_stationary(g, max_lookback) == (
            reference_gginf(g, max_lookback), reference_loynes_L(g, max_lookback))
        assert lindley_W(g, 1.0, max_lookback) == reference_lindley_W(g, 1.0, max_lookback)

    @pytest.mark.parametrize("max_lookback", [300, 1000])
    def test_stops_apart(self, max_lookback):
        # unit gaps and one demand of 600.5 at index -1: the record stops at
        # term 1, the profile needs 601 terms, three blocks deep
        g = backward_cycle(600.5, *[0.0] * 999)
        prof, rec = gginf_stationary(g, max_lookback)
        assert (prof, rec) == (reference_gginf(g, max_lookback),
                               reference_loynes_L(g, max_lookback))
        assert (rec.converged, rec.iterations, rec.value) == (True, 1, 599.5)
        assert (prof.converged, prof.iterations) == (max_lookback > 601, min(601, max_lookback))

    def test_exact_ties(self):
        # candidates 1, -2, 1 against the quantile 4: at term 3, q - sum xi
        # = 1 ties the record, and the tie stops the scan
        g = backward_cycle(2.0, 0.0, 4.0, 0.0)
        got = record(g, 4)
        assert got == reference_loynes_L(g, 4)
        assert (got.value, got.iterations, got.reason) == (1.0, 3, "certified")
        # partial sums 1, 1, 1, 0.5, 0, ... falling 2.5 a period: a tie
        # ahead of epoch -1 leaves its workload zero, so the epoch is
        # certified, and the sampler regenerates there
        g = backward_cycle(2.0, 1.0, 1.0, *[0.5] * 7)
        got = lindley_W(g, 1.0, 100)
        assert got == reference_lindley_W(g, 1.0, 100)
        assert (got.value, got.converged, got.iterations) == (1.0, True, 100)
        rep = backward_coupling_ps(g, classical_ps(), max_lookback=100)
        assert (rep.regeneration_index, rep.reason) == (-1, "certified")
        # partial sums -0.5 j against the derived margin 50 * 0.5 = 25: the
        # drop from S_0 reaches it exactly at term 50, and not before
        g = deterministic_input(1.0, 0.5)
        for lookback, converged in ((50, True), (49, False)):
            got = lindley_W(g, 1.0, lookback, improvement_window=1)
            assert got == reference_lindley_W(g, 1.0, lookback, improvement_window=1)
            assert (got.converged, got.iterations) == (converged, lookback)


class TestBatchedSampler:
    @settings(max_examples=40, deadline=None)
    @given(
        batches(),
        st.integers(1, 400),
        st.one_of(st.none(), st.integers(1, 300)),
    )
    def test_equals_the_brute_force_search(self, batch, max_lookback, window):
        gens, r = batch
        got = backward_coupling_ps_batch(gens, r, max_lookback, window)
        assert len(got) == len(gens)
        for g, rep in zip(gens, got):
            assert fields(rep) == fields(reference_coupling(g, r, max_lookback, window))

    def test_batch_of_one_is_the_single_call(self):
        r = half_interference()
        gens = [mm_input(replication_seed(5, i)) for i in range(BATCH_ROWS + 6)]
        batch = backward_coupling_ps_batch(gens, r, improvement_window=200)
        for g, rep in zip(gens, batch):
            assert fields(rep) == fields(backward_coupling_ps(g, r, improvement_window=200))

    @pytest.mark.parametrize("rate, mean_sigma, kw", [
        (half_interference(), 1.0, {"improvement_window": 200}),  # the shipped load
        (classical_ps(), 2.7, {"max_lookback": 5000}),  # load 0.9
    ])
    def test_deepest_certified_epoch_gives_the_same_profile(self, rate, mean_sigma, kw):
        # coupling from the past: every certified epoch in the buffer
        # forces the same profile at the origin as the nearest one
        max_lookback = kw.get("max_lookback", 10_000)
        gens = [iid_input(Exponential(3.0), Exponential(mean_sigma), seed=replication_seed(8, i))
                for i in range(40)]
        moved = 0
        for g, rep in zip(gens, backward_coupling_ps_batch(gens, rate, **kw)):
            m = -rep.regeneration_index
            window, margin = reference_rule(g, rate.declared_floor, kw.get("improvement_window"))
            epochs = certified_epochs(g, rate.declared_floor, rep.iterations_used - m, window,
                                      margin, max_lookback)
            assert epochs[0] == m
            deep = forward_from(g, rate, epochs[-1])
            assert deep.num_atoms == rep.stationary_profile.num_atoms
            assert abs(deep.workload - rep.stationary_profile.workload) <= ATOM_TOL
            moved += epochs[-1] > m
        assert moved >= 30

    def test_lindley_W_stops_at_the_samplers_depth(self):
        # one certificate: at the shipped load lindley_W reads to the depth
        # at which the sampler certified, and its workload dominates the
        # sample's
        r = half_interference()
        gens = [iid_input(Exponential(3.0), Exponential(1.0), seed=replication_seed(42, i))
                for i in range(300)]
        for g, rep in zip(gens, backward_coupling_ps_batch(gens, r, 10_000, 200)):
            w = lindley_W(g, r.declared_floor, 10_000, 200)
            assert rep.coupled and w.converged
            assert w.iterations == rep.iterations_used + rep.regeneration_index
            assert rep.stationary_profile.workload <= w.value

    def test_report_ignores_its_batch_mates(self):
        r = half_interference()
        kw = {"max_lookback": 2000, "improvement_window": 200}
        gens = [mm_input(replication_seed(21, i)) for i in range(BATCH_ROWS + 9)]
        alone = [fields(rep) for rep in backward_coupling_ps_batch(gens, r, **kw)]
        order = list(range(len(gens)))
        random.Random(3).shuffle(order)
        permuted = backward_coupling_ps_batch([gens[i] for i in order], r, **kw)
        assert [fields(rep) for rep in permuted] == [alone[i] for i in order]
        # rows that never certify, a whole batch of them among the others;
        # not first, since the first input's drift decides for the batch
        stuck = deterministic_input(1.0, 2.0)
        padded = gens[:3] + [stuck] * 5 + gens[3:10] + [stuck] * BATCH_ROWS + gens[10:]
        got = backward_coupling_ps_batch(padded, r, **kw)
        assert [fields(rep) for rep in got if rep.reason != "lookback_exhausted"] == alone
        assert sum(rep.reason == "lookback_exhausted" for rep in got) == 5 + BATCH_ROWS

    def test_empty_batch(self):
        assert backward_coupling_ps_batch([], half_interference()) == []

    def test_batch_rejects_what_the_single_call_rejects(self):
        with pytest.raises(ValueError, match="positive throughput floor"):
            backward_coupling_ps_batch([deterministic_input(3.0, 1.0)], table_rate({1: 1.0}, 0.0))
        with pytest.raises(ValueError):
            backward_coupling_ps_batch([deterministic_input(3.0, 1.0)], classical_ps(),
                                       max_lookback=0)

    @settings(max_examples=60, deadline=None)
    @given(
        batches(),
        lookbacks(),
        st.one_of(st.none(), st.integers(1, 400)),
        st.integers(-100, 100),
    )
    def test_lindley_W_equals_the_scalar_loop(self, batch, max_lookback, window, k):
        gens, r = batch
        g = gens[0].shift(k)
        got = lindley_W(g, r.declared_floor, max_lookback, window)
        assert got == reference_lindley_W(g, r.declared_floor, max_lookback, window)


LAWS = st.one_of(
    st.builds(Exponential, st.floats(0.1, 5.0)),
    st.builds(Pareto, st.floats(1.1, 5.0), st.floats(0.1, 2.0)),
    st.builds(lambda low, width: Uniform(low, low + width), st.floats(0.0, 2.0),
              st.floats(0.1, 3.0)),
    st.builds(Deterministic, st.floats(0.1, 3.0)),
)


@st.composite
def screened_batches(draw):
    """A batch of inputs of one model, iid or Markov-modulated, whose laws
    are drawn from all four, at load ``rho`` against the rate's floor."""
    r = draw(st.sampled_from(RATES))
    states = draw(st.integers(1, 2))
    transition = ((1.0,),) if states == 1 else ((0.9, 0.1), (0.2, 0.8))
    model = MarkovModulatedModel(transition, tuple(draw(LAWS) for _ in range(states)),
                                 tuple(draw(LAWS) for _ in range(states)))
    base = MarkedInputGenerator(model, seed=0, offset=draw(st.integers(-50, 50)))
    rho = draw(st.floats(0.2, 1.2))
    base = scale_sigma(base, rho * r.declared_floor * base.mean_xi() / base.mean_sigma())
    seed = draw(st.integers(0, 2**64 - 1))
    return [base.with_seed(replication_seed(seed, i)) for i in range(draw(st.integers(1, 40)))], r


def shipped_batch(n, base_seed=42):
    return [iid_input(Exponential(3.0), Exponential(1.0), seed=replication_seed(base_seed, i))
            for i in range(n)]


def exact_path(gens, r, *args):
    """The sampler's reports with no input screened."""
    with mock.patch.object(stationary, "_screened_model", return_value=None):
        return [fields(rep) for rep in backward_coupling_ps_batch(gens, r, *args)]


def perturb_screen(monkeypatch, bound):
    """Raise the exponential law's screen bound to ``bound`` and move its
    screen by up to half of it: the runtime check still passes, and the
    first possible epoch of some rows falls short of sure."""
    screen = Exponential.screen
    monkeypatch.setattr(Exponential, "screen_bound", bound)
    monkeypatch.setattr(Exponential, "screen",
                        lambda law, u: screen(law, u) * (1.0 + 0.5 * bound * (2.0 * u - 1.0)))


def record_passes(monkeypatch, events):
    """Append ``("pass", screen)`` to ``events`` at every batch search."""
    couple = stationary._couple_batch

    def recorded(*args, **kwargs):
        events.append(("pass", kwargs.get("screen", True)))
        return couple(*args, **kwargs)

    monkeypatch.setattr(stationary, "_couple_batch", recorded)


class TestScreenedCoupler:
    # The sampler decides on screened marks and computes exact ones only
    # for the forward legs; a close decision or a screen beyond its bound
    # has the batch searched again on exact marks.  Its reports are those
    # of the exact path, field for field.

    @settings(max_examples=60, deadline=None)
    @given(
        screened_batches(),
        st.one_of(st.sampled_from(BLOCK_EDGES), st.integers(1, 3000)),
        st.one_of(st.none(), st.integers(1, 400)),
    )
    # a window deeper than the only depth, 2: no epoch can be tested
    @example(batch=(shipped_batch(4), half_interference()), max_lookback=1, window=300)
    def test_reports_equal_the_exact_path(self, batch, max_lookback, window):
        gens, r = batch
        got = backward_coupling_ps_batch(gens, r, max_lookback, window)
        assert [fields(rep) for rep in got] == exact_path(gens, r, max_lookback, window)

    def test_shipped_input_is_screened(self):
        gens = shipped_batch(3)
        assert stationary._screened_model(gens) is gens[0].model
        assert stationary._screened_model(gens + [deterministic_input(3.0, 1.0)]) is None
        assert stationary._screened_model([gens[0].shift(1)] + gens) is None
        # exact screens, or an input that is not a generator: nothing to screen
        assert stationary._screened_model([deterministic_input(3.0, 1.0)]) is None
        assert stationary._screened_model([backward_cycle(1.0)] + gens) is None

    @pytest.mark.parametrize("gens, r, args, bound", [
        (shipped_batch(2 * BATCH_ROWS), half_interference(), (10_000, 200), 2.0**-16),
        # load 0.9: rows certify at several depths
        ([iid_input(Exponential(1.0), Exponential(0.9), seed=replication_seed(8, i))
          for i in range(2 * BATCH_ROWS)], classical_ps(), (5000, None), 2.0**-12),
    ], ids=["shipped", "load_0.9"])
    def test_close_decisions_fall_back_to_the_exact_test(self, gens, r, args, bound,
                                                         monkeypatch):
        # a close decision sends its batch back to be searched on exact
        # marks, and no report moves
        want = exact_path(gens, r, *args)
        perturb_screen(monkeypatch, bound)
        passes = []
        record_passes(monkeypatch, passes)
        got = backward_coupling_ps_batch(gens, r, *args)
        assert [fields(rep) for rep in got] == want
        assert ("pass", False) in passes

    def test_a_late_close_decision_drops_the_rows_already_certified(self, monkeypatch):
        # the first row certifies at a shallower depth than the one where the
        # batch's first close decision appears: its exact marks are computed
        # there, and the exact search still starts over
        gens = [iid_input(Exponential(1.0), Exponential(0.9), seed=replication_seed(13, i))
                for i in range(2)]
        r, args = classical_ps(), (5000, None)
        want = exact_path(gens, r, *args)
        perturb_screen(monkeypatch, 2.0**-16)
        events = []
        record_passes(monkeypatch, events)
        exact = stationary._Backlog.exact

        def recorded_exact(buf, rows, ms):
            events.append(("exact", buf.bound > 0))
            return exact(buf, rows, ms)

        monkeypatch.setattr(stationary._Backlog, "exact", recorded_exact)
        got = backward_coupling_ps_batch(gens, r, *args)
        assert [fields(rep) for rep in got] == want
        assert events[:3] == [("pass", True), ("exact", True), ("pass", False)]

    def test_exact_marks_once_per_certifying_depth(self, monkeypatch):
        # the deep batch of bench/test_backward_bench.py: its rows certify at
        # two depths, and each depth maps exactly the prefixes of the rows it
        # certifies, in one call
        r = RATES[2]
        base = generator_from_config(MM_SPEC)
        base = scale_sigma(base, 0.9 * r.declared_floor * base.mean_xi() / base.mean_sigma())
        gens = [base.with_seed(replication_seed(7, i)) for i in range(3)]
        want = exact_path(gens, r, 1000)
        calls = []
        marks = MarkovModulatedModel.marks

        def recorded_marks(model, u, states, screen=False):
            calls.append((screen, u.shape[:-1]))
            return marks(model, u, states, screen)

        monkeypatch.setattr(MarkovModulatedModel, "marks", recorded_marks)
        reps = backward_coupling_ps_batch(gens, r, 1000)
        assert [fields(rep) for rep in reps] == want
        depths = {rep.iterations_used + rep.regeneration_index for rep in reps}
        assert depths == {256, 1024}
        exact = [math.prod(shape) for screen, shape in calls if not screen]
        assert len(exact) == len(depths)
        assert sum(exact) == -sum(rep.regeneration_index for rep in reps) == 584
        assert sum(math.prod(shape) for screen, shape in calls if screen) == 1536

    def test_a_screen_beyond_its_bound_redoes_the_batch(self, monkeypatch):
        # the runtime check: the exact marks of the chosen prefixes lie
        # within the bound of their screened values, or the batch is
        # decided again on exact marks
        gens, r = shipped_batch(BATCH_ROWS), half_interference()
        want = exact_path(gens, r, 10_000, 200)
        passes = []
        record_passes(monkeypatch, passes)
        assert [fields(rep) for rep in backward_coupling_ps_batch(gens, r, 10_000, 200)] == want
        assert passes == [("pass", True)]
        passes.clear()
        screen = Exponential.screen
        monkeypatch.setattr(Exponential, "screen", lambda law, u: screen(law, u) * (1.0 + 2.0**-30))
        assert [fields(rep) for rep in backward_coupling_ps_batch(gens, r, 10_000, 200)] == want
        assert passes == [("pass", True), ("pass", False)]


# -- one vocabulary of stopping reasons ---------------------------------------

CODES = ("certified", "lookback_exhausted", "drift_nonnegative")


def test_every_backward_result_gives_one_of_the_three_reasons():
    # the Pareto demands' quantile is far beyond 50 unit-mean gaps, so both
    # halves of the infinite-server pass run out of lookback
    pareto = iid_input(Exponential(1.0), Pareto(1.5, 1.0), seed=3)
    stable, unstable = deterministic_input(3.0, 1.0), deterministic_input(1.0, 2.0)
    cases = [
        (gginf_stationary(deterministic_input(1.0, 2.5)), ["certified"] * 2),
        (gginf_stationary(pareto, max_lookback=50), ["lookback_exhausted"] * 2),
        ([lindley_W(stable, 0.5),
          lindley_W(deterministic_input(1.0, 0.5), 1.0, 49, improvement_window=1),
          lindley_W(unstable, 1.0)], list(CODES)),
        # load 1/2 at a cap of 2 terms: below the derived window of 20
        ([backward_coupling_ps(stable, half_interference()),
          backward_coupling_ps(deterministic_input(1.0, 0.5), classical_ps(), max_lookback=1),
          backward_coupling_ps(unstable, classical_ps())], list(CODES)),
    ]
    for results, reasons in cases:
        assert [res.reason for res in results] == reasons
        for res in results:
            flag = "coupled" if isinstance(res, CouplingReport) else "converged"
            assert getattr(res, flag) == (res.reason == "certified")
            # the flag is read from the reason, never given on its own
            with pytest.raises(TypeError):
                replace(res, **{flag: True})
    # the codes are listed once, in the module's docstring
    assert all(f"``{code}``" in stationary.__doc__ for code in CODES)
