"""Tests for seeded shift-indexable marked input sequences."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpsq import input_process
from gpsq.input_process import (
    Deterministic,
    Exponential,
    MarkedInputGenerator,
    MarkovModulatedModel,
    Pareto,
    Uniform,
    deterministic_input,
    dist_from_config,
    generator_from_config,
    iid_input,
    _PHILOX_CHUNK,
    _PURPOSE_CHAIN,
    _PURPOSE_MARKS,
    _philox_uniforms,
    _rng_at,
    replication_seed,
    sample_blocks,
    scale_sigma,
    splitmix64,
)
from gpsq.rates import half_interference
from gpsq.stationary import backward_coupling_ps, mean_se


def one_state(xi, sigma):
    return MarkovModulatedModel(((1.0,),), (xi,), (sigma,))


def block_means(g, n):
    """``mean_se`` of the xi and of the sigma marks of indices ``0 .. n - 1``."""
    xs, ss = g.sample_block(0, n)
    return mean_se(np.array(xs)), mean_se(np.array(ss))


class TestDeterminismAndShift:
    def test_deterministic_model(self):
        g = deterministic_input(3.0, 1.0)
        for n in (-10, -1, 0, 5, 10**9):
            assert g.sample(n) == (3.0, 1.0)

    def test_resampling_is_stable(self):
        g = iid_input(Exponential(2.0), Exponential(1.0), seed=123)
        assert g.sample(-5) == g.sample(-5)
        assert g.sample(7) == g.sample(7)

    def test_shift_is_index_translation(self):
        g = iid_input(Exponential(2.0), Uniform(0.0, 3.0), seed=99)
        assert g.shift(2).sample(0) == g.sample(2)
        assert g.shift(1).sample(-1) == g.sample(0)
        for n in range(-20, 20):
            assert g.shift(0).sample(n) == g.sample(n)
            assert g.shift(2).shift(-2).sample(n) == g.sample(n)

    def test_different_seeds_differ(self):
        a = iid_input(Exponential(2.0), Exponential(1.0), seed=1)
        b = iid_input(Exponential(2.0), Exponential(1.0), seed=2)
        assert a.sample(0) != b.sample(0)

    def test_adjacent_indices_differ(self):
        g = iid_input(Exponential(2.0), Exponential(1.0), seed=5)
        assert g.sample(0) != g.sample(1)

    def test_xi_positive(self):
        g = iid_input(Exponential(0.5), Exponential(1.0), seed=8)
        assert all(xi > 0.0 for xi in g.sample_block(-500, 500)[0])


class TestDistributions:
    def test_means_and_quantiles(self):
        assert Exponential(2.0).dist_mean() == 2.0
        assert Exponential(2.0).quantile(1 - math.e**-1) == pytest.approx(2.0)
        assert Uniform(1.0, 3.0).dist_mean() == 2.0
        assert Uniform(1.0, 3.0).quantile(0.5) == 2.0
        assert Deterministic(4.0).quantile(0.999) == 4.0
        p = Pareto(alpha=2.0, scale=1.0)
        assert p.dist_mean() == pytest.approx(2.0)
        assert p.quantile(0.75) == pytest.approx(2.0)

    def test_pareto_needs_finite_mean(self):
        with pytest.raises(ValueError):
            Pareto(alpha=1.0, scale=1.0)

    @pytest.mark.parametrize("build", [
        lambda: Exponential(math.nan),
        lambda: Exponential(math.inf),
        lambda: Deterministic(math.nan),
        lambda: Deterministic(math.inf),
        lambda: Pareto(math.nan, 1.0),
        lambda: Pareto(2.0, math.inf),
        lambda: Uniform(0.0, math.inf),
    ], ids=["exp_nan", "exp_inf", "det_nan", "det_inf", "pareto_nan_shape",
            "pareto_inf_scale", "uniform_inf_high"])
    def test_non_finite_parameters_refused(self, build):
        with pytest.raises(ValueError, match="finite|inf"):
            build()

    def test_uniform_bounds_checked(self):
        with pytest.raises(ValueError):
            Uniform(2.0, 1.0)
        with pytest.raises(ValueError):
            Uniform(-1.0, 1.0)

    def test_draws_match_quantile_transform(self):
        # each draw consumes one uniform; spot-check the transform is
        # monotone and in range over a window
        g = iid_input(Exponential(1.0), Pareto(1.5, 2.0), seed=44)
        for xi, sigma in zip(*g.sample_block(0, 200)):
            assert xi > 0
            assert sigma >= 2.0  # pareto support starts at its scale

    def test_scaled(self):
        assert Exponential(2.0).scaled(3.0).mean == 6.0
        assert Uniform(1.0, 2.0).scaled(2.0) == Uniform(2.0, 4.0)
        assert Deterministic(1.5).scaled(2.0).value == 3.0
        assert Pareto(2.0, 1.0).scaled(0.5).scale == 0.5


class TestEmpiricalMeans:
    def test_deterministic(self):
        (mean_xi, se_xi), (mean_sigma, _) = block_means(deterministic_input(3.0, 1.0), 100)
        assert (mean_xi, mean_sigma) == (3.0, 1.0)
        assert se_xi == 0.0

    def test_exponential_lln(self):
        g = iid_input(Exponential(2.0), Exponential(0.5), seed=2718)
        (mean_xi, se_xi), (mean_sigma, se_sigma) = block_means(g, 200_000)
        assert abs(mean_xi - 2.0) <= 3 * se_xi
        assert abs(mean_sigma - 0.5) <= 3 * se_sigma

    def test_lag_one_autocorrelation_near_zero(self):
        g = iid_input(Exponential(2.0), Exponential(1.0), seed=515)
        n = 20_000
        xs = np.array(g.sample_block(0, n)[0])
        xc = xs - xs.mean()
        rho1 = float(np.dot(xc[:-1], xc[1:]) / np.dot(xc, xc))
        assert abs(rho1) <= 4.0 / math.sqrt(n)


SYMMETRIC_2STATE = dict(
    transition=((0.5, 0.5), (0.5, 0.5)),
    xi_dists=(Deterministic(1.0), Deterministic(3.0)),
    sigma_dists=(Deterministic(1.0), Deterministic(1.0)),
)


class TestMarkovModulated:
    def test_stationary_average(self):
        model = MarkovModulatedModel(**SYMMETRIC_2STATE)
        g = MarkedInputGenerator(model=model, seed=31)
        (mean_xi, se_xi), _ = block_means(g, 20_000)
        assert abs(mean_xi - 2.0) <= 3 * se_xi
        assert model.mean_xi() == pytest.approx(2.0)

    def test_state_frequencies_match_stationary(self):
        model = MarkovModulatedModel(
            transition=((0.9, 0.1), (0.3, 0.7)),
            xi_dists=(Deterministic(1.0), Deterministic(2.0)),
            sigma_dists=(Deterministic(1.0), Deterministic(1.0)),
        )
        pi = model.stationary_distribution()
        assert pi[0] == pytest.approx(0.75)
        n = 20_000
        # xi is 1 in state 0 and 2 in state 1
        xs, _ = MarkedInputGenerator(model=model, seed=17).sample_block(0, n)
        freq = xs.count(1.0) / n
        se = math.sqrt(pi[0] * (1 - pi[0]) / n) * 3  # iid-scale bound, chain mixes fast
        assert abs(freq - pi[0]) <= 5 * se

    def test_state_is_deterministic_per_index(self):
        model = MarkovModulatedModel(**SYMMETRIC_2STATE)
        for n in (-100, -3, 0, 42):
            assert model.state_at(11, n) == model.state_at(11, n)

    def test_shift_compatibility(self):
        model = MarkovModulatedModel(
            transition=((0.6, 0.4), (0.2, 0.8)),
            xi_dists=(Exponential(1.0), Exponential(3.0)),
            sigma_dists=(Exponential(0.5), Exponential(0.5)),
        )
        g = MarkedInputGenerator(model=model, seed=13)
        for n in range(-10, 10):
            assert g.shift(4).sample(n - 4) == g.sample(n)

    def test_stationary_law_is_solved_once_per_model(self, monkeypatch):
        spec = dict(transition=((0.9, 0.1), (0.2, 0.8)),
                    xi_dists=(Exponential(1.5), Exponential(0.5)),
                    sigma_dists=(Exponential(0.5), Uniform(0.0, 2.0)))
        expected = MarkovModulatedModel(**spec).stationary_distribution().copy()
        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        model = MarkovModulatedModel(**spec)
        for _ in range(5):
            model.mean_xi()
            model.mean_sigma()
            pi = model.stationary_distribution()
        assert len(calls) == 1
        assert pi.tolist() == expected.tolist()
        assert pi.tolist() == pytest.approx([2.0 / 3.0, 1.0 / 3.0])
        assert not pi.flags.writeable
        MarkovModulatedModel(**spec).mean_xi()
        assert len(calls) == 2  # per instance, not shared between equal models

    @staticmethod
    def chain(transition):
        k = len(transition)
        return MarkovModulatedModel(
            transition=transition,
            xi_dists=tuple(Deterministic(1.0 + s) for s in range(k)),
            sigma_dists=(Deterministic(1.0),) * k,
        )

    def test_rejects_periodic_chain(self):
        periodic = [
            ((0.0, 1.0), (1.0, 0.0)),
            # a 3-cycle: period 3
            ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
        ]
        for transition in periodic:
            with pytest.raises(ValueError, match="aperiodic"):
                self.chain(transition)
        # cycles of lengths 2 and 3 and no self-loop: period 1
        self.chain(((0.0, 1.0, 0.0), (0.5, 0.0, 0.5), (1.0, 0.0, 0.0)))

    def test_rejects_reducible_chain(self):
        reducible = [
            ((1.0, 0.0), (0.5, 0.5)),
            # state 0 is transient but not absorbing: left, never re-entered
            ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.0, 0.5, 0.5)),
        ]
        for transition in reducible:
            with pytest.raises(ValueError, match="irreducible"):
                self.chain(transition)

    def test_refuses_exactly_the_reducible_chains(self):
        # every 2- and 3-state chain with entries in {0, 1/4, 1/2, 3/4, 1}:
        # construction refuses as reducible exactly the chains whose graph of
        # positive entries is not strongly connected (Warshall's closure,
        # here), and refuses any other only as one that cannot coalesce
        for k in (2, 3):
            rows = [row for row in itertools.product(range(5), repeat=k) if sum(row) == 4]
            for quarters in itertools.product(rows, repeat=k):
                reach = [[i == j or quarters[i][j] > 0 for j in range(k)] for i in range(k)]
                for m in range(k):
                    reach = [[reach[i][j] or (reach[i][m] and reach[m][j]) for j in range(k)]
                             for i in range(k)]
                try:
                    self.chain(tuple(tuple(q / 4 for q in row) for row in quarters))
                    message = None
                except ValueError as exc:
                    message = str(exc)
                if all(map(all, reach)):
                    assert message in (None, "chain is not aperiodic or its inverse-CDF "
                                             "coupling never coalesces"), quarters
                else:
                    assert message == "chain is not irreducible", quarters

    def test_rejects_chain_that_cannot_coalesce(self):
        # irreducible, with self-loops, yet under the inverse-CDF coupling
        # the state set cycles between {0, 1} and {1, 2}
        with pytest.raises(ValueError, match="never coalesces"):
            self.chain(((0.0, 0.5, 0.5), (0.5, 0.5, 0.0), (0.0, 0.5, 0.5)))

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="probability"):
            MarkovModulatedModel(
                transition=((0.5, 0.6), (0.5, 0.5)),
                xi_dists=(Deterministic(1.0), Deterministic(2.0)),
                sigma_dists=(Deterministic(1.0), Deterministic(1.0)),
            )

    @pytest.mark.parametrize("row", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_rejects_non_finite_rows(self, row):
        with pytest.raises(ValueError, match="probability"):
            self.chain((row, (0.5, 0.5)))


class TestSeedSplitting:
    def test_replication_seeds_distinct(self):
        seeds = {replication_seed(42, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_splitmix_reference_values(self):
        # fixed points of the documented splitting rule; regression-pinned
        assert splitmix64(0) == 16294208416658607535
        assert replication_seed(0, 0) == splitmix64(0)


class TestConfig:
    def test_iid_round_trip(self):
        cfg = {"model": "iid", "xi": {"dist": "exp", "mean": 3},
               "sigma": {"dist": "exp", "mean": 1}, "seed": 42}
        g = generator_from_config(cfg)
        assert g.model == one_state(Exponential(3.0), Exponential(1.0))
        assert g.seed == 42
        assert g.mean_xi() == 3.0

    def test_deterministic_config(self):
        g = generator_from_config({"model": "deterministic", "xi": 1.0, "sigma": 2.5})
        assert g.model == one_state(Deterministic(1.0), Deterministic(2.5))
        assert g.sample(0) == (1.0, 2.5)

    def test_markov_config(self):
        cfg = {
            "model": "markov_modulated",
            "transition": [[0.5, 0.5], [0.5, 0.5]],
            "states": [
                {"xi": {"dist": "deterministic", "value": 1.0},
                 "sigma": {"dist": "exp", "mean": 1.0}},
                {"xi": {"dist": "deterministic", "value": 3.0},
                 "sigma": {"dist": "exp", "mean": 1.0}},
            ],
            "seed": 7,
        }
        g = generator_from_config(cfg)
        assert isinstance(g.model, MarkovModulatedModel)
        assert g.mean_xi() == pytest.approx(2.0)

    def test_seed_override(self):
        cfg = {"model": "deterministic", "xi": 1.0, "sigma": 1.0, "seed": 5}
        assert generator_from_config(cfg, seed_override=9).seed == 9

    @pytest.mark.parametrize("seed", [True, 2.9, 3.0, "3", None])
    def test_seed_must_be_an_integer(self, seed):
        cfg = {"model": "deterministic", "xi": 1.0, "sigma": 1.0, "seed": seed}
        for override in (None, 9):
            with pytest.raises(ValueError, match="seed must be an integer"):
                generator_from_config(cfg, seed_override=override)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            generator_from_config({"model": "nope"})
        with pytest.raises(ValueError):
            dist_from_config({"dist": "exp"})
        with pytest.raises(ValueError):
            dist_from_config({"mean": 3})
        # constant marks: a zero or negative inter-arrival time, a negative
        # demand, and a bool are refused
        for xi, sigma in ((0.0, 1.0), (-1.0, 1.0), (1.0, -0.5), (True, 1.0)):
            with pytest.raises(ValueError):
                generator_from_config({"model": "deterministic", "xi": xi, "sigma": sigma})
            if xi is not True:
                with pytest.raises(ValueError):
                    deterministic_input(xi, sigma)

    def test_scale_sigma(self):
        g = generator_from_config(
            {"model": "iid", "xi": {"dist": "exp", "mean": 2},
             "sigma": {"dist": "exp", "mean": 1}, "seed": 0})
        assert scale_sigma(g, 1.5).mean_sigma() == pytest.approx(1.5)
        gd = deterministic_input(1.0, 2.0)
        assert scale_sigma(gd, 0.5).sample(0) == (1.0, 1.0)


# -- block path -------------------------------------------------------------

_positive = st.floats(0.1, 5.0)
distributions = st.one_of(
    _positive.map(Exponential),
    _positive.map(Deterministic),
    st.tuples(st.floats(0.0, 2.0), _positive).map(lambda t: Uniform(t[0], t[0] + t[1])),
    st.tuples(st.floats(1.1, 4.0), _positive).map(lambda t: Pareto(*t)),
)
seeds = st.one_of(st.integers(0, 2**63 - 1), st.integers(2**63, 2**64 - 1))
ranges = st.tuples(st.integers(-(10**6), 10**6), st.integers(0, 80)).map(
    lambda t: (t[0], t[0] + t[1])
)


# quarters, so that rows share running sums; or any value
_quarter_or_any = st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(0.05, 0.95))


@st.composite
def generators(draw):
    kind = draw(st.sampled_from(["one_state", "two_state", "three_state", "deterministic"]))
    if kind != "deterministic":
        # a one-state chain (iid marks), a two-state one, or a three-state
        # one with zero entries; each state draws its own distribution
        # kinds, so how many uniforms an index consumes depends on its state
        if kind == "one_state":
            transition = ((1.0,),)
        elif kind == "two_state":
            p, q = draw(st.floats(0.05, 0.95)), draw(st.floats(0.05, 0.95))
            transition = ((1.0 - p, p), (q, 1.0 - q))
        else:
            # irreducible, and a small uniform takes every state to 0
            x = draw(st.one_of(st.just(0.25), st.floats(0.05, 0.45)))
            y, z = draw(_quarter_or_any), draw(_quarter_or_any)
            transition = ((1.0 - 2 * x, x, x), (y, 1.0 - y, 0.0), (0.0, z, 1.0 - z))
        k = len(transition)
        model = MarkovModulatedModel(
            transition=transition,
            xi_dists=tuple(draw(distributions) for _ in range(k)),
            sigma_dists=tuple(draw(distributions) for _ in range(k)),
        )
    else:
        model = deterministic_input(draw(_positive), draw(_positive)).model
    return MarkedInputGenerator(model=model, seed=draw(seeds))


# A scalar reference for the block path, independent of its kernel,
# transforms and chain evolution: numpy's own generator per index, the
# inverse-CDF formula of each distribution, and coupling from the past run
# afresh at every index.


def reference_draw(dist, rng):
    if isinstance(dist, Exponential):
        return -dist.mean * math.log1p(-rng.random())
    if isinstance(dist, Deterministic):
        return dist.value
    if isinstance(dist, Uniform):
        return dist.low + (dist.high - dist.low) * rng.random()
    return dist.scale * (1.0 - rng.random()) ** (-1.0 / dist.alpha)


def reference_advance(model, state, u):
    acc = 0.0
    for j, p in enumerate(model.transition[state]):
        acc += p
        if u < acc:
            return j
    # sums that end an ulp below 1 leave the rest to the last positive entry
    return max(j for j, p in enumerate(model.transition[state]) if p > 0.0)


def chain_uniforms(seed):
    """The chain's shared uniform at each index, from numpy's generator."""
    return lambda m: _rng_at(seed, _PURPOSE_CHAIN, m).random()


def reference_ends(model, uniform, index, lookback):
    """The states at ``index`` of every start state run through the shared
    uniforms ``uniform(m)`` of the last ``lookback`` indices."""
    us = [uniform(m) for m in range(index - lookback + 1, index + 1)]
    ends = set()
    for state in range(model.n_states):
        for u in us:
            state = reference_advance(model, state, u)
        ends.add(state)
    return ends


def reference_state(model, seed, index, uniform=None):
    """Chain state at ``index``: the lookback doubles from 8 until every
    start state ends in one state."""
    uniform = uniform or chain_uniforms(seed)
    lookback = 8
    while len(ends := reference_ends(model, uniform, index, lookback)) > 1:
        lookback *= 2
    return ends.pop()


def reference_mark(g, n):
    model, k = g.model, n + g.offset
    s = reference_state(model, g.seed, k)
    xi_dist, sigma_dist = model.xi_dists[s], model.sigma_dists[s]
    rng = _rng_at(g.seed, _PURPOSE_MARKS, k)
    return reference_draw(xi_dist, rng), reference_draw(sigma_dist, rng)


def scalar_block(g, a, b):
    marks = [reference_mark(g, n) for n in range(a, b)]
    return [x for x, _ in marks], [s for _, s in marks]


class TestSampleBlock:
    @settings(max_examples=80, deadline=None)
    @given(generators(), ranges)
    def test_equals_scalar_path_bit_for_bit(self, g, ab):
        a, b = ab
        assert g.sample_block(a, b) == scalar_block(g, a, b)

    @settings(max_examples=30, deadline=None)
    @given(generators(), st.integers(-(10**6), 10**6))
    def test_sample_is_the_block_of_one(self, g, n):
        xs, ss = g.sample_block(n, n + 1)
        assert g.sample(n) == (xs[0], ss[0]) == reference_mark(g, n)

    @settings(max_examples=40, deadline=None)
    @given(generators(), ranges, st.integers(-(10**6), 10**6))
    def test_shift_translates_the_block(self, g, ab, k):
        a, b = ab
        assert g.shift(k).sample_block(a, b) == g.sample_block(a + k, b + k)

    def test_deterministic_xi_leaves_sigma_the_first_uniform(self):
        det_xi = iid_input(Deterministic(2.0), Exponential(1.0), seed=3)
        exp_xi = iid_input(Exponential(1.0), Exponential(1.0), seed=3)
        assert det_xi.sample_block(0, 50)[1] == exp_xi.sample_block(0, 50)[0]

    def test_empty_and_reversed_ranges(self):
        g = iid_input(Exponential(2.0), Exponential(1.0), seed=1)
        assert g.sample_block(5, 5) == ([], [])
        with pytest.raises(ValueError):
            g.sample_block(5, 4)

    def test_markov_states_match_coupling_from_the_past(self):
        model = MarkovModulatedModel(
            transition=((0.9, 0.1), (0.2, 0.8)),
            xi_dists=(Deterministic(1.0), Deterministic(2.0)),
            sigma_dists=(Deterministic(1.0), Deterministic(1.0)),
        )
        xs, _ = MarkedInputGenerator(model=model, seed=2**64 - 1).sample_block(-300, 300)
        states = [reference_state(model, 2**64 - 1, n) for n in range(-300, 300)]
        assert [int(x) - 1 for x in xs] == states
        for n in (-300, -1, 0, 299):
            assert model.state_at(2**64 - 1, n) == states[n + 300]


class TestCouplingTable:
    """The chain's table of moves against the scalar inverse-CDF walk."""

    CHAINS = (
        # a zero entry, and running sums shared between rows
        ((0.5, 0.25, 0.25), (0.25, 0.75, 0.0), (0.0, 0.5, 0.5)),
        ((0.9, 0.1), (0.2, 0.8)),
        # row 0's running sums end at 0.9999999999999999, before its zero
        ((0.05, 0.05, 0.8999999999999999, 0.0),) + ((0.25,) * 4,) * 3,
    )
    IDS = ["three_state", "two_state", "ulp_short_row"]

    @pytest.mark.parametrize("transition", CHAINS, ids=IDS)
    def test_moves_equal_the_scalar_walk(self, transition):
        model = TestMarkovModulated.chain(transition)
        table = model._coupling  # built by the construction check, then cached
        assert vars(model)["_coupling"] is table
        lefts, moves = table
        assert lefts.tolist() == sorted(set(lefts.tolist())) and lefts[0] == 0.0
        edges = [u for left in lefts.tolist() for u in (left, math.nextafter(left, 0.0))]
        for u in edges + [math.nextafter(1.0, 0.0)]:
            cell = int(np.searchsorted(lefts, u, side="right")) - 1
            for s in range(model.n_states):
                assert moves[cell][s] == reference_advance(model, s, u), (u, s)
        model.state_at(3, 0)
        assert model._coupling is table

    def test_no_move_lands_on_a_zero_entry(self):
        # the chains above, and random 2-4-state chains with zero entries
        # whose rows, divided by their sums, may sum an ulp away from 1
        rng = np.random.default_rng(29)
        chains = list(self.CHAINS)
        while len(chains) < 300:
            k = int(rng.integers(2, 5))
            p = rng.uniform(0.0, 1.0, (k, k)) * (rng.uniform(0.0, 1.0, (k, k)) < 0.7)
            if (p.sum(axis=1) > 0).all():
                chains.append(tuple(tuple((row / row.sum()).tolist()) for row in p))
        built = 0
        for transition in chains:
            try:
                model = TestMarkovModulated.chain(transition)
            except ValueError:  # reducible, or never coalesces
                continue
            built += 1
            for move in model._coupling[1]:
                assert all(transition[s][j] > 0.0 for s, j in enumerate(move)), transition
        assert built >= 100

    @pytest.mark.parametrize("transition", CHAINS, ids=IDS)
    def test_reads_on_the_edges_equal_the_scalar_walk(self, transition, monkeypatch):
        # every chain uniform is a left end, just below one, or just below 1
        model = TestMarkovModulated.chain(transition)
        lefts = model._coupling[0].tolist()
        edges = [u for left in lefts for u in (left, math.nextafter(left, 0.0))]
        table = np.random.default_rng(5).choice(edges + [math.nextafter(1.0, 0.0)], 1024)

        def edge_uniforms(seeds, purpose, a, b):
            u = np.zeros((len(seeds), b - a, 2))
            u[:, :, 0] = table[np.arange(a, b) % table.size]
            return u

        monkeypatch.setattr(input_process, "_philox_uniforms", edge_uniforms)
        expected = [reference_state(model, 0, n, lambda m: table[m % table.size])
                    for n in range(-60, 60)]
        assert input_process._mm_states(model, [0], -60, 60) == [expected]

    @pytest.mark.parametrize("transition", [
        # coalescence has probability 0.05 per index
        ((0.97, 0.03), (0.02, 0.98)),
        # moves that do not commute, so older blocks must be composed first
        ((0.9, 0.05, 0.05), (0.05, 0.95, 0.0), (0.0, 0.05, 0.95)),
    ], ids=["two_state", "three_state"])
    def test_many_seed_read_of_a_slowly_coalescing_chain(self, transition):
        # most seeds look back past the first 8 indices
        model = TestMarkovModulated.chain(transition)
        seeds = [replication_seed(19, i) for i in range(24)]
        assert sum(len(reference_ends(model, chain_uniforms(s), -2, 8)) > 1 for s in seeds) >= 12
        xs, _ = sample_blocks([MarkedInputGenerator(model, s) for s in seeds], -2, 2)
        for row, seed in zip(xs.tolist(), seeds):
            assert [int(x) - 1 for x in row] == [reference_state(model, seed, n)
                                                 for n in range(-2, 2)]


class TestManySeedBlocks:
    @pytest.mark.parametrize("purpose", [_PURPOSE_CHAIN, _PURPOSE_MARKS])
    def test_many_seed_kernel_equals_per_seed_kernel(self, purpose):
        # 3 x 6001 counters cross two pass boundaries, inside rows 1 and 2
        seeds = [0, 2**63 + 5, 2**64 - 1]
        a, b = -3000, 3001
        assert len(seeds) * (b - a) > 2 * _PHILOX_CHUNK
        many = _philox_uniforms(seeds, purpose, a, b)
        assert many.shape == (3, b - a, 2)
        for k, seed in enumerate(seeds):
            assert np.array_equal(many[k], _philox_uniforms([seed], purpose, a, b)[0])
            for i in (0, 1, 2190, 2191, 2999, 3000, 3001, 4381, 4382, 6000):
                assert many[k, i].tolist() == _rng_at(seed, purpose, a + i).random(2).tolist()

    def test_many_seed_kernel_at_the_index_wrap(self):
        seeds = [7, 2**63]
        many = _philox_uniforms(seeds, _PURPOSE_MARKS, -3, 3)
        for k, seed in enumerate(seeds):
            for i in range(6):
                assert many[k, i].tolist() == _rng_at(seed, _PURPOSE_MARKS, i - 3).random(2).tolist()

    def test_no_seeds_and_empty_ranges(self):
        assert _philox_uniforms([], _PURPOSE_MARKS, 0, 10).shape == (0, 10, 2)
        assert _philox_uniforms([1, 2], _PURPOSE_MARKS, 4, 4).shape == (2, 0, 2)
        xs, ss = sample_blocks([], 0, 5)
        assert xs.shape == ss.shape == (0, 5)
        with pytest.raises(ValueError):
            sample_blocks([iid_input(Exponential(1.0), Exponential(1.0), seed=1)], 5, 4)

    @settings(max_examples=60, deadline=None)
    @given(generators(), st.lists(seeds, min_size=1, max_size=6),
           st.lists(st.integers(-5, 5), min_size=1, max_size=6), ranges)
    def test_rows_equal_per_seed_blocks(self, g, seed_list, offsets, ab):
        # one model: shared offsets are read together, other offsets apart
        a, b = ab
        gens = [g.with_seed(s).shift(offsets[i % len(offsets)]) for i, s in enumerate(seed_list)]
        xs, ss = sample_blocks(gens, a, b)
        for k, gen in enumerate(gens):
            assert (xs[k].tolist(), ss[k].tolist()) == gen.sample_block(a, b)

    def test_mixed_models_and_other_sources(self):
        @dataclass(frozen=True)
        class Ramp:
            def sample_block(self, a, b):
                return [float(n) for n in range(a, b)], [0.5] * (b - a)

        iid = iid_input(Exponential(2.0), Uniform(0.0, 3.0), seed=3)
        mm = generator_from_config({
            "model": "markov_modulated",
            "transition": [[0.5, 0.5], [0.3, 0.7]],
            "states": [
                {"xi": {"dist": "exp", "mean": 1.0}, "sigma": {"dist": "pareto", "alpha": 2.5,
                                                              "scale": 0.6}},
                {"xi": {"dist": "deterministic", "value": 0.5},
                 "sigma": {"dist": "exp", "mean": 1.0}},
            ],
            "seed": 11,
        })
        gens = [iid, mm, Ramp(), iid.with_seed(4), deterministic_input(1.0, 2.0), mm.with_seed(12)]
        xs, ss = sample_blocks(gens, -40, 25)
        for k, gen in enumerate(gens):
            assert (xs[k].tolist(), ss[k].tolist()) == gen.sample_block(-40, 25)


class TestReadPath:
    """The kernel passes a read asks for: a one-state chain reads no chain
    uniforms and laws that consume none read no mark uniforms."""

    @pytest.fixture
    def purposes(self, monkeypatch):
        asked = []
        kernel = input_process._philox_uniforms

        def recording(seeds, purpose, a, b):
            asked.append(purpose)
            return kernel(seeds, purpose, a, b)

        monkeypatch.setattr(input_process, "_philox_uniforms", recording)
        return asked

    def test_iid_read_asks_only_for_marks(self, purposes):
        g = iid_input(Exponential(2.0), Pareto(2.5, 1.0), seed=9)
        assert g.sample_block(-300, 300) == scalar_block(g, -300, 300)
        sample_blocks([g, g.with_seed(10)], -50, 50)
        assert purposes and set(purposes) == {_PURPOSE_MARKS}

    def test_deterministic_read_asks_for_nothing(self, purposes):
        g = deterministic_input(3.0, 1.0, seed=4)
        assert g.sample_block(-5, 5) == ([3.0] * 10, [1.0] * 10)
        xs, ss = sample_blocks([g, g.with_seed(5)], 0, 256)
        assert xs.tolist() == [[3.0] * 256] * 2 and ss.tolist() == [[1.0] * 256] * 2
        assert purposes == []

    def test_two_state_read_asks_for_both(self, purposes):
        model = MarkovModulatedModel(
            transition=((0.6, 0.4), (0.2, 0.8)),
            xi_dists=(Exponential(1.0), Deterministic(3.0)),
            sigma_dists=(Deterministic(0.5), Deterministic(0.5)),
        )
        g = MarkedInputGenerator(model=model, seed=13)
        assert g.sample_block(-40, 40) == scalar_block(g, -40, 40)
        assert set(purposes) == {_PURPOSE_CHAIN, _PURPOSE_MARKS}
        # with deterministic laws only the chain is read
        purposes.clear()
        det = MarkedInputGenerator(model=MarkovModulatedModel(**SYMMETRIC_2STATE), seed=1)
        det.sample_block(0, 9)
        assert set(purposes) == {_PURPOSE_CHAIN}

    def test_one_state_law_needs_no_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-state chain solved for its stationary law")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        g = iid_input(Exponential(3.0), Exponential(1.0), seed=7)
        pi = g.model.stationary_distribution()
        assert pi.tolist() == [1.0]
        assert not pi.flags.writeable
        assert (g.mean_xi(), g.mean_sigma()) == (3.0, 1.0)
        assert backward_coupling_ps(g, half_interference()).coupled

    @settings(max_examples=100, deadline=None)
    @given(distributions, distributions)
    @example(Exponential(0.3), Uniform(0.1, 0.7))
    @example(Deterministic(0.1), Pareto(3.0, 0.7))
    def test_one_state_means_are_the_law_means(self, xi, sigma):
        # the stopping rule's window and margin derive from these values,
        # so they must be the law's own means to the bit
        model = one_state(xi, sigma)
        assert model.mean_xi() == xi.dist_mean()
        assert model.mean_sigma() == sigma.dist_mean()
