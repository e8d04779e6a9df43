"""Tests for counting measures: shift, order, matching distance."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpsq.measures import ATOM_TOL, ZERO, CountingMeasure, left_sum

atom_values = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
measures = st.lists(atom_values, max_size=8).map(CountingMeasure)
shift_amounts = st.floats(min_value=0.0, max_value=12.0, allow_nan=False)


def bumped(mu: CountingMeasure, bumps, extras) -> CountingMeasure:
    """A measure dominating ``mu``: every atom inflated, extra atoms added."""
    pad = list(bumps) + [0.0] * max(0, mu.num_atoms - len(bumps))
    inflated = [a + b for a, b in zip(mu.atoms, pad)]
    return CountingMeasure(inflated + list(extras))


class TestBasics:
    def test_num_atoms(self):
        assert ZERO.num_atoms == 0
        assert CountingMeasure([1.0, 3.0]).num_atoms == 2
        assert CountingMeasure([2.5, 2.5]).num_atoms == 2  # duplicates kept

    def test_largest_atom(self):
        assert CountingMeasure([1.0, 3.0]).largest_atom == 3.0
        assert ZERO.largest_atom == 0.0  # max of the empty set convention
        assert CountingMeasure([0.5, 1.5, 2.5]).largest_atom == 2.5

    def test_atoms_sorted(self):
        assert CountingMeasure([3.0, 1.0, 2.0]).atoms == (1.0, 2.0, 3.0)

    def test_negative_atom_rejected(self):
        with pytest.raises(ValueError):
            CountingMeasure([1.0, -0.5])

    def test_workload(self):
        assert CountingMeasure([1.0, 3.0]).workload == 4.0
        assert ZERO.workload == 0.0
        # the int 0 of sum([]), which JSON writes as 0, not 0.0
        assert type(ZERO.workload) is int


class TestLeftSum:
    def test_adds_left_to_right_like_a_scalar_loop(self):
        # a compensated sum gives 2.0 here; plain additions lose both ones
        xs = [1.0, 1e100, 1.0, -1e100]
        acc = 0
        for x in xs:
            acc = acc + x
        assert left_sum(xs) == acc == 0.0
        assert left_sum(iter(xs)) == acc

    def test_empty_is_the_int_zero(self):
        assert left_sum([]) == 0 and type(left_sum([])) is int

    def test_integrate_adds_left_to_right(self):
        # the atoms 0..3 mapped onto a sum that compensation would make 2.0
        values = {0.0: 1.0, 1.0: 1e100, 2.0: 1.0, 3.0: -1e100}
        assert CountingMeasure(values).integrate(values.__getitem__) == 0.0


class TestShift:
    def test_removes_and_translates(self):
        assert CountingMeasure([1, 3, 5]).shift(2).atoms == (1.0, 3.0)

    def test_zero_shift_drops_zero_atoms(self):
        # survival is strict: atoms equal to the shift amount are removed
        assert CountingMeasure([0.0, 1.0]).shift(0.0).atoms == (1.0,)

    def test_can_empty(self):
        assert CountingMeasure([2.5]).shift(3.0) == ZERO

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CountingMeasure([1.0]).shift(-0.1)

    @given(mu=measures, x=shift_amounts, y=shift_amounts)
    def test_composition(self, mu, x, y):
        lhs = mu.shift(x).shift(y)
        rhs = mu.shift(x + y)
        assert lhs.tv_distance(rhs, tol=1e-9) == 0, (mu.atoms, x, y)


class TestOrder:
    def test_examples(self):
        assert CountingMeasure([1, 3]).leq(CountingMeasure([2, 2.5, 3]))
        assert not CountingMeasure([5]).leq(CountingMeasure([1, 2]))

    @given(mu=measures)
    def test_zero_below_everything(self, mu):
        assert ZERO.leq(mu)

    @given(mu=measures)
    def test_reflexive(self, mu):
        assert mu.leq(mu)

    @given(mu=measures, nu=measures)
    def test_antisymmetric(self, mu, nu):
        if mu.leq(nu) and nu.leq(mu):
            assert mu == nu

    @given(
        mu=measures,
        b1=st.lists(st.floats(min_value=0.0, max_value=2.0, allow_nan=False), min_size=8, max_size=8),
        b2=st.lists(st.floats(min_value=0.0, max_value=2.0, allow_nan=False), min_size=8, max_size=8),
        e1=st.lists(atom_values, max_size=3),
        e2=st.lists(atom_values, max_size=3),
    )
    def test_transitive_on_constructed_chain(self, mu, b1, b2, e1, e2):
        nu = bumped(mu, b1, e1)
        rho = bumped(nu, b2, e2)
        assert mu.leq(nu) and nu.leq(rho)
        assert mu.leq(rho)

    @given(
        mu=measures,
        bumps=st.lists(st.floats(min_value=0.0, max_value=2.0, allow_nan=False), min_size=8, max_size=8),
        extras=st.lists(atom_values, max_size=3),
        thresholds=st.lists(st.floats(min_value=0.0, max_value=12.0, allow_nan=False), min_size=1, max_size=6),
        base=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    def test_order_implies_step_integral_dominance(self, mu, bumps, extras, thresholds, base):
        # the defining along-every-nonnegative-non-decreasing-f inequality,
        # sampled over a random family of step functions
        nu = bumped(mu, bumps, extras)

        def f(a: float) -> float:
            return base + sum(1.0 for t in thresholds if a > t)

        assert mu.integrate(f) <= nu.integrate(f) + 1e-9

    def test_counterexample_step_function(self):
        # {5} vs {1, 2}: the indicator of (2, inf) separates them
        mu, nu = CountingMeasure([5]), CountingMeasure([1, 2])
        f = lambda a: 1.0 if a > 2 else 0.0
        assert mu.integrate(f) > nu.integrate(f)

    @given(
        mu=measures,
        bumps=st.lists(st.floats(min_value=0.0, max_value=2.0, allow_nan=False), min_size=8, max_size=8),
        extras=st.lists(atom_values, max_size=3),
        y=shift_amounts,
    )
    def test_shift_monotone(self, mu, bumps, extras, y):
        nu = bumped(mu, bumps, extras)
        assert mu.shift(y).leq(nu.shift(y))


class TestAddAtom:
    def test_examples(self):
        assert CountingMeasure([1, 3]).add_atom(2).atoms == (1.0, 2.0, 3.0)
        assert ZERO.add_atom(5).atoms == (5.0,)
        assert CountingMeasure([2]).add_atom(2).atoms == (2.0, 2.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ZERO.add_atom(-1.0)

    @given(mu=measures, s=atom_values)
    def test_count_and_max(self, mu, s):
        grown = mu.add_atom(s)
        assert grown.num_atoms == mu.num_atoms + 1
        assert grown.largest_atom == max(mu.largest_atom, s)


class TestIntegrate:
    def test_examples(self):
        assert CountingMeasure([1, 3]).integrate(lambda a: a) == 4.0
        assert ZERO.integrate(lambda a: a * a) == 0.0
        assert CountingMeasure([2, 2]).integrate(lambda a: a * a) == 8.0


class TestTvDistance:
    def test_examples(self):
        mu = CountingMeasure([1.0, 2.0])
        assert mu.tv_distance(mu) == 0
        assert CountingMeasure([1.0]).tv_distance(ZERO) == 1
        # optimal matching pairs the two 1.0 atoms and strands 2.0 and 3.0
        assert CountingMeasure([1, 2]).tv_distance(CountingMeasure([1, 3])) == 2

    def test_tolerance(self):
        a = CountingMeasure([1.0])
        b = CountingMeasure([1.0 + 0.5 * ATOM_TOL])
        c = CountingMeasure([1.0 + 10 * ATOM_TOL])
        assert a.tv_distance(b) == 0
        assert a.tv_distance(c) == 2

    @given(mu=measures, nu=measures)
    def test_symmetric_and_bounded(self, mu, nu):
        d = mu.tv_distance(nu)
        assert d == nu.tv_distance(mu)
        assert abs(mu.num_atoms - nu.num_atoms) <= d <= mu.num_atoms + nu.num_atoms

    def test_greedy_matching_is_optimal_small(self):
        # brute-force cross-check on a handful of adversarial layouts
        import itertools

        def brute(a, b, tol):
            best = 0
            for k in range(min(len(a), len(b)), -1, -1):
                for ia in itertools.combinations(range(len(a)), k):
                    for ib in itertools.permutations(range(len(b)), k):
                        if all(abs(a[i] - b[j]) <= tol for i, j in zip(ia, ib)):
                            best = max(best, k)
                if best:
                    break
            return (len(a) - best) + (len(b) - best)

        cases = [
            ([0.0, 1.0, 1.0], [1.0, 1.0, 2.0]),
            ([0.0, 0.5, 1.0], [0.25, 0.75]),
            ([1.0, 1.0], [1.0]),
            ([0.0, 2.0, 4.0], [1.0, 3.0, 5.0]),
        ]
        for a, b in cases:
            got = CountingMeasure(a).tv_distance(CountingMeasure(b), tol=0.3)
            assert got == brute(a, b, 0.3), (a, b)
