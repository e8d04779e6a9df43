"""Tests for the rate-function catalog and its validator."""

import bisect
import dataclasses
import math

import pytest

from gpsq.checks import RATE_PAIRS
from gpsq.rates import (
    classical_ps,
    formula_rate,
    half_interference,
    pure_delay,
    scaled_ps,
    table_rate,
    validate,
)

THROUGHPUT_TABLE = {1: 1.0, 2: 0.495, 3: 0.3, 100: 0.008}


class TestCatalog:
    def test_classical_ps_throughput_is_one(self):
        r = classical_ps()
        assert all(abs(r.throughput(n) - 1.0) < 1e-12 for n in range(1, 101))
        assert r.throughput(7) == 1.0

    def test_half_interference_values(self):
        r = half_interference()
        assert r(1) == 1.0
        assert r(2) == 0.25
        assert r.throughput(2) == 0.5
        assert r.declared_floor == 0.5

    def test_pure_delay(self):
        r = pure_delay()
        assert all(r(n) == 1.0 for n in range(1, 50))
        assert r.throughput(5) == 5.0

    def test_scaled_ps_constant_throughput(self):
        r = scaled_ps(0.5)
        assert all(abs(r.throughput(n) - 0.5) < 1e-12 for n in range(1, 50))

    def test_table_step_extension(self):
        r = table_rate(THROUGHPUT_TABLE, declared_floor=0.8)
        assert r(1) == 1.0
        assert r(2) == 0.495
        assert r(50) == 0.3  # previous value extends through the gap
        assert r(100) == 0.008
        assert r(250) == 0.008  # last value extends past the table

    def test_table_lookup_matches_key_list_bisect(self):
        # gaps between keys, and n up to 200 runs past the last key (100)
        r = table_rate({1: 1.0, 2: 0.495, 3: 0.3, 7: 0.14, 40: 0.0225, 100: 0.008},
                       declared_floor=0.8)
        keys = [k for k, _ in r.table]
        for n in range(1, 201):
            expected = r.table[bisect.bisect_right(keys, n) - 1][1]
            assert r._table_lookup(n) == expected
            assert r(n) == expected

    def test_table_throughputs(self):
        r = table_rate(THROUGHPUT_TABLE, declared_floor=0.8)
        got = {n: r.throughput(n) for n in (1, 2, 3, 100)}
        assert got == {1: 1.0, 2: 0.99, 3: pytest.approx(0.9), 100: 0.8}

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError):
            classical_ps()(0)
        with pytest.raises(ValueError):
            classical_ps().throughput(0)

    def test_nonpositive_rate_rejected_at_call(self):
        r = formula_rate(lambda n: 1.0 - 0.2 * n, declared_floor=0.1)
        assert r(4) > 0
        with pytest.raises(ValueError):
            r(5)

    def test_table_requires_n_equal_one(self):
        with pytest.raises(ValueError):
            table_rate({2: 0.5}, declared_floor=0.1)

    @pytest.mark.parametrize("values", [
        {1: 1.0, 1.5: 0.25, 2: 0.5},  # 1.5 is no occupancy; int() made it 1
        {True: 1.0, 2: 0.5},
        {1: 1.0, "1": 0.5},  # two keys for n = 1
        {1: 1.0, math.inf: 0.5},
        {1: 1.0, "2.5": 0.5},
    ], ids=["fraction", "bool", "collision", "inf", "fraction_string"])
    def test_table_keys_are_distinct_integers(self, values):
        with pytest.raises(ValueError, match="rate table keys"):
            table_rate(values, declared_floor=0.5)

    def test_table_keys_may_be_integral_numbers_or_strings(self):
        # JSON object keys are strings
        assert table_rate({"1": 1.0, 2.0: 0.5}, declared_floor=0.5).table == ((1, 1.0), (2, 0.5))

    def test_scaled_ps_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scaled_ps(0.0)


class TestValidate:
    def test_classical_ps_valid(self):
        rep = validate(classical_ps(), n_max=100)
        assert rep.ok
        assert rep.min_throughput == pytest.approx(1.0)
        assert rep.probed_n_max == 100

    def test_half_interference_floor_certified(self):
        rep = validate(half_interference(), n_max=100)
        assert rep.ok
        assert rep.min_throughput == pytest.approx(0.5)
        assert rep.declared_floor == 0.5

    def test_pure_delay_passes_without_single_server_flag(self):
        assert validate(pure_delay(), n_max=100).ok

    def test_pure_delay_flagged_when_single_server(self):
        r = dataclasses.replace(pure_delay(), single_server=True)
        rep = validate(r, n_max=100)
        assert not rep.ok
        assert any("single-server" in v for v in rep.violations)

    def test_table_example_valid(self):
        rep = validate(table_rate(THROUGHPUT_TABLE, declared_floor=0.8), n_max=100)
        assert rep.ok
        assert rep.min_throughput == pytest.approx(0.8)
        assert rep.min_throughput_n == 100

    def test_monotonicity_violation_reported(self):
        rep = validate(table_rate({1: 0.5, 2: 0.7}, declared_floor=0.1), n_max=10)
        assert not rep.ok
        assert any("non-increasing" in v for v in rep.violations)

    def test_floor_violation_reported_with_n(self):
        rep = validate(table_rate({1: 1.0, 2: 0.2}, declared_floor=0.9), n_max=10)
        assert not rep.ok
        assert any("below declared floor" in v and "r(2)" in v for v in rep.violations)

    def test_nonpositive_rate_reported(self):
        rep = validate(formula_rate(lambda n: 1.0 - 0.2 * n, declared_floor=0.0), n_max=10)
        assert not rep.ok
        assert any("strictly positive" in v for v in rep.violations)

    @pytest.mark.parametrize("build, what", [
        (lambda: scaled_ps(math.nan), "strictly positive"),
        (lambda: table_rate({1: math.nan}, 0.5), "strictly positive"),
        (lambda: table_rate({1: 1.0, 2: math.inf}, 0.5), "strictly positive"),
        (lambda: formula_rate(lambda n: math.nan, 0.5), "strictly positive"),
        (lambda: table_rate({1: 1.0}, math.nan), "declared floor"),
        (lambda: table_rate({1: 1.0}, -0.5), "declared floor"),
    ], ids=["scaled_nan", "table_nan_value", "table_inf_value", "formula_nan",
            "table_nan_floor", "table_negative_floor"])
    def test_non_finite_values_reported(self, build, what):
        rep = validate(build(), n_max=10)
        assert not rep.ok
        assert any(what in v for v in rep.violations)


def _below(r, r_other, n_max):
    return all(r(n) <= r_other(n) for n in range(1, n_max + 1))


class TestDominates:
    def test_half_interference_below_classical(self):
        assert _below(half_interference(), classical_ps(), n_max=200)
        assert not _below(classical_ps(), half_interference(), n_max=200)

    def test_scaled_pair(self):
        assert _below(scaled_ps(0.4), scaled_ps(0.9), n_max=200)
        assert _below(scaled_ps(0.4), classical_ps(), n_max=200)


class TestRatePairs:
    def test_pairs_are_ordered_pointwise(self):
        # checks.rate_monotonicity compares each pair as slower and faster
        for slow, fast in RATE_PAIRS:
            for n in range(1, 201):
                assert slow(n) <= fast(n), (slow.kind, fast.kind, n)


class TestRateVector:
    def test_equals_calls_for_every_kind(self):
        fast = formula_rate(lambda n: 1.0 / n, declared_floor=1.0)
        slow = formula_rate(lambda n: 0.5 / n, declared_floor=1.0)
        assert fast == slow  # formula rates compare equal whatever their formula
        rates = [pure_delay(), classical_ps(), half_interference(), scaled_ps(0.7),
                 table_rate(THROUGHPUT_TABLE, declared_floor=0.8), fast, slow]
        for r in rates:
            # grown on demand, in uneven steps
            for n in (3, 1, 40, 300):
                assert r.rate_vector(n)[1 : n + 1] == [r(k) for k in range(1, n + 1)]
        assert fast.rate_vector(5)[5] == 0.2
        assert slow.rate_vector(5)[5] == 0.1

    def test_cache_is_per_instance(self):
        r = classical_ps()
        assert r.rate_vector(4) is r.rate_vector(2)
        assert classical_ps().rate_vector(4) is not r.rate_vector(4)
        assert dataclasses.replace(r, single_server=False).rate_vector(4) is not r.rate_vector(4)

    def test_nonpositive_rate_still_raises(self):
        r = formula_rate(lambda n: 1.0 - 0.2 * n, declared_floor=0.0)
        assert r.rate_vector(4)[1:5] == [r(k) for k in range(1, 5)]
        with pytest.raises(ValueError, match="strictly positive"):
            r.rate_vector(5)
        with pytest.raises(ValueError, match="strictly positive"):
            r(5)
