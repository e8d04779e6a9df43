"""Tests for the rate-function catalog and its validator, which every
construction runs."""

import bisect
import dataclasses
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpsq.checks import CATALOG, RATE_PAIRS
from gpsq.rates import (
    _CHECK_TOL,
    RateFunction,
    classical_ps,
    half_interference,
    pure_delay,
    scaled_ps,
    table_rate,
    validate,
)

THROUGHPUT_TABLE = {1: 1.0, 2: 0.495, 3: 0.3, 100: 0.008}
# r(n) = 1 - 0.2 n while positive: r(5) = 0
DOWN_TO_ZERO = {1: 0.8, 2: 0.6, 3: 0.4, 4: 0.2, 5: 0.0}


class TestCatalog:
    def test_classical_ps_throughput_is_one(self):
        r = classical_ps()
        assert all(abs(n * r(n) - 1.0) < 1e-12 for n in range(1, 101))
        assert 7 * r(7) == 1.0

    def test_half_interference_values(self):
        r = half_interference()
        assert r(1) == 1.0
        assert r(2) == 0.25
        assert 2 * r(2) == 0.5
        assert r.declared_floor == 0.5

    def test_pure_delay(self):
        r = pure_delay()
        assert all(r(n) == 1.0 for n in range(1, 50))
        assert 5 * r(5) == 5.0

    def test_tails_give_the_closed_form_quotients(self):
        # tail / n is the same correctly rounded quotient as each closed
        # form, so the tables give its floats bit for bit
        for n in range(1, 5000):
            assert classical_ps()(n) == 1.0 / n
            assert half_interference()(n) == (1.0 if n == 1 else 1.0 / (2.0 * n))
            assert scaled_ps(0.7)(n) == 0.7 / n
        assert type(scaled_ps(2)(1)) is float

    def test_scaled_ps_constant_throughput(self):
        r = scaled_ps(0.5)
        assert all(abs(n * r(n) - 0.5) < 1e-12 for n in range(1, 50))

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
            assert r(n) == expected

    def test_table_throughputs(self):
        r = table_rate(THROUGHPUT_TABLE, declared_floor=0.8)
        got = {n: n * r(n) for n in (1, 2, 3, 100)}
        assert got == {1: 1.0, 2: 0.99, 3: pytest.approx(0.9), 100: 0.8}

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            classical_ps()(0)

    def test_table_requires_n_equal_one(self):
        with pytest.raises(ValueError, match="from n = 1"):
            table_rate({2: 0.5}, declared_floor=0.1)
        with pytest.raises(ValueError, match="from n = 1"):
            table_rate({}, declared_floor=0.1)

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
        with pytest.raises(ValueError, match=r"strictly positive, r\(1\) = 0\.0"):
            scaled_ps(0.0)
        with pytest.raises(ValueError, match="declared floor must be finite and nonnegative"):
            scaled_ps(-1.0)


class TestValidate:
    def test_classical_ps_valid(self):
        rep = validate(classical_ps())
        assert rep.ok and rep.violations == ()

    def test_half_interference_floor_certified(self):
        assert validate(half_interference()).ok
        # the floor 1/2 is tight: the tail's throughput is 0.5 exactly
        with pytest.raises(ValueError, match=r"floor .*: n \* r\(n\) = 0\.5 for n > 1"):
            dataclasses.replace(half_interference(), declared_floor=0.5 + 1e-9)

    def test_pure_delay_passes_without_single_server_flag(self):
        assert validate(pure_delay()).ok

    def test_pure_delay_flagged_when_single_server(self):
        with pytest.raises(ValueError, match="single-server"):
            dataclasses.replace(pure_delay(), single_server=True)

    def test_table_example_valid(self):
        assert validate(table_rate(THROUGHPUT_TABLE, declared_floor=0.8)).ok
        # the floor 0.8 is tight, reached at n = 100
        with pytest.raises(ValueError, match=r"below declared floor .*: 100 \* r\(100\)"):
            table_rate(THROUGHPUT_TABLE, declared_floor=0.8 + 1e-9)

    def test_monotonicity_violation_reported(self):
        with pytest.raises(ValueError, match="non-increasing"):
            table_rate({1: 0.5, 2: 0.7}, declared_floor=0.1)

    def test_floor_violation_reported_with_n(self):
        with pytest.raises(ValueError, match=r"below declared floor .*r\(2\)"):
            table_rate({1: 1.0, 2: 0.2}, declared_floor=0.9)

    def test_nonpositive_rate_reported(self):
        # r(4) > 0, but r(5) = 0: refused when built, so no call meets it
        for floor in (0.0, 0.1):
            with pytest.raises(ValueError, match=r"strictly positive, r\(5\) = 0\.0"):
                table_rate(DOWN_TO_ZERO, declared_floor=floor)

    @pytest.mark.parametrize("build, what", [
        (lambda: scaled_ps(math.nan), "strictly positive"),
        (lambda: table_rate({1: math.nan}, 0.5), "strictly positive"),
        (lambda: table_rate({1: 1.0, 2: math.inf}, 0.5), "strictly positive"),
        (lambda: table_rate({1: 1.0, 2: -0.5}, 0.5), "strictly positive"),
        (lambda: table_rate({1: 1.0}, math.nan), "declared floor"),
        (lambda: table_rate({1: 1.0}, -0.5), "declared floor"),
    ], ids=["scaled_nan", "table_nan_value", "table_inf_value", "table_negative_value",
            "table_nan_floor", "table_negative_floor"])
    def test_non_finite_values_reported(self, build, what):
        with pytest.raises(ValueError, match=what):
            build()

    def test_floor_checked_past_128(self):
        # 200 * r(200) = 0.2 is below the declared floor 0.5
        with pytest.raises(ValueError, match=r"below declared floor .*r\(200\)"):
            table_rate({1: 1.0, 200: 0.001}, declared_floor=0.5)

    def test_large_constant_throughput_valid(self):
        # n * (k / n) rounds below k for some n; the tail's throughput is k
        assert validate(scaled_ps(1e6)).ok

    def test_single_server_table_capped_past_its_last_key(self):
        # the last value extends, so 129 * r(129) = 129/128 > 1
        with pytest.raises(ValueError, match=r"single-server cap .*: n \* r\(n\) grows"):
            table_rate({n: 1 / n for n in range(1, 129)}, declared_floor=1.0, single_server=True)

    def test_tail_above_the_table_is_an_increase(self):
        # r(1) = 0.1, then r(2) = 0.5 / 2 from the tail
        with pytest.raises(ValueError, match="non-increasing"):
            dataclasses.replace(half_interference(), table=((1, 0.1),))

    @pytest.mark.parametrize("table", [
        (),
        ((2, 0.5),),  # r(1) would read the n = 2 value
        ((1, 1.0), (3, 0.5), (2, 0.6)),
        ((1, 1.0), (1, 0.5)),
        ((1, 1.0), (2.0, 0.5)),
        ((True, 1.0),),
    ], ids=["empty", "no_n_1", "unsorted", "repeated", "float_key", "bool_key"])
    def test_table_shape_refused_at_construction(self, table):
        with pytest.raises(ValueError, match="rate table keys must be integers rising strictly"):
            RateFunction(kind="x", declared_floor=0.5, table=table)

    def test_equals_a_scan_past_the_last_key(self):
        # Random step tables on a grid of 1/64, with and without a tail:
        # construction succeeds exactly when every n up to 80 past the last
        # key passes, where a last value of at least 1/64 has extended past
        # the cap.
        rng = random.Random(5)
        grid = [j / 64 for j in range(0, 81)]
        seen = []
        for _ in range(2000):
            keys = sorted({1} | set(rng.sample(range(2, 40), rng.randrange(0, 5))))
            values = rng.choices(grid, k=len(keys))
            if rng.random() < 0.8:  # mostly non-increasing, to reach the other checks
                values.sort(reverse=True)
            table = tuple(zip(keys, values))
            tail = rng.choice([None, *grid[:72]])
            floor = rng.choice(grid[:72])
            single_server = rng.random() < 0.5
            ok = _scan_ok(table, tail, floor, single_server, keys[-1] + 80)
            try:
                RateFunction(kind="custom_table", declared_floor=floor,
                             single_server=single_server, table=table, tail=tail)
                built = True
            except ValueError:
                built = False
            assert built == ok, (table, tail, floor, single_server)
            seen.append(ok)
        assert 100 < sum(seen) < 1900


@st.composite
def near_flat_tables(draw):
    """Non-increasing step tables, with or without a tail, of which one
    step may rise by up to ``_CHECK_TOL``, a rise :func:`validate` allows."""
    keys = sorted(draw(st.sets(st.integers(2, 40), max_size=5)) | {1})
    values = sorted(draw(st.lists(st.floats(0.1, 1.0), min_size=len(keys),
                                  max_size=len(keys))), reverse=True)
    if len(keys) > 1:
        rise = draw(st.integers(1, len(keys) - 1))
        values[rise] = values[rise - 1] + draw(st.sampled_from([0.0, _CHECK_TOL / 2, _CHECK_TOL]))
    tail = draw(st.one_of(st.none(), st.floats(0.1, 1.0).map(lambda f: f * keys[-1] * values[-1])))
    return RateFunction(kind="custom_table", declared_floor=0.0, table=tuple(zip(keys, values)),
                        tail=tail)


class TestFalls:
    @given(st.one_of(st.sampled_from(CATALOG), near_flat_tables()))
    def test_equals_a_scan(self, r):
        # r is constant between keys and tail / n never rises, so the scan
        # reaches every step once it passes the last key
        n_max = r.table[-1][0] + 80
        values = [r(n) for n in range(1, n_max + 1)]
        assert r.falls == all(a >= b for a, b in zip(values, values[1:]))

    def test_is_derived(self):
        r = table_rate({1: 1.0, 2: 0.5, 3: 0.5 + _CHECK_TOL / 2}, declared_floor=0.9)
        assert not r.falls and classical_ps().falls
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.falls = True
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(r, falls=True)
        assert dataclasses.replace(r, table=((1, 1.0), (2, 0.5))).falls


def _scan_ok(table, tail, floor, single_server, n_max):
    """The assumptions checked at every ``n <= n_max`` one by one, on the
    step table ``table`` with ``tail``, evaluated here."""
    keys = [k for k, _ in table]
    prev = math.inf
    for n in range(1, n_max + 1):
        if tail is not None and n > keys[-1]:
            v = tail / n
        else:
            v = table[bisect.bisect_right(keys, n) - 1][1]
        tp = n * v
        if (not 0.0 < v < math.inf or v > prev + 1e-12 or tp < floor - 1e-12
                or (single_server and tp > 1 + 1e-12)):
            return False
        prev = v
    return True


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
        rates = [pure_delay(), classical_ps(), half_interference(), scaled_ps(0.7),
                 table_rate(THROUGHPUT_TABLE, declared_floor=0.8)]
        for r in rates:
            # grown on demand, in uneven steps
            for n in (3, 1, 40, 300):
                assert r.rate_vector(n)[1 : n + 1] == [r(k) for k in range(1, n + 1)]
        assert classical_ps().rate_vector(5)[5] == 0.2
        assert half_interference().rate_vector(5)[5] == 0.1

    def test_cache_is_per_instance(self):
        r = classical_ps()
        assert r.rate_vector(4) is r.rate_vector(2)
        assert classical_ps().rate_vector(4) is not r.rate_vector(4)
        assert dataclasses.replace(r, single_server=False).rate_vector(4) is not r.rate_vector(4)
