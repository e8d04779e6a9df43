"""State-dependent service-rate functions.

A :class:`RateFunction` maps the number of in-system customers ``n >= 1``
to the per-customer service rate ``r(n)``; the total throughput at
occupancy ``n`` is ``n * r(n)``.  The standing assumptions carried by a
rate function are

* ``r`` finite, strictly positive and non-increasing in ``n``;
* if the function is flagged ``single_server``: ``n * r(n) <= 1``;
* a finite, nonnegative declared throughput floor ``K_r`` with
  ``n * r(n) >= K_r``.

The floor is declared by the constructor rather than inferred: an infimum
over all ``n`` is not computable for an arbitrary rate function, so
:func:`validate` certifies it only up to a probed horizon and says so.

Built-in catalog:

* :func:`pure_delay` -- ``r(n) = 1``: every customer is served at unit
  rate regardless of congestion (infinite-server behaviour).
* :func:`classical_ps` -- ``r(n) = 1/n``: one unit of total capacity split
  equally, throughput exactly 1 whenever the system is busy.
* :func:`half_interference` -- ``r(1) = 1`` and ``r(n) = 1/(2n)`` for
  ``n >= 2``: contention halves the server efficiency, floor 1/2.
* :func:`scaled_ps` -- ``r(n) = K/n``: constant throughput ``K``.
* :func:`table_rate` -- explicit ``{n: r}`` table with step extension.
* :func:`formula_rate` -- arbitrary callable (not picklable; library use
  only, the CLI config never builds one).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

#: Slack for the validator's inequality checks; table values are exact but
#: formula-backed rates may carry rounding noise.
_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class RateFunction:
    """Immutable per-customer service rate ``n -> r(n)``.

    ``declared_floor`` is the throughput floor ``K_r`` the constructor
    promises; ``single_server`` marks functions whose total throughput is
    supposed to stay at or below one.
    """

    kind: str
    declared_floor: float
    single_server: bool = False
    param: float | None = None
    table: tuple[tuple[int, float], ...] | None = None
    formula: Callable[[int], float] | None = field(default=None, compare=False)
    # r(0..n) computed so far, index 0 unused: this instance's own values
    # (rates that compare equal may differ, as formula rates all do)
    _vector: list[float] = field(
        default_factory=lambda: [0.0], init=False, repr=False, compare=False
    )

    def __call__(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"rate is defined for n >= 1, got {n}")
        if self.kind == "pure_delay":
            v = 1.0
        elif self.kind == "classical_ps":
            v = 1.0 / n
        elif self.kind == "half_interference":
            v = 1.0 if n == 1 else 1.0 / (2.0 * n)
        elif self.kind == "scaled_ps":
            v = self.param / n  # type: ignore[operand]
        elif self.kind == "custom_table":
            v = self._table_lookup(n)
        elif self.kind == "custom_formula":
            v = float(self.formula(n))  # type: ignore[misc]
        else:
            raise ValueError(f"unknown rate kind {self.kind!r}")
        if not 0.0 < v < math.inf:
            raise ValueError(f"rate must be finite and strictly positive, r({n}) = {v!r}")
        return v

    def rate_vector(self, n: int) -> list[float]:
        """``[_, r(1), ..., r(n), ...]``, index 0 unused: the values of
        calling the function, computed once per instance and grown on
        demand.  The list is shared; callers must not modify it."""
        v = self._vector
        if len(v) <= n:
            v.extend(self(k) for k in range(len(v), n + 1))
        return v

    def _table_lookup(self, n: int) -> float:
        # (n, inf) sorts after every (n, v): the last entry with key <= n
        idx = bisect.bisect_right(self.table, (n, math.inf)) - 1  # type: ignore[arg-type]
        return self.table[idx][1]  # type: ignore[index]

    def throughput(self, n: int) -> float:
        """Total work rate ``n * r(n)`` at occupancy ``n >= 1``."""
        if n < 1:
            raise ValueError(f"throughput is defined for n >= 1, got {n}")
        return n * self(n)


def pure_delay() -> RateFunction:
    """Unit rate for every customer; throughput grows with occupancy."""
    return RateFunction(kind="pure_delay", declared_floor=1.0, single_server=False)


def classical_ps() -> RateFunction:
    """Equal split of one unit of capacity: ``r(n) = 1/n``, floor 1."""
    return RateFunction(kind="classical_ps", declared_floor=1.0, single_server=True)


def half_interference() -> RateFunction:
    """Full rate alone, half-efficiency under contention: floor 1/2."""
    return RateFunction(kind="half_interference", declared_floor=0.5, single_server=True)


def scaled_ps(k: float) -> RateFunction:
    """Constant throughput ``k``: ``r(n) = k/n``."""
    if k <= 0.0:
        raise ValueError(f"throughput scale must be positive, got {k!r}")
    return RateFunction(
        kind="scaled_ps", declared_floor=k, single_server=k <= 1.0, param=k
    )


def table_rate(
    values: Mapping[int, float],
    declared_floor: float,
    single_server: bool = False,
) -> RateFunction:
    """Rate from an explicit ``{n: r}`` table.

    Between listed points the previous value extends (step function); past
    the last point ``r(n) = r(n_last)``.  The table must define ``n = 1``;
    keys are integral numbers or strings of one, and two keys that name
    the same ``n`` are refused.
    """
    if not values:
        raise ValueError("rate table must not be empty")
    items = tuple(sorted((_table_key(k), float(v)) for k, v in values.items()))
    if len({k for k, _ in items}) < len(items):
        raise ValueError(f"rate table keys collide as integers: {list(values)!r}")
    if items[0][0] != 1:
        raise ValueError("rate table must define n = 1")
    return RateFunction(
        kind="custom_table",
        declared_floor=declared_floor,
        single_server=single_server,
        table=items,
    )


def _table_key(k: object) -> int:
    """Table key ``k`` as an int: an integral number or a string of one
    (JSON object keys are strings), never a bool."""
    try:
        if not isinstance(k, bool) and (isinstance(k, str) or int(k) == k):
            return int(k)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"rate table keys must be integers, got {k!r}")


def formula_rate(
    fn: Callable[[int], float],
    declared_floor: float,
    single_server: bool = False,
) -> RateFunction:
    """Rate backed by an arbitrary callable."""
    return RateFunction(
        kind="custom_formula",
        declared_floor=declared_floor,
        single_server=single_server,
        formula=fn,
    )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of probing a rate function over ``n = 1..n_max``.

    ``violations`` holds one human-readable message per failed check (the
    first offending ``n`` for each); ``min_throughput`` is the smallest
    probed ``n * r(n)``, to be read alongside the declared floor.  The
    certificate only covers the probed horizon.
    """

    ok: bool
    violations: tuple[str, ...]
    min_throughput: float
    min_throughput_n: int
    declared_floor: float
    probed_n_max: int


def validate(r: RateFunction, n_max: int = 128) -> ValidationReport:
    """Check that the declared floor is finite and nonnegative, and
    positivity and finiteness, monotonicity, the single-server cap and the
    floor for ``n = 1..n_max``."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    violations: list[str] = []
    if not 0.0 <= r.declared_floor < math.inf:
        violations.append(
            f"declared floor must be finite and nonnegative, got {r.declared_floor!r}"
        )
    seen_nonpositive = seen_increase = seen_cap = seen_floor = False
    prev = None
    min_tp, min_tp_n = float("inf"), 1
    for n in range(1, n_max + 1):
        try:
            v = r(n)
        except ValueError as exc:
            if not seen_nonpositive:
                violations.append(str(exc))
                seen_nonpositive = True
            break
        if prev is not None and v > prev + _CHECK_TOL and not seen_increase:
            violations.append(f"r not non-increasing: r({n - 1}) = {prev}, r({n}) = {v}")
            seen_increase = True
        tp = n * v
        if tp < min_tp:
            min_tp, min_tp_n = tp, n
        if r.single_server and tp > 1.0 + _CHECK_TOL and not seen_cap:
            violations.append(f"single-server cap violated: {n} * r({n}) = {tp} > 1")
            seen_cap = True
        if tp < r.declared_floor - _CHECK_TOL and not seen_floor:
            violations.append(
                f"throughput below declared floor: {n} * r({n}) = {tp} "
                f"< K_r = {r.declared_floor}"
            )
            seen_floor = True
        prev = v
    return ValidationReport(
        ok=not violations,
        violations=tuple(violations),
        min_throughput=min_tp,
        min_throughput_n=min_tp_n,
        declared_floor=r.declared_floor,
        probed_n_max=n_max,
    )
