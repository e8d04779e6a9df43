"""State-dependent service-rate functions.

A :class:`RateFunction` maps the number of in-system customers ``n >= 1``
to the per-customer service rate ``r(n)``; the total throughput at
occupancy ``n`` is ``n * r(n)``.  The standing assumptions carried by a
rate function are

* ``r`` finite, strictly positive and non-increasing in ``n``;
* if the function is flagged ``single_server``: ``n * r(n) <= 1``;
* a finite, nonnegative declared throughput floor ``K_r`` with
  ``n * r(n) >= K_r``.

Every rate is a step table with a tail: ``r(n)`` is the value at the last
table key ``<= n``, and past the last key it is ``tail / n`` (constant
throughput ``tail``) when a tail is set, else the last value extends.  So
:func:`validate` checks the assumptions at every ``n`` exactly, from the
keys and the tail alone, and a :class:`RateFunction` that fails it is
never built: construction raises ``ValueError`` naming each violation.

Built-in catalog:

* :func:`pure_delay` -- ``r(n) = 1``: every customer is served at unit
  rate regardless of congestion (infinite-server behaviour).
* :func:`classical_ps` -- ``r(n) = 1/n``: one unit of total capacity split
  equally, throughput exactly 1 whenever the system is busy.
* :func:`half_interference` -- ``r(1) = 1`` and ``r(n) = 1/(2n)`` for
  ``n >= 2``: contention halves the server efficiency, floor 1/2.
* :func:`scaled_ps` -- ``r(n) = K/n``: constant throughput ``K``.
* :func:`table_rate` -- explicit ``{n: r}`` table with step extension.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from operator import ge
from typing import Mapping

#: Slack for the validator's inequality checks on ``n * r(n)`` at the
#: table's keys, where the product of two floats may round below the floor.
_CHECK_TOL = 1e-12


@dataclass(frozen=True, kw_only=True)
class RateFunction:
    """Immutable per-customer service rate ``n -> r(n)``.

    ``table`` lists ``(n, r)`` pairs by strictly increasing integer ``n``,
    starting at ``n = 1``; ``r(n)`` is the value of the last key ``<= n``.
    Past the last key, ``r(n) = tail / n`` when ``tail`` is set, else the
    last value extends.  ``kind`` names the rate and is not read.
    ``declared_floor`` is the throughput floor ``K_r`` the constructor
    promises; ``single_server`` marks functions whose total throughput is
    supposed to stay at or below one.  Construction (and
    ``dataclasses.replace``) raises ``ValueError`` with :func:`validate`'s
    violations when the table is malformed or the rate breaks an
    assumption.  ``falls``, derived at construction and not settable, says
    that ``r(n)`` never rises for ``n >= 1``, not even within the slack
    :func:`validate` allows.
    """

    kind: str
    declared_floor: float
    single_server: bool = False
    table: tuple[tuple[int, float], ...]
    tail: float | None = None
    # r(0..n) computed so far, index 0 unused
    _vector: list[float] = field(
        default_factory=lambda: [0.0], init=False, repr=False, compare=False
    )
    falls: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        report = validate(self)
        if not report.ok:
            raise ValueError("; ".join(report.violations))
        # r is constant between the probes, and tail / n never rises
        values = [self(n) for n in _probes(self.table)]
        object.__setattr__(self, "falls", all(map(ge, values, values[1:])))

    def __call__(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"rate is defined for n >= 1, got {n}")
        table = self.table
        if self.tail is not None and n > table[-1][0]:
            return self.tail / n
        # (n, inf) sorts after every (n, v): the last entry with key <= n
        return table[bisect.bisect_right(table, (n, math.inf)) - 1][1]

    def rate_vector(self, n: int) -> list[float]:
        """``[_, r(1), ..., r(n), ...]``, index 0 unused: the values of
        calling the function, computed once per instance and grown on
        demand.  The list is shared; callers must not modify it."""
        v = self._vector
        if len(v) <= n:
            v.extend(self(k) for k in range(len(v), n + 1))
        return v


def pure_delay() -> RateFunction:
    """Unit rate for every customer; throughput grows with occupancy."""
    return RateFunction(kind="pure_delay", declared_floor=1.0, table=((1, 1.0),))


def classical_ps() -> RateFunction:
    """Equal split of one unit of capacity: ``r(n) = 1/n``, floor 1."""
    return RateFunction(
        kind="classical_ps", declared_floor=1.0, single_server=True, table=((1, 1.0),), tail=1.0
    )


def half_interference() -> RateFunction:
    """Full rate alone, half-efficiency under contention: floor 1/2."""
    return RateFunction(
        kind="half_interference", declared_floor=0.5, single_server=True, table=((1, 1.0),),
        tail=0.5,
    )


def scaled_ps(k: float) -> RateFunction:
    """Constant throughput ``k > 0``: ``r(n) = k/n``."""
    k = float(k)
    return RateFunction(
        kind="scaled_ps", declared_floor=k, single_server=k <= 1.0, table=((1, k),), tail=k
    )


def table_rate(
    values: Mapping[int, float],
    declared_floor: float,
    single_server: bool = False,
) -> RateFunction:
    """Rate from an explicit ``{n: r}`` table.

    Between listed points the previous value extends (step function); past
    the last point ``r(n) = r(n_last)``, so the throughput grows without
    bound and a ``single_server`` table is refused.  The table must define
    ``n = 1``; keys are integral numbers or strings of one, and two keys
    that name the same ``n`` are refused.
    """
    items = tuple(sorted((_table_key(k), float(v)) for k, v in values.items()))
    if len({k for k, _ in items}) < len(items):
        raise ValueError(f"rate table keys collide as integers: {list(values)!r}")
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


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: ``violations`` holds one human-readable
    message per failed check, naming an offending ``n``."""

    ok: bool
    violations: tuple[str, ...]


def validate(r: RateFunction) -> ValidationReport:
    """Check that the table's keys are integers rising strictly from 1, that
    the declared floor is finite and nonnegative and that, at every
    ``n >= 1``, ``r(n)`` is finite, positive and non-increasing and
    ``n * r(n)`` is at least the floor and, for a single-server rate, at
    most one.

    ``r`` is constant between table keys, so on each step ``n * r(n)`` is
    smallest at the step's key and largest at the ``n`` just before the
    next key; past the last key the throughput is ``tail`` exactly, or
    grows without bound when there is no tail.  So ``r`` is read only at
    the keys, at the ``n`` just before each and at the first ``n`` past the
    last key, and the tail's throughput is ``tail`` itself, not the rounded
    ``n * (tail / n)``.
    """
    violations: list[str] = []
    if not 0.0 <= r.declared_floor < math.inf:
        violations.append(
            f"declared floor must be finite and nonnegative, got {r.declared_floor!r}"
        )
    keys = [k for k, _ in r.table]
    if (not keys or keys[0] != 1
            or any(type(k) is not int for k in keys)
            or any(a >= b for a, b in zip(keys, keys[1:]))):
        violations.append(
            f"rate table keys must be integers rising strictly from n = 1, got {r.table!r}"
        )
        return ValidationReport(ok=False, violations=tuple(violations))
    last = keys[-1]
    seen_increase = seen_cap = seen_floor = False
    prev_n, prev = 0, math.inf
    for n in _probes(r.table):
        v = r(n)
        if not 0.0 < v < math.inf:
            violations.append(f"rate must be finite and strictly positive, r({n}) = {v!r}")
            break
        if v > prev + _CHECK_TOL and not seen_increase:
            violations.append(f"r not non-increasing: r({prev_n}) = {prev}, r({n}) = {v}")
            seen_increase = True
        tp = n * v if n <= last else math.inf if r.tail is None else r.tail
        if r.single_server and tp > 1.0 + _CHECK_TOL and not seen_cap:
            violations.append(f"single-server cap of 1 violated: {_throughput_text(r, n)}")
            seen_cap = True
        if tp < r.declared_floor - _CHECK_TOL and not seen_floor:
            violations.append(
                f"throughput below declared floor K_r = {r.declared_floor}: "
                f"{_throughput_text(r, n)}"
            )
            seen_floor = True
        prev_n, prev = n, v
    return ValidationReport(ok=not violations, violations=tuple(violations))


def _probes(table: tuple[tuple[int, float], ...]) -> list[int]:
    """The ``n`` at which :func:`validate` reads ``r``: each key, the ``n``
    just before it and the first ``n`` past the last key."""
    keys = [k for k, _ in table]
    return sorted({n for k in keys for n in (k - 1, k) if n >= 1}) + [keys[-1] + 1]


def _throughput_text(r: RateFunction, n: int) -> str:
    """``n * r(n)`` at a probe of :func:`validate`, for its messages."""
    last = r.table[-1][0]
    if n <= last:
        return f"{n} * r({n}) = {n * r(n)}"
    if r.tail is not None:
        return f"n * r(n) = {r.tail} for n > {last}"
    return f"n * r(n) grows without bound for n > {last}"
