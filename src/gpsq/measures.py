"""Finite counting measures on the nonnegative reals.

A :class:`CountingMeasure` is a finite multiset of nonnegative atoms kept
sorted in non-decreasing order.  In the queueing interpretation an atom is
the remaining processing time of one in-system customer, so the measure is
the full service profile of the system at an instant: the number of atoms
is the congestion, the sum of the atoms is the workload.

The two structural operations everything else is built on are

* ``shift(y)`` -- drain ``y`` units of per-customer work: atoms ``<= y``
  are removed (those customers have finished), the survivors are reduced
  by ``y``;
* ``leq`` -- the top-aligned partial order: ``mu <= nu`` iff ``nu`` has at
  least as many atoms and, comparing largest-to-largest, second-largest to
  second-largest, and so on, every atom of ``mu`` is dominated.  This is
  equivalent to ``integrate(mu, f) <= integrate(nu, f)`` for every
  nonnegative non-decreasing ``f`` (property-tested, not assumed).

Measures are immutable; every operation returns a new value.
"""

from __future__ import annotations

import bisect
from functools import reduce
from operator import add
from typing import Callable, Iterable, Iterator

#: Absolute tolerance for atom equality in tv_distance and coupling checks.
#: All arithmetic downstream composes float subtractions, so exact equality
#: would be brittle.
ATOM_TOL = 1e-9


def left_sum(xs: Iterable[float]) -> float:
    """``xs`` added from left to right, starting from the int ``0`` as
    ``sum()`` does (so the sum of nothing is ``0``).  CPython 3.12 and
    later compensate a float ``sum()``; this fold keeps the plain
    additions, and so the result bytes, on every interpreter."""
    return reduce(add, xs, 0)


class CountingMeasure:
    """Sorted finite multiset of nonnegative atoms.

    Duplicate atoms are allowed: service profiles can collide (two customers
    with equal remaining work), so the multiset semantics is deliberate.
    """

    __slots__ = ("_atoms",)

    def __init__(self, atoms: Iterable[float] = ()):
        xs = sorted(float(a) for a in atoms)
        if xs and xs[0] < 0.0:
            raise ValueError(f"atoms must be nonnegative, got {xs[0]!r}")
        self._atoms: tuple[float, ...] = tuple(xs)

    @classmethod
    def of_sorted(cls, atoms: Iterable[float]) -> "CountingMeasure":
        """The measure of ``atoms``, which must already be nonnegative
        floats in non-decreasing order: unlike the constructor, it neither
        sorts nor checks them."""
        out = cls.__new__(cls)
        out._atoms = tuple(atoms)
        return out

    # -- basic accessors ---------------------------------------------------

    @property
    def atoms(self) -> tuple[float, ...]:
        """Atoms in non-decreasing order."""
        return self._atoms

    @property
    def num_atoms(self) -> int:
        """Number of atoms; 0 iff this is the zero measure."""
        return len(self._atoms)

    @property
    def is_empty(self) -> bool:
        return not self._atoms

    @property
    def largest_atom(self) -> float:
        """The largest atom; 0 for the zero measure (max of the empty set)."""
        return self._atoms[-1] if self._atoms else 0.0

    @property
    def workload(self) -> float:
        """Sum of all atoms (integral of the identity function)."""
        return left_sum(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[float]:
        return iter(self._atoms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountingMeasure):
            return NotImplemented
        return self._atoms == other._atoms

    def __hash__(self) -> int:
        return hash(self._atoms)

    def __repr__(self) -> str:
        return f"CountingMeasure({list(self._atoms)!r})"

    # -- measure operations ------------------------------------------------

    def shift(self, y: float) -> "CountingMeasure":
        """Remove atoms ``<= y`` and reduce the survivors by ``y``.

        The inequality is strict on survival: an atom exactly equal to
        ``y`` is removed (that customer finishes exactly at the shift
        boundary).
        """
        if y < 0.0:
            raise ValueError(f"shift amount must be nonnegative, got {y!r}")
        return CountingMeasure.of_sorted(a - y for a in self._atoms if a > y)

    def add_atom(self, s: float) -> "CountingMeasure":
        """Return a copy with one more atom ``s`` (duplicates kept)."""
        if s < 0.0:
            raise ValueError(f"atom must be nonnegative, got {s!r}")
        xs = list(self._atoms)
        bisect.insort(xs, float(s))
        return CountingMeasure.of_sorted(xs)

    def integrate(self, f: Callable[[float], float]) -> float:
        """Sum of ``f`` over the atoms, by :func:`left_sum` (0 for the zero
        measure)."""
        return left_sum(f(a) for a in self._atoms)

    def leq(self, other: "CountingMeasure", tol: float = 0.0) -> bool:
        """Top-aligned partial order: every atom dominated rank-by-rank.

        ``tol`` relaxes each comparison to ``a <= b + tol``; the default is
        the exact order.
        """
        n, m = len(self._atoms), len(other._atoms)
        if n > m:
            return False
        for i in range(1, n + 1):
            if self._atoms[n - i] > other._atoms[m - i] + tol:
                return False
        return True

    def tv_distance(self, other: "CountingMeasure", tol: float = ATOM_TOL) -> int:
        """Number of atoms left unmatched under optimal tolerant matching.

        Atoms are matched greedily across the two sorted lists, a pair
        matching when it agrees within ``tol``; on sorted inputs the greedy
        sweep attains the maximum matching.  The distance is the total count
        of unmatched atoms on both sides, so 0 means the multisets agree
        within ``tol`` and ``tv_distance(mu, ZERO)`` counts ``mu``'s atoms.
        """
        a, b = self._atoms, other._atoms
        i = j = matched = 0
        while i < len(a) and j < len(b):
            if abs(a[i] - b[j]) <= tol:
                matched += 1
                i += 1
                j += 1
            elif a[i] < b[j]:
                i += 1
            else:
                j += 1
        return (len(a) - matched) + (len(b) - matched)


#: The zero measure.
ZERO = CountingMeasure()
