"""Seeded bi-infinite marked arrival sequences.

A :class:`MarkedInputGenerator` produces, for any integer index ``n``
(negative indices reach into the stationary past), the pair
``(xi_n, sigma_n)``: the inter-arrival time from arrival ``n`` to ``n + 1``
and the service demand of arrival ``n``.  Two hard requirements drive the
design:

* every mark is a pure function of ``(seed, model, n + offset)`` --
  re-reading any index or range gives the same marks, in any order, which
  is what the backward constructions need;
* the time shift is an index translation: ``gen.shift(k).sample_block(a,
  b) == gen.sample_block(a + k, b + k)``, exactly.

Randomness is counter-based: each index owns a block of a Philox stream
keyed by ``(seed, purpose)`` with the index in the counter, so no
sequential state exists to advance.  Variates are inverse-CDF transforms
of uniforms, which keeps the mapping from bits to values explicit and
stable.

There is one read path.  :func:`_philox_uniforms` runs Philox4x64-10 over
whole arrays of counters in numpy (Salmon et al., SC'11), and each
distribution maps its column of uniforms through :meth:`transform`.  Each
model's ``sample_blocks(seeds, a, b)`` reads indices ``a .. b - 1`` of many
seeds at once: every counter of a pass carries its own key, so a kernel
call costs about the same for one seed as for dozens.  On top of it,
``MarkedInputGenerator.sample_block(a, b)`` is the one-seed case,
:func:`sample_blocks` reads many generators grouped by model, and
``sample(n)`` is the block ``[n, n + 1)``.  A kernel call has a fixed cost
of about 0.12 ms, so read ranges with ``sample_block``, not index by index.
A read is one kernel pass, which holds the chain rows and the mark rows
alike, and runs the kernel only for what it uses: laws that consume no
uniform (deterministic ones) read no mark rows, and a chain with one state
(iid marks) reads no chain rows.  The read (:func:`_read`) depends on the
model only through its transition matrix, so models that differ only in
their laws can apply theirs to one read; nothing is kept between reads.

The kernel reproduces numpy's own Philox generator bit for bit: the
uniforms of ``(seed, purpose, n)`` are the first two ``random()`` draws of
:func:`_rng_at`.  That generator is the oracle the kernel is checked
against (``checks.input_determinism`` and the tests); nothing reads marks
through it.  The transforms apply ``math.log1p`` and ``**`` per element
and the affine steps in numpy, which rounds them exactly as Python does,
so the marks are the values the scalar inverse-CDF formulas give on the
same uniforms.  ``np.log1p`` is not correctly rounded the same way (it is
one ulp off ``math.log1p`` on about 7% of draws), so no mark that is
written out comes from it.  Each law also has a vectorised ``screen``
(``np.log1p``, ``np.power``), within its stated relative ``screen_bound``
(:data:`SCREEN_BOUND`) of ``transform``: the perfect sampler decides its
regeneration epoch on screened marks with a slack derived from that bound,
computes exact marks only for the marks it writes out, and searches again
on exact marks when a decision is close (``gpsq.stationary``).

The Markov-modulated model is exactly stationary.  Its grand coupling (one
shared uniform per index, inverse-CDF transition rows) is one table of
moves: the rows' running sums cut ``[0, 1)`` into intervals on which every
state moves one way.  Coupling from the past (Propp & Wilson, 1996)
composes the moves of the indices before a block's first one, from the
64 read with the block, doubling the lookback until all start states
coalesce; the block walks that state forward by the same moves, which
gives the state coupling from the past would find at every later index.
The construction check finds
irreducibility by reachability over the matrix's positive entries, and
coalescence by a search of the same moves.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate
from typing import ClassVar, Sequence

import numpy as np

from .measures import left_sum

_MASK64 = (1 << 64) - 1
_PURPOSE_CHAIN = 0
_PURPOSE_MARKS = 1

#: Lookback cap for the modulating chain's coupling-from-the-past search.
_MM_MAX_LOOKBACK = 1 << 20
#: First lookback of that search, read in the same kernel pass as the block.
_MM_FIRST_LOOKBACK = 64


def _rng_at(seed: int, purpose: int, index: int) -> np.random.Generator:
    """numpy's generator for one (seed, purpose, index) block: the
    reference :func:`_philox_uniforms` is checked against."""
    key = np.array([seed & _MASK64, purpose], dtype=np.uint64)
    counter = np.array([0, 0, 0, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


# Philox4x64-10 constants (Random123): round multipliers of counter words 0
# and 2, and the Weyl increments of the two key words.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_LO = _PHILOX_M & np.uint64(0xFFFFFFFF)
_PHILOX_M_HI = _PHILOX_M >> np.uint64(32)
_PHILOX_KEY_BUMPS = np.array(
    [[[r * 0x9E3779B97F4A7C15 & _MASK64], [r * 0xBB67AE8584CAA73B & _MASK64]] for r in range(10)],
    dtype=np.uint64,
)
#: Counters per kernel pass; keeps the temporaries small and in cache.
_PHILOX_CHUNK = 8192


def _mulhi(x: np.ndarray, m_lo, m_hi, out: np.ndarray, xl: np.ndarray, xh: np.ndarray,
           t: np.ndarray) -> np.ndarray:
    """``hi(x * m)``, the upper half of the 64x64 -> 128 product, into
    ``out``, from the 32-bit limbs of ``x`` and of ``m = m_hi 2^32 + m_lo``;
    ``xl``, ``xh`` and ``t`` are scratch of ``out``'s shape."""
    low32, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    np.bitwise_and(x, low32, out=xl)
    np.right_shift(x, s32, out=xh)
    np.multiply(xl, m_lo, out=t)  # ll
    t >>= s32
    xl *= m_hi  # lh
    xl += t  # cross
    np.multiply(xh, m_lo, out=t)  # hl
    xh *= m_hi  # hh
    np.bitwise_and(xl, low32, out=out)
    out += t  # cross2
    out >>= s32
    xl >>= s32
    out += xl
    out += xh
    return out


def _philox_pass(key: np.ndarray, counter: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Counter words are held as two stacked pairs: x = (c0, c2), the words
    # each round multiplies, and y = (c1, c3).  A round maps them to
    # x' = (hi(M1 c2) ^ c1 ^ k0, hi(M0 c0) ^ c3 ^ k1), y' = (lo(M1 c2), lo(M0 c0)).
    # ``key`` holds each counter's key words (seed, purpose) as a (2, n)
    # array.
    # * Round 1 is a closed form.  The counter is [1, 0, 0, index] (numpy's
    #   Philox increments word 0 before its first block), so its products
    #   are M0 * 1 and M1 * 0: x = (k0, index ^ k1), y = (0, M0).
    # * Round 10 keeps words 0 and 1, hi(M1 c2) ^ c1 ^ k0 and lo(M1 c2),
    #   the only ones random(2) reads, so it forms the M1 c2 product alone.
    # * hi() is the 64x64 -> 128 product's upper half from 32-bit limbs
    #   (:func:`_mulhi`): with ll, lh, hl, hh the limb products (x's low
    #   limb times M's low limb, low times high, ...), cross = lh + (ll >>
    #   32), cross2 = (cross & low32) + hl and hi = hh + (cross >> 32) +
    #   (cross2 >> 32).  Each limb product is at most (2^32 - 1)^2 = 2^64 -
    #   2^33 + 1, so cross < 2^64 - 2^32 and cross2 <= 2^64 - 2^32: no sum
    #   wraps.
    # The rounds work in place on (2, n) buffers, so a pass allocates
    # nothing per round.
    n = counter.size
    x = key.copy()
    x[1] ^= counter
    y = np.zeros((2, n), dtype=np.uint64)
    y[1] = _PHILOX_M[0]
    t, hi, xl, xh, p = (np.empty((2, n), dtype=np.uint64) for _ in range(5))
    for bump in _PHILOX_KEY_BUMPS[1:-1]:
        _mulhi(x, _PHILOX_M_LO, _PHILOX_M_HI, hi, xl, xh, p)
        np.add(key, bump, out=t)
        t ^= y
        t ^= hi[::-1]
        x *= _PHILOX_M
        # t is the new x and the reversed product the new y; the old y's
        # buffer becomes the scratch
        x, y, t = t, x[::-1], y[::-1]
    c2 = x[1]
    w0 = _mulhi(c2, _PHILOX_M_LO[1], _PHILOX_M_HI[1], hi[0], xl[0], xh[0], p[0])
    w0 ^= y[0]
    np.add(key[0], _PHILOX_KEY_BUMPS[-1, 0], out=t[0])
    w0 ^= t[0]
    c2 *= _PHILOX_M[1]
    return w0, c2


def _philox_uniforms(rows: Sequence[tuple[int, int]], a: int, b: int) -> np.ndarray:
    """The first two ``random()`` draws of the generator of every ``(seed,
    purpose)`` pair in ``rows`` and index in ``a .. b - 1``, as an array of
    shape ``(len(rows), b - a, 2)``; entry ``[k, i]`` equals
    ``_rng_at(*rows[k], a + i).random(2)`` bit for bit.

    The (row, index) pairs run in row-major order as one sequence of
    counters, each with its own key, in passes of at most
    :data:`_PHILOX_CHUNK` counters.  A pass holds the rest of its first row
    (the head), then whole rows, then the start of one more row (the
    tail)."""
    n = b - a
    # the key words of each row: seeds, then purposes
    keys = np.array([[s & _MASK64 for s, _ in rows], [p for _, p in rows]], dtype=np.uint64)
    total = len(rows) * n
    out = np.empty((total, 2))
    for lo in range(0, total, _PHILOX_CHUNK):
        m = min(_PHILOX_CHUNK, total - lo)
        r, c = divmod(lo, n)
        head = min(n - c, m)
        whole, tail = divmod(m - head, n)
        # counters of rows r .. r + whole + 1, cut at the last row
        counts = np.full(min(whole + 2, len(rows) - r), n)
        counts[0] = head
        counts[whole + 1 :] = tail
        key = np.repeat(keys[:, r : r + counts.size], counts, axis=1)
        counter = np.empty(m, dtype=np.uint64)
        counter[:head] = np.arange(c, c + head)
        if whole:  # then n <= m, so arange(n) stays within the pass
            counter[head : m - tail].reshape(whole, n)[:] = np.arange(n)
        counter[m - tail :] = np.arange(tail)
        counter += np.uint64(a & _MASK64)
        w0, w1 = _philox_pass(key, counter)
        out[lo : lo + m, 0] = w0 >> np.uint64(11)
        out[lo : lo + m, 1] = w1 >> np.uint64(11)
    out *= 1.0 / 9007199254740992.0
    return out.reshape(len(rows), n, 2)


def splitmix64(x: int) -> int:
    """Standard 64-bit finalizer; the documented seed-splitting hash."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def replication_seed(base_seed: int, i: int) -> int:
    """Seed of replication ``i``: ``base_seed XOR splitmix64(i)``."""
    return (base_seed ^ splitmix64(i)) & _MASK64


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

#: Relative bound of a law's :meth:`screen` against its exact
#: :meth:`transform`: ``|screen(u) - transform(u)| <= screen_bound *
#: screen(u)`` at every uniform.  ``np.log1p`` and ``np.power`` are within a
#: few ulps (2^-52 each) of ``math.log1p`` and ``**``; the bound leaves 2^12
#: of headroom.  Laws whose screen is their transform state 0.
SCREEN_BOUND = 2.0**-40


@dataclass(frozen=True)
class Exponential:
    #: uniforms one draw consumes
    consumes: ClassVar[int] = 1
    #: relative bound of :meth:`screen` against :meth:`transform`
    screen_bound: ClassVar[float] = SCREEN_BOUND

    mean: float

    def __post_init__(self):
        if not 0.0 < self.mean < math.inf:
            raise ValueError(f"exponential mean must be positive and finite, got {self.mean!r}")

    def transform(self, u: np.ndarray) -> np.ndarray:
        """Draws from the uniforms ``u`` by the inverse CDF
        ``-mean * log1p(-u)``, one ``math.log1p`` per element."""
        return -self.mean * np.fromiter(map(math.log1p, (-u).tolist()), float, u.size)

    def screen(self, u: np.ndarray) -> np.ndarray:
        """:meth:`transform` with ``np.log1p``, within ``screen_bound`` of
        it relatively."""
        return -self.mean * np.log1p(-u)

    def dist_mean(self) -> float:
        return self.mean

    def quantile(self, p: float) -> float:
        return -self.mean * math.log1p(-p)

    def scaled(self, c: float) -> "Exponential":
        return Exponential(self.mean * c)


@dataclass(frozen=True)
class Deterministic:
    consumes: ClassVar[int] = 0
    screen_bound: ClassVar[float] = 0.0

    value: float

    def __post_init__(self):
        if not 0.0 <= self.value < math.inf:
            raise ValueError(
                f"deterministic value must be nonnegative and finite, got {self.value!r}"
            )

    def transform(self, u: np.ndarray) -> np.ndarray:
        return np.full(u.size, float(self.value))

    screen = transform

    def dist_mean(self) -> float:
        return self.value

    def quantile(self, p: float) -> float:
        return self.value

    def scaled(self, c: float) -> "Deterministic":
        return Deterministic(self.value * c)


@dataclass(frozen=True)
class Uniform:
    consumes: ClassVar[int] = 1
    screen_bound: ClassVar[float] = 0.0

    low: float
    high: float

    def __post_init__(self):
        if not 0.0 <= self.low < self.high < math.inf:
            raise ValueError(f"need 0 <= low < high < inf, got [{self.low!r}, {self.high!r}]")

    def transform(self, u: np.ndarray) -> np.ndarray:
        return self.low + (self.high - self.low) * u

    screen = transform

    def dist_mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def quantile(self, p: float) -> float:
        return self.low + (self.high - self.low) * p

    def scaled(self, c: float) -> "Uniform":
        return Uniform(self.low * c, self.high * c)


@dataclass(frozen=True)
class Pareto:
    """Pareto with shape ``alpha`` and minimum ``scale``; ``alpha > 1`` so
    the mean is finite."""

    consumes: ClassVar[int] = 1
    screen_bound: ClassVar[float] = SCREEN_BOUND

    alpha: float
    scale: float

    def __post_init__(self):
        if not 1.0 < self.alpha < math.inf:
            raise ValueError(f"pareto shape must be finite and exceed 1, got {self.alpha!r}")
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"pareto scale must be positive and finite, got {self.scale!r}")

    def transform(self, u: np.ndarray) -> np.ndarray:
        power = -1.0 / self.alpha
        return self.scale * np.fromiter((v**power for v in (1.0 - u).tolist()), float, u.size)

    def screen(self, u: np.ndarray) -> np.ndarray:
        """:meth:`transform` with ``np.power``, within ``screen_bound`` of
        it relatively."""
        return self.scale * np.power(1.0 - u, -1.0 / self.alpha)

    def dist_mean(self) -> float:
        return self.alpha * self.scale / (self.alpha - 1.0)

    def quantile(self, p: float) -> float:
        return self.scale * (1.0 - p) ** (-1.0 / self.alpha)

    def scaled(self, c: float) -> "Pareto":
        return Pareto(self.alpha, self.scale * c)


Distribution = Exponential | Deterministic | Uniform | Pareto


def config_number(v, what: str) -> float:
    """``float(v)`` for a number read from a config.  A bool is not one
    (``true`` would otherwise pass as 1.0), nor is a string (``"12"``, as
    the integer fields refuse it too), and neither is NaN or an infinity,
    which no parameter admits."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{what} must be a number, got {v!r}")
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be a finite number, got {v!r}")
    return x


def dist_from_config(cfg: dict) -> Distribution:
    """Build a distribution from its config mapping, e.g.
    ``{"dist": "exp", "mean": 3}``."""
    if not isinstance(cfg, dict) or "dist" not in cfg:
        raise ValueError(f"distribution spec must be a mapping with a 'dist' key, got {cfg!r}")
    kind = cfg["dist"]

    def num(key: str) -> float:
        return config_number(cfg[key], f"distribution {kind!r} parameter {key!r}")

    try:
        if kind in ("exp", "exponential"):
            return Exponential(num("mean"))
        if kind in ("det", "deterministic"):
            return Deterministic(num("value"))
        if kind == "uniform":
            return Uniform(num("low"), num("high"))
        if kind == "pareto":
            return Pareto(num("alpha"), num("scale"))
    except KeyError as exc:
        raise ValueError(f"distribution {kind!r} is missing parameter {exc}") from None
    raise ValueError(f"unknown distribution kind {kind!r}")


# ---------------------------------------------------------------------------
# input models
# ---------------------------------------------------------------------------


def _marks(
    xi_dist: Distribution, sigma_dist: Distribution, u: np.ndarray, screen: bool
) -> tuple[np.ndarray, np.ndarray]:
    # the uniforms of one index are consumed in order, xi first: sigma
    # takes the first one when xi is deterministic
    ux, us = u[:, 0], u[:, xi_dist.consumes]
    if screen:
        return xi_dist.screen(ux), sigma_dist.screen(us)
    return xi_dist.transform(ux), sigma_dist.transform(us)


@dataclass(frozen=True)
class MarkovModulatedModel:
    """Finite ergodic chain sampled at arrival epochs, modulating the
    marks jointly: in state ``s`` the pair is drawn from
    ``(xi_dists[s], sigma_dists[s])``.

    The chain must be irreducible, and its inverse-CDF grand coupling able
    to take every start state to one state, which makes it aperiodic (both
    checked at construction); the state at an index is the exactly
    stationary one, obtained by coupling from the past.  Independent marks
    are the chain with one state (:func:`iid_input`); a read of it
    resolves no states.  The facts of the chain (the checks, the coupling
    table and the stationary law) are worked out once per transition
    matrix, so models that differ only in their laws share them.
    """

    transition: tuple[tuple[float, ...], ...]
    xi_dists: tuple[Distribution, ...]
    sigma_dists: tuple[Distribution, ...]

    def __post_init__(self):
        k = len(self.transition)
        if k == 0:
            raise ValueError("transition matrix must be non-empty")
        if len(self.xi_dists) != k or len(self.sigma_dists) != k:
            raise ValueError("need one xi and one sigma distribution per state")
        for row in self.transition:
            if len(row) != k:
                raise ValueError("transition matrix must be square")
            # negated comparisons, so that a NaN entry fails them
            if any(not p >= 0.0 for p in row) or not abs(left_sum(row) - 1.0) <= 1e-9:
                raise ValueError(f"transition row {row!r} is not a probability vector")
        for d in self.xi_dists:
            if d.dist_mean() <= 0.0:
                raise ValueError("inter-arrival distributions must have positive mean")
        if k > 1:  # one state, the row (1.0,), is irreducible and aperiodic
            _coupling_table(self.transition)

    @property
    def n_states(self) -> int:
        return len(self.transition)

    def stationary_distribution(self) -> np.ndarray:
        """The chain's stationary law (read-only; solved once per
        transition matrix)."""
        return _stationary_law(self.transition)

    @property
    def screen_bound(self) -> float:
        """The largest ``screen_bound`` of the model's laws: the relative
        bound of :meth:`marks` with ``screen`` against the exact marks."""
        return max(d.screen_bound for d in self.xi_dists + self.sigma_dists)

    def state_at(self, seed: int, index: int) -> int:
        """Stationary chain state at one index: the one-seed, one-index
        case of the block read."""
        states = _read(self.transition, (seed,), index, index + 1, False)[1]
        return 0 if states is None else int(states[0, 0])

    def read(self, seeds: Sequence[int], a: int, b: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The uniforms and chain states of indices ``a .. b - 1`` of every
        seed, read-only, as :func:`_read` gives them; :meth:`marks` turns
        them into marks."""
        consumes = any(d.consumes for d in self.xi_dists + self.sigma_dists)
        return _read(self.transition, tuple(seeds), a, b, consumes)

    def marks(
        self, u: np.ndarray, states: np.ndarray | None, screen: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """The marks ``(xi, sigma)`` of the uniforms ``u`` (shape ``(...,
        2)``) in the chain states ``states`` (shape ``u.shape[:-1]``, or
        ``None`` for one state), each of shape ``u.shape[:-1]``.  Each law
        maps its uniforms by its exact ``transform``, or by its vectorised
        ``screen`` when ``screen`` is true.  An exact mark depends only on
        its own uniforms and state, so any selection of them gives the
        same exact marks."""
        if states is None:  # the state is 0 everywhere
            xs, ss = _marks(self.xi_dists[0], self.sigma_dists[0], u.reshape(-1, 2), screen)
            return xs.reshape(u.shape[:-1]), ss.reshape(u.shape[:-1])
        xs = np.empty(states.shape)
        ss = np.empty(states.shape)
        for s in range(self.n_states):
            at = states == s
            xs[at], ss[at] = _marks(self.xi_dists[s], self.sigma_dists[s], u[at], screen)
        return xs, ss

    def sample_blocks(
        self, seeds: Sequence[int], a: int, b: int
    ) -> tuple[np.ndarray, np.ndarray]:
        return self.marks(*self.read(seeds, a, b))

    def mean_xi(self) -> float:
        pi = self.stationary_distribution()
        return float(left_sum(pi[s] * d.dist_mean() for s, d in enumerate(self.xi_dists)))

    def mean_sigma(self) -> float:
        pi = self.stationary_distribution()
        return float(left_sum(pi[s] * d.dist_mean() for s, d in enumerate(self.sigma_dists)))

    def sigma_quantile(self, p: float) -> float:
        return max(d.quantile(p) for d in self.sigma_dists)


@lru_cache(maxsize=64)
def _stationary_law(transition: tuple[tuple[float, ...], ...]) -> np.ndarray:
    """The stationary law of the chain ``transition``, read-only.  One
    state needs no solve (and so starts no LAPACK/BLAS runtime)."""
    pi = np.ones(1)
    if len(transition) > 1:
        p = np.array(transition, dtype=float)
        k = p.shape[0]
        a = np.vstack([(p.T - np.eye(k)), np.ones(k)])
        b = np.zeros(k + 1)
        b[-1] = 1.0
        pi = np.clip(np.linalg.lstsq(a, b, rcond=None)[0], 0.0, None)
    pi.setflags(write=False)
    return pi


@lru_cache(maxsize=64)
def _coupling_table(
    transition: tuple[tuple[float, ...], ...]
) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """The grand coupling of a chain of two or more states as a table
    ``(lefts, moves)``, once the chain passes its construction check.

    One shared uniform ``u`` moves each state ``s`` by its row's inverse
    CDF, to the first ``j`` with ``u < p_s0 + ... + p_sj``.  Where there is
    none (a row whose sums end an ulp below 1) it moves to the row's last
    state of positive probability.  Every running sum below 1 is in the
    sorted ``lefts``, with 0, so each row's move is constant on each
    interval ``[lefts[i], lefts[i + 1])``: it is ``moves[i][s]``.

    Raises ``ValueError`` unless the chain is irreducible and runs of these
    moves can take every start state to one state."""
    k = len(transition)
    # irreducible: along the positive entries, state 0 reaches every state
    # (a closure along the rows) and every state reaches state 0 (the same
    # closure along the columns)
    for m in (transition, tuple(zip(*transition))):
        reached, todo = {0}, [0]
        while todo:
            new = {j for j, p in enumerate(m[todo.pop()]) if p > 0.0} - reached
            reached |= new
            todo += new
        if len(reached) < k:
            raise ValueError("chain is not irreducible")
    sums = [list(accumulate(row)) for row in transition]
    lefts = np.array(sorted({0.0} | {acc for row in sums for acc in row if acc < 1.0}))
    lefts.setflags(write=False)
    lasts = [max(j for j, p in enumerate(row) if p > 0.0) for row in transition]
    moves = tuple(tuple(next((j for j, acc in enumerate(row) if u < acc), last)
                        for row, last in zip(sums, lasts)) for u in lefts.tolist())
    # coupling from the past must be able to end: search the state sets that
    # runs of the moves reach from the full set for a single state
    seen, todo = set(), [frozenset(range(k))]
    while todo and len(states := todo.pop()) > 1:
        if states not in seen:
            seen.add(states)
            todo += [frozenset(move[s] for s in states) for move in moves]
    if len(states) > 1:
        raise ValueError("chain is not aperiodic or its inverse-CDF coupling never coalesces")
    return lefts, moves


_NO_COALESCENCE = (
    "modulating chain did not coalesce within the lookback cap; "
    "the runs of uniforms that collapse its start states are too unlikely"
)


def _read(
    transition: tuple[tuple[float, ...], ...], seeds: tuple[int, ...], a: int, b: int, marks: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """The uniforms and the chain states of indices ``a .. b - 1`` of every
    seed, in one kernel pass: ``(u, states)``, read-only.

    ``u`` has shape ``(len(seeds), b - a, 2)``; it holds the mark uniforms
    when ``marks`` is true, and zeros when no law of the model consumes a
    uniform.  ``states`` has shape ``(len(seeds), b - a)`` for a chain of
    more than one state, and is ``None`` for one state, whose chain is not
    read.  The pass reads the chain rows from :data:`_MM_FIRST_LOOKBACK`
    ``- 1`` indices before ``a``, so that coupling from the past starts
    from what it holds (:func:`_mm_states`), and the mark rows over the
    same range.  The read depends on the model only through its transition
    matrix, so models that differ only in their laws (the load points of a
    sweep) can each apply theirs to one read with
    :meth:`MarkovModulatedModel.marks`."""
    k, n = len(seeds), max(b - a, 0)
    chain = len(transition) > 1
    lo = a - _MM_FIRST_LOOKBACK + 1 if chain else a
    rows = [(s, _PURPOSE_CHAIN) for s in seeds] if chain and n else []
    if marks and n:
        rows += [(s, _PURPOSE_MARKS) for s in seeds]
    both = _philox_uniforms(rows, lo, b) if rows else None
    if marks and n:
        u = both[len(rows) - k :, a - lo :]
    else:  # what laws that consume no uniform are given
        u = np.zeros((k, n, 2))
    u.setflags(write=False)
    states = None
    if chain:
        states = (_mm_states(transition, seeds, both[:k, :, 0], a) if n
                  else np.zeros((k, 0), np.int64))
        states.setflags(write=False)
    return u, states


def _mm_states(
    transition: tuple[tuple[float, ...], ...], seeds: Sequence[int], u: np.ndarray, a: int
) -> np.ndarray:
    """Stationary chain states at indices ``a .. a + n - 1`` of every seed,
    from the chain uniforms ``u`` of indices ``a - L + 1 .. a + n - 1``
    (``L`` = :data:`_MM_FIRST_LOOKBACK`), one row per seed, by the moves of
    :func:`_coupling_table`: coupling from the past at ``a`` composes the
    last ``L`` moves, then, while the start states have not all ended in
    one state, doubles the lookback with a one-seed read of the older
    block, composed before the newer ones; the forward walk follows.  Once
    the newest moves coalesce no older move can change the state, so every
    first lookback gives the same states."""
    lefts, moves = _coupling_table(transition)
    first = _MM_FIRST_LOOKBACK

    def cells(us: np.ndarray) -> list:
        return (np.searchsorted(lefts, us, side="right") - 1).tolist()

    def walk(cs: list[int]) -> list[int]:
        """Where each start state ends after the moves of ``cs``."""
        ends = list(range(len(transition)))
        for c in cs:
            move = moves[c]
            ends = [move[s] for s in ends]
        return ends

    out = np.empty((len(seeds), u.shape[1] - first + 1), dtype=np.int64)
    for row, (seed, cs) in enumerate(zip(seeds, cells(u))):
        ends, lookback = walk(cs[:first]), first
        while min(ends) != max(ends):
            if 2 * lookback > _MM_MAX_LOOKBACK:
                raise ValueError(_NO_COALESCENCE)
            older = _philox_uniforms(
                [(seed, _PURPOSE_CHAIN)], a - 2 * lookback + 1, a - lookback + 1
            )
            ends = [ends[s] for s in walk(cells(older[0, :, 0]))]
            lookback *= 2
        state = ends[0]
        states = [state]
        for c in cs[first:]:
            state = moves[c][state]
            states.append(state)
        out[row] = states
    return out


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkedInputGenerator:
    """Shift-indexable view of a marked input model.

    ``sample_block(a, b)`` returns the marks ``(xi_n, sigma_n)`` for
    ``n = a .. b - 1`` as two lists (xi, sigma), a pure function of
    ``(seed, model, n + offset)``; ``sample(n)`` is the block of one, at a
    kernel call's fixed cost; ``shift(k)`` translates the origin.
    """

    model: MarkovModulatedModel
    seed: int
    offset: int = 0

    def sample(self, n: int) -> tuple[float, float]:
        xs, ss = self.sample_block(n, n + 1)
        return xs[0], ss[0]

    def sample_block(self, a: int, b: int) -> tuple[list[float], list[float]]:
        if b < a:
            raise ValueError(f"sample_block needs a <= b, got a={a}, b={b}")
        xs, ss = self.model.sample_blocks((self.seed,), a + self.offset, b + self.offset)
        return xs[0].tolist(), ss[0].tolist()

    def shift(self, k: int) -> "MarkedInputGenerator":
        return replace(self, offset=self.offset + k)

    def mean_xi(self) -> float:
        return self.model.mean_xi()

    def mean_sigma(self) -> float:
        return self.model.mean_sigma()

    def sigma_quantile(self, p: float) -> float:
        return self.model.sigma_quantile(p)

    def with_seed(self, seed: int) -> "MarkedInputGenerator":
        return replace(self, seed=seed)


def sample_blocks(gens: Sequence, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The marks of indices ``a .. b - 1`` of every input in ``gens``, as two
    arrays ``(xi, sigma)`` of shape ``(len(gens), b - a)``; row ``k`` equals
    ``gens[k].sample_block(a, b)``.

    Generators that share a model and an offset are read in one many-seed
    pass; any other input source is read with its own ``sample_block``.
    """
    if b < a:
        raise ValueError(f"sample_blocks needs a <= b, got a={a}, b={b}")
    xs = np.empty((len(gens), b - a))
    ss = np.empty((len(gens), b - a))
    groups: dict[tuple, list[int]] = {}
    for k, g in enumerate(gens):
        if isinstance(g, MarkedInputGenerator):
            groups.setdefault((g.model, g.offset), []).append(k)
        else:
            xs[k], ss[k] = g.sample_block(a, b)
    for (model, offset), rows in groups.items():
        seeds = [gens[k].seed for k in rows]
        xs[rows], ss[rows] = model.sample_blocks(seeds, a + offset, b + offset)
    return xs, ss


def _one_state(xi: Distribution, sigma: Distribution) -> MarkovModulatedModel:
    """Independent marks ``xi_n ~ xi`` and ``sigma_n ~ sigma``: the chain
    with one state."""
    return MarkovModulatedModel(((1.0,),), (xi,), (sigma,))


def iid_input(xi: Distribution, sigma: Distribution, seed: int) -> MarkedInputGenerator:
    return MarkedInputGenerator(model=_one_state(xi, sigma), seed=seed)


def deterministic_input(xi: float, sigma: float, seed: int = 0) -> MarkedInputGenerator:
    """Constant marks ``(xi, sigma)`` at every index: iid marks with
    deterministic laws."""
    return iid_input(Deterministic(xi), Deterministic(sigma), seed)


def generator_from_config(cfg: dict, seed_override: int | None = None) -> MarkedInputGenerator:
    """Build a generator from a config mapping.

    Supported shapes::

        {"model": "iid", "xi": {...}, "sigma": {...}, "seed": 42}
        {"model": "deterministic", "xi": 3.0, "sigma": 1.0, "seed": 42}
        {"model": "markov_modulated", "transition": [[...], ...],
         "states": [{"xi": {...}, "sigma": {...}}, ...], "seed": 42}
    """
    if not isinstance(cfg, dict) or "model" not in cfg:
        raise ValueError(f"input spec must be a mapping with a 'model' key, got {cfg!r}")
    kind = cfg["model"]
    if kind == "iid":
        model = _one_state(dist_from_config(cfg["xi"]), dist_from_config(cfg["sigma"]))
    elif kind == "deterministic":
        model = _one_state(
            Deterministic(config_number(cfg["xi"], "deterministic xi")),
            Deterministic(config_number(cfg["sigma"], "deterministic sigma")),
        )
    elif kind == "markov_modulated":
        states, rows = cfg["states"], cfg["transition"]
        # a string would be read character by character
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError(f"transition must be a list of rows, each a list, got {rows!r}")
        model = MarkovModulatedModel(
            transition=tuple(
                tuple(config_number(p, "transition probability") for p in row) for row in rows
            ),
            xi_dists=tuple(dist_from_config(s["xi"]) for s in states),
            sigma_dists=tuple(dist_from_config(s["sigma"]) for s in states),
        )
    else:
        raise ValueError(f"unknown input model {kind!r}")
    seed = cfg.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"input seed must be an integer, got {seed!r}")
    if seed_override is not None:
        seed = seed_override
    return MarkedInputGenerator(model=model, seed=seed)


def scale_sigma(gen: MarkedInputGenerator, factor: float) -> MarkedInputGenerator:
    """Generator with every service-demand distribution scaled by
    ``factor`` (for load sweeps over families scalable by mean)."""
    if factor < 0.0:
        raise ValueError(f"scale factor must be nonnegative, got {factor!r}")
    sigma_dists = tuple(d.scaled(factor) for d in gen.model.sigma_dists)
    return replace(gen, model=replace(gen.model, sigma_dists=sigma_dists))
