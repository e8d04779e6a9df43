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
of about 0.2 ms, so read ranges with ``sample_block``, not index by index.
A read runs the kernel only for what it uses: laws that consume no uniform
(deterministic ones) read none, and a chain with one state (iid marks)
reads no chain uniforms.

The kernel reproduces numpy's own Philox generator bit for bit: the
uniforms of ``(seed, purpose, n)`` are the first two ``random()`` draws of
:func:`_rng_at`.  That generator is the oracle the kernel is checked
against (``checks.input_determinism`` and the tests); nothing reads marks
through it.  The transforms apply ``math.log1p`` and ``**`` per element
and the affine steps in numpy, which rounds them exactly as Python does,
so the marks are the values the scalar inverse-CDF formulas give on the
same uniforms.  ``np.log1p`` is not correctly rounded the same way (it is
one ulp off ``math.log1p`` on about 6% of draws), so it is not used.

The Markov-modulated model is exactly stationary.  Its grand coupling (one
shared uniform per index, inverse-CDF transition rows) is one table of
moves: the rows' running sums cut ``[0, 1)`` into intervals on which every
state moves one way.  Coupling from the past (Propp & Wilson, 1996)
composes the moves of the indices before a block's first one, doubling the
lookback from 8 until all start states coalesce; the block walks that
state forward by the same moves, which gives the state coupling from the
past would find at every later index.  The construction check finds
irreducibility by reachability over the matrix's positive entries, and
coalescence by a search of the same moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import ClassVar, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_PURPOSE_CHAIN = 0
_PURPOSE_MARKS = 1

#: Lookback cap for the modulating chain's coupling-from-the-past search.
_MM_MAX_LOOKBACK = 1 << 20


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


def _philox_pass(key: np.ndarray, counter: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Counter words are held as two stacked pairs: x = (c0, c2), the words
    # each round multiplies, and y = (c1, c3).  A round maps them to
    # x' = (hi(M1 c2) ^ c1 ^ k0, hi(M0 c0) ^ c3 ^ k1), y' = (lo(M1 c2), lo(M0 c0)).
    # The counter is [1, 0, 0, index]: numpy's Philox increments word 0
    # before its first block.  hi() is the 64x64 -> 128 product's upper
    # half, assembled from 32-bit limbs.  ``key`` holds each counter's key
    # words (seed, purpose) as a (2, n) array.  The rounds work in place on
    # seven (2, n) buffers, so a pass allocates nothing per round.
    low32, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    n = counter.size
    x = np.zeros((2, n), dtype=np.uint64)
    x[0] = 1
    y = np.zeros((2, n), dtype=np.uint64)
    y[1] = counter
    t, lo, hi, p1, p2 = (np.empty((2, n), dtype=np.uint64) for _ in range(5))
    for bump in _PHILOX_KEY_BUMPS:
        np.bitwise_and(x, low32, out=lo)
        np.right_shift(x, s32, out=hi)
        np.multiply(lo, _PHILOX_M_HI, out=p1)
        np.multiply(hi, _PHILOX_M_LO, out=p2)
        hi *= _PHILOX_M_HI
        lo *= _PHILOX_M_LO
        lo >>= s32
        # lo becomes the middle column sum, then hi the upper half
        np.bitwise_and(p1, low32, out=t)
        lo += t
        np.bitwise_and(p2, low32, out=t)
        lo += t
        lo >>= s32
        hi += lo
        p1 >>= s32
        hi += p1
        p2 >>= s32
        hi += p2
        np.add(key, bump, out=t)
        t ^= y
        t ^= hi[::-1]
        x *= _PHILOX_M
        # t is the new x and the reversed product the new y; the old y's
        # buffer becomes the scratch
        x, y, t = t, x[::-1], y[::-1]
    return x[0], y[0]


def _philox_uniforms(seeds: Sequence[int], purpose: int, a: int, b: int) -> np.ndarray:
    """The first two ``random()`` draws of the generator of every seed in
    ``seeds`` and index in ``a .. b - 1``, as an array of shape
    ``(len(seeds), b - a, 2)``; entry ``[k, i]`` equals
    ``_rng_at(seeds[k], purpose, a + i).random(2)`` bit for bit.

    The (seed, index) pairs run in row-major order as one sequence of
    counters, each with its own key, in passes of at most
    :data:`_PHILOX_CHUNK` counters."""
    n = b - a
    seed_words = np.array([s & _MASK64 for s in seeds], dtype=np.uint64)
    total = seed_words.size * n
    out = np.empty((total, 2))
    for lo in range(0, total, _PHILOX_CHUNK):
        pair = np.arange(lo, min(lo + _PHILOX_CHUNK, total))
        key = np.empty((2, pair.size), dtype=np.uint64)
        key[0] = seed_words[pair // n]
        key[1] = purpose
        w0, w1 = _philox_pass(key, (pair % n).astype(np.uint64) + np.uint64(a & _MASK64))
        out[lo : lo + pair.size, 0] = w0 >> np.uint64(11)
        out[lo : lo + pair.size, 1] = w1 >> np.uint64(11)
    out *= 1.0 / 9007199254740992.0
    return out.reshape(seed_words.size, n, 2)


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


@dataclass(frozen=True)
class Exponential:
    #: uniforms one draw consumes
    consumes: ClassVar[int] = 1

    mean: float

    def __post_init__(self):
        if not 0.0 < self.mean < math.inf:
            raise ValueError(f"exponential mean must be positive and finite, got {self.mean!r}")

    def transform(self, u: np.ndarray) -> np.ndarray:
        """Draws from the uniforms ``u`` by the inverse CDF
        ``-mean * log1p(-u)``, one ``math.log1p`` per element."""
        return -self.mean * np.fromiter(map(math.log1p, (-u).tolist()), float, u.size)

    def dist_mean(self) -> float:
        return self.mean

    def quantile(self, p: float) -> float:
        return -self.mean * math.log1p(-p)

    def scaled(self, c: float) -> "Exponential":
        return Exponential(self.mean * c)


@dataclass(frozen=True)
class Deterministic:
    consumes: ClassVar[int] = 0

    value: float

    def __post_init__(self):
        if not 0.0 <= self.value < math.inf:
            raise ValueError(
                f"deterministic value must be nonnegative and finite, got {self.value!r}"
            )

    def transform(self, u: np.ndarray) -> np.ndarray:
        return np.full(u.size, float(self.value))

    def dist_mean(self) -> float:
        return self.value

    def quantile(self, p: float) -> float:
        return self.value

    def scaled(self, c: float) -> "Deterministic":
        return Deterministic(self.value * c)


@dataclass(frozen=True)
class Uniform:
    consumes: ClassVar[int] = 1

    low: float
    high: float

    def __post_init__(self):
        if not 0.0 <= self.low < self.high < math.inf:
            raise ValueError(f"need 0 <= low < high < inf, got [{self.low!r}, {self.high!r}]")

    def transform(self, u: np.ndarray) -> np.ndarray:
        return self.low + (self.high - self.low) * u

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

    def dist_mean(self) -> float:
        return self.alpha * self.scale / (self.alpha - 1.0)

    def quantile(self, p: float) -> float:
        return self.scale * (1.0 - p) ** (-1.0 / self.alpha)

    def scaled(self, c: float) -> "Pareto":
        return Pareto(self.alpha, self.scale * c)


Distribution = Exponential | Deterministic | Uniform | Pareto


def config_number(v, what: str) -> float:
    """``float(v)`` for a number read from a config.  A bool is not one
    (``true`` would otherwise pass as 1.0), and neither is NaN or an
    infinity, which no parameter admits."""
    if isinstance(v, bool):
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
    xi_dist: Distribution, sigma_dist: Distribution, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # the uniforms of one index are consumed in order, xi first: sigma
    # takes the first one when xi is deterministic
    return xi_dist.transform(u[:, 0]), sigma_dist.transform(u[:, xi_dist.consumes])


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
    resolves no states.
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
            if any(not p >= 0.0 for p in row) or not abs(sum(row) - 1.0) <= 1e-9:
                raise ValueError(f"transition row {row!r} is not a probability vector")
        for d in self.xi_dists:
            if d.dist_mean() <= 0.0:
                raise ValueError("inter-arrival distributions must have positive mean")
        if k == 1:  # the row is (1.0,): irreducible and aperiodic
            return
        # irreducible: along the positive entries, state 0 reaches every
        # state (a closure along the rows) and every state reaches state 0
        # (the same closure along the columns)
        for m in (self.transition, tuple(zip(*self.transition))):
            reached, todo = {0}, [0]
            while todo:
                new = {j for j, p in enumerate(m[todo.pop()]) if p > 0.0} - reached
                reached |= new
                todo += new
            if len(reached) < k:
                raise ValueError("chain is not irreducible")
        # coupling from the past must be able to end: search the state sets
        # that runs of the coupling's moves reach from the full set for a
        # single state
        seen, todo = set(), [frozenset(range(k))]
        while todo and len(states := todo.pop()) > 1:
            if states not in seen:
                seen.add(states)
                todo += [frozenset(move[s] for s in states) for move in self._coupling[1]]
        if len(states) > 1:
            raise ValueError("chain is not aperiodic or its inverse-CDF coupling never coalesces")

    @property
    def n_states(self) -> int:
        return len(self.transition)

    def stationary_distribution(self) -> np.ndarray:
        """The chain's stationary law (read-only; solved once per model)."""
        return self._stationary

    @cached_property
    def _stationary(self) -> np.ndarray:
        # one state needs no solve (and so starts no LAPACK/BLAS runtime)
        pi = np.ones(1)
        if self.n_states > 1:
            p = np.array(self.transition, dtype=float)
            k = p.shape[0]
            a = np.vstack([(p.T - np.eye(k)), np.ones(k)])
            b = np.zeros(k + 1)
            b[-1] = 1.0
            pi = np.clip(np.linalg.lstsq(a, b, rcond=None)[0], 0.0, None)
        pi.setflags(write=False)
        return pi

    @cached_property
    def _coupling(self) -> tuple[np.ndarray, list[list[int]]]:
        """The grand coupling as a table ``(lefts, moves)``.  One shared
        uniform ``u`` moves each state ``s`` by its row's inverse CDF, to
        the first ``j`` with ``u < p_s0 + ... + p_sj``.  Where there is none
        (a row whose sums end an ulp below 1) it moves to the row's last
        state of positive probability.  Every running sum below 1 is in the
        sorted ``lefts``, with 0, so each row's move is constant on each
        interval ``[lefts[i], lefts[i + 1])``: it is ``moves[i][s]``."""
        sums = [list(accumulate(row)) for row in self.transition]
        lefts = sorted({0.0} | {acc for row in sums for acc in row if acc < 1.0})
        lasts = [max(j for j, p in enumerate(row) if p > 0.0) for row in self.transition]
        moves = [[next((j for j, acc in enumerate(row) if u < acc), last)
                  for row, last in zip(sums, lasts)] for u in lefts]
        return np.array(lefts), moves

    def state_at(self, seed: int, index: int) -> int:
        """Stationary chain state at one index: the one-seed, one-index
        case of the block read."""
        return _mm_states(self, (seed,), index, index + 1)[0][0]

    def sample_blocks(
        self, seeds: Sequence[int], a: int, b: int
    ) -> tuple[np.ndarray, np.ndarray]:
        shape = (len(seeds), b - a)
        if any(d.consumes for d in self.xi_dists + self.sigma_dists):
            u = _philox_uniforms(seeds, _PURPOSE_MARKS, a, b)
        else:  # every law is deterministic and reads no uniform
            u = np.zeros(shape + (2,))
        if self.n_states == 1:  # the state is 0 everywhere: no chain to read
            xs, ss = _marks(self.xi_dists[0], self.sigma_dists[0], u.reshape(-1, 2))
            return xs.reshape(shape), ss.reshape(shape)
        states = np.array(_mm_states(self, seeds, a, b), dtype=np.int64).reshape(shape)
        xs = np.empty(shape)
        ss = np.empty(shape)
        for s in range(self.n_states):
            at = states == s
            xs[at], ss[at] = _marks(self.xi_dists[s], self.sigma_dists[s], u[at])
        return xs, ss

    def mean_xi(self) -> float:
        pi = self.stationary_distribution()
        return float(sum(pi[s] * d.dist_mean() for s, d in enumerate(self.xi_dists)))

    def mean_sigma(self) -> float:
        pi = self.stationary_distribution()
        return float(sum(pi[s] * d.dist_mean() for s, d in enumerate(self.sigma_dists)))

    def sigma_quantile(self, p: float) -> float:
        return max(d.quantile(p) for d in self.sigma_dists)


_NO_COALESCENCE = (
    "modulating chain did not coalesce within the lookback cap; "
    "the runs of uniforms that collapse its start states are too unlikely"
)


def _mm_states(
    model: MarkovModulatedModel, seeds: Sequence[int], a: int, b: int
) -> list[list[int]]:
    """Stationary chain states at indices ``a .. b - 1``, one list per seed,
    by the moves of ``model._coupling``: coupling from the past at ``a``,
    composing older blocks before newer ones and doubling the lookback from
    8 until every start state ends in one state, then the forward walk.
    The first lookback of every seed is read in one pass."""
    if b <= a:
        return [[] for _ in seeds]
    lefts, moves = model._coupling

    def cells(us: np.ndarray) -> list[int]:
        return (np.searchsorted(lefts, us, side="right") - 1).tolist()

    def walk(cs: list[int]) -> list[int]:
        """Where each start state ends after the moves of ``cs``."""
        ends = list(range(model.n_states))
        for c in cs:
            move = moves[c]
            ends = [move[s] for s in ends]
        return ends

    out = []
    first = _philox_uniforms(seeds, _PURPOSE_CHAIN, a - 8 + 1, b)[:, :, 0]
    for seed, cs in zip(seeds, cells(first)):
        ends, lookback = walk(cs[:8]), 8
        while min(ends) != max(ends):
            if 2 * lookback > _MM_MAX_LOOKBACK:
                raise ValueError(_NO_COALESCENCE)
            older = _philox_uniforms((seed,), _PURPOSE_CHAIN, a - 2 * lookback + 1, a - lookback + 1)
            ends = [ends[s] for s in walk(cells(older[0, :, 0]))]
            lookback *= 2
        states = [ends[0]]
        for c in cs[8:]:
            states.append(moves[c][states[-1]])
        out.append(states)
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
