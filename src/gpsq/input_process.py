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

The kernel reproduces numpy's own Philox generator bit for bit: the
uniforms of ``(seed, purpose, n)`` are the first two ``random()`` draws of
:func:`_rng_at`.  That generator is the oracle the kernel is checked
against (``checks.input_determinism`` and the tests); nothing reads marks
through it.  The transforms apply ``math.log1p`` and ``**`` per element
and the affine steps in numpy, which rounds them exactly as Python does,
so the marks are the values the scalar inverse-CDF formulas give on the
same uniforms.  ``np.log1p`` is not correctly rounded the same way (it is
one ulp off ``math.log1p`` on about 6% of draws), so it is not used.

The Markov-modulated model is exactly stationary: the modulating state at
the first index of a block is resolved by coupling from the past (Propp &
Wilson, 1996) over the grand coupling of the chain (one shared uniform per
index, inverse-CDF transition rows), doubling the lookback from 8 until
all start states coalesce.  The block evolves that state forward with the
same uniforms, which gives the state coupling from the past would find at
every later index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar, Protocol, Sequence, runtime_checkable

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
        if self.mean <= 0.0:
            raise ValueError(f"exponential mean must be positive, got {self.mean!r}")

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
        if self.value < 0.0:
            raise ValueError(f"deterministic value must be nonnegative, got {self.value!r}")

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
        if not 0.0 <= self.low < self.high:
            raise ValueError(f"need 0 <= low < high, got [{self.low!r}, {self.high!r}]")

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
        if self.alpha <= 1.0:
            raise ValueError(f"pareto shape must exceed 1 for a finite mean, got {self.alpha!r}")
        if self.scale <= 0.0:
            raise ValueError(f"pareto scale must be positive, got {self.scale!r}")

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
    """``float(v)`` for a number read from a config; a bool is not one
    (``true`` would otherwise pass as 1.0)."""
    if isinstance(v, bool):
        raise ValueError(f"{what} must be a number, got {v!r}")
    return float(v)


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


@dataclass(frozen=True)
class IIDModel:
    """Independent marks: ``xi_n ~ xi_dist`` and ``sigma_n ~ sigma_dist``,
    independently across indices."""

    xi_dist: Distribution
    sigma_dist: Distribution

    def __post_init__(self):
        if self.xi_dist.dist_mean() <= 0.0:
            raise ValueError("inter-arrival distribution must have positive mean")

    def sample_blocks(
        self, seeds: Sequence[int], a: int, b: int
    ) -> tuple[np.ndarray, np.ndarray]:
        u = _philox_uniforms(seeds, _PURPOSE_MARKS, a, b)
        xs, ss = _marks(self.xi_dist, self.sigma_dist, u.reshape(-1, 2))
        return xs.reshape(u.shape[:2]), ss.reshape(u.shape[:2])

    def mean_xi(self) -> float:
        return self.xi_dist.dist_mean()

    def mean_sigma(self) -> float:
        return self.sigma_dist.dist_mean()

    def sigma_quantile(self, p: float) -> float:
        return self.sigma_dist.quantile(p)


@dataclass(frozen=True)
class DeterministicModel:
    """Constant marks ``(xi, sigma)`` at every index."""

    xi: float
    sigma: float

    def __post_init__(self):
        if self.xi <= 0.0:
            raise ValueError(f"inter-arrival time must be positive, got {self.xi!r}")
        if self.sigma < 0.0:
            raise ValueError(f"service demand must be nonnegative, got {self.sigma!r}")

    def sample_blocks(
        self, seeds: Sequence[int], a: int, b: int
    ) -> tuple[np.ndarray, np.ndarray]:
        shape = (len(seeds), b - a)
        return np.full(shape, float(self.xi)), np.full(shape, float(self.sigma))

    def mean_xi(self) -> float:
        return self.xi

    def mean_sigma(self) -> float:
        return self.sigma

    def sigma_quantile(self, p: float) -> float:
        return self.sigma


def _marks(
    xi_dist: Distribution, sigma_dist: Distribution, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # the uniforms of one index are consumed in order, xi first: sigma
    # takes the first one when xi is deterministic
    return xi_dist.transform(u[:, 0]), sigma_dist.transform(u[:, xi_dist.consumes])


def _chain_period(edges: list[list[int]]) -> int:
    # gcd of (depth[u] + 1 - depth[v]) over edges of a strongly
    # connected digraph, via BFS levels from state 0
    depth = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in edges[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in range(len(edges)):
        for v in edges[u]:
            g = math.gcd(g, depth[u] + 1 - depth[v])
    return abs(g)


def _reachable(edges: list[list[int]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in edges[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


@dataclass(frozen=True)
class MarkovModulatedModel:
    """Finite ergodic chain sampled at arrival epochs, modulating the
    marks jointly: in state ``s`` the pair is drawn from
    ``(xi_dists[s], sigma_dists[s])``.

    The chain must be irreducible and aperiodic (checked at construction);
    the state at an index is the exactly stationary one, obtained by
    coupling from the past.
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
            if any(p < 0.0 for p in row) or abs(sum(row) - 1.0) > 1e-9:
                raise ValueError(f"transition row {row!r} is not a probability vector")
        edges = [[j for j, p in enumerate(row) if p > 0.0] for row in self.transition]
        if _reachable(edges, 0) != set(range(k)):
            raise ValueError("chain is not irreducible")
        back = [[] for _ in range(k)]
        for u in range(k):
            for v in edges[u]:
                back[v].append(u)
        if _reachable(back, 0) != set(range(k)):
            raise ValueError("chain is not irreducible")
        if _chain_period(edges) != 1:
            raise ValueError("chain is not aperiodic")
        for d in self.xi_dists:
            if d.dist_mean() <= 0.0:
                raise ValueError("inter-arrival distributions must have positive mean")

    @property
    def n_states(self) -> int:
        return len(self.transition)

    def stationary_distribution(self) -> np.ndarray:
        """The chain's stationary law (read-only; solved once per model)."""
        return self._stationary

    @cached_property
    def _stationary(self) -> np.ndarray:
        p = np.array(self.transition, dtype=float)
        k = p.shape[0]
        a = np.vstack([(p.T - np.eye(k)), np.ones(k)])
        b = np.zeros(k + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.clip(pi, 0.0, None)
        pi.setflags(write=False)
        return pi

    def _advance(self, state: int, u: float) -> int:
        acc = 0.0
        row = self.transition[state]
        for j, p in enumerate(row):
            acc += p
            if u < acc:
                return j
        return len(row) - 1

    def state_at(self, seed: int, index: int) -> int:
        """Stationary chain state at one index: the one-seed, one-index
        case of the block read."""
        return _mm_states(self, (seed,), index, index + 1)[0][0]

    def sample_blocks(
        self, seeds: Sequence[int], a: int, b: int
    ) -> tuple[np.ndarray, np.ndarray]:
        states = np.array(_mm_states(self, seeds, a, b), dtype=np.int64).reshape(len(seeds), b - a)
        u = _philox_uniforms(seeds, _PURPOSE_MARKS, a, b)
        xs = np.empty(states.shape)
        ss = np.empty(states.shape)
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


def _coalesce(model: MarkovModulatedModel, us: list[float]) -> int | None:
    """Chain state after the uniforms ``us`` (oldest first), run from every
    start state at once; ``None`` if the start states have not merged.

    Once every start state has been funnelled into one value the remaining
    steps evolve that single state deterministically.
    """
    states = set(range(model.n_states))
    single: int | None = None
    for u in us:
        if single is None:
            states = {model._advance(s, u) for s in states}
            if len(states) == 1:
                single = next(iter(states))
        else:
            single = model._advance(single, u)
    return single


_NO_COALESCENCE = (
    "modulating chain did not coalesce within the lookback cap; "
    "its rows may not admit a common inverse-CDF collapse"
)


def _mm_states(
    model: MarkovModulatedModel, seeds: Sequence[int], a: int, b: int
) -> list[list[int]]:
    """Stationary chain states at indices ``a .. b - 1``, one list per seed:
    one coupling from the past at ``a``, with one shared uniform per index
    and the inverse-CDF map of each row, doubling the lookback from 8 until
    the start states coalesce; then the forward evolution under the same
    uniforms.  The first lookback of every seed is read in one pass."""
    if b <= a:
        return [[] for _ in seeds]
    out = []
    first = _philox_uniforms(seeds, _PURPOSE_CHAIN, a - 8 + 1, b)[:, :, 0].tolist()
    for seed, us in zip(seeds, first):
        lookback = 8
        while (single := _coalesce(model, us[:lookback])) is None:
            if 2 * lookback > _MM_MAX_LOOKBACK:
                raise RuntimeError(_NO_COALESCENCE)
            older = _philox_uniforms((seed,), _PURPOSE_CHAIN, a - 2 * lookback + 1, a - lookback + 1)
            us = older[0, :, 0].tolist() + us
            lookback *= 2
        states = [single]
        for u in us[lookback:]:
            single = model._advance(single, u)
            states.append(single)
        out.append(states)
    return out


InputModel = IIDModel | DeterministicModel | MarkovModulatedModel


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------


@runtime_checkable
class InputSequence(Protocol):
    """What the backward constructions need from an input source."""

    def sample(self, n: int) -> tuple[float, float]: ...

    def sample_block(self, a: int, b: int) -> tuple[list[float], list[float]]: ...

    def shift(self, k: int) -> "InputSequence": ...

    def mean_xi(self) -> float | None: ...

    def mean_sigma(self) -> float | None: ...

    def sigma_quantile(self, p: float) -> float | None: ...


@dataclass(frozen=True)
class MarkedInputGenerator:
    """Shift-indexable view of a marked input model.

    ``sample_block(a, b)`` returns the marks ``(xi_n, sigma_n)`` for
    ``n = a .. b - 1`` as two lists (xi, sigma), a pure function of
    ``(seed, model, n + offset)``; ``sample(n)`` is the block of one, at a
    kernel call's fixed cost; ``shift(k)`` translates the origin.
    """

    model: InputModel
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

    def empirical_means(self, n_samples: int) -> "MeansReport":
        """Arithmetic means of the marks over indices ``0..n_samples - 1``,
        with plain standard errors."""
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        xs, ss = (np.array(v) for v in self.sample_block(0, n_samples))
        se_x = float(xs.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
        se_s = float(ss.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
        return MeansReport(
            mean_xi=float(xs.mean()),
            mean_sigma=float(ss.mean()),
            se_xi=se_x,
            se_sigma=se_s,
            n_samples=n_samples,
        )


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


@dataclass(frozen=True)
class MeansReport:
    mean_xi: float
    mean_sigma: float
    se_xi: float
    se_sigma: float
    n_samples: int


def iid_input(xi: Distribution, sigma: Distribution, seed: int) -> MarkedInputGenerator:
    return MarkedInputGenerator(model=IIDModel(xi, sigma), seed=seed)


def deterministic_input(xi: float, sigma: float, seed: int = 0) -> MarkedInputGenerator:
    return MarkedInputGenerator(model=DeterministicModel(xi, sigma), seed=seed)


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
        model: InputModel = IIDModel(dist_from_config(cfg["xi"]), dist_from_config(cfg["sigma"]))
    elif kind == "deterministic":
        model = DeterministicModel(
            config_number(cfg["xi"], "deterministic xi"),
            config_number(cfg["sigma"], "deterministic sigma"),
        )
    elif kind == "markov_modulated":
        states = cfg["states"]
        model = MarkovModulatedModel(
            transition=tuple(
                tuple(config_number(p, "transition probability") for p in row)
                for row in cfg["transition"]
            ),
            xi_dists=tuple(dist_from_config(s["xi"]) for s in states),
            sigma_dists=tuple(dist_from_config(s["sigma"]) for s in states),
        )
    else:
        raise ValueError(f"unknown input model {kind!r}")
    seed = seed_override if seed_override is not None else int(cfg.get("seed", 0))
    return MarkedInputGenerator(model=model, seed=seed)


def scale_sigma(gen: MarkedInputGenerator, factor: float) -> MarkedInputGenerator:
    """Generator with every service-demand distribution scaled by
    ``factor`` (for load sweeps over families scalable by mean)."""
    if factor < 0.0:
        raise ValueError(f"scale factor must be nonnegative, got {factor!r}")
    m = gen.model
    if isinstance(m, IIDModel):
        new: InputModel = IIDModel(m.xi_dist, m.sigma_dist.scaled(factor))
    elif isinstance(m, DeterministicModel):
        new = DeterministicModel(m.xi, m.sigma * factor)
    else:
        new = MarkovModulatedModel(
            transition=m.transition,
            xi_dists=m.xi_dists,
            sigma_dists=tuple(d.scaled(factor) for d in m.sigma_dists),
        )
    return replace(gen, model=new)
