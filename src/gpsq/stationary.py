"""Backward constructions: stationary profiles and perfect sampling.

Everything here scans the input sequence backward from the origin.  The
two scalar/measure constructions are

* :func:`gginf_stationary` -- the explicit stationary profile of the
  infinite-server system (one atom ``sigma_{-i} - sum_{j<=i} xi_{-j}`` for
  every past customer still unfinished at the origin) and its Loynes
  record, the largest of those remaining works or 0: ``L = [sup_j
  (sigma_{-j} - sum_{i<=j} xi_{-i})]^+``, which solves ``L . theta =
  [max(L, sigma) - xi]^+``.
* :func:`lindley_W` -- the stationary workload of a single server that
  drains at the constant rate ``K_r`` whenever busy:
  ``W . theta = [W + sigma - K_r xi]^+``.

:func:`backward_coupling_ps` turns the Lindley workload into a perfect
sampler for the processor-sharing profile: the profile's workload is
dominated by ``W`` (the rate floor guarantees at least ``K_r`` of
throughput), so any past epoch where ``W = 0`` forces an empty profile;
restarting the recursion empty at such an epoch and iterating forward to
the origin yields an exact draw from the stationary profile law.

A backward scan over an infinite past is only computable with a stopping
rule, and every result says why its scan stopped, in a ``reason`` field
holding one of three codes:

* ``certified`` -- the rule certified the value: no deeper term can change it;
* ``lookback_exhausted`` -- the cap was reached first, so the value rests on
  a truncated past;
* ``drift_nonnegative`` -- ``K_r E[xi] - E[sigma] <= 0``: no stationary law
  exists, and nothing was read.

So "unstable" and "did not look far enough" are never conflated, and a
result's ``converged`` (``coupled``) is ``reason == "certified"``.  The
infinite-server pass certifies its two stops by a declared service-demand
quantile; it is stable at any load, so its reason is never
``drift_nonnegative``.  :func:`lindley_W` and the perfect sampler share
one certificate (:func:`_certified`).

All three constructions run on one backward engine: a buffer of marks
(:class:`_Backlog`) that deepens along one doubling schedule of depths
(:func:`_depths`), and at each depth ``D`` one prefix pass over its first
``D`` columns, whose prefix sums are a sequential ``cumsum`` (so every
float equals the scalar running sum).  Perfect sampling
(:func:`backward_coupling_ps_batch`; :func:`backward_coupling_ps` is the
batch of one) draws the marks of a batch of replications once, into one
2-D buffer; a row takes its nearest certified epoch, runs its forward leg
and leaves the batch.  A row's report reads only its own marks at the
depths of the schedule, so it does not depend on its batch mates.

The sampler searches on the laws' vectorised screened marks
(``screen``), within a stated relative bound of the exact ones, and runs
the certificate with a slack derived from that bound; only the forward
legs read exact marks, those of the rows certified at one depth in one
``transform`` call per law.  A close decision, or a screen beyond its
bound, sends the batch back to be searched on exact marks.  So its
reports are those of the exact search.  The other constructions read exact marks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

# step is not called here: perfbench's tracer wraps stationary.step, and its
# install fails without the name
from .dynamics import leg, step  # noqa: F401
from .input_process import MarkedInputGenerator, sample_blocks
from .measures import ATOM_TOL, ZERO, CountingMeasure
from .rates import RateFunction

#: Per-draw tail probability the certification rules are allowed to ignore.
DEFAULT_QUANTILE = 1.0 - 1e-9

#: Unit roundoff of float64 arithmetic.
_U = 2.0**-53

#: Smallest first block of a backward scan; a block of 256 costs about
#: twice a block of one, so smaller blocks buy nothing.
_FIRST_BLOCK = 256


@dataclass(frozen=True)
class LoynesResult:
    """Value of a backward record construction and why its scan stopped.

    Unless ``reason`` is ``certified`` the value is a lower bound.
    """

    value: float
    iterations: int
    reason: str
    converged = property(lambda self: self.reason == "certified")


@dataclass(frozen=True)
class StationaryProfileResult:
    """Truncated backward evaluation of the infinite-server profile."""

    profile: CountingMeasure
    iterations: int
    reason: str
    converged = property(lambda self: self.reason == "certified")


@dataclass(frozen=True)
class CouplingReport:
    """Outcome of a perfect-sampling run.

    ``regeneration_index`` is the (nonpositive) epoch found with zero
    Lindley workload; ``stationary_profile`` the exact stationary draw at
    index 0.  ``coupled`` is false when no certified regeneration epoch
    exists within the lookback.  ``reason`` is not in the result files.
    """

    regeneration_index: int | None
    stationary_profile: CountingMeasure | None
    iterations_used: int
    reason: str
    coupled = property(lambda self: self.reason == "certified")


def _depths(first: int, cap: int) -> list[int]:
    """The depth schedule of every backward pass: ``min(cap, max(256,
    first))``, then doubling up to ``cap``."""
    depths = [min(cap, max(_FIRST_BLOCK, first))]
    while depths[-1] < cap:
        depths.append(min(cap, 2 * depths[-1]))
    return depths


class _Backlog:
    """Backward marks of a batch of inputs, drawn once.

    Row ``k``, column ``c`` of ``xs`` and ``ss`` holds the marks of index
    ``-(c + 1)`` of input ``k``.  Every row has the same depth;
    :meth:`reach` deepens all rows at once, in one many-seed read.

    A screened backlog (``screen`` true, on inputs that share one model
    whose ``screen_bound`` is not 0) holds the laws' screened marks,
    within the relative ``bound`` of the exact ones, and, in ``us`` and
    ``states``, the uniforms and chain states they came from, so that
    :meth:`exact` can give the prefix of any row exactly, at the depth where
    that row certifies and before :meth:`keep` drops it.
    Otherwise the marks are exact and ``bound`` is 0.
    """

    def __init__(self, gens: list, screen: bool = False):
        self.gens = gens
        self.xs = self.ss = np.empty((len(gens), 0))
        self.model = _screened_model(gens) if screen else None
        self.bound = 0.0 if self.model is None else self.model.screen_bound
        self.us = self.states = None
        if self.model is not None:
            self.us = np.empty((len(gens), 0, 2))
            if self.model.n_states > 1:
                self.states = np.empty((len(gens), 0), dtype=np.int64)

    def reach(self, depth: int) -> None:
        have = self.xs.shape[1]
        if depth <= have:
            return
        if self.model is None:
            xs, ss = sample_blocks(self.gens, -depth, -have)
        else:
            off = self.gens[0].offset
            u, states = self.model.read([g.seed for g in self.gens], off - depth, off - have)
            xs, ss = self.model.marks(u, states, screen=True)
            self.us = np.concatenate([self.us, u[:, ::-1]], axis=1)
            if states is not None:
                self.states = np.concatenate([self.states, states[:, ::-1]], axis=1)
        self.xs = np.concatenate([self.xs, xs[:, ::-1]], axis=1)
        self.ss = np.concatenate([self.ss, ss[:, ::-1]], axis=1)

    def terms(self, k_r: float, depth: int) -> np.ndarray:
        """The Lindley terms ``sigma - K_r xi`` of the first ``depth``
        columns of every row."""
        return self.ss[:, :depth] - k_r * self.xs[:, :depth]

    def slack(self, k_r: float, depth: int, margin: float) -> np.ndarray | float:
        """Per row, the absolute slack of :func:`_certified` on
        :meth:`terms`: no test on them differs from the same test on the
        exact terms by more (README, "Numerical conventions").  With
        ``A`` the row's sum of ``sigma + K_r xi``, ``s = (2 bound + 4u (D +
        2)) A + (D + 2) 2^-1070`` bounds each prefix sum's distance from the
        exact one, and the slack is ``4 s + 2u (ATOM_TOL + margin)``, ``u =
        2^-53``.  0 for exact marks."""
        if not self.bound:
            return 0.0
        a = self.ss[:, :depth].sum(axis=1) + k_r * self.xs[:, :depth].sum(axis=1)
        near = (2.0 * self.bound + 4.0 * _U * (depth + 2)) * a + (depth + 2) * 2.0**-1070
        return (4.0 * near + 2.0 * _U * (ATOM_TOL + margin))[:, None]

    def keep(self, rows: np.ndarray) -> None:
        """Drop every row whose entry of the mask ``rows`` is false."""
        self.gens = [g for g, k in zip(self.gens, rows) if k]
        self.xs, self.ss = self.xs[rows], self.ss[rows]
        if self.model is not None:
            self.us = self.us[rows]
            self.states = None if self.states is None else self.states[rows]

    def exact(
        self, rows: np.ndarray, ms: np.ndarray
    ) -> list[tuple[list[float], list[float]]] | None:
        """The exact marks of the first ``ms[k]`` columns of each row
        ``rows[k]``, oldest index first, from one ``transform`` call per
        law.  ``None`` when one of them is not within ``bound`` of its
        screened value: the screen broke its bound, and no decision made on
        it can be trusted."""
        prefix = np.arange(ms.max()) < ms[:, None]
        xs, ss, us, states = (None if a is None else a[rows, :prefix.shape[1]][prefix]
                              for a in (self.xs, self.ss, self.us, self.states))
        if self.model is not None:
            screened = xs, ss
            xs, ss = self.model.marks(us, states)
            if not all((np.abs(exact - near) <= self.bound * near).all()
                       for exact, near in zip((xs, ss), screened)):
                return None
        at = list(accumulate(ms.tolist(), initial=0))
        return [(xs[i:j][::-1].tolist(), ss[i:j][::-1].tolist()) for i, j in zip(at, at[1:])]


def _screened_model(gens: list):
    """The model every input of ``gens`` reads, at one offset, when one of
    its laws has a screen that is not its transform; otherwise (inputs
    that do not share one, or any that is not a
    :class:`MarkedInputGenerator`) ``None``."""
    first = gens[0]
    if not isinstance(first, MarkedInputGenerator) or not first.model.screen_bound:
        return None
    if all(isinstance(g, MarkedInputGenerator) and g.model == first.model
           and g.offset == first.offset for g in gens):
        return first.model
    return None


def gginf_stationary(
    gen, max_lookback: int = 100_000
) -> tuple[StationaryProfileResult, LoynesResult]:
    """The stationary infinite-server profile and its Loynes record, from
    one backward read of the marks.

    Past customer ``-i`` contributes an atom ``sigma_{-i} - sum_{j<=i}
    xi_{-j}`` whenever that is nonnegative (it is still in service at the
    origin); the record ``[sup_j (sigma_{-j} - sum_{i<=j} xi_{-i})]^+`` is
    the largest of those candidates.  With ``q`` the service-demand
    quantile at :data:`DEFAULT_QUANTILE`, the profile stops at the first
    ``sum xi > q``, past which no customer can still be present, and the
    record at the first ``q - sum xi <= best``, past which no candidate can
    beat it.  The pass deepens until both rules hold or the cap
    ``max_lookback`` is reached, and each result keeps its own stop.
    """
    if max_lookback < 1:
        raise ValueError(f"max_lookback must be >= 1, got {max_lookback}")
    qp = gen.sigma_quantile(DEFAULT_QUANTILE)
    buf = _Backlog([gen])
    for d in _depths(_FIRST_BLOCK, max_lookback):
        buf.reach(d)
        sum_xi = np.cumsum(buf.xs[0, :d])
        cand = buf.ss[0, :d] - sum_xi
        best = np.maximum.accumulate(cand)
        gone, beaten = sum_xi > qp, qp - sum_xi <= best
        prof_ok, rec_ok = bool(gone.any()), bool(beaten.any())
        if prof_ok and rec_ok:
            break
    # the stops are the first true entries: a sequential cumsum gives the
    # same prefix at every depth
    i = int(gone.argmax()) + 1 if prof_ok else d
    j = int(beaten.argmax()) + 1 if rec_ok else d
    v = cand[:i]
    profile = StationaryProfileResult(
        CountingMeasure(v[v >= 0.0].tolist()), i, "certified" if prof_ok else "lookback_exhausted"
    )
    record = LoynesResult(
        max(float(best[j - 1]), 0.0), j, "certified" if rec_ok else "lookback_exhausted"
    )
    return profile, record


def _stopping_rule(gen, k_r: float, improvement_window: int | None) -> tuple[int, float] | None:
    """Window and margin of the Lindley certificate (:func:`_certified`):
    the given window or ``10 / (1 - rho_hat)``, and the margin ``50 * (K_r
    E[xi] - E[sigma])``, a heuristic and not an error bound.  ``None`` when
    that drift gap is not positive, whatever the window: no stationary law
    exists."""
    if improvement_window is not None and improvement_window < 1:
        raise ValueError(f"improvement_window must be >= 1, got {improvement_window}")
    mean_xi, mean_sigma = gen.mean_xi(), gen.mean_sigma()
    gap = k_r * mean_xi - mean_sigma
    if not gap > 0.0:
        return None
    if improvement_window is None:
        improvement_window = math.ceil(10.0 / (1.0 - mean_sigma / (k_r * mean_xi)))
    return improvement_window, 50.0 * gap


def _certified(
    terms: np.ndarray, window: int, margin: float, max_m: int, slack: np.ndarray | float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The prefix sums ``s[:, j] = S_j`` of every row of ``terms`` (``D``
    columns, ``S_0 = 0``) and two masks of its certified epochs ``m``: the
    workload started at ``-m`` stays zero, ``max_{m<j<=D} S_j - S_m <=
    ATOM_TOL``, ``S_m - S_D >= margin`` and ``m <= min(D - window, max_m)``.

    The first mask ("sure") holds both tests with ``slack`` to spare, the
    second ("possible") fails neither by more than ``slack`` (one value, or
    one per row as a column).  With terms within ``slack`` of exact ones
    (:meth:`_Backlog.slack`), a sure epoch is certified on the exact terms
    and a certified one is possible.  At slack 0 both are the exact test.
    """
    rows, d = terms.shape
    s = np.cumsum(np.concatenate([np.zeros((rows, 1)), terms], axis=1), axis=1)
    ahead = np.maximum.accumulate(s[:, :0:-1], axis=1)[:, ::-1]  # max S_j, m < j <= d
    top = max(min(d - window, max_m) + 1, 0)
    rise, drop = ahead[:, :top] - s[:, :top], s[:, :top] - s[:, d, None]
    sure = (rise <= ATOM_TOL - slack) & (drop >= margin + slack)
    if not np.any(slack):
        return s, sure, sure
    return s, sure, (rise <= ATOM_TOL + slack) & (drop >= margin - slack)


def lindley_W(
    gen,
    k_r: float,
    max_lookback: int = 100_000,
    improvement_window: int | None = None,
) -> LoynesResult:
    """Stationary workload of the constant-drain bound:
    ``[sup_j sum_{i<=j} (sigma_{-i} - K_r xi_{-i})]^+``.

    Reads the terms ``sigma - K_r xi`` along the depths ``min(cap, max(256,
    2 window))``, then doubling up to ``cap = max_lookback``, and stops at
    the first depth ``D`` where the perfect sampler's certificate
    (:func:`_certified`) holds at some epoch, whose workload is then zero:
    the value is ``max(S_0 .. S_D)`` and ``iterations`` ``D``.  With
    nonnegative drift nothing is read or certified.
    """
    if not 0.0 < k_r < math.inf:
        raise ValueError(f"drain rate must be positive and finite, got {k_r!r}")
    if max_lookback < 1:
        raise ValueError(f"max_lookback must be >= 1, got {max_lookback}")
    rule = _stopping_rule(gen, k_r, improvement_window)
    if rule is None:
        return LoynesResult(0.0, 0, "drift_nonnegative")
    window, margin = rule
    buf = _Backlog([gen])
    for d in _depths(2 * window, max_lookback):
        buf.reach(d)
        s, ok, _ = _certified(buf.terms(k_r, d), window, margin, max_lookback)
        if converged := bool(ok.any()):
            break
    return LoynesResult(float(s.max()), d, "certified" if converged else "lookback_exhausted")


#: Most inputs :func:`backward_coupling_ps_batch` scans together.  It bounds
#: the backward buffer and the pass's temporaries at ``BATCH_ROWS`` rows; at
#: 32 the shipped perfect-sample config peaks about 6% above the resident
#: memory of one replication at a time, at 64 about 13% above.
BATCH_ROWS = 32

def backward_coupling_ps(
    gen,
    r: RateFunction,
    max_lookback: int = 10_000,
    improvement_window: int | None = None,
) -> CouplingReport:
    """Exact draw from the stationary processor-sharing profile.

    Reads the terms ``sigma - K_r xi`` to depth ``D``: ``min(cap, max(256,
    2 window))``, then doubling up to ``cap = 2 max_lookback``, and takes
    the nearest epoch ``-m`` that :func:`_certified` certifies, ``m <=
    max_lookback``.  The profile is empty there, so the recursion run
    forward from zero gives the stationary profile at the origin exactly;
    ``iterations_used`` is ``D + m``.
    Without a certified epoch at the cap the report says so instead of
    guessing.  This is :func:`backward_coupling_ps_batch` on a batch of one.
    """
    return backward_coupling_ps_batch([gen], r, max_lookback, improvement_window)[0]


def backward_coupling_ps_batch(
    gens: Sequence,
    r: RateFunction,
    max_lookback: int = 10_000,
    improvement_window: int | None = None,
) -> list[CouplingReport]:
    """:func:`backward_coupling_ps` for every input of ``gens``, one report
    each, equal field for field to the one-input call.

    The inputs of one call must share one law (they differ in seed or
    offset): the drift test and the window and margin defaults are derived
    once, from the first input's means.
    When ``K_r E[xi] - E[sigma]`` is not positive, every report is
    ``drift_nonnegative`` and no term is read, whatever the window.  Inputs
    are searched in batches of at most :data:`BATCH_ROWS`.  Every row still
    searching is tested at every depth ``D`` of the schedule on its own
    first ``D`` marks, so a report depends only on its own input and any
    batching gives the same bytes.
    """
    if not r.declared_floor > 0.0:
        raise ValueError("perfect sampling requires a positive throughput floor")
    if max_lookback < 1:
        raise ValueError(f"max_lookback must be >= 1, got {max_lookback}")
    gens = list(gens)
    if not gens:
        return []
    rule = _stopping_rule(gens[0], r.declared_floor, improvement_window)
    if rule is None:
        return [CouplingReport(None, None, 0, "drift_nonnegative") for _ in gens]
    window, margin = rule
    depths = _depths(2 * window, 2 * max_lookback)
    reports: list[CouplingReport] = []
    for lo in range(0, len(gens), BATCH_ROWS):
        reports += _couple_batch(gens[lo : lo + BATCH_ROWS], r, depths, window, margin, max_lookback)
    return reports


def _couple_batch(
    gens: list,
    r: RateFunction,
    depths: list[int],
    window: int,
    margin: float,
    max_lookback: int,
    screen: bool = True,
) -> list[CouplingReport]:
    # At each depth a row with no possible epoch reads deeper and a row whose
    # first possible epoch is sure takes it: what the exact test alone would
    # choose, since sure <= certified <= possible.  The rows that take an
    # epoch at this depth get the exact marks of their prefixes, run their
    # legs and leave the batch.  A row whose first possible epoch is not sure
    # (a close decision), or a screen beyond its bound, sends the batch back
    # to be searched on exact marks, where sure and possible are one mask.
    k_r = r.declared_floor
    buf = _Backlog(gens, screen)
    ids = np.arange(len(gens))  # the input each buffer row belongs to
    reports = [CouplingReport(None, None, depths[-1], "lookback_exhausted")] * len(gens)
    for d in depths:
        buf.reach(d)
        _, sure, possible = _certified(
            buf.terms(k_r, d), window, margin, max_lookback, buf.slack(k_r, d, margin))
        searching = ~possible.any(axis=1)
        done = np.flatnonzero(~searching)
        if done.size:  # argmax refuses the rows of a mask with no column
            epoch = possible[done].argmax(axis=1)
            legs = buf.exact(done, epoch) if sure[done, epoch].all() else None
            if legs is None:
                return _couple_batch(gens, r, depths, window, margin, max_lookback, screen=False)
            for i, m, (xs, ss) in zip(ids[done].tolist(), epoch.tolist(), legs):
                reports[i] = CouplingReport(-m, leg(ZERO, xs, ss, r), d + m, "certified")
        buf.keep(searching)
        ids = ids[searching]
        if not ids.size:
            break
    return reports


@dataclass(frozen=True)
class StabilityReport:
    """Drift comparison ``E[sigma]`` vs ``K_r E[xi]`` with a no-decision
    band of three standard errors: ``verdict`` is ``"stable"``,
    ``"unstable"`` or ``"inconclusive"``, and ``margin`` the estimate of
    ``K_r E[xi] - E[sigma]``."""

    verdict: str
    margin: float


def mean_se(a: np.ndarray) -> tuple[float, float]:
    """Mean of ``a`` and its plain standard error ``std(ddof=1) /
    sqrt(n)``: 0 for one value, NaN for none."""
    if a.size == 0:
        return math.nan, math.nan
    se = float(a.std(ddof=1) / math.sqrt(a.size)) if a.size > 1 else 0.0
    return float(a.mean()), se


def check_stability(gen, r: RateFunction, n_samples: int = 10_000) -> StabilityReport:
    """Empirical verdict on ``E[sigma] < K_r E[xi]``, from the marks of
    indices ``0 .. n_samples - 1``."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    xs, ss = sample_blocks([gen], 0, n_samples)
    mean_xi, se_xi = mean_se(xs[0])
    mean_sigma, se_sigma = mean_se(ss[0])
    k_r = r.declared_floor
    margin = k_r * mean_xi - mean_sigma
    se = math.hypot(k_r * se_xi, se_sigma)
    if margin > 3.0 * se:
        verdict = "stable"
    elif margin < -3.0 * se:
        verdict = "unstable"
    else:
        verdict = "inconclusive"
    return StabilityReport(verdict, margin)
