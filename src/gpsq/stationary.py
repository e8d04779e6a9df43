"""Backward constructions: stationary profiles and perfect sampling.

Everything here scans the input sequence backward from the origin.  The
three scalar/measure constructions are

* :func:`loynes_L` -- the all-time record ``[sup_j (sigma_{-j} -
  sum_{i<=j} xi_{-i})]^+``: the remaining work, at the origin, of the past
  customer who reaches furthest into the future when every customer is
  served at unit rate.  It solves ``L . theta = [max(L, sigma) - xi]^+``.
* :func:`stationary_profile_gginf` -- the explicit stationary profile of
  the infinite-server system: one atom ``sigma_{-i} - sum_{j<=i} xi_{-j}``
  for every past customer still unfinished at the origin.
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
rule.  The rules used here are explicit and reported: the record
constructions stop once the accumulated inter-arrival mass provably (up to
a declared service-demand quantile) exceeds any future candidate;
:func:`lindley_W` stops after a configurable run of non-improving partial
sums that has also fallen below the running record by a margin derived from
the drift;
:func:`backward_coupling_ps` states its certificate.  Every result says
whether it was certified or the horizon was exhausted -- "unstable" and
"did not look far enough" are never conflated.

All four constructions run on one backward engine.  The marks are drawn
into a buffer (:class:`_Backlog`) that deepens along one doubling schedule
of depths (:func:`_depths`), and at each depth ``D`` a construction makes
one prefix pass over the buffer's first ``D`` columns: prefix sums by a
sequential ``cumsum`` (so every float equals the scalar running sum), a
running ``maximum.accumulate`` or a mask over them, and a stop at the first
index where its rule holds.  A scan that stops early reads at most about
twice the terms it used.

Perfect sampling runs over a batch of replications
(:func:`backward_coupling_ps_batch`; :func:`backward_coupling_ps` is the
batch of one).  The backward marks of the whole batch are drawn once, with
many-seed reads, into one 2-D buffer, and each depth's pass covers the
rows still searching: the suffix maxima of the prefix sums, by one
reversed ``maximum.accumulate``, give every epoch's workload at once.  A
row takes its nearest certified epoch, runs its forward leg and leaves the
batch.  A row's report reads only its own marks at the depths of the
schedule, so it does not depend on its batch mates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import step
from .input_process import sample_blocks
from .measures import ATOM_TOL, ZERO, CountingMeasure
from .rates import RateFunction, validate

#: Per-draw tail probability the certification rules are allowed to ignore.
DEFAULT_QUANTILE = 1.0 - 1e-9

#: Smallest first block of a backward scan; a block of 256 costs about
#: twice a block of one, so smaller blocks buy nothing.
_FIRST_BLOCK = 256


@dataclass(frozen=True)
class LoynesResult:
    """Value of a backward record construction plus its diagnostics.

    ``argmax_index`` is the backward index ``j >= 1`` achieving the record
    (``None`` when the record is the empty-past value 0).  ``converged``
    means the stopping rule certified that deeper terms cannot raise the
    value; otherwise the horizon was exhausted and the value is a lower
    bound.
    """

    value: float
    argmax_index: int | None
    converged: bool
    iterations: int
    tail_bound_note: str


@dataclass(frozen=True)
class StationaryProfileResult:
    """Truncated backward evaluation of the infinite-server profile."""

    profile: CountingMeasure
    converged: bool
    iterations: int
    truncation_note: str


@dataclass(frozen=True)
class CouplingReport:
    """Outcome of a perfect-sampling run.

    ``regeneration_index`` is the (nonpositive) epoch found with zero
    Lindley workload; ``stationary_profile`` the exact stationary draw at
    index 0.  ``coupled`` is false when no certified regeneration epoch
    exists within the lookback.  ``reason`` (not in the result files) is
    ``certified``, ``drift_nonnegative`` (``K_r E[xi] - E[sigma] <= 0``: no
    stationary law, nothing read) or ``lookback_exhausted``.
    """

    coupled: bool
    regeneration_index: int | None
    stationary_profile: CountingMeasure | None
    iterations_used: int
    reason: str


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
    """

    def __init__(self, gens: list):
        self.gens = gens
        self.xs = self.ss = np.empty((len(gens), 0))

    def reach(self, depth: int) -> None:
        have = self.xs.shape[1]
        if depth > have:
            xs, ss = sample_blocks(self.gens, -depth, -have)
            self.xs = np.concatenate([self.xs, xs[:, ::-1]], axis=1)
            self.ss = np.concatenate([self.ss, ss[:, ::-1]], axis=1)

    def terms(self, k_r: float, depth: int) -> np.ndarray:
        """The Lindley terms ``sigma - K_r xi`` of the first ``depth``
        columns of every row."""
        return self.ss[:, :depth] - k_r * self.xs[:, :depth]

    def keep(self, rows: np.ndarray) -> None:
        """Drop every row whose entry of the mask ``rows`` is false."""
        self.gens = [g for g, k in zip(self.gens, rows) if k]
        self.xs, self.ss = self.xs[rows], self.ss[rows]


def loynes_L(
    gen,
    max_lookback: int = 100_000,
    quantile: float = DEFAULT_QUANTILE,
) -> LoynesResult:
    """Backward record ``[sup_{1<=j} (sigma_{-j} - sum_{i<=j} xi_{-i})]^+``.

    Stops early once ``sum xi - best`` exceeds the service-demand quantile
    bound: no deeper candidate can then beat the record, since candidates
    shrink by the ever-growing inter-arrival mass.  The record after each
    term is a running maximum of the candidates, and ``argmax_index`` the
    first term that reaches it.
    """
    if max_lookback < 1:
        raise ValueError(f"max_lookback must be >= 1, got {max_lookback}")
    qp = gen.sigma_quantile(quantile)
    buf = _Backlog([gen])
    j, converged = max_lookback, False
    for d in _depths(_FIRST_BLOCK, max_lookback):
        buf.reach(d)
        sum_xi = np.cumsum(buf.xs[0, :d])
        cand = buf.ss[0, :d] - sum_xi
        best = np.maximum.accumulate(cand)
        if (stop := qp - sum_xi <= best).any():
            j, converged = int(stop.argmax()) + 1, True
            break
    top = float(best[j - 1])
    note = (
        f"certified: sum(xi) - best exceeds the {quantile} service quantile ({qp})"
        if converged
        else f"horizon exhausted at lookback {max_lookback}"
    )
    return LoynesResult(
        value=max(top, 0.0),
        argmax_index=int(cand[:j].argmax()) + 1 if top > 0.0 else None,
        converged=converged,
        iterations=j,
        tail_bound_note=note,
    )


def stationary_profile_gginf(
    gen,
    max_lookback: int = 100_000,
    quantile: float = DEFAULT_QUANTILE,
) -> StationaryProfileResult:
    """Stationary infinite-server profile by direct backward evaluation.

    Past customer ``-i`` contributes an atom ``sigma_{-i} - sum_{j<=i}
    xi_{-j}`` whenever that is nonnegative (it is still in service at the
    origin).  The scan stops once the accumulated inter-arrival mass
    exceeds the service-demand quantile bound, past which no further
    customer can still be present.
    """
    if max_lookback < 1:
        raise ValueError(f"max_lookback must be >= 1, got {max_lookback}")
    qp = gen.sigma_quantile(quantile)
    buf = _Backlog([gen])
    i, converged = max_lookback, False
    for d in _depths(_FIRST_BLOCK, max_lookback):
        buf.reach(d)
        sum_xi = np.cumsum(buf.xs[0, :d])
        if (stop := sum_xi > qp).any():
            i, converged = int(stop.argmax()) + 1, True
            break
    v = buf.ss[0, :i] - sum_xi[:i]
    note = (
        f"certified: accumulated inter-arrival mass {float(sum_xi[i - 1])} exceeds the "
        f"{quantile} service quantile ({qp})"
        if converged
        else f"horizon exhausted at lookback {max_lookback}; atoms may be missing"
    )
    return StationaryProfileResult(
        profile=CountingMeasure(v[v >= 0.0].tolist()),
        converged=converged,
        iterations=i,
        truncation_note=note,
    )


def _stopping_rule(
    gen, k_r: float, improvement_window: int | None
) -> tuple[int | None, float | None]:
    """Window and margin of the Lindley stopping rule: the given window or
    one derived from the input's means, and the derived margin (see
    :func:`lindley_W`)."""
    mean_xi, mean_sigma = gen.mean_xi(), gen.mean_sigma()
    gap = k_r * mean_xi - mean_sigma
    rho_hat = mean_sigma / (k_r * mean_xi)
    if improvement_window is None and rho_hat < 1.0:
        improvement_window = math.ceil(10.0 / (1.0 - rho_hat))
    return improvement_window, 50.0 * gap if gap > 0.0 else None


def lindley_W(
    gen,
    k_r: float,
    max_lookback: int = 100_000,
    improvement_window: int | None = None,
) -> LoynesResult:
    """Stationary workload of the constant-drain bound:
    ``[sup_j sum_{i<=j} (sigma_{-i} - K_r xi_{-i})]^+``.

    Certification is heuristic under negative drift: stop once the partial
    sum has not improved the record for ``improvement_window`` consecutive
    terms and sits at least ``50 * (K_r E[xi] - E[sigma])`` below it.  The
    window defaults to ``10 / (1 - rho_hat)``; the margin is always derived.
    With nonnegative drift there is no margin and, unless a window is given
    by hand, no certification, only horizon exhaustion.
    ``argmax_index`` is the first term that reaches the record.
    """
    if not 0.0 < k_r < math.inf:
        raise ValueError(f"drain rate must be positive and finite, got {k_r!r}")
    if max_lookback < 1:
        raise ValueError(f"max_lookback must be >= 1, got {max_lookback}")
    window, margin = _stopping_rule(gen, k_r, improvement_window)
    buf = _Backlog([gen])
    j, converged = max_lookback, False
    for d in _depths(max_lookback if window is None else window + 1, max_lookback):
        buf.reach(d)
        s = np.cumsum(buf.terms(k_r, d)[0])
        best = np.maximum.accumulate(s)
        idx = np.arange(1, d + 1)
        record = s > np.concatenate([[-math.inf], best[:-1]])
        since = idx - np.maximum.accumulate(np.where(record, idx, 0))
        if window is None:
            continue
        stop = since >= window
        if margin is not None:
            stop &= best - s >= margin
        if stop.any():
            j, converged = int(stop.argmax()) + 1, True
            break
    top, quiet = float(best[j - 1]), int(since[j - 1])
    note = (
        f"certified: no record improvement for {quiet} terms, "
        f"partial sum {top - float(s[j - 1])} below the record"
        if converged
        else f"horizon exhausted at lookback {max_lookback}"
        + ("" if window is not None else " (no negative-drift estimate; cannot certify)")
    )
    return LoynesResult(
        value=max(top, 0.0),
        argmax_index=j - quiet if top > 0.0 else None,
        converged=converged,
        iterations=j,
        tail_bound_note=note,
    )


#: Most inputs :func:`backward_coupling_ps_batch` scans together.  It bounds
#: the backward buffer and the pass's temporaries at ``BATCH_ROWS`` rows; at
#: 32 the shipped perfect-sample config peaks about 6% above the resident
#: memory of one replication at a time, at 64 about 13% above.
BATCH_ROWS = 32

#: Occupancies ``n = 1..VALIDATE_N_MAX`` at which perfect sampling checks
#: the rate function (:func:`gpsq.rates.validate`) before it reads any input.
VALIDATE_N_MAX = 128


def backward_coupling_ps(
    gen,
    r: RateFunction,
    max_lookback: int = 10_000,
    improvement_window: int | None = None,
) -> CouplingReport:
    """Exact draw from the stationary processor-sharing profile.

    Reads the terms ``sigma - K_r xi`` to depth ``D``: ``min(cap, max(256,
    2 window))``, then doubling up to ``cap = 2 max_lookback``.  Epoch
    ``-m`` is certified when the Lindley workload started there is zero
    (within ``ATOM_TOL``) over all ``D`` terms, ``D - m >= window``, the
    last partial sum ends ``margin`` or more below it and ``m <=
    max_lookback``.  The profile is empty there, so the recursion run
    forward from zero at the nearest certified epoch gives the stationary
    profile at the origin exactly; ``iterations_used`` is ``D + m``.
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
    once, from the first input's means, and the rate is validated once.
    When ``K_r E[xi] - E[sigma]`` is not positive (the Lindley walk's drift
    is nonnegative), every report is ``drift_nonnegative`` and no term is
    read, even with a window given by hand.  Inputs are
    searched in batches of at most :data:`BATCH_ROWS`.  Every row still
    searching is tested at every depth ``D`` of the schedule on its own
    first ``D`` marks, so a report depends only on its own input and any
    batching gives the same bytes.
    """
    report = validate(r, n_max=VALIDATE_N_MAX)
    if not report.ok:
        raise ValueError(
            "rate function fails validation: " + "; ".join(report.violations)
        )
    if not r.declared_floor > 0.0:
        raise ValueError("perfect sampling requires a positive throughput floor")
    if max_lookback < 1:
        raise ValueError(f"max_lookback must be >= 1, got {max_lookback}")
    gens = list(gens)
    if not gens:
        return []
    if not r.declared_floor * gens[0].mean_xi() - gens[0].mean_sigma() > 0.0:
        # no stationary law, so no epoch can be certified, whatever window
        # was given, and nothing is read
        return [_exhausted(0, "drift_nonnegative") for _ in gens]
    window, margin = _stopping_rule(gens[0], r.declared_floor, improvement_window)
    depths = _depths(2 * window, 2 * max_lookback)
    reports: list[CouplingReport] = []
    for lo in range(0, len(gens), BATCH_ROWS):
        reports += _couple_batch(gens[lo : lo + BATCH_ROWS], r, depths, window, margin, max_lookback)
    return reports


def _exhausted(iterations: int, reason: str) -> CouplingReport:
    return CouplingReport(False, None, None, iterations, reason)


def _couple_batch(
    gens: list,
    r: RateFunction,
    depths: list[int],
    window: int,
    margin: float,
    max_lookback: int,
) -> list[CouplingReport]:
    reports: list[CouplingReport | None] = [None] * len(gens)
    buf = _Backlog(gens)
    ids = np.arange(len(gens))  # the input each buffer row belongs to
    for d in depths:
        buf.reach(d)
        # s[:, j] = S_j, the sum of the first j terms; ahead[:, m] = the
        # largest S_j with m < j <= d
        terms = buf.terms(r.declared_floor, d)
        s = np.cumsum(np.concatenate([np.zeros((ids.size, 1)), terms], axis=1), axis=1)
        ahead = np.maximum.accumulate(s[:, :0:-1], axis=1)[:, ::-1]
        top = max(min(d - window, max_lookback) + 1, 0)  # epochs m = 0 .. top - 1
        ok = ahead[:, :top] - s[:, :top] <= ATOM_TOL
        ok &= s[:, :top] - s[:, d, None] >= margin
        hit = ok.any(axis=1)
        for row in np.flatnonzero(hit):
            m = int(ok[row].argmax())
            mu = ZERO
            for xi, sigma in zip(buf.xs[row, :m][::-1].tolist(), buf.ss[row, :m][::-1].tolist()):
                mu = step(mu, sigma, xi, r)
            reports[ids[row]] = CouplingReport(
                coupled=True,
                regeneration_index=-m,
                stationary_profile=mu,
                iterations_used=d + m,
                reason="certified",
            )
        buf.keep(~hit)
        ids = ids[~hit]
        if not ids.size:
            break
    return [rep or _exhausted(depths[-1], "lookback_exhausted") for rep in reports]


@dataclass(frozen=True)
class StabilityReport:
    """Drift comparison ``E[sigma]`` vs ``K_r E[xi]`` with a no-decision
    band of three standard errors."""

    verdict: str  # "stable" | "unstable" | "inconclusive"
    mean_xi: float
    mean_sigma: float
    floor: float
    margin: float  # K_r * mean_xi - mean_sigma
    se_margin: float
    n_samples: int


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
    return StabilityReport(
        verdict=verdict,
        mean_xi=mean_xi,
        mean_sigma=mean_sigma,
        floor=k_r,
        margin=margin,
        se_margin=se,
        n_samples=n_samples,
    )
