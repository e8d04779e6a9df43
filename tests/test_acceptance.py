"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and enforces the criterion's tolerance and, where stated,
its runtime budget.  Seeds are fixed so every run exercises the same
instances.  C1-C8 run the invariant checks of :mod:`gpsq.checks` (which
``simctl verify`` runs at smaller counts) and apply the gate's thresholds.
"""

import time

import numpy as np
import yaml

from gpsq import checks
from gpsq.dynamics import simulate_queue_path
from gpsq.input_process import Exponential, deterministic_input, iid_input, replication_seed
from gpsq.rates import classical_ps, pure_delay
from gpsq.simctl import EXIT_OK, main
from gpsq.stationary import backward_coupling_ps, check_stability


def report(cid: str, desc: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance] {cid} {desc}: {tag}" + (f" ({detail})" if detail else ""))
    assert ok, f"{cid} {desc}: {detail}"


def test_c1_oracle_equivalence():
    """C1: closed form vs fluid oracle on 10^4 random instances, < 10 s."""
    t0 = time.perf_counter()
    res = checks.oracle_equivalence(np.random.default_rng(1001), 10_000)
    elapsed = time.perf_counter() - t0
    report("C1", "one-step map equals fluid oracle",
           res.failures == 0 and elapsed < 10.0, f"{res.detail}, {elapsed:.2f}s")


def test_c2_drain_is_max_threshold_and_unimodal():
    """C2: gamma = max threshold; thresholds rise to the peak then fall."""
    res = checks.threshold_unimodality(np.random.default_rng(1001), 10_000)
    report("C2", "per-customer drain is the unimodal threshold maximum",
           res.failures == 0, res.detail)


def test_c3_monotone_in_profile():
    """C3: dominated profiles stay dominated through one step (10^4 pairs)."""
    res = checks.profile_monotonicity(np.random.default_rng(3003), 10_000)
    report("C3", "one-step map is monotone in the profile", res.failures == 0, res.detail)


def test_c4_monotone_in_rate():
    """C4: pointwise-slower rates leave a larger profile (10^4 instances)."""
    res = checks.rate_monotonicity(np.random.default_rng(4004), 10_000)
    report("C4", "one-step map is antitone in the rate", res.failures == 0, res.detail)


def test_c5_infinite_server_fixed_point():
    """C5: stationary infinite-server profile solves its one-step equation
    under origin shift, and its largest atom is the backward record."""
    res = checks.gginf_fixed_point(5005, 1000)
    report("C5", "infinite-server stationary profile fixed point",
           res.failures == 0 and res.converged >= 990,
           f"{res.converged}/1000 converged; {res.detail}")


def test_c6_record_and_workload_fixed_points():
    """C6: the record and constant-drain workload satisfy their one-step
    recursions under origin shift on 10^3 seeds each."""
    res = checks.record_and_workload_fixed_points(6006, 1000)
    report("C6", "record and workload one-step fixed points",
           res.failures == 0 and res.converged >= 990, res.detail)


def test_c7_perfect_sampling():
    """C7: exact stationary sampling couples in >= 99% of 10^3 replications
    and the sample solves the stationary equation; < 2 min."""
    t0 = time.perf_counter()
    res = checks.coupling_stationarity(7007, 1000)
    elapsed = time.perf_counter() - t0
    report("C7", "perfect sampling couples and is stationary",
           res.converged >= 990 and res.failures == 0 and res.checked >= 950 and elapsed < 120.0,
           f"coupled {res.converged}/1000; {res.detail}; {elapsed:.1f}s")


def test_c8_workload_identity_and_domination():
    """C8: constant-throughput runs track the scalar workload recursion to
    1e-9 over 10^4 steps; general valid rates stay dominated by it."""
    res = checks.workload_identity(8008, 10_000)
    report("C8", "workload identity and domination", res.failures == 0, res.detail)


def _batch_mean_se(samples: np.ndarray, n_batches: int = 100):
    usable = (samples.size // n_batches) * n_batches
    batches = samples[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.mean()), float(batches.std(ddof=1) / np.sqrt(n_batches))


def test_c9_closed_form_cross_checks():
    """C9: equal-split server at half load matches the classical mean
    occupancy 1.0; unit-rate server at offered load 2 matches 2.0; < 5 min."""
    t0 = time.perf_counter()
    burn, keep = 20_000, 100_000
    g = iid_input(Exponential(2.0), Exponential(1.0), seed=9009)  # load 0.5
    q = simulate_queue_path(g, classical_ps(), n_steps=burn + keep).q[burn:burn + keep]
    m1, se1 = _batch_mean_se(np.asarray(q, dtype=float))
    g2 = iid_input(Exponential(1.0), Exponential(2.0), seed=9010)  # offered load 2
    q2 = simulate_queue_path(g2, pure_delay(), n_steps=burn + keep).q[burn:burn + keep]
    m2, se2 = _batch_mean_se(np.asarray(q2, dtype=float))
    elapsed = time.perf_counter() - t0
    ok1 = abs(m1 - 1.0) <= 3.0 * se1
    ok2 = abs(m2 - 2.0) <= 3.0 * se2
    report(
        "C9",
        "classical closed-form occupancy cross-checks",
        ok1 and ok2 and elapsed < 300.0,
        f"equal-split {m1:.4f}±{se1:.4f} vs 1.0; unit-rate {m2:.4f}±{se2:.4f} vs 2.0; "
        f"{elapsed:.1f}s",
    )


def test_c10_instability_detection():
    """C10: offered load 2 at capacity 1 is flagged unstable, never couples,
    and the occupancy grows linearly (positive slope, 3 SE margin)."""
    g = deterministic_input(1.0, 2.0, seed=0)
    verdict = check_stability(g, classical_ps(), n_samples=1000).verdict
    no_coupling = all(
        not backward_coupling_ps(
            g.with_seed(replication_seed(0, i)), classical_ps(), max_lookback=10_000
        ).coupled
        for i in range(3)
    )
    q = simulate_queue_path(g, classical_ps(), n_steps=100_000).q
    n = np.arange(50_000, 100_001, dtype=float)
    y = np.asarray(q[50_000:], dtype=float)
    slope, intercept = np.polyfit(n, y, 1)
    resid = y - (slope * n + intercept)
    se_slope = float(
        np.sqrt(resid.var(ddof=2) / np.sum((n - n.mean()) ** 2))
    )
    report(
        "C10",
        "instability detected and occupancy grows linearly",
        verdict == "unstable" and no_coupling and slope - 3.0 * se_slope > 0.0,
        f"verdict={verdict}, slope {slope:.4f} ± {se_slope:.2e}",
    )


def test_c11_byte_identical_outputs(tmp_path, monkeypatch):
    """C11: equal config and seed give byte-identical result files."""
    monkeypatch.chdir(tmp_path)
    cfg = {
        "schema_id": "gpsq-experiment-v1",
        "mode": "ps_perfect_sample",
        "base_seed": 11,
        "replications": 10,
        "max_lookback": 5000,
        "input": {"model": "iid", "xi": {"dist": "exp", "mean": 3},
                  "sigma": {"dist": "exp", "mean": 1}},
        "rate": {"kind": "half_interference"},
        "output": {"path": "a.csv", "format": "csv"},
    }
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump(cfg))
    assert main(["run", str(p), "--jobs", "1"]) == EXIT_OK
    first = (tmp_path / "a.csv").read_bytes()
    assert main(["run", str(p), "--jobs", "2"]) == EXIT_OK
    second = (tmp_path / "a.csv").read_bytes()

    cfg2 = dict(cfg, mode="gginf_stationary", replications=4,
                output={"path": "b.json", "format": "json"})
    p2 = tmp_path / "c2.yaml"
    p2.write_text(yaml.safe_dump(cfg2))
    assert main(["run", str(p2), "--jobs", "1"]) == EXIT_OK
    j1 = (tmp_path / "b.json").read_bytes()
    assert main(["run", str(p2), "--jobs", "1"]) == EXIT_OK
    j2 = (tmp_path / "b.json").read_bytes()
    report(
        "C11",
        "equal seeds give byte-identical artifacts",
        first == second and j1 == j2,
        f"csv {len(first)}B, json {len(j1)}B",
    )
