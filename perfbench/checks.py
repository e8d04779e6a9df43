"""Correctness checks on simctl artifacts, run after the timed runs.

Every check returns ``(name, ok, detail)``.  No artifact hash is pinned: the
checks recompute what the artifact claims from the package's independent
pieces (the fluid oracle, the rate function, the seed scheme), so a change
that moves floats by an ulp on purpose needs no edit here.
"""

from __future__ import annotations

import csv
import json
import os

from gpsq.dynamics import fluid_oracle_phi
from gpsq.input_process import generator_from_config, replication_seed
from gpsq.measures import ZERO
from gpsq.simctl import ExperimentConfig, rate_from_config

ATOM_TOL = 1e-9
# The artifact schemas are pinned here, not imported: they must not change.
_PS_HEADER = ("seed", "coupled", "regeneration_index", "n_atoms", "workload", "iterations")
_SWEEP_HEADER = ("rho", "sigma_scale", "verdict", "coupling_freq", "n_coupled",
                 "mean_n", "se_n", "mean_w", "se_w", "replications")
_FORWARD_HEADER = ("replication", "seed", "t_start", "t_end", "q", "w_start", "drain_rate")
# coupled perfect-sample rows recomputed with the oracle, per artifact
ORACLE_ROWS = 4

Check = tuple[str, bool, str]


def _read(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (rows[0] if rows else []), rows[1:]


def _manifest(path: str, cfg: ExperimentConfig, exhausted: int) -> Check:
    try:
        with open(path + ".manifest.json", encoding="utf-8") as fh:
            man = json.load(fh)
    except (OSError, ValueError) as exc:
        return "manifest", False, f"unreadable manifest: {exc}"
    ok = (
        man.get("mode") == cfg.mode
        and man.get("base_seed") == cfg.base_seed
        and man.get("horizon_exhausted") == exhausted
    )
    return "manifest", ok, f"mode/base_seed/horizon_exhausted = {man.get('mode')}/" \
        f"{man.get('base_seed')}/{man.get('horizon_exhausted')}"


def check_artifact(cfg_dict: dict, path: str, exhausted: int) -> tuple[list[Check], int, int]:
    """Checks for one artifact of a jobs=1 run.

    Returns the checks, the number of replications the artifact stands for
    (times grid points for a sweep) and how many of them exhausted their
    lookback at a stable load.
    """
    cfg = ExperimentConfig.from_dict(cfg_dict)
    if not os.path.isfile(path):
        return [("artifact", False, f"missing {path}")], 0, 0
    header, rows = _read(path)
    checks = [_manifest(path, cfg, exhausted)]
    if cfg.mode == "ps_perfect_sample":
        more, ops, exhausted = _check_ps(cfg, header, rows)
    elif cfg.mode == "stability_sweep":
        more, ops, exhausted = _check_sweep(cfg, header, rows)
    else:
        more, ops, exhausted = _check_forward(cfg, header, rows)
    return checks + more, ops, exhausted


def _check_ps(cfg: ExperimentConfig, header, rows) -> tuple[list[Check], int, int]:
    checks: list[Check] = [
        ("schema", tuple(header) == _PS_HEADER, f"header {header}"),
        ("row_count", len(rows) == cfg.replications, f"{len(rows)} rows"),
    ]
    seeds_ok = all(
        int(row[0]) == replication_seed(cfg.base_seed, i) for i, row in enumerate(rows)
    )
    checks.append(("replication_seeds", seeds_ok, "seed column follows the seed scheme"))
    coupled = [row for row in rows if row[1] == "True"]
    exhausted = sum(1 for row in rows if row[1] != "True")
    r = rate_from_config(cfg.rate_spec)
    # the first few coupled rows and the deepest one
    picks = coupled[:ORACLE_ROWS]
    if coupled:
        picks.append(min(coupled, key=lambda row: int(row[2])))
    for row in picks:
        seed, regen, n_atoms, workload = int(row[0]), int(row[2]), int(row[3]), float(row[4])
        gen = generator_from_config(cfg.input_spec, seed_override=seed)
        mu = ZERO
        for k in range(regen, 0):
            xi, sigma = gen.sample(k)
            mu = fluid_oracle_phi(mu.add_atom(sigma), xi, r)
        ok = mu.num_atoms == n_atoms and abs(mu.workload - workload) <= ATOM_TOL
        checks.append((
            "oracle_recompute", ok,
            f"seed {seed} from {regen}: n_atoms {mu.num_atoms} vs {n_atoms}, "
            f"workload {mu.workload!r} vs {workload!r}",
        ))
    return checks, len(rows), exhausted


def _check_sweep(cfg: ExperimentConfig, header, rows) -> tuple[list[Check], int, int]:
    checks: list[Check] = [
        ("schema", tuple(header) == _SWEEP_HEADER, f"header {header}"),
        ("row_count", len(rows) == len(cfg.rho_grid), f"{len(rows)} rows"),
    ]
    exhausted = 0
    for rho, row in zip(cfg.rho_grid, rows):
        n_coupled = int(row[4])
        checks.append(("grid_point", float(row[0]) == rho and int(row[9]) == cfg.replications,
                       f"rho {row[0]}, replications {row[9]}"))
        if rho > 1.0:
            checks.append(("no_coupling_above_1", n_coupled == 0,
                           f"rho {rho}: {n_coupled} coupled"))
        elif rho < 1.0:
            exhausted += cfg.replications - n_coupled
    return checks, cfg.replications * len(rows), exhausted


def _check_forward(cfg: ExperimentConfig, header, rows) -> tuple[list[Check], int, int]:
    checks: list[Check] = [
        ("schema", tuple(header) == _FORWARD_HEADER, f"header {header}"),
    ]
    r = rate_from_config(cfg.rate_spec)
    bad: list[str] = []
    seen: list[int] = []
    prev_end = None
    for row in rows:
        rep, seed = int(row[0]), int(row[1])
        t0, t1, q, w, drain = float(row[2]), float(row[3]), int(row[4]), float(row[5]), float(row[6])
        if not seen or seen[-1] != rep:
            seen.append(rep)
            if seed != replication_seed(cfg.base_seed, rep):
                bad.append(f"replication {rep}: seed {seed}")
            if t0 != 0.0:
                bad.append(f"replication {rep} starts at {t0}")
        elif t0 != prev_end:
            bad.append(f"replication {rep}: gap at {t0} after {prev_end}")
        prev_end = t1
        if not t1 > t0:
            bad.append(f"replication {rep}: empty segment at {t0}")
        if drain != (q * r(q) if q else 0.0):
            bad.append(f"replication {rep}: drain {drain} at q={q}")
        if w < -ATOM_TOL:
            bad.append(f"replication {rep}: w_start {w}")
    checks.append(("row_count", seen == list(range(cfg.replications)),
                   f"{len(rows)} rows over replications {seen[:3]}...{seen[-1:]}"))
    checks.append(("segments", not bad, f"{len(bad)} violations: " + "; ".join(bad[:5]) if bad
                   else "contiguous, drain = q r(q), w_start >= -1e-9"))
    return checks, cfg.replications, 0
