"""Command-line front end for experiments and invariant checks.

``simctl run <config>`` executes one experiment described by a structured
config file (YAML or JSON), ``simctl sweep <config> --rho a:b:step`` runs
a load sweep, and ``simctl verify`` runs the built-in invariant suites.
Outputs are CSV or JSON files written atomically; given the same config
and base seed the result artifacts are byte-identical across runs (the
sidecar ``*.manifest.json``, which records wall time, is the one file
excluded from that guarantee).

Exit codes: 0 success, 1 invariant-suite failure, 2 invalid config,
3 I/O failure, 4 horizon exhausted in ``--strict`` mode.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np
import yaml

from . import __version__
from .dynamics import (
    TRAJECTORY_CSV_HEADER,
    trajectory,  # not called here; perfbench's tracer wraps simctl.trajectory
    trajectory_rows,
)
from .input_process import (
    MarkedInputGenerator,
    config_number,
    generator_from_config,
    replication_seed,
    scale_sigma,
)
from .measures import ZERO
from .rates import (
    RateFunction,
    classical_ps,
    half_interference,
    pure_delay,
    scaled_ps,
    table_rate,
)
from .stationary import (
    BATCH_ROWS,
    backward_coupling_ps,  # not called here; perfbench's tracer wraps simctl.backward_coupling_ps
    backward_coupling_ps_batch,
    check_stability,
    loynes_L,
    stationary_profile_gginf,
)

SCHEMA_ID = "gpsq-experiment-v1"
MODES = (
    "forward_sim",
    "gginf_stationary",
    "ps_perfect_sample",
    "stability_sweep",
    "invariant_suite",
)

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_EXHAUSTED = 4


class ConfigError(Exception):
    """Invalid experiment configuration; the message lists every problem."""


def _fmt(x: float) -> str:
    """Floats in CSV cells: 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def rate_from_config(cfg: dict) -> RateFunction:
    """Build a rate function from its config mapping.

    Kinds: ``pure_delay``, ``classical_ps``, ``half_interference``,
    ``scaled_ps`` (needs ``k``), ``custom_table`` (needs ``table`` plus
    ``floor``; optional ``single_server``).
    """
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"rate spec must be a mapping with a 'kind' key, got {cfg!r}")
    kind = cfg["kind"]
    try:
        if kind == "pure_delay":
            return pure_delay()
        if kind == "classical_ps":
            return classical_ps()
        if kind == "half_interference":
            return half_interference()
        if kind == "scaled_ps":
            return scaled_ps(config_number(cfg["k"], "scaled_ps 'k'"))
        if kind == "custom_table":
            table = cfg["table"]
            if not isinstance(table, dict):
                raise ConfigError(f"custom_table 'table' must be a mapping, got {table!r}")
            single_server = cfg.get("single_server", False)
            if not isinstance(single_server, bool):
                raise ConfigError(
                    f"custom_table 'single_server' must be true or false, got {single_server!r}"
                )
            return table_rate(
                {int(k): config_number(v, "custom_table rate") for k, v in table.items()},
                declared_floor=config_number(cfg["floor"], "custom_table 'floor'"),
                single_server=single_server,
            )
    except KeyError as exc:
        raise ConfigError(f"rate kind {kind!r} is missing parameter {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad rate spec: {exc}") from None
    raise ConfigError(f"unknown rate kind {kind!r}")


@dataclass
class ExperimentConfig:
    mode: str
    input_spec: dict
    rate_spec: dict
    base_seed: int = 0
    replications: int = 1
    horizon: int = 100
    max_lookback: int = 10_000
    stability_samples: int = 10_000
    lindley_window: int | None = None
    rho_grid: tuple[float, ...] = ()
    out_path: str = ""
    out_format: str = "csv"
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        errors: list[str] = []
        if not isinstance(data, dict):
            raise ConfigError("config must be a mapping")
        schema = data.get("schema_id")
        if schema != SCHEMA_ID:
            errors.append(f"schema_id must be {SCHEMA_ID!r}, got {schema!r}")
        mode = data.get("mode")
        if mode not in MODES:
            errors.append(f"mode must be one of {MODES}, got {mode!r}")
        if "input" not in data and mode != "invariant_suite":
            errors.append("missing 'input' (marked input model spec)")
        if "rate" not in data and mode not in ("invariant_suite", "gginf_stationary"):
            errors.append("missing 'rate' (rate function spec)")

        def _is_int(v: Any) -> bool:
            return isinstance(v, int) and not isinstance(v, bool)

        def _pos_int(name: str, default: int) -> int:
            v = data.get(name, default)
            if not _is_int(v) or v < 1:
                errors.append(f"{name} must be a positive integer, got {v!r}")
                return default
            return v

        replications = _pos_int("replications", 1)
        horizon = _pos_int("horizon", 100)
        max_lookback = _pos_int("max_lookback", 10_000)
        stability_samples = _pos_int("stability_samples", 10_000)
        lindley_window = data.get("lindley_window")
        if lindley_window is not None and (
            not _is_int(lindley_window) or lindley_window < 1
        ):
            errors.append(f"lindley_window must be a positive integer, got {lindley_window!r}")
        input_spec = data.get("input", {})
        if not isinstance(input_spec, dict):
            errors.append(f"'input' must be a mapping, got {input_spec!r}")
            input_spec = {}
        base_seed = data.get("base_seed", input_spec.get("seed", 0))
        if not _is_int(base_seed):
            errors.append(f"base_seed must be an integer, got {base_seed!r}")
            base_seed = 0
        out = data.get("output", {})
        if not isinstance(out, dict):
            errors.append(f"'output' must be a mapping, got {out!r}")
            out = {}
        out_path = out.get("path", "")
        if not isinstance(out_path, str):
            errors.append(f"output.path must be a string, got {out_path!r}")
            out_path = ""
        out_format = out.get("format", "csv")
        if out_format not in ("csv", "json"):
            errors.append(f"output.format must be 'csv' or 'json', got {out_format!r}")
        sweep = data.get("sweep", {})
        if not isinstance(sweep, dict):
            errors.append(f"'sweep' must be a mapping, got {sweep!r}")
            sweep = {}
        try:
            rho_grid = tuple(config_number(x, "sweep.rho") for x in sweep.get("rho", ()))
        except (TypeError, ValueError):
            errors.append(f"sweep.rho must be a list of numbers, got {sweep.get('rho')!r}")
            rho_grid = ()
        if any(x <= 0 for x in rho_grid):
            errors.append("sweep.rho values must be positive")
        if errors:
            raise ConfigError("; ".join(errors))
        return cls(
            mode=mode,
            input_spec=input_spec,
            rate_spec=data.get("rate", {}),
            base_seed=base_seed,
            replications=replications,
            horizon=horizon,
            max_lookback=max_lookback,
            stability_samples=stability_samples,
            lindley_window=lindley_window,
            rho_grid=rho_grid,
            out_path=out_path,
            out_format=out_format,
            raw=data,
        )

    def effective_dict(self) -> dict:
        """Canonical form of the fully resolved config (hashed into the
        manifest)."""
        return {
            "schema_id": SCHEMA_ID,
            "mode": self.mode,
            "input": self.input_spec,
            "rate": self.rate_spec,
            "base_seed": self.base_seed,
            "replications": self.replications,
            "horizon": self.horizon,
            "max_lookback": self.max_lookback,
            "stability_samples": self.stability_samples,
            "lindley_window": self.lindley_window,
            "sweep": {"rho": list(self.rho_grid)},
            "output": {"path": self.out_path, "format": self.out_format},
        }


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path!r}: {exc}") from None
    return ExperimentConfig.from_dict(data)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _resolve_out(path: str) -> str:
    base = os.environ.get("SIMCTL_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _atomic_write(path: str, payload: bytes) -> None:
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".{os.path.basename(path)}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        # a failed write or rename (say, ``path`` is a directory) leaves no
        # temp file behind
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _csv_bytes(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _json_bytes(obj: Any) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _write_manifest(out_path: str, cfg: ExperimentConfig, wall_s: float, extra: dict) -> None:
    payload = {
        "schema_id": SCHEMA_ID,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg.effective_dict(), sort_keys=True).encode()
        ).hexdigest(),
        "mode": cfg.mode,
        "base_seed": cfg.base_seed,
        "replications": cfg.replications,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "wall_time_s": wall_s,
        **extra,
    }
    _atomic_write(out_path + ".manifest.json", _json_bytes(payload))


def _map_ordered(fn: Callable, items: list, jobs: int) -> list:
    """Apply ``fn`` over ``items``; results always in submission order, so
    the artifact bytes never depend on the worker count."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    chunk = max(1, len(items) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


# ---------------------------------------------------------------------------
# per-mode workers (module-level for pickling)
# ---------------------------------------------------------------------------


def _rep_generator(cfg: ExperimentConfig, i: int) -> MarkedInputGenerator:
    seed = replication_seed(cfg.base_seed, i)
    return generator_from_config(cfg.input_spec, seed_override=seed)


def _rep_ranges(n: int, jobs: int) -> list[tuple[int, int]]:
    """Contiguous replication ranges of at most :data:`BATCH_ROWS`; at least
    ``4 * jobs`` of them when ``jobs > 1`` and there are enough
    replications, so the workers stay evenly loaded."""
    size = BATCH_ROWS if jobs <= 1 else max(1, min(BATCH_ROWS, n // (4 * jobs)))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _worker_ps(args: tuple) -> list[dict]:
    cfg, lo, hi = args
    gens = [_rep_generator(cfg, i) for i in range(lo, hi)]
    r = rate_from_config(cfg.rate_spec)
    reps = backward_coupling_ps_batch(
        gens, r, max_lookback=cfg.max_lookback, improvement_window=cfg.lindley_window
    )
    return [
        {
            "seed": gen.seed,
            "coupled": rep.coupled,
            "regeneration_index": rep.regeneration_index,
            "n_atoms": None if rep.stationary_profile is None else rep.stationary_profile.num_atoms,
            "workload": None if rep.stationary_profile is None else rep.stationary_profile.workload,
            "iterations": rep.iterations_used,
            "atoms": None if rep.stationary_profile is None else list(rep.stationary_profile.atoms),
            "exhausted": rep.horizon_exhausted,
        }
        for gen, rep in zip(gens, reps)
    ]


def _worker_gginf(args: tuple) -> dict:
    cfg, i = args
    gen = _rep_generator(cfg, i)
    prof = stationary_profile_gginf(gen, max_lookback=cfg.max_lookback)
    rec = loynes_L(gen, max_lookback=cfg.max_lookback)
    return {
        "seed": gen.seed,
        "atoms": list(prof.profile.atoms),
        "n_atoms": prof.profile.num_atoms,
        "workload": prof.profile.workload,
        "largest_atom": prof.profile.largest_atom,
        "profile_converged": prof.converged,
        "L": rec.value,
        "L_converged": rec.converged,
        "iterations": prof.iterations,
        "exhausted": not (prof.converged and rec.converged),
    }


def _worker_forward(args: tuple) -> dict:
    cfg, i = args
    gen = _rep_generator(cfg, i)
    r = rate_from_config(cfg.rate_spec)
    t = 0.0
    events = []
    for xi, sigma in zip(*gen.sample_block(0, cfg.horizon)):
        events.append((t, sigma))
        t += xi
    segments = trajectory_rows(ZERO, events, t, r)
    if cfg.out_format == "csv":
        return {"seed": gen.seed, "csv": _forward_csv_rows(i, gen.seed, segments),
                "exhausted": False}
    return {"seed": gen.seed, "segments": segments, "exhausted": False}


# one CSV row per trajectory segment (t_start, t_end, q, w_start, drain_rate);
# the same text as csv.writer over _fmt'd floats, since "%.17g" % x is
# format(x, ".17g") and csv.writer never quotes a number
_SEGMENT_ROW = "%.17g,%.17g,%d,%.17g,%.17g\n"


def _forward_csv_rows(i: int, seed: int, segments: Iterable[tuple]) -> bytes:
    """The ``forward_sim`` CSV rows of replication ``i``, encoded; rendered
    in the worker that simulated it, so the parent only concatenates."""
    row = "%d,%d," % (i, seed) + _SEGMENT_ROW  # the prefix holds no "%"
    return "".join([row % seg for seg in segments]).encode("utf-8")


def _worker_sweep_point(args: tuple) -> dict:
    cfg, rho = args
    base_gen = generator_from_config(cfg.input_spec, seed_override=0)
    r = rate_from_config(cfg.rate_spec)
    k_r = r.declared_floor
    mean_sigma = base_gen.mean_sigma()
    if mean_sigma <= 0.0:
        raise ConfigError("sweep needs an input with a positive mean service demand")
    factor = rho * k_r * base_gen.mean_xi() / mean_sigma
    gens = [
        scale_sigma(
            generator_from_config(
                cfg.input_spec, seed_override=replication_seed(cfg.base_seed, i)
            ),
            factor,
        )
        for i in range(cfg.replications)
    ]
    reps = backward_coupling_ps_batch(
        gens, r, max_lookback=cfg.max_lookback, improvement_window=cfg.lindley_window
    )
    profiles = [rep.stationary_profile for rep in reps if rep.coupled]
    coupled = len(profiles)
    n_list = [mu.num_atoms for mu in profiles]
    w_list = [mu.workload for mu in profiles]
    verdict_gen = scale_sigma(
        generator_from_config(cfg.input_spec, seed_override=cfg.base_seed), factor
    )
    verdict = check_stability(verdict_gen, r, n_samples=cfg.stability_samples).verdict
    n_arr = np.array(n_list, dtype=float)
    w_arr = np.array(w_list, dtype=float)

    def _mean_se(a: np.ndarray) -> tuple[float, float]:
        if a.size == 0:
            return math.nan, math.nan
        se = float(a.std(ddof=1) / math.sqrt(a.size)) if a.size > 1 else 0.0
        return float(a.mean()), se

    mean_n, se_n = _mean_se(n_arr)
    mean_w, se_w = _mean_se(w_arr)
    return {
        "rho": rho,
        "sigma_scale": factor,
        "verdict": verdict,
        "coupling_freq": coupled / cfg.replications,
        "n_coupled": coupled,
        "mean_n": mean_n,
        "se_n": se_n,
        "mean_w": mean_w,
        "se_w": se_w,
        "replications": cfg.replications,
        "exhausted": coupled < cfg.replications,
    }


# ---------------------------------------------------------------------------
# mode runners
# ---------------------------------------------------------------------------

_PS_HEADER = ("seed", "coupled", "regeneration_index", "n_atoms", "workload", "iterations")
_GGINF_HEADER = (
    "seed",
    "L",
    "L_converged",
    "n_atoms",
    "workload",
    "largest_atom",
    "profile_converged",
    "iterations",
)
_SWEEP_HEADER = (
    "rho",
    "sigma_scale",
    "verdict",
    "coupling_freq",
    "n_coupled",
    "mean_n",
    "se_n",
    "mean_w",
    "se_w",
    "replications",
)
_FORWARD_HEADER = ("replication", "seed") + TRAJECTORY_CSV_HEADER


def _opt(v: Any, fmt_float: bool = False) -> Any:
    if v is None:
        return ""
    if fmt_float or isinstance(v, float):
        return _fmt(v)
    return v


@dataclass
class RunResult:
    out_path: str
    exhausted: int
    rows: int


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> RunResult:
    """Execute one experiment; returns the output path and how many
    replications (or grid points) exhausted their horizon."""
    t0 = time.perf_counter()
    if cfg.mode != "invariant_suite":
        # surface bad model/rate specs before any workers launch
        try:
            generator_from_config(cfg.input_spec, seed_override=0)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad input spec: {exc}") from None
        if cfg.mode != "gginf_stationary":
            rate_from_config(cfg.rate_spec)
    items: list = [(cfg, i) for i in range(cfg.replications)]
    if cfg.mode == "ps_perfect_sample":
        ranges = [(cfg, lo, hi) for lo, hi in _rep_ranges(cfg.replications, jobs)]
        recs = [rec for part in _map_ordered(_worker_ps, ranges, jobs) for rec in part]
        rows = (
            (
                rec["seed"],
                rec["coupled"],
                _opt(rec["regeneration_index"]),
                _opt(rec["n_atoms"]),
                _opt(rec["workload"]),
                rec["iterations"],
            )
            for rec in recs
        )
        payload = _payload(cfg, _PS_HEADER, rows, {"replications": recs})
    elif cfg.mode == "gginf_stationary":
        recs = _map_ordered(_worker_gginf, items, jobs)
        rows = (
            (
                rec["seed"],
                _fmt(rec["L"]),
                rec["L_converged"],
                rec["n_atoms"],
                _fmt(rec["workload"]),
                _fmt(rec["largest_atom"]),
                rec["profile_converged"],
                rec["iterations"],
            )
            for rec in recs
        )
        conv = [rec for rec in recs if rec["L_converged"]]
        zeros = sum(1 for rec in conv if rec["L"] <= 1e-9)
        p_zero = zeros / len(conv) if conv else None
        payload = _payload(
            cfg,
            _GGINF_HEADER,
            rows,
            {"replications": recs, "p_L_zero": {"estimate": p_zero, "n_converged": len(conv)}},
        )
    elif cfg.mode == "forward_sim":
        recs = _map_ordered(_worker_forward, items, jobs)
        payload = _payload(cfg, _FORWARD_HEADER, (), {"replications": recs})
        if cfg.out_format == "csv":
            # the header, then the rows each worker rendered, in replication order
            payload = b"".join([payload] + [rec.pop("csv") for rec in recs])
    elif cfg.mode == "stability_sweep":
        if not cfg.rho_grid:
            raise ConfigError("stability_sweep needs sweep.rho (a list of load values) or --rho")
        pts = [(cfg, rho) for rho in cfg.rho_grid]
        recs = _map_ordered(_worker_sweep_point, pts, jobs)
        rows = (
            (
                _fmt(rec["rho"]),
                _fmt(rec["sigma_scale"]),
                rec["verdict"],
                _fmt(rec["coupling_freq"]),
                rec["n_coupled"],
                _fmt(rec["mean_n"]),
                _fmt(rec["se_n"]),
                _fmt(rec["mean_w"]),
                _fmt(rec["se_w"]),
                rec["replications"],
            )
            for rec in recs
        )
        payload = _payload(cfg, _SWEEP_HEADER, rows, {"grid": recs})
    elif cfg.mode == "invariant_suite":
        results = run_invariant_suites(seed=cfg.base_seed)
        payload = _payload(cfg, ("suite", "ok", "detail"), results, {"suites": [
            {"suite": n, "ok": ok, "detail": d} for n, ok, d in results
        ]})
        recs = [{"exhausted": False} for _ in results]
        if any(not r[1] for r in results):
            out = _finish(cfg, payload, t0, recs)
            raise SuiteFailure(out)
    else:  # pragma: no cover - from_dict already rejects unknown modes
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    return _finish(cfg, payload, t0, recs)


class SuiteFailure(Exception):
    def __init__(self, result: RunResult):
        self.result = result
        super().__init__("one or more invariant suites failed")


def _payload(cfg: ExperimentConfig, header, rows, json_obj: dict) -> bytes:
    """The result file's bytes.  ``rows`` is only iterated for CSV output, so
    the mode runners pass generators and JSON output formats no CSV cells."""
    if cfg.out_format == "csv":
        return _csv_bytes(header, rows)
    return _json_bytes({"schema_id": SCHEMA_ID, "mode": cfg.mode, **json_obj})


def _finish(cfg: ExperimentConfig, payload: bytes, t0: float, recs: list[dict]) -> RunResult:
    out = _resolve_out(cfg.out_path or f"simctl-{cfg.mode}.{cfg.out_format}")
    _atomic_write(out, payload)
    exhausted = sum(1 for rec in recs if rec.get("exhausted"))
    _write_manifest(out, cfg, time.perf_counter() - t0, {"horizon_exhausted": exhausted})
    return RunResult(out_path=out, exhausted=exhausted, rows=len(recs))


# ---------------------------------------------------------------------------
# invariant suites
# ---------------------------------------------------------------------------


def run_invariant_suites(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run every invariant check of :mod:`gpsq.checks` at the verify counts,
    print one PASS/FAIL line each and return (name, ok, detail).  A suite
    passes when its check tested at least one instance and found no
    failure.  ``seed`` seeds the random instances; the other checks read
    inputs at fixed seeds."""
    from . import checks  # imported on use: the experiment modes never need it

    suites = (
        ("measures", lambda rng: checks.measures(rng, 400)),
        ("oracle_equivalence", lambda rng: checks.oracle_equivalence(rng, 2000)),
        ("threshold_unimodality", lambda rng: checks.threshold_unimodality(rng, 2000)),
        ("profile_monotonicity", lambda rng: checks.profile_monotonicity(rng, 2000)),
        ("rate_monotonicity", lambda rng: checks.rate_monotonicity(rng, 2000)),
        ("gginf_fixed_point", lambda rng: checks.gginf_fixed_point(97, 100)),
        ("lindley_fixed_point", lambda rng: checks.record_and_workload_fixed_points(193, 100)),
        ("coupling_stationarity", lambda rng: checks.coupling_stationarity(571, 40)),
        ("workload_identity", lambda rng: checks.workload_identity(8641, 2000)),
        ("input_determinism", lambda rng: checks.input_determinism(rng, 20)),
    )
    out = []
    for idx, (name, check) in enumerate(suites):
        try:
            res = check(np.random.default_rng([seed, idx]))
            ok, detail = res.failures == 0 and res.checked > 0, res.detail
        except Exception as exc:  # a crashed suite is a failed suite
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(("PASS" if ok else "FAIL") + f" {name}: {detail}")
        out.append((name, ok, detail))
    return out


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _parse_rho(text: str) -> tuple[float, ...]:
    """Parse ``start:stop:step`` (inclusive) into a grid, or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--rho expects start:stop:step, got {text!r}")
        start, stop, step_ = (float(p) for p in parts)
        if step_ <= 0 or stop < start:
            raise ConfigError(f"--rho range is empty or descending: {text!r}")
        n = int(round((stop - start) / step_))
        return tuple(round(start + k * step_, 10) for k in range(n + 1))
    return tuple(float(p) for p in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="simctl", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None, help="override the base seed")
        sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker processes for replications (output bytes are unaffected)")
        sp.add_argument("--strict", action="store_true",
                        help="exit 4 if any replication exhausts its horizon")
        sp.add_argument("--out", default=None, help="override the output path")

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("config")
    common(run_p)

    sweep_p = sub.add_parser("sweep", help="run a load sweep from a config file")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--rho", default=None,
                         help="load grid start:stop:step (inclusive) or comma list")
    common(sweep_p)

    ver_p = sub.add_parser("verify", help="run the built-in invariant suites")
    ver_p.add_argument("--seed", type=int, default=0)
    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            results = run_invariant_suites(seed=args.seed)
            return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_SUITE_FAILED
        cfg = load_config(args.config)
        if args.command == "sweep":
            cfg.mode = "stability_sweep"
            if args.rho is not None:
                cfg.rho_grid = _parse_rho(args.rho)
            if not cfg.rho_grid:
                raise ConfigError("sweep needs sweep.rho in the config or --rho")
        if args.seed is not None:
            cfg.base_seed = args.seed
        if args.out is not None:
            cfg.out_path = args.out
        try:
            result = run_experiment(cfg, jobs=args.jobs)
        except SuiteFailure as sf:
            print(f"wrote {sf.result.out_path}", file=sys.stderr)
            return EXIT_SUITE_FAILED
        print(f"wrote {result.out_path} ({result.rows} records, "
              f"{result.exhausted} horizon-exhausted)", file=sys.stderr)
        if args.strict and result.exhausted:
            return EXIT_EXHAUSTED
        return EXIT_OK
    except (ConfigError, ValueError) as exc:
        # a ValueError is a config-induced runtime rejection (e.g. a rate
        # failing validation)
        print(f"simctl: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"simctl: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
