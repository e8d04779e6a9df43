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
import pickle
import re
import signal
import sys
import time
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain
from typing import Any, Callable, Iterable, Iterator, NoReturn, Sequence

import numpy as np
import yaml

from . import __version__
from .dynamics import trajectory
from .input_process import (
    MarkedInputGenerator,
    config_number,
    generator_from_config,
    replication_seed,
    scale_sigma,
    shared_reads,
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
    backward_coupling_ps,  # not called here; perfbench's tracer wraps simctl.backward_coupling_ps
    backward_coupling_ps_batch,
    check_stability,
    gginf_stationary,
    mean_se,
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


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def rate_from_config(cfg: dict) -> RateFunction:
    """Build a rate function from its config mapping.

    Kinds: ``pure_delay``, ``classical_ps``, ``half_interference``,
    ``scaled_ps`` (needs ``k``), ``custom_table`` (needs ``table`` plus
    ``floor``; optional ``single_server``).  A rate that fails
    :func:`~gpsq.rates.validate` cannot be built, so every mode that reads
    a rate refuses a bad one here, before any worker starts.
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
                {k: config_number(v, "custom_table rate") for k, v in table.items()},
                declared_floor=config_number(cfg["floor"], "custom_table 'floor'"),
                single_server=single_server,
            )
    except KeyError as exc:
        raise ConfigError(f"rate kind {kind!r} is missing parameter {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad rate spec: {exc}") from None
    raise ConfigError(f"unknown rate kind {kind!r}")


def _rho_grid(values: Any, what: str) -> tuple[float, ...]:
    """Load values from ``what`` (``sweep.rho`` or ``--rho``): a list of
    finite and positive numbers."""
    try:
        if not isinstance(values, list):  # a string would be read by character
            raise TypeError
        grid = tuple(config_number(x, what) for x in values)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a list of finite numbers, got {values!r}") from None
    if any(x <= 0 for x in grid):
        raise ConfigError(f"{what} values must be positive, got {values!r}")
    return grid


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

        def integer(name: str, value: Any, default: Any, least: int | None = None) -> Any:
            """``value`` if it is an integer (a bool is not) of at least
            ``least``; else ``default``, and an error is noted."""
            if isinstance(value, int) and not isinstance(value, bool) and (
                    least is None or value >= least):
                return value
            kind = "an integer" if least is None else "a positive integer"
            errors.append(f"{name} must be {kind}, got {value!r}")
            return default

        def mapping(key: str) -> dict:
            value = data.get(key, {})
            if isinstance(value, dict):
                return value
            errors.append(f"'{key}' must be a mapping, got {value!r}")
            return {}

        counts = {name: integer(name, data.get(name, getattr(cls, name)), getattr(cls, name), 1)
                  for name in ("replications", "horizon", "max_lookback", "stability_samples")}
        lindley_window = data.get("lindley_window")
        if lindley_window is not None:
            lindley_window = integer("lindley_window", lindley_window, None, 1)
        input_spec = mapping("input")
        input_seed = integer("input.seed", input_spec.get("seed", 0), 0)
        base_seed = integer("base_seed", data.get("base_seed", input_seed), 0)
        out = mapping("output")
        out_path = out.get("path", cls.out_path)
        if not isinstance(out_path, str):
            errors.append(f"output.path must be a string, got {out_path!r}")
            out_path = cls.out_path
        out_format = out.get("format", cls.out_format)
        if out_format not in ("csv", "json"):
            errors.append(f"output.format must be 'csv' or 'json', got {out_format!r}")
        try:
            rho_grid = _rho_grid(mapping("sweep").get("rho", []), "sweep.rho")
        except ConfigError as exc:
            errors.append(str(exc))
            rho_grid = ()
        if errors:
            raise ConfigError("; ".join(errors))
        return cls(
            mode=mode,
            input_spec=input_spec,
            rate_spec=data.get("rate", {}),
            base_seed=base_seed,
            **counts,
            lindley_window=lindley_window,
            rho_grid=rho_grid,
            out_path=out_path,
            out_format=out_format,
        )


class _ConfigLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that also reads the exponent numbers YAML 1.1
    leaves as strings (``1e-3``, ``1E3``, ``.5e2``: no point or no sign), as
    JSON and YAML 1.2 read them."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_ConfigLoader)
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


def _atomic_write(path: str, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to ``path`` in order, each as it arrives, through a
    temp file that is fsynced and renamed onto ``path`` at the end."""
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".{os.path.basename(path)}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        # a failed write, rename (say, ``path`` is a directory) or chunk
        # (say, a replication that raised) leaves no temp file behind
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _cells(rec: dict, header: Sequence[str]) -> list:
    """The CSV cells of ``rec``, in ``header`` order: ``None`` is an empty
    cell, a float is ``%.17g`` (round-trip exact), and anything else is
    written as ``csv.writer`` writes it."""
    return ["" if (v := rec[k]) is None else format(v, ".17g") if isinstance(v, float) else v
            for k in header]


def _csv_bytes(rows: Iterable[Sequence[Any]]) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


def _csv_chunks(header: Sequence[str], recs: Iterable[dict]) -> Iterator[bytes]:
    """A CSV result file in chunks: the header, then the rows a worker
    rendered into each record (``forward_sim``'s ``rec["csv"]``), each as
    its record comes back; any other record is one row of :func:`_cells`,
    and those rows come last, as one chunk."""
    yield _csv_bytes([header])
    rows = []
    for rec in recs:
        if "csv" in rec:
            yield rec["csv"]
        else:
            rows.append(_cells(rec, header))
    if rows:
        yield _csv_bytes(rows)


def _json_bytes(obj: Any) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _json_chunks(fields: dict, key: str, recs: Iterable[dict]) -> Iterator[bytes]:
    """:func:`_json_bytes` of ``{**fields, key: list(recs)}`` in chunks, with
    each record encoded as it comes back, so the list is never held.  The
    rest of the object is encoded with ``null`` in the list's place and cut
    there (a top-level key is the only one indented by two spaces); each
    record's text is indented two levels deeper, as the list's items are."""
    head, tail = json.dumps({**fields, key: None}, indent=2, sort_keys=True).split(
        f'\n  "{key}": null')
    yield f'{head}\n  "{key}": ['.encode("utf-8")
    sep, end = "\n    ", "]"  # an empty list is "[]"
    for rec in recs:
        text = json.dumps(rec, indent=2, sort_keys=True).replace("\n", "\n    ")
        yield (sep + text).encode("utf-8")
        sep, end = ",\n    ", "\n  ]"
    yield (end + tail + "\n").encode("utf-8")


def _config_sha256(cfg: ExperimentConfig) -> str:
    """The sha256 of ``cfg`` as JSON with each mapping's keys in order:
    numbers by value, then strings, then any other key as its ``repr``.
    So keys of mixed types (a table's ``1`` and ``"2"``) still sort, where
    ``sort_keys`` would compare them with ``<``; keys of one kind sort as
    ``sort_keys`` sorts them.  A value JSON cannot encode is its ``repr``."""
    def ordered(x: Any) -> Any:
        if isinstance(x, dict):
            ranked = [((0, k) if isinstance(k, (int, float)) else
                       (1, k) if isinstance(k, str) else (2, repr(k)), v) for k, v in x.items()]
            ranked.sort(key=lambda item: item[0])
            return {k: ordered(v) for (_, k), v in ranked}
        return [ordered(v) for v in x] if isinstance(x, (list, tuple)) else x

    return hashlib.sha256(json.dumps(ordered(vars(cfg)), default=repr).encode()).hexdigest()


def _write_manifest(out_path: str, cfg: ExperimentConfig, wall_s: float, extra: dict) -> None:
    payload = {
        "schema_id": SCHEMA_ID,
        "mode": cfg.mode,
        "base_seed": cfg.base_seed,
        "replications": cfg.replications,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "wall_time_s": wall_s,
        **extra,
    }
    _atomic_write(out_path + ".manifest.json", [_json_bytes(payload)])


def _partition(items: list, jobs: int) -> list[list]:
    """The chunks :func:`_map_ordered` hands out, in order: every item in
    one at ``jobs <= 1``, else ``len(items) // (4 * jobs)`` items each (at
    least one), so at least ``4 * jobs`` chunks when there are that many
    items, and the workers stay evenly loaded."""
    size = max(1, len(items) if jobs <= 1 else len(items) // (4 * jobs))
    return [items[lo : lo + size] for lo in range(0, len(items), size)]


def _map_ordered(fn: Callable[[list], Iterable], items: list, jobs: int) -> Iterator:
    """The records ``fn`` yields for the chunks of :func:`_partition`, lazily
    and always in item order, so the artifact bytes never depend on the
    worker count.

    ``jobs`` counts processes, this one included: ``P = min(jobs,
    len(chunks))`` of them, so ``P - 1`` forked children, and chunk ``k``
    runs in process ``k % P``, where process 0 is this one, which runs its
    chunks in-line as their turn comes.  A child inherits ``fn`` and sends
    each of its chunks back over its own pipe (:func:`_child`).  With one
    process, or no ``os.fork``, every item goes to one call.  An error, in
    a child or here, or an early close kills and reaps every child."""
    chunks = _partition(items, jobs)
    procs = min(jobs, len(chunks))
    if procs <= 1 or not hasattr(os, "fork"):
        yield from fn(items)
        return
    children: list[tuple[int, io.BufferedReader]] = []  # (pid, read end)
    try:
        for p in range(1, procs):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(fn, chunks[p::procs], read_end, write_end, children)
            os.close(write_end)
            children.append((pid, os.fdopen(read_end, "rb")))
        for k, chunk in enumerate(chunks):
            if k % procs:
                yield from _receive(*children[k % procs - 1])
            else:
                yield from fn(chunk)
    finally:
        for pid, pipe in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def _child(fn: Callable[[list], Iterable], chunks: list[list], read_end: int, write_end: int,
           siblings: list[tuple[int, io.BufferedReader]]) -> NoReturn:
    """A forked child's whole life: run ``fn`` over each of ``chunks`` and
    send each chunk's records, or the exception that stopped it, through
    ``write_end`` (:func:`_send`).  It leaves only through ``os._exit``, so
    it never unwinds into the parent's frames (an ``_atomic_write``
    cleanup, say) nor flushes buffers it inherited."""
    status = 1
    try:
        os.close(read_end)
        for _, pipe in siblings:
            pipe.close()
        with os.fdopen(write_end, "wb") as out:
            try:
                for chunk in chunks:
                    _send(out, True, list(fn(chunk)))
                status = 0
            except BaseException as exc:
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:  # it would not arrive as itself
                    exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                _send(out, False, exc)
                raise
    finally:
        os._exit(status)


def _send(out: io.BufferedWriter, ok: bool, value: Any) -> None:
    """One frame: an 8-byte little-endian length, then the pickle of
    ``(True, records)`` or ``(False, exception)``."""
    frame = pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL)
    out.write(len(frame).to_bytes(8, "little"))
    out.write(frame)
    out.flush()


def _receive(pid: int, pipe: io.BufferedReader) -> list:
    """The records of child ``pid``'s next chunk.  Raises the exception it
    sent instead, or a ``RuntimeError`` when it ended without a whole
    frame."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    frame = pipe.read(size)
    if len(head) < 8 or len(frame) < size:
        raise RuntimeError(f"worker process {pid} ended before sending its chunk")
    ok, value = pickle.loads(frame)
    if not ok:
        raise value
    return value


# ---------------------------------------------------------------------------
# per-mode workers (module-level for pickling)
# ---------------------------------------------------------------------------


# Each worker takes the config, its input interpreted once (``base``, whose
# seed it replaces), the rate (``None`` for gginf_stationary) and a list of
# items, and yields one record per item, in order.


def _rep_generator(cfg: ExperimentConfig, base: MarkedInputGenerator,
                   i: int) -> MarkedInputGenerator:
    return base.with_seed(replication_seed(cfg.base_seed, i))


def _worker_ps(cfg: ExperimentConfig, base: MarkedInputGenerator, r: RateFunction,
               reps: list[int]) -> Iterator[dict]:
    gens = [_rep_generator(cfg, base, i) for i in reps]
    reports = backward_coupling_ps_batch(
        gens, r, max_lookback=cfg.max_lookback, improvement_window=cfg.lindley_window
    )
    for gen, rep in zip(gens, reports):
        mu = rep.stationary_profile
        yield {
            "seed": gen.seed,
            "coupled": rep.coupled,
            "regeneration_index": rep.regeneration_index,
            "n_atoms": None if mu is None else mu.num_atoms,
            "workload": None if mu is None else mu.workload,
            "iterations": rep.iterations_used,
            "atoms": None if mu is None else list(mu.atoms),
            "exhausted": not rep.coupled,
        }


def _worker_gginf(cfg: ExperimentConfig, base: MarkedInputGenerator, r: None,
                  reps: list[int]) -> Iterator[dict]:
    for i in reps:
        gen = _rep_generator(cfg, base, i)
        prof, rec = gginf_stationary(gen, max_lookback=cfg.max_lookback)
        yield {
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


def _worker_forward(cfg: ExperimentConfig, base: MarkedInputGenerator, r: RateFunction,
                    reps: list[int]) -> Iterator[dict]:
    # one call per replication, so its segments are freed when its record is
    return (_forward_replication(cfg, _rep_generator(cfg, base, i), r, i) for i in reps)


def _forward_replication(cfg: ExperimentConfig, gen: MarkedInputGenerator, r: RateFunction,
                         i: int) -> dict:
    xis, sigmas = gen.sample_block(0, cfg.horizon)
    # arrival times summed left to right from 0.0; the last one is the horizon
    times = list(accumulate(xis, initial=0.0))
    segments = trajectory(ZERO, list(zip(times, sigmas)), times[-1], r)
    if cfg.out_format == "csv":
        return {"seed": gen.seed, "csv": _forward_csv_rows(i, gen.seed, segments),
                "exhausted": False}
    return {"seed": gen.seed, "segments": segments, "exhausted": False}


# ---------------------------------------------------------------------------
# forward_sim CSV rows: "%.17g" by columns
# ---------------------------------------------------------------------------

_POW10 = np.array([float(10**k) for k in range(23)])  # exact: 5**22 < 2**53
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
# word k < 10**4 holds the four ASCII bytes of "%04d" % k; word 10**4 holds
# ".\0\0\0" (byte order is kept, since the words are only ever copied)
_WORDS = np.frombuffer(b"".join(b"%04d" % k for k in range(10_000)) + b".\0\0\0", np.uint32)
_G17_WIDTH = 24  # the longest "%.17g" text: "-4.9406564584124654e-324"


def _g17_layouts() -> np.ndarray:
    """Row ``17 * (e + 4) + tz``: the source byte of each of the 24 output
    bytes of a fast-path value with decimal exponent ``e`` (-4..16) whose
    17 digits end in ``tz`` zeros.  The source row is "000", the digits,
    "." and three NULs (bytes 0-2, 3-19, 20, 21-23), as :func:`_g17` builds
    it."""
    zero, dot, nul = 0, 20, 21
    digit = [3 + j for j in range(17)]
    layouts = np.full((21, 17, _G17_WIDTH), nul, dtype=np.intp)
    for e in range(-4, 17):
        if e >= 0:  # 17 digits, with the point after the first e + 1
            full = digit[: e + 1] + ([dot] + digit[e + 1 :] if e < 16 else [])
        else:  # "0.", -e - 1 zeros, 17 digits
            full = [zero, dot] + [zero] * (-e - 1) + digit
        frac = 16 - e  # digits after the point
        for tz in range(17):
            cut = min(tz, frac)  # %g drops trailing zeros, and then a bare point
            n = len(full) - cut - (cut == frac > 0)
            layouts[e + 4, tz, :n] = full[:n]
    return layouts.reshape(21 * 17, _G17_WIDTH)


_G17_LAYOUTS = _g17_layouts()


def _g17(v: np.ndarray) -> np.ndarray:
    """``b"%.17g" % x`` for each ``x`` of the float64 array ``v``, as a
    NUL-padded ``S24`` array.

    For ``1e-4 <= x < 1e16`` the text is fixed-point and is built from
    ``D``, the 17-digit integer nearest ``x * 10**(16 - e)``, where
    ``e = floor(log10 x)``: Dekker's product gives ``x * 10**k`` exactly as
    ``hi + lo`` (``10**k`` is exact for ``k <= 22``), which fixes ``e``
    exactly, and ``D = hi + rint(lo)`` rounds half to even, as ``%`` does,
    because ``hi >= 2**53`` is an even integer.  Every other value (zeros,
    negatives, subnormals, exponent form, nan, inf) goes through ``%``."""
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(v.size, dtype=f"S{_G17_WIDTH}")
    fast = (v >= 1e-4) & (v < 1e16)
    for k in np.flatnonzero(~fast).tolist():
        out[k] = b"%.17g" % v[k]
    x = v[fast]
    if not x.size:
        return out
    e = np.floor(np.log10(x)).astype(np.intp)  # within one of the exponent
    while True:
        p = _POW10[16 - e]
        hi = x * p
        c = _VELTKAMP * x
        x1 = c - (c - x)
        x2 = x - x1
        c = _VELTKAMP * p
        p1 = c - (c - p)
        p2 = p - p1
        lo = ((x1 * p1 - hi) + x1 * p2 + x2 * p1) + x2 * p2
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
        if not (low.any() or high.any()):
            break
        e += high
        e -= low
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = d == 10**17  # 99999999999999999.5 and up round to 10**17
    d[carry] = 10**16
    e += carry
    # the source row: "000" + first digit, four groups of four digits, "."
    w = np.empty((x.size, 6), dtype=np.intp)
    w[:, 0], rest = np.divmod(d, 10**16)
    hi8, lo8 = np.divmod(rest, 10**8)
    w[:, 1], w[:, 2] = np.divmod(hi8, 10**4)
    w[:, 3], w[:, 4] = np.divmod(lo8, 10**4)
    w[:, 5] = 10_000
    src = _WORDS[w].view(np.uint8)
    tz = (src[:, 19:2:-1] != ord("0")).argmax(axis=1)
    at = _G17_LAYOUTS.take(17 * (e + 4) + tz, axis=0)
    at += np.arange(0, x.size * _G17_WIDTH, _G17_WIDTH)[:, None]
    out[fast] = src.ravel()[at].view(out.dtype).ravel()
    return out


def _join_columns(n: int, columns: Sequence) -> bytes:
    """Rows of ``n`` lines, each the concatenation of ``columns`` in order:
    ``bytes`` (the same in every row) or NUL-padded ``S`` arrays of ``n``
    texts.  The padding is dropped; the texts hold no NUL."""
    cells = [np.frombuffer(c, np.uint8)[None, :] if isinstance(c, bytes)
             else c.view(np.uint8).reshape(n, -1) for c in columns]
    grid = np.empty((n, sum(c.shape[1] for c in cells)), dtype=np.uint8)
    pos = 0
    for c in cells:
        grid[:, pos:pos + c.shape[1]] = c
        pos += c.shape[1]
    return grid[grid != 0].tobytes()


# segments rendered at a time: rendering whole replications of 4000
# arrivals at once raised a run's peak memory by 6% (47.7 MB, not 45.0 MB)
# and saved no time
_ROW_BLOCK = 2048


def _forward_csv_rows(i: int, seed: int, segments: Sequence[tuple]) -> bytes:
    """The ``forward_sim`` CSV rows of replication ``i``, encoded: one line
    ``i,seed,t_start,t_end,q,w_start,drain_rate`` per ``trajectory``
    segment, the floats as ``"%.17g"``.  Rendered in the worker that
    simulated it, so the parent only concatenates; the bytes are those of
    ``"%d,%d,%.17g,%.17g,%d,%.17g,%.17g\n"`` per segment.

    It renders from :func:`~gpsq.dynamics.trajectory`'s contract.  Each row
    starts where the row before it ended, bit for bit, so one text per end
    time (and one for the first start) is a row's ``t_end`` and the next
    row's ``t_start``.  ``drain_rate`` is ``q * r(q)``, one value per
    occupancy, so each ``q`` and its drain are formatted once per
    replication."""
    n = len(segments)
    t_start, t_end, q, w_start, drain = np.fromiter(
        chain.from_iterable(segments), np.float64, 5 * n).reshape(n, 5).T
    occupancy, first, which = np.unique(q, return_index=True, return_inverse=True)
    q_text = np.array([b"%d," % k for k in occupancy.astype(np.int64).tolist()])
    drain_text = np.array([b"%.17g\n" % d for d in drain[first].tolist()])
    times = np.concatenate((t_start[:1], t_end))
    prefix = b"%d,%d," % (i, seed)
    blocks = []
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        time_text, pair = _g17(times[lo:hi + 1]), which[lo:hi]
        blocks.append(_join_columns(hi - lo, (
            prefix, time_text[:-1], b",", time_text[1:], b",", q_text[pair],
            _g17(w_start[lo:hi]), b",", drain_text[pair])))
    return b"".join(blocks)


def _worker_sweep_point(cfg: ExperimentConfig, base: MarkedInputGenerator, r: RateFunction,
                        rhos: list[float]) -> Iterator[dict]:
    # the verdicts of every point first: their reads of base_seed differ only
    # in the scaled sigma laws, so all but the first are the shared read
    points = []
    with shared_reads():
        for rho in rhos:
            factor = rho * r.declared_floor * base.mean_xi() / base.mean_sigma()
            scaled = scale_sigma(base, factor)
            verdict = check_stability(
                scaled.with_seed(cfg.base_seed), r, n_samples=cfg.stability_samples
            ).verdict
            points.append((rho, factor, scaled, verdict))
    for rho, factor, scaled, verdict in points:
        gens = [_rep_generator(cfg, scaled, i) for i in range(cfg.replications)]
        reports = backward_coupling_ps_batch(
            gens, r, max_lookback=cfg.max_lookback, improvement_window=cfg.lindley_window
        )
        profiles = [rep.stationary_profile for rep in reports if rep.coupled]
        coupled = len(profiles)
        mean_n, se_n = mean_se(np.array([mu.num_atoms for mu in profiles], dtype=float))
        mean_w, se_w = mean_se(np.array([mu.workload for mu in profiles], dtype=float))
        yield {
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
_FORWARD_HEADER = ("replication", "seed", "t_start", "t_end", "q", "w_start", "drain_rate")


_SUITE_HEADER = ("suite", "ok", "detail")


@dataclass
class RunResult:
    out_path: str
    exhausted: int
    rows: int
    failed_suites: int = 0


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> RunResult:
    """Execute one experiment; returns the output path, how many
    replications (or grid points) exhausted their horizon and, in
    ``invariant_suite`` mode, how many suites failed."""
    t0 = time.perf_counter()
    if cfg.mode == "invariant_suite":
        return _finish(cfg, t0, _SUITE_HEADER, "suites", run_invariant_suites(seed=cfg.base_seed))
    # looked up per call, so a worker patched on this module is the one run
    data_modes = {
        "ps_perfect_sample": (_worker_ps, _PS_HEADER, "replications"),
        "gginf_stationary": (_worker_gginf, _GGINF_HEADER, "replications"),
        "forward_sim": (_worker_forward, _FORWARD_HEADER, "replications"),
        "stability_sweep": (_worker_sweep_point, _SWEEP_HEADER, "grid"),
    }
    if cfg.mode not in data_modes:
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    worker, header, key = data_modes[cfg.mode]
    # the specs are interpreted once, here, which also rejects bad ones
    # before any worker starts; the workers get the objects
    try:
        base = generator_from_config(cfg.input_spec, seed_override=cfg.base_seed)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad input spec: {exc}") from None
    r = None if cfg.mode == "gginf_stationary" else rate_from_config(cfg.rate_spec)
    items, fields = list(range(cfg.replications)), None
    if cfg.mode == "stability_sweep":
        if not cfg.rho_grid:
            raise ConfigError("stability_sweep needs sweep.rho (a list of load values) or --rho")
        # the sweep scales sigma by rho * K_r * E[xi] / E[sigma]
        if not r.declared_floor > 0.0:
            raise ConfigError(f"sweep needs a positive rate floor, got floor {r.declared_floor!r}")
        if not base.mean_sigma() > 0.0:
            raise ConfigError("sweep needs an input with a positive mean service demand")
        items = list(cfg.rho_grid)
    recs = _map_ordered(partial(worker, cfg, base, r), items, jobs)
    if cfg.mode == "gginf_stationary" and cfg.out_format == "json":  # CSV has no p_L_zero
        recs = list(recs)
        conv = [rec for rec in recs if rec["L_converged"]]
        zeros = sum(1 for rec in conv if rec["L"] <= 1e-9)
        p_zero = zeros / len(conv) if conv else None
        fields = {"p_L_zero": {"estimate": p_zero, "n_converged": len(conv)}}
    return _finish(cfg, t0, header, key, recs, fields)


def _finish(cfg: ExperimentConfig, t0: float, header: Sequence[str], key: str,
            recs: Iterable[dict], fields: dict | None = None) -> RunResult:
    """Write the result file, then its manifest.  The file holds ``recs``:
    as CSV under ``header`` (:func:`_csv_chunks`), or as the JSON object
    ``{"schema_id", "mode", **fields, key: recs}`` (:func:`_json_chunks`).
    Each record is written as it comes back, so a lazy ``recs`` is held one
    record at a time, and counted as it streams past: every record, those
    that exhausted their horizon, and the suite records that failed."""
    out = _resolve_out(cfg.out_path or f"simctl-{cfg.mode}.{cfg.out_format}")
    config_sha256 = _config_sha256(cfg)  # before the result file, which then has a manifest
    rows = exhausted = failed = 0

    def counted() -> Iterator[dict]:
        nonlocal rows, exhausted, failed
        for rec in recs:
            rows += 1
            exhausted += bool(rec.get("exhausted"))
            failed += not rec.get("ok", True)
            yield rec

    if cfg.out_format == "csv":
        chunks = _csv_chunks(header, counted())
    else:
        fields = {"schema_id": SCHEMA_ID, "mode": cfg.mode, **(fields or {})}
        chunks = _json_chunks(fields, key, counted())
    _atomic_write(out, chunks)
    _write_manifest(out, cfg, time.perf_counter() - t0,
                    {"config_sha256": config_sha256, "horizon_exhausted": exhausted})
    return RunResult(out_path=out, exhausted=exhausted, rows=rows, failed_suites=failed)


# ---------------------------------------------------------------------------
# invariant suites
# ---------------------------------------------------------------------------


def run_invariant_suites(seed: int = 0) -> list[dict]:
    """Run every invariant check of :mod:`gpsq.checks` at the verify counts,
    print one PASS/FAIL line each and return one ``{suite, ok, detail}``
    record each.  A suite
    passes when its check tested at least one instance and found no
    failure.  ``seed``, taken modulo ``2**64`` as replication seeds are,
    seeds the random instances; the other checks read inputs at fixed
    seeds."""
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
            res = check(np.random.default_rng([seed & ((1 << 64) - 1), idx]))
            ok, detail = res.failures == 0 and res.checked > 0, res.detail
        except Exception as exc:  # a crashed suite is a failed suite
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(("PASS" if ok else "FAIL") + f" {name}: {detail}")
        out.append({"suite": name, "ok": ok, "detail": detail})
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
        start, stop, step_ = _rho_grid(_cli_numbers(parts), "--rho")
        if stop < start:
            raise ConfigError(f"--rho range is empty or descending: {text!r}")
        # the last point at or below stop; the slack keeps a stop that
        # is a whole number of steps away (0.1:1.5:0.1) on the grid
        n = math.floor((stop - start) / step_ + 1e-9)
        return tuple(round(start + k * step_, 10) for k in range(n + 1))
    return _rho_grid(_cli_numbers(text.split(",")), "--rho")


def _cli_numbers(parts: list[str]) -> list[float]:
    """The numbers written in ``parts``, the pieces of ``--rho``."""
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"--rho must be a list of finite numbers, got {parts!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="simctl", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None, help="override the base seed")
        sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="processes, this one included (output bytes are unaffected)")
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
            return EXIT_OK if all(rec["ok"] for rec in results) else EXIT_SUITE_FAILED
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        cfg = load_config(args.config)
        if args.command == "sweep":
            cfg.mode = "stability_sweep"
            if args.rho is not None:
                cfg.rho_grid = _parse_rho(args.rho)
        if args.seed is not None:
            cfg.base_seed = args.seed
        if args.out is not None:
            cfg.out_path = args.out
        result = run_experiment(cfg, jobs=args.jobs)
        if result.failed_suites:
            print(f"wrote {result.out_path}", file=sys.stderr)
            return EXIT_SUITE_FAILED
        print(f"wrote {result.out_path} ({result.rows} records, "
              f"{result.exhausted} horizon-exhausted)", file=sys.stderr)
        if args.strict and result.exhausted:
            return EXIT_EXHAUSTED
        return EXIT_OK
    except (ConfigError, ValueError, OverflowError, MemoryError) as exc:
        # a ValueError is a config-induced runtime rejection (e.g. a
        # perfect sample asked of a rate with floor 0), an OverflowError a
        # count too large for a machine integer (replications: 2**70), and
        # a MemoryError one too large for memory (horizon: 2**40)
        print(f"simctl: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"simctl: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
