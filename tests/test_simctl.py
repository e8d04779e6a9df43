"""Integration tests for the simctl front end."""

import contextlib
import copy
import csv
import dataclasses
import datetime
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import resource
import signal
import subprocess
import sys
import tempfile
import time
from array import array
from decimal import Decimal
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gpsq import checks, input_process, simctl, stationary
from gpsq.dynamics import Segments, trajectory
from gpsq.measures import ZERO
from gpsq.rates import validate
from gpsq.simctl import (
    _FORWARD_HEADER,
    EXIT_CONFIG,
    EXIT_EXHAUSTED,
    EXIT_IO,
    EXIT_OK,
    EXIT_SUITE_FAILED,
    ConfigError,
    ExperimentConfig,
    _cells,
    _csv_bytes,
    _forward_csv_rows,
    _g17,
    _parse_rho,
    _partition,
    _worker_forward,
    load_config,
    main,
    rate_from_config,
    run_experiment,
)
from gpsq.stationary import BATCH_ROWS
from test_golden import CONFIGS as GOLDEN_CONFIGS
from test_golden import GOLDEN, SCHEMA_ID
from test_golden import MM_INPUT as MODULATED_INPUT

MM_INPUT = {"model": "iid", "xi": {"dist": "exp", "mean": 3},
            "sigma": {"dist": "exp", "mean": 1}}
ONE_STATE_MM = {"model": "markov_modulated", "transition": [[1.0]],
                "states": [{"xi": {"dist": "exp", "mean": 3}, "sigma": {"dist": "exp", "mean": 1}}]}


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(path, **overrides):
    data = {
        "schema_id": "gpsq-experiment-v1",
        "mode": "ps_perfect_sample",
        "base_seed": 7,
        "replications": 5,
        "max_lookback": 5000,
        "input": MM_INPUT,
        "rate": {"kind": "half_interference"},
        "output": {"path": "out.csv", "format": "csv"},
    }
    data.update(overrides)
    path.write_text(yaml.safe_dump(data))
    return path


def forward_reference(cfg):
    """(seed, trajectory segments) of each forward_sim replication,
    built from the replication's own input block."""
    r = rate_from_config(cfg.rate_spec)
    reps = []
    for i in range(cfg.replications):
        seed = input_process.replication_seed(cfg.base_seed, i)
        gen = input_process.generator_from_config(cfg.input_spec, seed_override=seed)
        xi, sigma = gen.sample_block(0, cfg.horizon)
        reps.append((seed, list(trajectory(ZERO, xi, sigma, r))))
    return reps


def as_segments(rows):
    """The :class:`Segments` columns of ``rows``, which join and keep one
    drain per ``q``: the drain table holds each row's drain at its ``q``
    and 0.0 at the counts no row has."""
    drain = [0.0] * (max(row[2] for row in rows) + 1)
    for _, _, q, _, d in rows:
        drain[q] = d
    return Segments(array("d", [rows[0][0]] + [row[1] for row in rows]),
                    array("q", [row[2] for row in rows]),
                    array("d", [row[3] for row in rows]), drain)


def forward_failing_at_2(cfg, base, r, reps):
    """``_worker_forward`` that marks each replication it starts, in the
    output's directory, and raises on replication 2."""
    for i in reps:
        (Path(cfg.out_path).parent / f"started-{i}").touch()
        if i == 2:
            raise RuntimeError("replication 2 failed")
        time.sleep(0.1)
        yield from _worker_forward(cfg, base, r, [i])


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def g17(x):
    """A float CSV cell: 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def forward_csv_via_writer(rows):
    """forward_sim CSV bytes through csv.writer over g17'd floats, from
    (replication, seed, segment) triples."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_FORWARD_HEADER)
    for i, seed, (t0, t1, q, ws, dr) in rows:
        w.writerow((i, seed, g17(t0), g17(t1), q, g17(ws), g17(dr)))
    return buf.getvalue().encode("utf-8")


class TestConfigParsing:
    def test_bad_mode_and_missing_fields(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("mode: nope\n")
        with pytest.raises(ConfigError) as exc:
            load_config(str(p))
        msg = str(exc.value)
        assert "schema_id" in msg and "mode" in msg and "input" in msg

    def test_bad_counts(self):
        with pytest.raises(ConfigError, match="replications"):
            ExperimentConfig.from_dict({
                "schema_id": "gpsq-experiment-v1", "mode": "forward_sim",
                "input": MM_INPUT, "rate": {"kind": "classical_ps"},
                "replications": 0,
            })

    def test_bad_output_format(self):
        with pytest.raises(ConfigError, match="output.format"):
            ExperimentConfig.from_dict({
                "schema_id": "gpsq-experiment-v1", "mode": "forward_sim",
                "input": MM_INPUT, "rate": {"kind": "classical_ps"},
                "output": {"path": "x", "format": "xml"},
            })

    def test_every_field_wrong_lists_every_message_in_order(self):
        modes = ("('forward_sim', 'gginf_stationary', 'ps_perfect_sample', 'stability_sweep', "
                 "'invariant_suite')")
        head = ("schema_id must be 'gpsq-experiment-v1', got 'v0'; "
                f"mode must be one of {modes}, got 'nope'; "
                "missing 'rate' (rate function spec); "
                "replications must be a positive integer, got 0; "
                "horizon must be a positive integer, got -1; "
                "max_lookback must be a positive integer, got 0.5; "
                "stability_samples must be a positive integer, got True; "
                "lindley_window must be a positive integer, got 'x'; ")
        data = {"schema_id": "v0", "mode": "nope", "replications": 0, "horizon": -1,
                "max_lookback": 0.5, "stability_samples": True, "lindley_window": "x",
                "input": {"seed": "7"}, "base_seed": None,
                "output": {"path": 5, "format": "xml"}, "sweep": {"rho": ["a"]}}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(data)
        assert str(exc.value) == head + (
            "input.seed must be an integer, got '7'; "
            "base_seed must be an integer, got None; "
            "output.path must be a string, got 5; "
            "output.format must be 'csv' or 'json', got 'xml'; "
            "sweep.rho must be a list of finite numbers, got ['a']")
        # the three sections that are not mappings: nothing inside them is read
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(dict(data, input=[1], output="o", sweep=3))
        assert str(exc.value) == head + (
            "'input' must be a mapping, got [1]; "
            "base_seed must be an integer, got None; "
            "'output' must be a mapping, got 'o'; "
            "'sweep' must be a mapping, got 3")

    def test_rate_specs(self):
        assert rate_from_config({"kind": "classical_ps"}).kind == "classical_ps"
        assert rate_from_config({"kind": "scaled_ps", "k": 0.5}).declared_floor == 0.5
        r = rate_from_config({"kind": "custom_table", "floor": 0.8,
                              "table": {1: 1.0, 2: 0.495, 3: 0.3, 100: 0.008}})
        assert r(50) == 0.3
        # JSON object keys are strings
        r = rate_from_config({"kind": "custom_table", "floor": 0.5,
                              "table": {"1": 1.0, "2": 0.5}})
        assert r.table == ((1, 1.0), (2, 0.5))
        with pytest.raises(ConfigError):
            rate_from_config({"kind": "scaled_ps"})
        with pytest.raises(ConfigError):
            rate_from_config({"kind": "warp"})

    @pytest.mark.parametrize("table", [
        {1: 1.0, 1.5: 0.75, 2: 0.5},  # int() made this a valid {1: 0.75, 2: 0.5}
        {True: 1.0, 2: 0.5},
        {"1": 1.0, "01": 0.5},
    ], ids=["fraction", "bool", "collision"])
    def test_custom_table_bad_keys_exit_config(self, tmp_path, monkeypatch, table):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.yaml",
                           rate={"kind": "custom_table", "floor": 0.5, "table": table})
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == [cfg]

    def test_chain_that_cannot_coalesce_exits_config(self, tmp_path, monkeypatch):
        # irreducible and aperiodic, but coupling from the past never ends:
        # refused when the input is built, before any replication runs
        monkeypatch.chdir(tmp_path)
        det = {"dist": "deterministic", "value": 1.0}
        cfg = write_config(tmp_path / "c.yaml", mode="forward_sim", input={
            "model": "markov_modulated",
            "transition": [[0, 0.5, 0.5], [0.5, 0.5, 0], [0, 0.5, 0.5]],
            "states": [{"xi": det, "sigma": det}] * 3})
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_chain_that_coalesces_too_rarely_exits_config(self, tmp_path, monkeypatch, capsys,
                                                          jobs):
        # each state keeps its own state only on an interval of width 1e-9,
        # so the chain passes construction, but coupling from the past
        # outruns the lookback cap (lowered here; forked workers inherit it)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(input_process, "_MM_MAX_LOOKBACK", 64)
        det = {"dist": "deterministic", "value": 1.0}
        cfg = write_config(tmp_path / "c.yaml", mode="forward_sim", replications=2, input={
            "model": "markov_modulated",
            "transition": [[1e-9, 1 - 1e-9], [1 - 1e-9, 1e-9]],
            "states": [{"xi": det, "sigma": det}] * 2})
        assert main(["run", str(cfg), "--jobs", jobs]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "simctl: config error: modulating chain did not coalesce" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_sweep_with_floor_zero_exits_config(self, tmp_path, monkeypatch, capsys):
        # the sweep scales sigma by rho * K_r * E[xi] / E[sigma]: refused
        # for its floor before any load point runs
        monkeypatch.chdir(tmp_path)
        points = []
        monkeypatch.setattr(simctl, "_worker_sweep_point", lambda *args: points.append(args))
        cfg = write_config(tmp_path / "c.yaml", mode="stability_sweep", sweep={"rho": [0.5]},
                           rate={"kind": "custom_table", "floor": 0.0, "table": {1: 1.0}})
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_CONFIG
        assert "positive rate floor, got floor 0.0" in capsys.readouterr().err
        assert points == []
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("config, command, message", [
        ({"rate": 5}, [], "rate spec must be a mapping with a 'kind' key"),
        ("- 1\n- 2\n", [], "config must be a mapping"),
        ("mode: [ps_perfect_sample\n", [], "cannot parse config"),
        ({"input": [1, 2]}, [], "'input' must be a mapping"),
        ({"mode": "stability_sweep", "sweep": {"rho": [0.5]},
          "input": dict(MM_INPUT, sigma={"dist": "det", "value": 0})},
         [], "sweep needs an input with a positive mean service demand"),
        ({"mode": "stability_sweep"}, ["sweep", "--rho", "0.1:0.5"],
         "--rho expects start:stop:step"),
        # strings are not lists: "12" was the loads 1.0 and 2.0, and "1" the
        # one-state chain [[1.0]]
        ({"mode": "stability_sweep", "sweep": {"rho": "12"}}, [],
         "sweep.rho must be a list of finite numbers, got '12'"),
        ({"input": dict(ONE_STATE_MM, transition="1")}, [],
         "transition must be a list of rows, each a list, got '1'"),
        ({"input": dict(ONE_STATE_MM, transition=["1"])}, [],
         "transition must be a list of rows, each a list, got ['1']"),
        # a number written as a string is refused wherever a number is read,
        # as the integer fields refuse it
        ({"input": dict(MM_INPUT, xi={"dist": "exp", "mean": "12"})}, [],
         "distribution 'exp' parameter 'mean' must be a number, got '12'"),
        ({"rate": {"kind": "custom_table", "floor": 0.5, "table": {1: "1.0"}}}, [],
         "custom_table rate must be a number, got '1.0'"),
        ({"replications": "12"}, [], "replications must be a positive integer, got '12'"),
    ], ids=["rate-not-mapping", "yaml-list", "yaml-unparsable", "input-not-mapping",
            "sweep-zero-demand", "rho-two-fields", "rho-string", "transition-string",
            "transition-row-string", "mean-string", "table-value-string", "count-string"])
    def test_config_error_names_its_cause(self, tmp_path, monkeypatch, capsys, config, command,
                                          message):
        monkeypatch.chdir(tmp_path)
        if isinstance(config, dict):
            cfg = write_config(tmp_path / "c.yaml", **config)
        else:
            cfg = tmp_path / "c.yaml"
            cfg.write_text(config)
        command = command or ["run"]
        assert main([command[0], str(cfg), *command[1:], "--jobs", "1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg]

    # YAML 1.1 reads an exponent number without a point or without a sign
    # (1e-3, 1E3, .5e2) as a string; the config loader reads it as JSON does
    @pytest.mark.parametrize("name", ["gginf", "forward_sim"])
    def test_floats_in_exponent_form_write_the_same_bytes(self, tmp_path, monkeypatch, name):
        def exponent(match):
            _, digits, power = Decimal(match[2]).normalize().as_tuple()
            return f"{match[1]}{''.join(map(str, digits))}e{power}"

        text = (CONFIGS / f"{name}.yaml").read_text()
        rewritten = re.sub(r"\b((?:mean|xi|sigma): )([0-9.]+)\b", exponent, text)
        assert rewritten != text and "e0" in rewritten
        outputs = []
        for i, body in enumerate((text, rewritten)):
            (tmp_path / str(i)).mkdir()
            monkeypatch.chdir(tmp_path / str(i))
            Path("c.yaml").write_text(body)
            assert main(["run", "c.yaml", "--jobs", "1"]) == EXIT_OK
            outputs.append(results({p.name: p.read_bytes() for p in Path().iterdir()
                                    if p.name != "c.yaml"}))
        assert outputs[0] == outputs[1] != {}

    @pytest.mark.parametrize("suffix", ["yaml", "json"])
    def test_an_exponent_mean_runs(self, tmp_path, monkeypatch, suffix):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.yaml",
                           input=dict(MM_INPUT, sigma={"dist": "exp", "mean": 0.001}))
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_OK
        want = (tmp_path / "out.csv").read_bytes()
        text = cfg.read_text() if suffix == "yaml" else json.dumps(yaml.safe_load(cfg.read_text()))
        cfg = tmp_path / f"e.{suffix}"
        cfg.write_text(text.replace("0.001", "1e-3"))
        assert "1e-3" in cfg.read_text()
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_OK
        assert (tmp_path / "out.csv").read_bytes() == want
        # the loader is its own: yaml's safe loader still reads a string
        assert yaml.safe_load("mean: 1e-3") == {"mean": "1e-3"}

    @pytest.mark.parametrize("old, new, message", [
        ("mean: 0.001", 'mean: "1e-3"',
         "distribution 'exp' parameter 'mean' must be a number, got '1e-3'"),
        ("replications: 5", "replications: 1e3",
         "replications must be a positive integer, got 1000.0"),
    ], ids=["quoted-exponent", "exponent-count"])
    def test_quoted_numbers_and_exponent_counts_exit_config(self, tmp_path, monkeypatch, capsys,
                                                             old, new, message):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.yaml",
                           input=dict(MM_INPUT, sigma={"dist": "exp", "mean": 0.001}))
        assert old in cfg.read_text()
        cfg.write_text(cfg.read_text().replace(old, new))
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("points", [1, 4])
    def test_sweep_solves_its_chain_once(self, tmp_path, monkeypatch, points):
        # the load points' models differ only in their sigma laws, so they
        # share one transition matrix and its one stationary solve
        input_process._stationary_law.cache_clear()
        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        cfg = ExperimentConfig.from_dict({
            "schema_id": SCHEMA_ID, "mode": "stability_sweep", "base_seed": 3,
            "replications": 2, "max_lookback": 200, "stability_samples": 50,
            "input": MODULATED_INPUT, "rate": {"kind": "half_interference"},
            "sweep": {"rho": [0.3 + 0.2 * k for k in range(points)]},
            "output": {"path": str(tmp_path / "sweep.csv")}})
        assert run_experiment(cfg, jobs=1).rows == points
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["forward_sim", "gginf_stationary", "ps_perfect_sample",
                                      "stability_sweep"])
    def test_count_past_a_machine_integer_exits_config(self, tmp_path, monkeypatch, capsys,
                                                       mode):
        # range(2**70) cannot be listed: an OverflowError, not a traceback
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.yaml", mode=mode, replications=2**70,
                           sweep={"rho": [0.5]})
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("simctl: config error: ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_count_past_memory_exits_config(self, tmp_path, jobs):
        # 2**40 arrivals need 16 TiB of uniforms: a MemoryError, not a
        # traceback.  The run gets a 2 GiB address space, so the allocation
        # fails at once even where the kernel would overcommit it
        cfg = write_config(tmp_path / "c.yaml", mode="forward_sim", replications=2,
                           horizon=2**40)
        src = str(Path(simctl.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        code = "import sys; from gpsq.simctl import main; sys.exit(main(sys.argv[1:]))"
        out = subprocess.run([sys.executable, "-c", code, "run", str(cfg), "--jobs", str(jobs)],
                             cwd=tmp_path, env=env, preexec_fn=limit_address_space,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == EXIT_CONFIG, out.stderr
        assert out.stderr.startswith("simctl: config error: ") and "Traceback" not in out.stderr
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unknown_mode_of_a_built_config_is_config_error(self, tmp_path):
        # from_dict refuses it too; a config built by hand reaches run_experiment
        out = tmp_path / "bogus.csv"
        cfg = ExperimentConfig(mode="bogus", input_spec=MM_INPUT,
                               rate_spec={"kind": "half_interference"}, out_path=str(out))
        with pytest.raises(ConfigError, match="unknown mode 'bogus'"):
            run_experiment(cfg, jobs=1)
        assert list(tmp_path.iterdir()) == []

    def test_pure_delay_perfect_sample_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.yaml", replications=2, rate={"kind": "pure_delay"})
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_OK
        rows = list(csv.DictReader(io.StringIO((tmp_path / "out.csv").read_text())))
        assert len(rows) == 2

    def test_parse_rho(self):
        assert _parse_rho("0.5:1.0:0.25") == (0.5, 0.75, 1.0)
        # the stop is inclusive and never overshot
        assert _parse_rho("0.1:0.26:0.1") == (0.1, 0.2)
        grid = _parse_rho("0.1:1.5:0.1")
        assert len(grid) == 15 and grid[-1] == 1.5
        assert _parse_rho("1:2:0.3") == (1.0, 1.3, 1.6, 1.9)
        assert _parse_rho("0.3,0.9") == (0.3, 0.9)
        with pytest.raises(ConfigError):
            _parse_rho("1.0:0.5:0.1")
        # non-finite and non-positive loads, in both forms, name the flag
        for bad in ("nan", "0.5,inf", "-1,0.5", "0,0.5", "0.5:nan:0.1",
                    "0.5:inf:0.1", "0:1:0.5", "0.5:1:0", "0.5:1:-0.1"):
            with pytest.raises(ConfigError, match="--rho"):
                _parse_rho(bad)


def fuzz_bases():
    """The shipped configs, shrunk to run in milliseconds, and a sweep of
    Markov-modulated input over a table rate."""
    bases = []
    for path in sorted(CONFIGS.glob("*.yaml")):
        cfg = yaml.safe_load(path.read_text())
        cfg.update(replications=3, horizon=20, max_lookback=200, stability_samples=50)
        if cfg["mode"] == "stability_sweep":
            cfg.update(replications=2, sweep={"rho": [0.5, 1.2]})
        bases.append(cfg)
    bases.append({
        "schema_id": SCHEMA_ID, "mode": "stability_sweep", "base_seed": 7, "replications": 2,
        "max_lookback": 200, "stability_samples": 50, "input": MODULATED_INPUT,
        "rate": {"kind": "custom_table", "floor": 0.9,
                 "table": {n: (0.9 + 0.1 / n) / n for n in range(1, 5)}},
        "sweep": {"rho": [0.5, 1.2]}, "output": {"path": "mm.csv", "format": "csv"}})
    return bases


FUZZ_BASES = fuzz_bases()

# no count between about 10**5 and 2**63: such a run is long, or asks for
# terabytes; 2**70 does not fit a machine integer
FUZZ_VALUES = ("12", "x", "", [1, 2], {}, True, None, math.nan, math.inf, -math.inf, 0, -1,
               0.5, 2**70)


def field_paths(node, path=()):
    """The key path of every field of a config, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


def mutate(cfg, path, action):
    """``cfg`` with the field at ``path`` deleted (``"delete"``), an unknown
    key added beside it (``"unknown"``; an extra entry in a list), or set to
    ``action``'s value (``("set", value)``)."""
    cfg = copy.deepcopy(cfg)
    *where, key = path
    parent = reduce(lambda node, k: node[k], where, cfg)
    if action == "delete":
        del parent[key]
    elif action == "unknown":
        if isinstance(parent, dict):
            parent["unknown_key"] = 1
        else:
            parent.append(copy.deepcopy(parent[key]))
    else:
        parent[key] = copy.deepcopy(action[1])
    return cfg


@st.composite
def mutated_configs(draw):
    cfg = draw(st.sampled_from(FUZZ_BASES))
    path = draw(st.sampled_from(list(field_paths(cfg))))
    action = draw(st.one_of(st.sampled_from(["delete", "unknown"]),
                            st.tuples(st.just("set"), st.sampled_from(FUZZ_VALUES))))
    return mutate(cfg, path, action)


def run_in_fresh_dir(data, jobs):
    """``simctl run`` of the config ``data`` in process, in a new directory:
    its exit code and every file it left there but the config, by name.
    Bounded by a 10 s alarm."""
    def stalled(signum, frame):
        raise TimeoutError("simctl run took longer than 10 s")

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        previous = signal.signal(signal.SIGALRM, stalled)
        signal.alarm(10)
        try:
            Path("c.yaml").write_text(yaml.safe_dump(data))
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(["run", "c.yaml", "--jobs", str(jobs)])
            return code, {name: Path(name).read_bytes() for name in sorted(os.listdir("."))
                          if name != "c.yaml"}
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            os.chdir(cwd)


def results(files):
    """``files`` without the manifests, which record wall time."""
    return {name: data for name, data in files.items() if not name.endswith(".manifest.json")}


class TestConfigFuzz:
    """One field of a working config, at any depth, deleted, joined by an
    unknown key, or set to a value of the wrong type or range: ``simctl
    run`` exits 0 or 2 and never raises; at 2 it leaves no file, output or
    temp, and at 0 ``--jobs 2`` writes the same bytes."""

    @given(mutated_configs())
    @settings(max_examples=120, deadline=None, database=None)
    def test_one_field_mutation_exits_cleanly(self, data):
        code, files = run_in_fresh_dir(data, 1)
        assert code in (EXIT_OK, EXIT_CONFIG)
        if code == EXIT_CONFIG:
            assert files == {}
        else:
            code_2, files_2 = run_in_fresh_dir(data, 2)
            assert code_2 == code and results(files_2) == results(files) != {}


class TestRunModes:
    def test_gginf_json_contains_expected_atoms(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path / "c.yaml",
            mode="gginf_stationary",
            replications=1,
            input={"model": "deterministic", "xi": 1.0, "sigma": 2.5},
            output={"path": "g.json", "format": "json"},
        )
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_OK
        data = json.loads((tmp_path / "g.json").read_text())
        assert data["replications"][0]["atoms"] == [0.5, 1.5]
        assert data["replications"][0]["L"] == 1.5
        assert data["p_L_zero"]["estimate"] == 0.0

    def test_gginf_reads_each_replications_marks_once(self, tmp_path, monkeypatch):
        # the profile and the record come from one backward pass, and with
        # exp(3) gaps both stop inside its first block: one read each
        reads = []

        def counted(gens, a, b):
            reads.append(len(gens))
            return input_process.sample_blocks(gens, a, b)

        monkeypatch.setattr(stationary, "sample_blocks", counted)
        cfg = write_config(tmp_path / "c.yaml", mode="gginf_stationary", replications=20,
                           output={"path": str(tmp_path / "g.csv"), "format": "csv"})
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_OK
        assert reads == [1] * 20

    def test_ps_csv_schema(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.yaml")
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_OK
        with open(tmp_path / "out.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed", "coupled", "regeneration_index",
                           "n_atoms", "workload", "iterations"]
        assert len(rows) == 6
        for row in rows[1:]:
            if row[1] == "True":
                assert int(row[2]) <= 0
                assert int(row[3]) >= 0

    def test_byte_identical_reruns_and_jobs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.yaml")
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_OK
        first = (tmp_path / "out.csv").read_bytes()
        assert main(["run", str(cfg), "--jobs", "3"]) == EXIT_OK
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_seed_override_changes_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.yaml")
        main(["run", str(cfg), "--jobs", "1"])
        first = (tmp_path / "out.csv").read_bytes()
        main(["run", str(cfg), "--jobs", "1", "--seed", "8"])
        assert (tmp_path / "out.csv").read_bytes() != first

    def test_forward_sim_csv(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path / "c.yaml",
            mode="forward_sim",
            replications=2,
            horizon=20,
            rate={"kind": "classical_ps"},
            output={"path": "f.csv", "format": "csv"},
        )
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_OK
        with open(tmp_path / "f.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["replication", "seed", "t_start", "t_end", "q",
                           "w_start", "drain_rate"]
        reps = {row[0] for row in rows[1:]}
        assert reps == {"0", "1"}
        # segments within a replication tile the time axis
        prev_end = None
        for row in rows[1:]:
            if row[0] != "0":
                break
            if prev_end is not None:
                assert float(row[2]) == pytest.approx(prev_end)
            prev_end = float(row[3])

    def test_forward_sim_template_matches_csv_writer(self, tmp_path):
        # tiny demands keep w_start below 1e-4, where %.17g switches to
        # exponent form; this base seed gives replication seeds >= 2**63
        data = {
            "schema_id": "gpsq-experiment-v1", "mode": "forward_sim",
            "base_seed": 2**63 - 1, "replications": 3, "horizon": 200,
            "input": {"model": "iid", "xi": {"dist": "exp", "mean": 1},
                      "sigma": {"dist": "uniform", "low": 0.0, "high": 1e-4}},
            "rate": {"kind": "half_interference"},
        }
        out = {}
        for jobs in (1, 2):
            path = tmp_path / f"j{jobs}.csv"
            cfg = ExperimentConfig.from_dict(
                dict(data, output={"path": str(path), "format": "csv"}))
            run_experiment(cfg, jobs=jobs)
            out[jobs] = path.read_bytes()
        assert out[1] == out[2]

        reference = forward_reference(cfg)
        expected = forward_csv_via_writer(
            (i, seed, seg) for i, (seed, segs) in enumerate(reference) for seg in segs)
        assert out[1] == expected
        assert min(seed for seed, _ in reference) >= 2**63
        assert b"e-0" in expected

        # edge values: negative and subnormal w_start, an int 0 (empty
        # system), negative zero, huge times, the largest seed; a 0.0 end
        # and a -0.0 end, each the next row's start, a -0.0 drain, and a
        # replication longer than one rendering block.  Rows join and each
        # q has one drain, as trajectory guarantees
        rng = np.random.default_rng(3)
        ends = np.cumsum(rng.exponential(1.0, 2 * simctl._ROW_BLOCK + 5)).tolist()
        qs = rng.integers(0, 5, len(ends)).tolist()
        long_rep = [(t0, t1, q, float(w), 0.5 * q)
                    for t0, t1, q, w in zip([0.0] + ends, ends, qs,
                                            rng.exponential(3.0, len(ends)))]
        reps = [
            (0, 2**64 - 1, [(0.0, 1e-300, 3, -3.5e-13, 0.75)]),
            (1, 2**63, [(1e20, 1.5e20, 0, 0, 0.0), (1.5e20, 2e20, 2, 1e20, 0.5)]),
            (2, 0, [(5e-324, 0.1, 1, -0.0, 1.0)]),
            (3, 17, [(0.5, 1.0, 2, 0.25, 1.0), (1.0, 2.0, 3, 0.5, 1.5),
                     (2.0, 0.0, 1, 1e-5, -0.0), (0.0, -0.0, 2, 123.456, 1.0),
                     (-0.0, 3.0, 1, 7.0, -0.0), (3.0, 4.0, 2, 7.0, 1.0)]),
            (4, 5, long_rep),
        ]
        rendered = _csv_bytes([_FORWARD_HEADER]) + b"".join(
            _forward_csv_rows(i, seed, as_segments(segs)) for i, seed, segs in reps)
        assert rendered == forward_csv_via_writer(
            (i, seed, seg) for i, seed, segs in reps for seg in segs)

    @pytest.mark.parametrize("n", [1, 7, 21])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_forward_sim_bytes_do_not_depend_on_jobs(self, tmp_path, n, fmt):
        # 7 and 21 replications do not split evenly into _map_ordered's
        # chunks at jobs=2; both formats must equal a reference built from
        # trajectory
        out = {}
        for jobs in (1, 2):
            path = tmp_path / f"f-{jobs}.{fmt}"
            cfg = ExperimentConfig.from_dict({
                "schema_id": "gpsq-experiment-v1", "mode": "forward_sim",
                "base_seed": 5, "replications": n, "horizon": 60,
                "input": MM_INPUT, "rate": {"kind": "half_interference"},
                "output": {"path": str(path), "format": fmt},
            })
            assert run_experiment(cfg, jobs=jobs).rows == n
            out[jobs] = path.read_bytes()
        assert out[1] == out[2]
        reference = forward_reference(cfg)
        if fmt == "csv":
            expected = forward_csv_via_writer(
                (i, seed, seg) for i, (seed, segs) in enumerate(reference) for seg in segs)
        else:
            expected = (json.dumps({
                "schema_id": "gpsq-experiment-v1", "mode": "forward_sim",
                "replications": [{"seed": seed, "segments": segs, "exhausted": False}
                                 for seed, segs in reference],
            }, indent=2, sort_keys=True) + "\n").encode("utf-8")
        assert out[1] == expected

    @pytest.mark.parametrize("name", sorted(n for n in GOLDEN_CONFIGS
                                            if n.startswith("forward_sim")))
    def test_forward_sim_streams_each_replication(self, tmp_path, monkeypatch, name):
        # at jobs=1 the parent writes replication i's rows before it
        # simulates replication i + 2, one chunk per replication, and the
        # streamed file is still the golden artifact and the jobs=2 bytes
        def config(n):
            path = tmp_path / f"{name}-{n}.csv"
            return path, ExperimentConfig.from_dict(dict(
                GOLDEN_CONFIGS[name], schema_id=SCHEMA_ID, replications=n,
                output={"path": str(path), "format": "csv"}))

        path, cfg = config(5)
        run_experiment(cfg, jobs=2)
        jobs2_bytes = path.read_bytes()

        events = []
        write = simctl._atomic_write

        def simulate(cfg, base, r, reps):
            for i in reps:
                events.append(("simulate", i))
                yield from _worker_forward(cfg, base, r, [i])

        def logged_write(out, chunks):
            def logged():
                for chunk in chunks:
                    yield chunk
                    if out == str(path):  # resumed: the file has taken the chunk
                        rep = None if chunk.startswith(b"replication,") else int(
                            chunk.split(b",", 1)[0])
                        events.append(("wrote", rep, chunk))
            write(out, logged())

        monkeypatch.setattr(simctl, "_worker_forward", simulate)
        monkeypatch.setattr(simctl, "_atomic_write", logged_write)
        for n in (GOLDEN_CONFIGS[name]["replications"], 5):
            path, cfg = config(n)
            events.clear()
            run_experiment(cfg, jobs=1)
            out = path.read_bytes()
            writes = [e for e in events if e[0] == "wrote"]
            assert [rep for _, rep, _ in writes] == [None] + list(range(n))
            assert b"".join(chunk for *_, chunk in writes) == out
            for i in range(n - 2):
                assert events.index(writes[i + 1]) < events.index(("simulate", i + 2))
            if n == 5:
                assert out == jobs2_bytes
            else:
                assert hashlib.sha256(out).hexdigest() == GOLDEN[(name, "csv")]

    def test_gginf_csv_streams_each_record(self, tmp_path, monkeypatch):
        # CSV has no p_L_zero, so at jobs=1 each record becomes its row
        # before the next replication is computed, and no list of records
        # (atom lists included) is built; the file is still the golden one
        events = []
        worker, cells = simctl._worker_gginf, simctl._cells

        def computed(cfg, base, r, reps):
            for i in reps:
                events.append("compute")
                yield from worker(cfg, base, r, [i])

        def logged_cells(rec, header):
            events.append("row")
            return cells(rec, header)

        monkeypatch.setattr(simctl, "_worker_gginf", computed)
        monkeypatch.setattr(simctl, "_cells", logged_cells)
        path = tmp_path / "g.csv"
        cfg = ExperimentConfig.from_dict(dict(
            GOLDEN_CONFIGS["gginf_stationary"], schema_id=SCHEMA_ID,
            output={"path": str(path), "format": "csv"}))
        run_experiment(cfg, jobs=1)
        assert events == ["compute", "row"] * cfg.replications
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[("gginf_stationary", "csv")]

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS) + ["invariant_suite"])
    def test_specs_are_interpreted_once(self, tmp_path, monkeypatch, name):
        # one input generator and at most one rate per run, however many
        # replications and load points it has; workers derive the rest
        calls = {"generator_from_config": 0, "rate_from_config": 0}
        for fn in calls:
            def counted(*args, _fn=fn, _original=getattr(simctl, fn), **kwargs):
                calls[_fn] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(simctl, fn, counted)
        data = GOLDEN_CONFIGS.get(name, {"mode": "invariant_suite"})
        cfg = ExperimentConfig.from_dict(dict(
            data, schema_id=SCHEMA_ID,
            output={"path": str(tmp_path / f"{name}.csv"), "format": "csv"}))
        run_experiment(cfg, jobs=1)
        assert calls == {
            "generator_from_config": cfg.mode != "invariant_suite",
            "rate_from_config": cfg.mode not in ("invariant_suite", "gginf_stationary"),
        }

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_forward_sim_failure_mid_stream_leaves_nothing(self, tmp_path, monkeypatch, jobs):
        # replication 2 raises once the header and replications 0 and 1 are
        # written (jobs=1) or running (jobs=2); no output and no temp file
        # remain.  At jobs=2 this process runs the first chunk of
        # n // (4 * jobs) replications itself and fails at replication 2
        # while the one child, 0.1 s per replication, is still on the
        # second chunk; the child is killed then, so no replication past
        # the first 2 * jobs chunks starts, nor any after 2 in the first
        monkeypatch.setattr(simctl, "_worker_forward", forward_failing_at_2)
        n = 40
        cfg = ExperimentConfig.from_dict({
            "schema_id": SCHEMA_ID, "mode": "forward_sim",
            "base_seed": 5, "replications": n, "horizon": 200,
            "input": MM_INPUT, "rate": {"kind": "half_interference"},
            "output": {"path": str(tmp_path / "f.csv"), "format": "csv"},
        })
        with pytest.raises(RuntimeError, match="replication 2 failed"):
            run_experiment(cfg, jobs=jobs)
        started = {int(p.name.split("-")[1]) for p in tmp_path.glob("started-*")}
        assert [p.name for p in tmp_path.iterdir() if not p.name.startswith("started-")] == []
        if jobs == 1:
            assert started == {0, 1, 2}
        else:
            size = n // (4 * jobs)
            assert 2 in started and max(started) < 2 * jobs * size
            assert started.isdisjoint(range(3, size))

    def test_strict_mode_exhaustion(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path / "c.yaml",
            replications=2,
            max_lookback=200,
            input={"model": "deterministic", "xi": 1.0, "sigma": 2.0},
            rate={"kind": "classical_ps"},
        )
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_OK  # lenient annotates
        assert main(["run", str(cfg), "--jobs", "1", "--strict"]) == EXIT_EXHAUSTED

    def test_sweep_verdict_flips(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path / "c.yaml",
            mode="stability_sweep",
            replications=10,
            max_lookback=500,
            stability_samples=200,
            input={"model": "deterministic", "xi": 1.0, "sigma": 1.0},
            rate={"kind": "classical_ps"},
            output={"path": "s.csv", "format": "csv"},
        )
        assert main(["sweep", str(cfg), "--rho", "0.5:1.5:0.5", "--jobs", "1"]) == EXIT_OK
        with open(tmp_path / "s.csv") as fh:
            rows = list(csv.DictReader(fh))
        verdicts = [r["verdict"] for r in rows]
        assert verdicts == ["stable", "inconclusive", "unstable"]
        freqs = [float(r["coupling_freq"]) for r in rows]
        assert freqs[0] == 1.0 and freqs[-1] == 0.0

    def test_sweep_coupling_frequency_declines(self, tmp_path, monkeypatch):
        # statistical sweep invariant: coupling frequency non-increasing in
        # the load, within binomial noise
        import math

        from gpsq.simctl import ExperimentConfig, _worker_sweep_point, generator_from_config

        cfg = ExperimentConfig.from_dict({
            "schema_id": "gpsq-experiment-v1",
            "mode": "stability_sweep",
            "base_seed": 97,
            "replications": 25,
            "max_lookback": 300,
            "stability_samples": 200,
            "input": {"model": "iid", "xi": {"dist": "exp", "mean": 1},
                      "sigma": {"dist": "exp", "mean": 1}},
            "rate": {"kind": "classical_ps"},
            "sweep": {"rho": [0.4, 0.8, 1.2]},
        })
        base = generator_from_config(cfg.input_spec, seed_override=cfg.base_seed)
        rate = rate_from_config(cfg.rate_spec)
        recs = list(_worker_sweep_point(cfg, base, rate, list(cfg.rho_grid)))
        assert [rec["rho"] for rec in recs] == list(cfg.rho_grid)
        freqs = [r["coupling_freq"] for r in recs]
        n = cfg.replications
        for a, b in zip(freqs, freqs[1:]):
            noise = 2.0 * math.sqrt(max(a * (1 - a), b * (1 - b), 0.04) / n)
            assert b <= a + noise, freqs
        assert freqs[0] >= 0.9 and freqs[-1] <= 0.1

    def test_missing_rho_is_config_error(self, tmp_path, monkeypatch, capsys):
        # `run` of a sweep config and `sweep` without --rho meet one check,
        # which names both sources of the grid, before any output is written
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.yaml", mode="stability_sweep")
        for command in ("run", "sweep"):
            assert main([command, str(cfg), "--jobs", "1"]) == EXIT_CONFIG, command
            assert "needs sweep.rho" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        outdir = tmp_path / "artifacts"
        monkeypatch.setenv("SIMCTL_OUT_DIR", str(outdir))
        cfg = write_config(tmp_path / "c.yaml", replications=2)
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_OK
        assert (outdir / "out.csv").exists()

    def test_out_flag_override(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.yaml", replications=2)
        assert main(["run", str(cfg), "--jobs", "1", "--out", "other.csv"]) == EXIT_OK
        assert (tmp_path / "other.csv").exists()

    def test_manifest_written(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.yaml", replications=2)
        main(["run", str(cfg), "--jobs", "1"])
        man = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert man["mode"] == "ps_perfect_sample"
        assert len(man["config_sha256"]) == 64
        assert man["horizon_exhausted"] == 0
        assert "wall_time_s" in man

    @pytest.mark.parametrize("rate", [
        {"kind": "custom_table", "table": {1: 1.0, "2": 0.5}, "floor": 1.0},
        # a key no rate reads, whose YAML value is a date
        {"kind": "half_interference", "note": datetime.date(2020, 1, 1)},
    ], ids=["mixed_table_keys", "date_value"])
    def test_manifest_of_a_config_json_cannot_sort_or_encode(self, tmp_path, monkeypatch,
                                                              capsys, rate):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.yaml", replications=2, rate=rate)
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        man = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert len(man["config_sha256"]) == 64
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.yaml", "out.csv", "out.csv.manifest.json"]

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_config_hash_is_sorted_json_where_json_can_sort(self, name):
        # keys of one kind sort as sort_keys sorts them (the tables' int
        # keys by value), so the hash of such a config is that of sort_keys
        cfg = ExperimentConfig.from_dict(dict(GOLDEN_CONFIGS[name], schema_id=SCHEMA_ID))
        text = json.dumps(dataclasses.asdict(cfg), sort_keys=True)
        assert simctl._config_sha256(cfg) == hashlib.sha256(text.encode()).hexdigest()

    def test_write_failure_exits_io_and_leaves_no_temp_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.csv").mkdir()  # the output path is a directory
        cfg = write_config(tmp_path / "c.yaml", replications=2)
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_IO
        assert not [p.name for p in tmp_path.iterdir() if ".tmp-" in p.name]
        assert list((tmp_path / "out.csv").iterdir()) == []

    def test_unreadable_config(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.yaml")]) == EXIT_CONFIG

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_config_and_write_nothing(self, tmp_path, monkeypatch, jobs):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.yaml", replications=2)
        assert main(["run", str(cfg), "--jobs", jobs]) == EXIT_CONFIG
        assert main(["sweep", str(cfg), "--rho", "0.5", "--jobs", jobs]) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == [cfg]

    def test_semantically_bad_specs_exit_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad_specs = [
            {"input": {"model": "iid", "xi": {"dist": "exp", "mean": -3},
                       "sigma": {"dist": "exp", "mean": 1}}},
            # table rate that fails validation inside the sampler
            {"rate": {"kind": "custom_table", "floor": 0.1, "table": {1: 0.5, 2: 0.9}}},
            {"output": ["out.csv"]},
            {"output": {"path": 5}},
            {"sweep": [0.5, 0.9]},
            {"sweep": {"rho": 0.9}},
            {"rate": {"kind": "scaled_ps", "k": None}},
            {"rate": {"kind": "custom_table", "floor": 0.5, "table": [1.0, 0.5]}},
            # a bool is not a number, and a string or a number is not a bool
            {"replications": True},
            {"base_seed": True},
            {"lindley_window": True},
            {"rate": {"kind": "scaled_ps", "k": True}},
            {"input": dict(MM_INPUT, sigma={"dist": "exp", "mean": True})},
            {"input": {"model": "deterministic", "xi": 0.0, "sigma": 1.0}},
            {"input": {"model": "deterministic", "xi": -1.0, "sigma": 1.0}},
            {"input": {"model": "deterministic", "xi": 1.0, "sigma": -0.5}},
            {"input": {"model": "deterministic", "xi": True, "sigma": 1.0}},
            {"rate": {"kind": "custom_table", "floor": 0.5, "table": {1: 1.0, 2: 0.5},
                      "single_server": "false"}},
            {"rate": {"kind": "custom_table", "floor": 0.5, "table": {1: 1.0, 2: 0.5},
                      "single_server": 0}},
            # a table's last rate extends, so 129 * r(129) = 129/128 exceeds the cap
            {"rate": {"kind": "custom_table", "floor": 0.5, "single_server": True,
                      "table": {n: 1 / n for n in range(1, 129)}}},
            {"mode": "stability_sweep", "sweep": {"rho": [0.5, True]}},
            # NaN and infinities are not config numbers
            {"mode": "stability_sweep", "sweep": {"rho": [float("nan"), float("inf")]}},
            {"input": dict(MM_INPUT, xi={"dist": "exp", "mean": float("nan")})},
            {"rate": {"kind": "scaled_ps", "k": float("nan")}},
            {"input": dict(MM_INPUT, sigma={"dist": "uniform", "low": 0.0,
                                            "high": float("inf")})},
            {"rate": {"kind": "custom_table", "floor": float("-inf"),
                      "table": {1: 1.0, 2: 0.5}}},
            # an input seed that is not an integer, even when base_seed is set
            {"input": dict(MM_INPUT, seed="abc")},
            {"input": dict(MM_INPUT, seed=2.9), "base_seed": 3},
            {"input": dict(MM_INPUT, seed=True)},
            # a forward run reads the rate too: increasing, above the
            # single-server cap and below its floor
            {"mode": "forward_sim", "replications": 2, "horizon": 50,
             "rate": {"kind": "custom_table", "floor": 5.0, "single_server": True,
                      "table": {1: 0.5, 2: 0.9}}},
        ]
        for i, overrides in enumerate(bad_specs):
            cfg = write_config(tmp_path / f"c{i}.yaml", **overrides)
            assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_CONFIG, overrides
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"c{i}.yaml" for i in range(len(bad_specs)))
        cfg = write_config(tmp_path / "sweep.yaml", mode="stability_sweep")
        for rho in ("nan", "0.5,inf", "-1,0.5", "0,0.5"):
            assert main(["sweep", str(cfg), f"--rho={rho}", "--jobs", "1"]) == EXIT_CONFIG, rho


class TestCells:
    def test_cells_are_the_per_mode_rows(self):
        # the cells the per-mode row code wrote: "" for a missing profile
        # field, "%.17g" for a float (and for gginf's workload, which is the
        # int 0 for an empty profile and printed "0" either way), and what
        # csv.writer writes for anything else
        rec = {"missing": None, "empty_workload": 0, "zero": 0.0, "neg_zero": -0.0,
               "nan": float("nan"), "inf": float("inf"), "neg_inf": float("-inf"),
               "tenth": 0.1, "coupled": True, "converged": False, "verdict": "stable",
               "detail": 'ok, "quoted"', "seed": 2**64 - 1, "regeneration_index": -5}
        header = tuple(rec)
        assert _csv_bytes([_cells(rec, header)]) == (
            b',0,0,-0,nan,inf,-inf,0.10000000000000001,True,False,stable,'
            b'"ok, ""quoted""",18446744073709551615,-5\n')
        assert _cells(rec, ("verdict", "missing")) == ["stable", ""]


class TestG17:
    """``_g17`` against ``b"%.17g" % x``, the text it replaces."""

    @staticmethod
    def check(xs):
        xs = [float(x) for x in xs]
        assert _g17(np.array(xs, dtype=np.float64)).tolist() == [b"%.17g" % x for x in xs]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    max_size=50))
    def test_any_floats(self, xs):
        self.check(xs)

    def test_powers_of_ten_and_neighbours(self):
        xs = []
        for k in range(-5, 18):
            p = float(f"1e{k}")
            xs += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
        self.check(xs)

    def test_fast_path_edges(self):
        xs = []
        for edge in (1e-4, 1e16, 1e17, 2.0**53):
            x = edge
            for _ in range(4):
                x = np.nextafter(x, 0.0)
                xs.append(x)
            x = edge
            for _ in range(4):
                xs.append(x)
                x = np.nextafter(x, np.inf)
        xs += [0.0, -0.0, -1.5, 5e-324, -5e-324, 2.2250738585072014e-308,
               np.inf, -np.inf, np.nan, 1.7976931348623157e308]
        self.check(xs)

    def test_dyadic_halfway_values(self):
        # odd m / 2**j: with 17 digits the product x * 10**(16 - e) can end
        # in exactly .5, where "%" rounds half to even
        rng = np.random.default_rng(11)
        m = rng.integers(2**40, 2**53, 20_000) | 1
        j = rng.integers(1, 70, m.size)
        xs = (m / 2.0**j).tolist()
        # x = m / 2**(k + 1) with m odd and e = 16 - k: x * 10**k ends in .5
        for k in (1, 2, 3):
            base = 10 ** (16 - k) * 2 ** (k + 1) + 1
            xs += [(base + 2 * i) / 2 ** (k + 1) for i in range(50)]
        self.check(xs)

    def test_random_magnitudes(self):
        rng = np.random.default_rng(12)
        self.check(10.0 ** rng.uniform(-6.0, 18.0, 50_000))

    def test_mostly_zeros_of_both_signs(self):
        # +0.0 takes a vectorised path; -0.0 and its neighbours stay on "%"
        rng = np.random.default_rng(13)
        xs = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e-5, 0.5, -0.5, np.nan],
                        size=5000, p=[0.6, 0.2, 0.04, 0.04, 0.03, 0.03, 0.03, 0.03])
        self.check(xs)
        self.check(np.zeros(7))
        self.check(-np.zeros(7))


class TestJsonStream:
    def test_chunks_equal_json_bytes(self):
        recs = [
            {"seed": 2**64 - 1, "segments": [(0.0, 1.5, 0, 0, 0.0), [0.1, -0.0, 2, 1e-300, 1e20]],
             "exhausted": False, "nested": {"z": [[[1]]], "y": None, "x": "\u00e9\n"}}
            for _ in range(3000)
        ]
        # the list's key first, between others and last among the sorted
        # keys; a nested key of the same name and null value; no records
        cases = [
            ({"schema_id": SCHEMA_ID, "mode": "stability_sweep"}, "grid", recs),
            ({"schema_id": SCHEMA_ID, "mode": "forward_sim", "b": [], "a": {}},
             "replications", recs),
            ({"schema_id": SCHEMA_ID, "mode": "gginf_stationary",
              "p_L_zero": {"replications": None, "estimate": 0.5}}, "replications", recs[:2]),
            ({"schema_id": SCHEMA_ID, "mode": "invariant_suite"}, "suites", recs[:1]),
            ({"schema_id": SCHEMA_ID, "mode": "forward_sim"}, "replications", []),
        ]
        for fields, key, items in cases:
            pulled = []

            def lazy():
                for rec in items:
                    pulled.append(rec)
                    yield rec

            chunks = simctl._json_chunks(fields, key, lazy())
            out = [next(chunks)]
            assert pulled == []
            for k, chunk in enumerate(chunks, 1):
                out.append(chunk)
                assert len(pulled) == min(k, len(items))  # one record per chunk
            assert len(out) == len(items) + 2
            assert b"".join(out) == simctl._json_bytes({**fields, key: items})


class TestReplicationBatches:
    @pytest.mark.parametrize("n", [1, 63, 65, 130])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_do_not_depend_on_jobs(self, tmp_path, n, fmt):
        out = {}
        for jobs in (1, 2):
            path = tmp_path / f"ps-{jobs}.{fmt}"
            cfg = ExperimentConfig.from_dict({
                "schema_id": "gpsq-experiment-v1",
                "mode": "ps_perfect_sample",
                "base_seed": 3,
                "replications": n,
                "max_lookback": 2000,
                "lindley_window": 200,
                "input": MM_INPUT,
                "rate": {"kind": "half_interference"},
                "output": {"path": str(path), "format": fmt},
            })
            assert run_experiment(cfg, jobs=jobs).rows == n
            out[jobs] = path.read_bytes()
        assert out[1] == out[2]

    @pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 130, 1000])
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_ranges_cover_in_order(self, n, jobs):
        chunks = _partition(list(range(n)), jobs)
        assert [i for chunk in chunks for i in chunk] == list(range(n))
        assert all(chunks)
        if jobs == 1:
            assert len(chunks) == 1
        if jobs > 1 and n >= 4 * jobs:
            assert len(chunks) >= 4 * jobs

    @pytest.mark.parametrize("n, jobs, workers", [(1, 64, [0]), (2, 64, [0, 1]),
                                                  (7, 3, [0, 1, 2, 0, 1, 2, 0]),
                                                  (1000, 2, [0, 1] * 4)])
    def test_pool_starts_no_idle_worker(self, monkeypatch, n, jobs, workers):
        # jobs counts processes, this one included: min(jobs, chunks) - 1
        # children are forked, and chunk k runs in process k % P, where
        # this process is process 0 and child p is process p
        forks = []
        fork = os.fork

        def counted():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        items = list(range(n))
        got = list(simctl._map_ordered(lambda chunk: [(os.getpid(), chunk)], items, jobs))
        assert [chunk for _, chunk in got] == _partition(items, jobs)
        process = {os.getpid(): 0}
        for pid, _ in got:
            process.setdefault(pid, len(process))
        assert [process[pid] for pid, _ in got] == workers
        assert len(forks) == max(workers)
        assert_no_child_left()

    @pytest.mark.parametrize("case", ["normal", "child_raises", "parent_raises", "early_close",
                                      "child_dies"])
    def test_fan_out_leaves_no_child(self, case):
        # 8 items at jobs=2 make 8 one-item chunks: the even ones run here,
        # the odd ones in the one child
        parent = os.getpid()

        def fn(chunk):
            (i,) = chunk
            if case == "child_raises" and i == 3:
                raise ValueError(f"chunk 3 failed in a child: {os.getpid() != parent}")
            if case == "parent_raises" and i == 2:
                raise ValueError(f"chunk 2 failed here: {os.getpid() == parent}")
            yield 2 * i
            if case == "child_dies" and i == 3 and os.getpid() != parent:
                os._exit(1)

        def stalled(signum, frame):
            raise TimeoutError("the fan-out hangs")

        records = simctl._map_ordered(fn, list(range(8)), 2)
        previous = signal.signal(signal.SIGALRM, stalled)
        signal.alarm(20)
        try:
            if case == "normal":
                assert list(records) == [2 * i for i in range(8)]
            elif case == "early_close":
                assert next(records) == 0
                records.close()
            else:
                error, match = {
                    "child_raises": (ValueError, "chunk 3 failed in a child: True"),
                    "parent_raises": (ValueError, "chunk 2 failed here: True"),
                    "child_dies": (RuntimeError, "ended before sending its chunk"),
                }[case]
                with pytest.raises(error, match=match):
                    list(records)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_child_left()

    def test_import_leaves_out_the_process_pool_machinery(self):
        # the fan-out forks directly, so importing simctl loads neither
        # concurrent.futures nor multiprocessing (start-up time and memory)
        src = str(Path(simctl.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, gpsq.simctl; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"

    BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

    def startup(self, code, **env):
        """Run ``code`` in a fresh interpreter with gpsq on its path, none of
        the BLAS thread variables but those in ``env``, and ``threads()``
        defined to read the process's ``Threads:`` count; its stdout."""
        if not Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status")
        src = str(Path(simctl.__file__).resolve().parents[1])
        child = {k: v for k, v in os.environ.items() if k not in self.BLAS_THREAD_VARS}
        child.update(env, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        head = ("import os\n"
                "def threads():\n"
                "    with open('/proc/self/status') as fh:\n"
                "        return next(int(l.split()[1]) for l in fh if l.startswith('Threads:'))\n")
        return subprocess.run([sys.executable, "-c", head + code], env=child, capture_output=True,
                              text=True, check=True).stdout.split()

    def test_import_loads_a_one_thread_blas_and_leaves_environ_as_it_was(self):
        # OpenBLAS's idle pool thread spins through start-up; gpsq never uses it
        out = self.startup("before = dict(os.environ)\n"
                           "import gpsq.simctl\n"
                           "print(threads(), dict(os.environ) == before)")
        assert out == ["1", "True"]

    @pytest.mark.parametrize("var", BLAS_THREAD_VARS)
    def test_import_honours_a_callers_blas_thread_count(self, var):
        if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("OpenBLAS starts no pool on one CPU")
        out = self.startup("import gpsq.simctl\nprint(threads(), os.environ[%r])" % var,
                           **{var: "2"})
        assert out == ["2", "2"]

    def test_import_after_numpy_leaves_environ_as_it_was(self):
        out = self.startup("import numpy\nbefore = dict(os.environ)\n"
                           "import gpsq.simctl\nprint(dict(os.environ) == before)")
        assert out == ["True"]

    def test_batches_hold_at_most_batch_rows(self, tmp_path, monkeypatch):
        # the perfect-sample worker hands its whole chunk to the batch
        # sampler, which searches at most BATCH_ROWS replications at once
        sizes = []
        couple = stationary._couple_batch

        def counted(gens, *args):
            sizes.append(len(gens))
            return couple(gens, *args)

        monkeypatch.setattr(stationary, "_couple_batch", counted)
        n = 2 * BATCH_ROWS + 5
        cfg = ExperimentConfig.from_dict({
            "schema_id": SCHEMA_ID, "mode": "ps_perfect_sample", "base_seed": 3,
            "replications": n, "max_lookback": 2000, "lindley_window": 200,
            "input": MM_INPUT, "rate": {"kind": "half_interference"},
            "output": {"path": str(tmp_path / "ps.csv"), "format": "csv"},
        })
        assert run_experiment(cfg, jobs=1).rows == n
        assert sizes == [BATCH_ROWS, BATCH_ROWS, 5]


SUITE_NAMES = (
    "measures",
    "oracle_equivalence",
    "threshold_unimodality",
    "profile_monotonicity",
    "rate_monotonicity",
    "gginf_fixed_point",
    "lindley_fixed_point",
    "coupling_stationarity",
    "workload_identity",
    "input_determinism",
)


@pytest.fixture
def failing_oracle_check(monkeypatch):
    monkeypatch.setattr(
        checks, "oracle_equivalence", lambda rng, count: checks.CheckResult(count, 1, "forced")
    )


class TestInvariantSuites:
    def test_all_pass(self, capsys):
        assert main(["verify"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"PASS {n}" for n in SUITE_NAMES]

    def test_negative_seed_passes(self, capsys):
        # taken modulo 2**64, as replication seeds are
        assert main(["verify", "--seed", "-1"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"PASS {n}" for n in SUITE_NAMES]

    def test_failing_check_fails_verify(self, failing_oracle_check, capsys):
        assert main(["verify"]) == EXIT_SUITE_FAILED
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL oracle_equivalence: forced" in lines
        assert sum(line.startswith("PASS ") for line in lines) == 9

    def test_failing_check_fails_run_and_writes_artifact(
        self, tmp_path, monkeypatch, failing_oracle_check
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.yaml", mode="invariant_suite",
                           output={"path": "suites.csv", "format": "csv"})
        assert main(["run", str(cfg)]) == EXIT_SUITE_FAILED
        rows = list(csv.DictReader(io.StringIO((tmp_path / "suites.csv").read_text())))
        assert [row["suite"] for row in rows] == list(SUITE_NAMES)
        assert [row["suite"] for row in rows if row["ok"] == "False"] == ["oracle_equivalence"]

    def test_failing_check_is_returned_not_raised(self, tmp_path, failing_oracle_check):
        cfg = ExperimentConfig(mode="invariant_suite", input_spec={}, rate_spec={},
                               out_path=str(tmp_path / "suites.csv"))
        result = run_experiment(cfg, jobs=1)
        assert (result.failed_suites, result.rows) == (1, len(SUITE_NAMES))
        rows = list(csv.DictReader(io.StringIO((tmp_path / "suites.csv").read_text())))
        assert [row["suite"] for row in rows if row["ok"] == "False"] == ["oracle_equivalence"]

    def test_one_flipped_kernel_bit_fails_input_determinism(self, monkeypatch, capsys):
        # the lowest mantissa bit of the first uniform of every kernel call:
        # the check compares the kernel with numpy's generator
        kernel = input_process._philox_uniforms

        def flipped(rows, a, b):
            u = kernel(rows, a, b)
            if u.size:
                u.view(np.uint64)[0, 0, 0] ^= np.uint64(1)
            return u

        monkeypatch.setattr(input_process, "_philox_uniforms", flipped)
        res = checks.input_determinism(np.random.default_rng(0), 20)
        assert res.failures > 0
        assert "differ from numpy's Philox" in res.detail
        assert main(["verify"]) == EXIT_SUITE_FAILED
        assert any(line.startswith("FAIL input_determinism")
                   for line in capsys.readouterr().out.splitlines())


def _perfbench_module(name):
    """``perfbench/<name>.py``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_finds_its_names():
    """perfbench's tracer wraps names it looks up in gpsq's modules (for
    example ``simctl.backward_coupling_ps``); pruning one must fail here."""
    spans = _perfbench_module("spans")
    originals = [(owner, attr, owner.__dict__.get(attr)) for owner, attr, *_ in spans.TRACED]
    tracer = spans.Tracer()
    try:
        tracer.install()
    except KeyError as exc:
        pytest.fail(f"perfbench/spans.py traces {exc}, which its owner no longer defines")
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_perfbench_workloads_pass_the_set_up(tmp_path):
    """What perfbench's worker runs before its timer, on every workload:
    load the config from a file, build the input and validate the rate.  A
    change that refuses a workload must fail here first."""
    workloads = _perfbench_module("workloads")
    perf_checks = _perfbench_module("checks")
    for name, spec in workloads.WORKLOADS.items():
        cfg = workloads.set_config(name, spec["default_seed"], 0)
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        loaded = load_config(str(path))
        assert loaded == perf_checks.ExperimentConfig.from_dict(cfg), name
        input_process.generator_from_config(loaded.input_spec, seed_override=0)
        report = validate(perf_checks.rate_from_config(loaded.rate_spec))
        assert report.ok, (name, report.violations)


def test_perfbench_tracer_counts_forward_segments(tmp_path):
    """perfbench's tracer, installed around a forward_sim run as its worker
    does, counts one trajectory segment per CSV data row."""
    spans = _perfbench_module("spans")
    cfg = ExperimentConfig.from_dict({
        "schema_id": "gpsq-experiment-v1", "mode": "forward_sim", "base_seed": 3,
        "replications": 3, "horizon": 40, "input": MM_INPUT,
        "rate": {"kind": "classical_ps"},
        "output": {"path": str(tmp_path / "f.csv"), "format": "csv"},
    })
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        simctl.run_experiment(cfg, jobs=1)
        wall_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    data_rows = (tmp_path / "f.csv").read_bytes().count(b"\n") - 1
    metrics = tracer.summary(wall_s)
    assert metrics["dynamics.segments"] == data_rows > 0
    assert metrics["dynamics.trajectory_s"] > 0.0


def test_write_bench_records_no_sha_outside_a_git_checkout(tmp_path):
    """``bench/write_bench.py`` names no commit, rather than failing, in a
    directory git does not know (a ``git archive`` copy, say).  Run in a
    subprocess: importing it puts ``perfbench/`` on ``sys.path``."""
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import write_bench; "
            "print(write_bench._git_sha(sys.argv[2]))")
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
    env["GIT_CEILING_DIRECTORIES"] = str(tmp_path.parent)
    out = subprocess.run([sys.executable, "-c", code, str(root / "bench"), str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out == "None\n"
