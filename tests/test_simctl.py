"""Integration tests for the simctl front end."""

import csv
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from gpsq import checks, input_process
from gpsq.dynamics import trajectory_rows
from gpsq.measures import ZERO
from gpsq.simctl import (
    _FORWARD_HEADER,
    EXIT_CONFIG,
    EXIT_EXHAUSTED,
    EXIT_IO,
    EXIT_OK,
    EXIT_SUITE_FAILED,
    ConfigError,
    ExperimentConfig,
    _csv_bytes,
    _fmt,
    _forward_csv_rows,
    _parse_rho,
    _rep_ranges,
    load_config,
    main,
    rate_from_config,
    run_experiment,
)
from gpsq.stationary import BATCH_ROWS

MM_INPUT = {"model": "iid", "xi": {"dist": "exp", "mean": 3},
            "sigma": {"dist": "exp", "mean": 1}}


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
    """(seed, trajectory_rows segments) of each forward_sim replication,
    built from the replication's own input block."""
    r = rate_from_config(cfg.rate_spec)
    reps = []
    for i in range(cfg.replications):
        seed = input_process.replication_seed(cfg.base_seed, i)
        gen = input_process.generator_from_config(cfg.input_spec, seed_override=seed)
        xi, sigma = gen.sample_block(0, cfg.horizon)
        arrivals = np.concatenate([[0.0], np.cumsum(xi)])
        events = [(float(arrivals[k]), float(sigma[k])) for k in range(cfg.horizon)]
        reps.append((seed, trajectory_rows(ZERO, events, float(arrivals[-1]), r)))
    return reps


def forward_csv_via_writer(rows):
    """forward_sim CSV bytes through csv.writer over _fmt'd floats, from
    (replication, seed, segment) triples."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_FORWARD_HEADER)
    for i, seed, (t0, t1, q, ws, dr) in rows:
        w.writerow((i, seed, _fmt(t0), _fmt(t1), q, _fmt(ws), _fmt(dr)))
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

    def test_rate_specs(self):
        assert rate_from_config({"kind": "classical_ps"}).kind == "classical_ps"
        assert rate_from_config({"kind": "scaled_ps", "k": 0.5}).declared_floor == 0.5
        r = rate_from_config({"kind": "custom_table", "floor": 0.8,
                              "table": {1: 1.0, 2: 0.495, 3: 0.3, 100: 0.008}})
        assert r(50) == 0.3
        with pytest.raises(ConfigError):
            rate_from_config({"kind": "scaled_ps"})
        with pytest.raises(ConfigError):
            rate_from_config({"kind": "warp"})

    def test_parse_rho(self):
        assert _parse_rho("0.5:1.0:0.25") == (0.5, 0.75, 1.0)
        assert _parse_rho("0.3,0.9") == (0.3, 0.9)
        with pytest.raises(ConfigError):
            _parse_rho("1.0:0.5:0.1")


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
        # system), negative zero, huge times, the largest seed
        reps = [
            (0, 2**64 - 1, [(0.0, 1e-300, 3, -3.5e-13, 0.75)]),
            (1, 2**63, [(1e20, 1.5e20, 0, 0, 0.0), (1.5e20, 2e20, 2, 1e20, 0.5)]),
            (2, 0, [(5e-324, 0.1, 1, -0.0, 1.0)]),
        ]
        rendered = _csv_bytes(_FORWARD_HEADER, ()) + b"".join(
            _forward_csv_rows(i, seed, segs) for i, seed, segs in reps)
        assert rendered == forward_csv_via_writer(
            (i, seed, seg) for i, seed, segs in reps for seg in segs)

    @pytest.mark.parametrize("n", [1, 7, 21])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_forward_sim_bytes_do_not_depend_on_jobs(self, tmp_path, n, fmt):
        # 7 and 21 replications do not split evenly into _map_ordered's
        # chunks at jobs=2; both formats must equal a reference built from
        # trajectory_rows
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

        from gpsq.simctl import ExperimentConfig, _worker_sweep_point

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
        recs = [_worker_sweep_point((cfg, rho)) for rho in cfg.rho_grid]
        freqs = [r["coupling_freq"] for r in recs]
        n = cfg.replications
        for a, b in zip(freqs, freqs[1:]):
            noise = 2.0 * math.sqrt(max(a * (1 - a), b * (1 - b), 0.04) / n)
            assert b <= a + noise, freqs
        assert freqs[0] >= 0.9 and freqs[-1] <= 0.1

    def test_missing_rho_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.yaml", mode="stability_sweep")
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_CONFIG

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

    def test_write_failure_exits_io_and_leaves_no_temp_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.csv").mkdir()  # the output path is a directory
        cfg = write_config(tmp_path / "c.yaml", replications=2)
        assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_IO
        assert not [p.name for p in tmp_path.iterdir() if ".tmp-" in p.name]
        assert list((tmp_path / "out.csv").iterdir()) == []

    def test_unreadable_config(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.yaml")]) == EXIT_CONFIG

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
            {"rate": {"kind": "custom_table", "floor": 0.5, "table": {1: 1.0, 2: 0.5},
                      "single_server": "false"}},
            {"rate": {"kind": "custom_table", "floor": 0.5, "table": {1: 1.0, 2: 0.5},
                      "single_server": 0}},
            {"mode": "stability_sweep", "sweep": {"rho": [0.5, True]}},
        ]
        for i, overrides in enumerate(bad_specs):
            cfg = write_config(tmp_path / f"c{i}.yaml", **overrides)
            assert main(["run", str(cfg), "--jobs", "1"]) == EXIT_CONFIG, overrides


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
        ranges = _rep_ranges(n, jobs)
        assert [i for lo, hi in ranges for i in range(lo, hi)] == list(range(n))
        assert all(0 < hi - lo <= BATCH_ROWS for lo, hi in ranges)
        if jobs > 1 and n >= 4 * jobs:
            assert len(ranges) >= 4 * jobs


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

    def test_one_flipped_kernel_bit_fails_input_determinism(self, monkeypatch, capsys):
        # the lowest mantissa bit of the first uniform of every kernel call:
        # the check compares the kernel with numpy's generator
        kernel = input_process._philox_uniforms

        def flipped(seeds, purpose, a, b):
            u = kernel(seeds, purpose, a, b)
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


def test_perfbench_tracer_finds_its_names():
    """perfbench's tracer wraps names it looks up in gpsq's modules (for
    example ``simctl.backward_coupling_ps``); pruning one must fail here."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = [(owner, attr, owner.__dict__.get(attr)) for owner, attr, *_ in spans.TRACED]
    tracer = spans.Tracer()
    try:
        tracer.install()
    except KeyError as exc:
        pytest.fail(f"perfbench/spans.py traces {exc}, which its owner no longer defines")
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
