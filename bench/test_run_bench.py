"""pytest-benchmark cases for whole ``simctl`` runs, in this process: the
shipped configs ``configs/perfect_sample.yaml`` and ``configs/sweep.yaml``,
each at ``jobs=1`` and ``jobs=2`` and writing to a temp directory, a
``gginf_stationary`` run (``GGINF``: 200 replications of iid input with
exp(1) gaps and exp(2) demands) at ``jobs=1``, and ``simctl verify``.  ``test_map_ordered`` times the fan-out alone: the
``jobs=2`` spread of a trivial function over 2 and 8 items, in ms per call.
``test_startup`` times what a ``simctl`` process does before its run: a
fresh interpreter that imports ``gpsq.simctl`` and loads
``configs/perfect_sample.yaml``, with no BLAS thread variable set.

Kept outside ``testpaths``, so the test suite never collects them.  Run
them through ``bench/write_bench.py``, which writes a ``BENCH_<tag>.json``
with the seconds per run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpsq
from gpsq.simctl import (
    EXIT_OK,
    ExperimentConfig,
    _map_ordered,
    load_config,
    main,
    run_experiment,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", ["perfect_sample", "sweep"])
def test_run_experiment(benchmark, tmp_path, name, jobs):
    cfg = load_config(str(CONFIGS / f"{name}.yaml"))
    cfg.out_path = str(tmp_path / f"{name}.csv")
    result = benchmark.pedantic(run_experiment, args=(cfg,), kwargs={"jobs": jobs},
                                rounds=5, iterations=1, warmup_rounds=1)
    assert result.rows == (cfg.replications if name == "perfect_sample" else len(cfg.rho_grid))
    benchmark.extra_info.update(unit="s_per_run", count=1)


GGINF = {
    "schema_id": "gpsq-experiment-v1",
    "mode": "gginf_stationary",
    "base_seed": 5,
    "replications": 200,
    "max_lookback": 10_000,
    "input": {"model": "iid", "xi": {"dist": "exp", "mean": 1},
              "sigma": {"dist": "exp", "mean": 2}},
}


def test_run_gginf(benchmark, tmp_path):
    cfg = ExperimentConfig.from_dict(dict(GGINF, output={"path": str(tmp_path / "g.csv")}))
    result = benchmark.pedantic(run_experiment, args=(cfg,), kwargs={"jobs": 1},
                                rounds=5, iterations=1, warmup_rounds=1)
    assert result.rows == 200
    benchmark.extra_info.update(unit="s_per_run", count=1)


def test_verify(benchmark, capsys):
    code = benchmark.pedantic(main, args=(["verify"],), rounds=3, iterations=1,
                              warmup_rounds=1)
    assert code == EXIT_OK
    benchmark.extra_info.update(unit="s_per_run", count=1)


def _double(chunk):
    return [2 * i for i in chunk]


@pytest.mark.parametrize("n", [2, 8])
def test_map_ordered(benchmark, n):
    items = list(range(n))
    assert benchmark(lambda: list(_map_ordered(_double, items, 2))) == _double(items)
    benchmark.extra_info.update(unit="ms_per_call", count=1)


def test_startup(benchmark):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(gpsq.__file__).resolve().parents[1])
    code = ("import gpsq.simctl; gpsq.simctl.load_config(%r)"
            % str(CONFIGS / "perfect_sample.yaml"))
    benchmark.pedantic(subprocess.run, args=([sys.executable, "-c", code],),
                       kwargs={"env": env, "check": True}, rounds=20, iterations=1,
                       warmup_rounds=1)
    benchmark.extra_info.update(unit="s_per_run", count=1)
