"""pytest-benchmark cases for whole ``simctl`` runs of the shipped configs:
``configs/perfect_sample.yaml`` and ``configs/sweep.yaml``, each at
``jobs=1`` and ``jobs=2``, in this process, writing to a temp directory.

Kept outside ``testpaths``, so the test suite never collects them.  Run
them through ``bench/write_bench.py``, which writes a ``BENCH_<tag>.json``
with the seconds per run.
"""

from pathlib import Path

import pytest

from gpsq.simctl import load_config, run_experiment

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
