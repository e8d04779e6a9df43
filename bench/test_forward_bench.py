"""pytest-benchmark cases for the forward path: the trajectory kernel, the
``%.17g`` column kernel, the CSV row renderer and one whole ``forward_sim``
run.

Kept outside ``testpaths``, so the test suite never collects them.  Run
them through ``bench/write_bench.py``, which turns the timings into per-unit
figures (µs per segment, per value, per row) and writes a ``BENCH_<tag>.json``.
"""

from itertools import accumulate

import numpy as np
import pytest

from gpsq.dynamics import trajectory
from gpsq.input_process import generator_from_config, replication_seed
from gpsq.measures import ZERO
from gpsq.simctl import (
    _ROW_BLOCK,
    ExperimentConfig,
    _forward_csv_rows,
    _g17,
    rate_from_config,
    run_experiment,
)

# the shape of perfbench's forward_long workload: classical PS at load 0.95,
# 20 replications of 4000 arrivals, CSV output
FORWARD_LONG = {
    "schema_id": "gpsq-experiment-v1",
    "mode": "forward_sim",
    "base_seed": 1,
    "replications": 20,
    "horizon": 4000,
    "input": {"model": "iid", "xi": {"dist": "exp", "mean": 1},
              "sigma": {"dist": "exp", "mean": 0.95}},
    "rate": {"kind": "classical_ps"},
}


@pytest.fixture(scope="module")
def replication():
    """(seed, events, end time, rate) of replication 0 of FORWARD_LONG."""
    seed = replication_seed(FORWARD_LONG["base_seed"], 0)
    gen = generator_from_config(FORWARD_LONG["input"], seed_override=seed)
    xis, sigmas = gen.sample_block(0, FORWARD_LONG["horizon"])
    times = list(accumulate(xis, initial=0.0))
    return seed, list(zip(times, sigmas)), times[-1], rate_from_config(FORWARD_LONG["rate"])


def test_trajectory(benchmark, replication):
    _, events, t, r = replication
    segments = benchmark(trajectory, ZERO, events, t, r)
    benchmark.extra_info.update(unit="us_per_segment", count=len(segments))


def test_g17(benchmark, replication):
    # the column the renderer formats for every row, the segment end times,
    # one rendering block of them
    _, events, t, r = replication
    t_end = np.array([seg[1] for seg in trajectory(ZERO, events, t, r)[:_ROW_BLOCK]])
    texts = benchmark(_g17, t_end)
    assert texts.size == t_end.size
    benchmark.extra_info.update(unit="us_per_value", count=t_end.size)


def test_forward_csv_rows(benchmark, replication):
    seed, events, t, r = replication
    segments = trajectory(ZERO, events, t, r)
    # the bytes the renderer must write, built once, outside the timed call
    template = b"".join(b"%d,%d,%.17g,%.17g,%d,%.17g,%.17g\n" % ((0, seed) + s)
                        for s in segments)
    rows = benchmark(_forward_csv_rows, 0, seed, segments)
    assert rows == template
    benchmark.extra_info.update(unit="us_per_row", count=len(segments))


def test_run_experiment_forward_long(benchmark, tmp_path):
    cfg = ExperimentConfig.from_dict(dict(
        FORWARD_LONG, output={"path": str(tmp_path / "forward_long.csv"), "format": "csv"}))
    result = benchmark.pedantic(run_experiment, args=(cfg,), kwargs={"jobs": 1},
                                rounds=5, iterations=1, warmup_rounds=1)
    assert result.rows == FORWARD_LONG["replications"]
    benchmark.extra_info.update(unit="s_per_run", count=1)
