"""pytest-benchmark cases for the input layer: one many-seed
``sample_blocks`` read of iid, deterministic and Markov-modulated input,
and one long one-seed read of the Markov-modulated input, in µs per index
read.

Each call reads ``SEEDS`` seeds (one perfect-sampling batch of
``stationary.BATCH_ROWS``) over ``INDICES`` indices: the iid input is the
shipped ``configs/perfect_sample.yaml`` one, the deterministic input has
its means, and the Markov-modulated input is perfbench's ``sweep_mm``
chain.  The first two are one-state chains; the deterministic one reads no
uniforms.  The one-seed case reads the Markov-modulated input over
``FORWARD_INDICES`` indices from 0, the read ``check_stability`` makes on
``sweep_mm``.  The one-index case reads ``ONE_INDEX_READS`` single
indices of the Markov-modulated input with ``sample(n)``, one kernel pass
each.  The kernel case times one ``_philox_uniforms`` call, the Philox
pass every read runs, at the shipped batch shape (``SEEDS`` rows x
``KERNEL_INDICES`` indices, what the perfect sampler's buffer reads) and at
one row x one index (the fixed cost of a call), in µs per counter.  Kept
outside ``testpaths``; ``bench/write_bench.py`` turns the timings into µs
per index or per counter.
"""

import pytest

from gpsq.input_process import (
    _PURPOSE_MARKS,
    _philox_uniforms,
    generator_from_config,
    replication_seed,
    sample_blocks,
)
from gpsq.stationary import BATCH_ROWS

SEEDS = BATCH_ROWS
INDICES = 256
FORWARD_INDICES = 2000
ONE_INDEX_READS = 50
KERNEL_INDICES = 400

INPUTS = {
    "iid": {"model": "iid", "xi": {"dist": "exp", "mean": 3},
            "sigma": {"dist": "exp", "mean": 1}},
    "deterministic": {"model": "deterministic", "xi": 3.0, "sigma": 1.0},
    "markov_modulated": {
        "model": "markov_modulated",
        "transition": [[0.9, 0.1], [0.2, 0.8]],
        "states": [
            {"xi": {"dist": "exp", "mean": 1.5}, "sigma": {"dist": "exp", "mean": 0.5}},
            {"xi": {"dist": "exp", "mean": 0.5},
             "sigma": {"dist": "uniform", "low": 0.0, "high": 2.0}},
        ],
    },
}


@pytest.mark.parametrize("model", list(INPUTS))
def test_sample_blocks(benchmark, model):
    base = generator_from_config(INPUTS[model])
    gens = [base.with_seed(replication_seed(42, i)) for i in range(SEEDS)]
    # a backward read, as the perfect sampler's buffer makes
    xs, ss = benchmark(sample_blocks, gens, -INDICES, 0)
    assert xs.shape == ss.shape == (SEEDS, INDICES)
    benchmark.extra_info.update(unit="us_per_index", count=SEEDS * INDICES)


def test_sample_blocks_one_seed(benchmark):
    gens = [generator_from_config(INPUTS["markov_modulated"]).with_seed(replication_seed(42, 0))]
    xs, ss = benchmark(sample_blocks, gens, 0, FORWARD_INDICES)
    assert xs.shape == ss.shape == (1, FORWARD_INDICES)
    benchmark.extra_info.update(unit="us_per_index", count=FORWARD_INDICES)


def test_sample_one_index(benchmark):
    gen = generator_from_config(INPUTS["markov_modulated"]).with_seed(replication_seed(42, 0))

    def reads():
        return [gen.sample(n) for n in range(-ONE_INDEX_READS, 0)]

    assert len(benchmark(reads)) == ONE_INDEX_READS
    benchmark.extra_info.update(unit="us_per_index", count=ONE_INDEX_READS)


@pytest.mark.parametrize("shape", [(SEEDS, KERNEL_INDICES), (1, 1)], ids=["batch", "one"])
def test_philox_kernel(benchmark, shape):
    n_rows, n = shape
    rows = [(replication_seed(42, i), _PURPOSE_MARKS) for i in range(n_rows)]
    u = benchmark(_philox_uniforms, rows, -n, 0)
    assert u.shape == (n_rows, n, 2)
    benchmark.extra_info.update(unit="us_per_counter", count=n_rows * n)
