"""Golden artifact hashes: small configs of every mode, pinned by SHA-256.

Result files are a pure function of config and seed, so any change to a
pinned hash is a change to the numbers the package produces.  A change that
moves output bytes on purpose re-pins the hashes here and says why.
"""

import hashlib

import pytest

from gpsq.simctl import ExperimentConfig, run_experiment

SCHEMA_ID = "gpsq-experiment-v1"

IID_INPUT = {"model": "iid", "xi": {"dist": "exp", "mean": 3},
             "sigma": {"dist": "exp", "mean": 1}}

MM_INPUT = {
    "model": "markov_modulated",
    "transition": [[0.9, 0.1], [0.2, 0.8]],
    "states": [
        {"xi": {"dist": "exp", "mean": 1.5}, "sigma": {"dist": "exp", "mean": 0.5}},
        {"xi": {"dist": "exp", "mean": 0.5},
         "sigma": {"dist": "uniform", "low": 0.0, "high": 2.0}},
    ],
}

# Stable Markov-modulated input for a forward run under half_interference,
# where the trajectory meets many occupancies and r(q) is not 1/q.
FWD_MM_INPUT = {
    "model": "markov_modulated",
    "transition": [[0.9, 0.1], [0.2, 0.8]],
    "states": [
        {"xi": {"dist": "exp", "mean": 1.5}, "sigma": {"dist": "exp", "mean": 0.4}},
        {"xi": {"dist": "exp", "mean": 0.8},
         "sigma": {"dist": "uniform", "low": 0.0, "high": 1.2}},
    ],
}

# Rate close to 1/n with throughput floor 0.9, as a table.
NEAR_PS_TABLE = {n: (0.9 + 0.1 / n) / n for n in range(1, 33)}

CONFIGS = {
    "ps_perfect_sample": {
        "mode": "ps_perfect_sample",
        "base_seed": 42,
        "replications": 4,
        "max_lookback": 10_000,
        "lindley_window": 200,
        "input": IID_INPUT,
        "rate": {"kind": "half_interference"},
    },
    # More replications than one perfect-sampling batch and not a multiple
    # of its size, a short lookback, and the Lindley window and margin from
    # the model means.
    "ps_perfect_sample_mm": {
        "mode": "ps_perfect_sample",
        "base_seed": 13,
        "replications": 150,
        "max_lookback": 300,
        "input": MM_INPUT,
        "rate": {"kind": "custom_table", "table": NEAR_PS_TABLE, "floor": 0.9},
    },
    "gginf_stationary": {
        "mode": "gginf_stationary",
        "base_seed": 5,
        "replications": 4,
        "input": dict(IID_INPUT, sigma={"dist": "pareto", "alpha": 2.5, "scale": 0.6}),
    },
    "forward_sim": {
        "mode": "forward_sim",
        "base_seed": 1,
        "replications": 2,
        "horizon": 300,
        "input": {"model": "iid", "xi": {"dist": "exp", "mean": 1},
                  "sigma": {"dist": "uniform", "low": 0.0, "high": 1.6}},
        "rate": {"kind": "classical_ps"},
    },
    "forward_sim_mm": {
        "mode": "forward_sim",
        "base_seed": 11,
        "replications": 2,
        "horizon": 2000,
        "input": FWD_MM_INPUT,
        "rate": {"kind": "half_interference"},
    },
    "stability_sweep": {
        "mode": "stability_sweep",
        "base_seed": 7,
        "replications": 2,
        "max_lookback": 300,
        "stability_samples": 1000,
        "input": MM_INPUT,
        "rate": {"kind": "custom_table", "table": NEAR_PS_TABLE, "floor": 0.9},
        "sweep": {"rho": [0.9, 1.2]},
    },
    # Inputs that consume fewer uniforms than marks: a deterministic
    # inter-arrival law leaves sigma the first uniform of each index, and
    # the Pareto sigma goes through its own power transform.
    "forward_sim_det_xi_pareto": {
        "mode": "forward_sim",
        "base_seed": 3,
        "replications": 2,
        "horizon": 300,
        "input": {"model": "iid", "xi": {"dist": "deterministic", "value": 1.0},
                  "sigma": {"dist": "pareto", "alpha": 2.5, "scale": 0.4}},
        "rate": {"kind": "classical_ps"},
    },
    # Constant marks, no uniforms at all.
    "forward_sim_deterministic": {
        "mode": "forward_sim",
        "base_seed": 9,
        "replications": 2,
        "horizon": 60,
        "input": {"model": "deterministic", "xi": 1.0, "sigma": 1.3},
        "rate": {"kind": "half_interference"},
    },
}

GOLDEN = {
    ("ps_perfect_sample", "csv"):
        "dab6d6a634badfa4ccd10e184a8a694be83cb903218f7ce701c4395001d7add2",
    ("ps_perfect_sample", "json"):
        "a1b2512f887115b668a1d19d3346b1216a9e499c8db420ec9c6004447a90fda1",
    ("ps_perfect_sample_mm", "csv"):
        "c9de899ad2c7e3297dce974d42a63d80e523ebc41cc841b3bc46e1c599e5bbbf",
    ("ps_perfect_sample_mm", "json"):
        "42a9b379711c82498ad0c3d7dfbcc9f273069b40fd281355f67e950f45433867",
    ("gginf_stationary", "csv"):
        "98f2e18806b13613a7a8e2d71e2b3ace0bc148a6ac56e5d012c2db3b9c53c6e8",
    ("gginf_stationary", "json"):
        "07f9a223b58d94cb60985f8fc788bd17b76418763574c4883332db78f90c60f6",
    ("forward_sim", "csv"):
        "77a9b767849a28b63480bdfdc79fb0f9de3e28f269036dd3bcc30a3b2e0ccd8d",
    ("forward_sim", "json"):
        "44924b5fa33f5d43c2c78326d909e5f9a82eeceb1585b6a3f8d1a1caca9c26c4",
    ("forward_sim_mm", "csv"):
        "0c8d61c69c095e705da4da5489b10821bb3ed95b3013e5d338bf9fcf22e01ec6",
    ("forward_sim_mm", "json"):
        "be25596cb8b913e41ada1b73ee5cdd91490dd8bc532f46583b4238f6a43becd6",
    ("stability_sweep", "csv"):
        "5c3d41bbdafbd1d8e98ac5172386e3ea66115df0a584ebe474c6d30d2fe1d30c",
    ("stability_sweep", "json"):
        "f2716b66c4b16db665e8ecd4bc825b20fa591ec7bf778eb5f6fe16a93f60e937",
    ("forward_sim_det_xi_pareto", "csv"):
        "b3a239391bc1920ef9baab7c985b4ffef75cd6eff327db3cd8903ca2ed5331c0",
    ("forward_sim_det_xi_pareto", "json"):
        "2f867a3dc43256f82266e33c9d68079d5e65f965d5b03179c5ffaef2cc4c6739",
    ("forward_sim_deterministic", "csv"):
        "575da8b37bdb5559f35893a10e2480ecbd952dce8061ab1b4101afa64903b1c7",
    ("forward_sim_deterministic", "json"):
        "6f57db11c51d49ac98a7ed9266cfe4c5190bb6407b5270bacb5103eccd16e648",
}


@pytest.mark.parametrize("mode, fmt", sorted(GOLDEN))
def test_artifact_hash(tmp_path, mode, fmt):
    out = tmp_path / f"{mode}.{fmt}"
    data = dict(CONFIGS[mode], schema_id=SCHEMA_ID,
                output={"path": str(out), "format": fmt})
    run_experiment(ExperimentConfig.from_dict(data), jobs=1)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[(mode, fmt)]


@pytest.mark.parametrize("mode, fmt", sorted(GOLDEN))
def test_artifact_hash_does_not_depend_on_jobs(tmp_path, mode, fmt):
    # two and three processes split the work into different chunks and
    # run them in different processes; the bytes stay those of jobs=1
    for jobs in (2, 3):
        out = tmp_path / f"{mode}-{jobs}.{fmt}"
        data = dict(CONFIGS[mode], schema_id=SCHEMA_ID,
                    output={"path": str(out), "format": fmt})
        run_experiment(ExperimentConfig.from_dict(data), jobs=jobs)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[(mode, fmt)], jobs


def test_float_sum_adds_left_to_right():
    # the float sums that reach the artifacts go through measures.left_sum,
    # a plain left-to-right fold; a built-in sum() that crept back in would
    # hold the pinned hashes only while sum() adds plainly too
    assert sum([1.0, 1e100, 1.0, -1e100]) == 0.0, (
        "float sum() is compensated on this interpreter (CPython 3.12 and later): "
        "a result value summed with the built-in sum() instead of "
        "gpsq.measures.left_sum would move the golden hashes in "
        "tests/test_golden.py in the last digits"
    )
