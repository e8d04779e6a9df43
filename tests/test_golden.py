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
        "3b84fce665d14041624eff0e637fe8cbbb955d682bb1c9ad43307d78eec93b36",
    ("forward_sim", "json"):
        "e55cfd7083b8bda4e413292984451c020d5e1611ea5464702068de0e152bb9ec",
    ("forward_sim_mm", "csv"):
        "89fd8ff0f6da5db04c36ffc6615ae7b03d4e81a8914927a5295886f1adce0f72",
    ("forward_sim_mm", "json"):
        "aef4e1ed9ab68f1f9a379fdd62464ed7ad553436801c50e79ca10093d6ace751",
    ("stability_sweep", "csv"):
        "5c3d41bbdafbd1d8e98ac5172386e3ea66115df0a584ebe474c6d30d2fe1d30c",
    ("stability_sweep", "json"):
        "f2716b66c4b16db665e8ecd4bc825b20fa591ec7bf778eb5f6fe16a93f60e937",
    ("forward_sim_det_xi_pareto", "csv"):
        "bc29e2cd9c865e2ef2180edb08c6eccb4b66281bed7fc05ba34d986ca650416c",
    ("forward_sim_det_xi_pareto", "json"):
        "2d911111493996a289190333706fc70d88b61fba9502b2f7a2ddc9f975c48a35",
    ("forward_sim_deterministic", "csv"):
        "acdd5be8016fd1a97805339ee18a78475e83b947a3646e2464e7e8d2c2457070",
    ("forward_sim_deterministic", "json"):
        "175613d081600441f8ab82ae88e318b57a27f514b221f6007371278aa2c83e48",
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
    # trajectory computes w_start as sum(atoms), and other float sums
    # feed the artifacts; the pinned hashes hold only while sum() adds
    # plainly from left to right
    assert sum([1.0, 1e100, 1.0, -1e100]) == 0.0, (
        "float sum() is compensated on this interpreter (CPython 3.12 and later), "
        "so forward_sim's w_start and the golden hashes in tests/test_golden.py "
        "would move in the last digits"
    )
