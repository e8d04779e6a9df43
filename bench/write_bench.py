"""Run the pytest-benchmark cases in ``bench/`` and write one JSON record.

    python bench/write_bench.py BENCH_<tag>.json

The file holds the git SHA of the checkout, facts about the machine, and
one record per case: its per-unit median (``us_per_segment``,
``us_per_row``, ``us_per_value``, ``us_per_step``, ``us_per_term``,
``us_per_index``, ``ms_per_sample``, ``ms_per_call``, ``s_per_run``) with the quartiles,
the raw per-call statistics in seconds, and the round count.  The cases import ``gpsq`` from this checkout's
``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCALE = {"us_per_segment": 1e6, "us_per_row": 1e6, "us_per_value": 1e6, "us_per_step": 1e6,
         "us_per_term": 1e6, "us_per_index": 1e6, "ms_per_sample": 1e3, "ms_per_call": 1e3,
         "s_per_run": 1.0}


def _git_sha() -> str:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                           capture_output=True, text=True, check=True).stdout.strip()
    return sha + ("-dirty" if dirty else "")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="path of the JSON file to write")
    args = ap.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = os.path.join(tmp, "raw.json")
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             os.path.join(ROOT, "bench"), f"--benchmark-json={raw_path}"],
            cwd=ROOT, env=env, check=True,
        )
        with open(raw_path, encoding="utf-8") as fh:
            raw = json.load(fh)
    cases = []
    for b in raw["benchmarks"]:
        unit, count = b["extra_info"]["unit"], b["extra_info"]["count"]
        per = SCALE[unit] / count
        st = b["stats"]
        cases.append({
            "name": b["name"],
            "unit": unit,
            "count": count,
            "median": st["median"] * per,
            "q1": st["q1"] * per,
            "q3": st["q3"] * per,
            "rounds": st["rounds"],
            "stats_s": {k: st[k] for k in ("min", "max", "mean", "stddev", "median",
                                            "q1", "q3", "iqr", "rounds", "iterations")},
        })
    record = {
        "git_sha": _git_sha(),
        "machine": {
            "cpu": _cpu_model(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "pytest_benchmark": raw.get("version"),
        },
        "datetime": raw.get("datetime"),
        "cases": cases,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for c in cases:
        print(f"{c['name']}: {c['median']:.4g} {c['unit']} "
              f"(q1 {c['q1']:.4g}, q3 {c['q3']:.4g}, {c['rounds']} rounds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
