"""Run the pytest-benchmark cases in ``bench/`` and write one JSON record.

    python bench/write_bench.py BENCH_<tag>.json

The file holds the git SHA of the checkout (``null`` outside a git
checkout), facts about the machine, and one record per case: its
per-unit median (``us_per_segment``, ``us_per_row``, ``us_per_value``, ``us_per_step``, ``us_per_term``,
``us_per_index``, ``ms_per_sample``, ``ms_per_call``, ``s_per_run``) with the quartiles,
the raw per-call statistics in seconds, and the round count.  The cases import ``gpsq`` from this checkout's
``src/``.  One case is not a pytest-benchmark case: ``tier1`` times one run
of the Tier-1 command (``python -m pytest -q --continue-on-collection-errors``
at the root, with ``PYTHONPATH=src``) in a fresh process, in ``s_per_run``
over 1 round.  The Tier-1 tests never run this script, so it cannot recurse.

The machine's speed drifts, so perfbench's gpsq-free yardstick
(``perfbench/worker.py::yardstick_s``) is timed before and after the cases,
into ``yardstick_s``, and each case also gets ``median_scaled``: its median
times perfbench's reference ``YARDSTICK_S`` over the median yardstick, the
median the case would have read at the reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from run import YARDSTICK_S  # noqa: E402  (perfbench/run.py)
from worker import yardstick_s  # noqa: E402  (perfbench/worker.py)

SCALE = {"us_per_segment": 1e6, "us_per_row": 1e6, "us_per_value": 1e6, "us_per_step": 1e6,
         "us_per_term": 1e6, "us_per_index": 1e6, "ms_per_sample": 1e3, "ms_per_call": 1e3,
         "s_per_run": 1.0}


def _git_sha(root: str = ROOT) -> str | None:
    """The commit checked out at ``root``, with ``-dirty`` when a tracked
    file differs from it; ``None`` when git cannot name one (say, in a copy
    made by ``git archive``)."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=root, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha + ("-dirty" if dirty else "")


def _tier1_s(env: dict) -> float:
    """Wall time of one Tier-1 run in a fresh process; a failing run raises."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


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
    git_sha = _git_sha()  # before the cases, which take a while
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    yardstick = [yardstick_s()]
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = os.path.join(tmp, "raw.json")
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             os.path.join(ROOT, "bench"), f"--benchmark-json={raw_path}"],
            cwd=ROOT, env=env, check=True,
        )
        with open(raw_path, encoding="utf-8") as fh:
            raw = json.load(fh)
    t = _tier1_s(env)
    yardstick.append(yardstick_s())
    raw["benchmarks"].append({
        "name": "tier1", "extra_info": {"unit": "s_per_run", "count": 1},
        "stats": {"min": t, "max": t, "mean": t, "stddev": 0.0, "median": t, "q1": t, "q3": t,
                  "iqr": 0.0, "rounds": 1, "iterations": 1},
    })
    scale = YARDSTICK_S / statistics.median(yardstick)
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
            "median_scaled": st["median"] * per * scale,
            "q1": st["q1"] * per,
            "q3": st["q3"] * per,
            "rounds": st["rounds"],
            "stats_s": {k: st[k] for k in ("min", "max", "mean", "stddev", "median",
                                            "q1", "q3", "iqr", "rounds", "iterations")},
        })
    record = {
        "git_sha": git_sha,
        "machine": {
            "cpu": _cpu_model(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "pytest_benchmark": raw.get("version"),
        },
        "datetime": raw.get("datetime"),
        "yardstick_s": yardstick,
        "cases": cases,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"yardstick: {yardstick[0]:.4g} s before, {yardstick[1]:.4g} s after "
          f"(reference {YARDSTICK_S} s)")
    for c in cases:
        print(f"{c['name']}: {c['median']:.4g} {c['unit']} "
              f"(q1 {c['q1']:.4g}, q3 {c['q3']:.4g}, {c['rounds']} rounds; "
              f"scaled {c['median_scaled']:.4g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
