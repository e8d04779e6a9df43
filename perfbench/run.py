"""gpsq benchmark: one workload, end-to-end or traced, with correctness checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ps_shipped [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, both modes

With ``--trace 0`` input sets 0, 1, 2, ... of the workload run for
``--seconds`` (at least three sets), each twice through
``gpsq.simctl.run_experiment``, at ``jobs=1`` and at ``jobs=2``, each in a
fresh interpreter, and the end-to-end metrics are the medians over the sets.
With ``--trace 1`` input set 0 runs untraced and traced by turns at
``jobs=1``, followed by the fixed-input layer probes, and the per-layer
metrics are reported.  Metric names and units are the ones declared in
``BENCHMARK.json``; the last line of standard output is the result as JSON.

Artifacts go to a temporary directory under ``.perfbench_out/`` that is
removed at exit; the full record of a run (machine facts, work counts, every
set's raw values, every check) is written to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``.  Exit code 0 when every
correctness check passes, 1 when one fails, 2 when the checkout has no
sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import yaml

from workloads import WORKLOADS, set_config

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKER_TIMEOUT_S = 120
MIN_SETS = 3
# Median of worker.yardstick_s() on the 2-core Xeon the benchmark was
# defined on.  The machine's speed drifts by 20 % and more over minutes (the
# same set slows down together with the yardstick), so end-to-end times are
# reported as raw time * YARDSTICK_S / (median yardstick of the run): the
# time the run would have taken at the reference speed.
YARDSTICK_S = 0.16
# no new input set starts after this much of a run, so it ends within 180 s
RUN_BUDGET_S = 140
TRACE_PAIRS = 2


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class WorkerError(Exception):
    pass


class Run:
    """Spawns workers for one workload and collects checks and counts."""

    def __init__(self, root: str, workload: str, seed: int, tmp: str):
        self.root, self.workload, self.seed, self.tmp = root, workload, seed, tmp
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), SIMCTL_OUT_DIR=tmp)
        self.checks: list[tuple[str, bool, str]] = []
        self.ops = 0
        self.exhausted_stable = 0

    def _spawn(self, args: list[str]) -> dict:
        t_spawn = _now()
        proc = subprocess.Popen(
            [sys.executable, WORKER, *args, *(["--t-spawn", repr(t_spawn)] if args[0] == "run" else [])],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise WorkerError(f"worker {args[:2]} exceeded {WORKER_TIMEOUT_S} s")
        if proc.returncode != 0:
            raise WorkerError(f"worker {args[:2]} exited {proc.returncode}: {err.strip()[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def experiment(self, k: int, jobs: int, spans: str | None = None) -> dict:
        """One run_experiment of input set ``k`` in a fresh interpreter."""
        cfg = set_config(self.workload, self.seed, k)
        tag = f"set{k}-j{jobs}" + ("-traced" if spans else "")
        cfg["output"]["path"] = f"{self.workload}-{tag}.csv"
        path = os.path.join(self.tmp, f"{tag}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh)
        res = self._spawn(["run", path, "--jobs", str(jobs)] + (["--spans", spans] if spans else []))
        expected = os.path.realpath(os.path.join(self.root, "src", "gpsq"))
        if os.path.dirname(os.path.realpath(res["gpsq_file"])) != expected:
            raise WorkerError(f"worker imported gpsq from {res['gpsq_file']}, not {expected}")
        with open(res["out_path"], "rb") as fh:
            res["sha256"] = hashlib.sha256(fh.read()).hexdigest()
        res["out_bytes"] = os.path.getsize(res["out_path"])
        res["config"] = cfg
        return res

    def probe(self) -> dict:
        return self._spawn(["probe"])

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, ok, detail))

    def check_artifact(self, res: dict) -> None:
        from checks import check_artifact

        try:
            checks, ops, exhausted = check_artifact(res["config"], res["out_path"], res["exhausted"])
        except (ValueError, IndexError) as exc:  # malformed rows
            self.check("artifact_parse", False, f"{res['out_path']}: {exc!r}")
            return
        self.checks.extend(checks)
        self.ops += ops
        self.exhausted_stable += exhausted

    def same_bytes(self, name: str, a: dict, b: dict) -> None:
        self.check(name, a["sha256"] == b["sha256"], f"{a['out_path']} vs {b['out_path']}")

    def drop(self, *results: dict) -> None:
        for res in results:
            for path in (res["out_path"], res["out_path"] + ".manifest.json"):
                if os.path.exists(path):
                    os.remove(path)


def measure(run: Run, seconds: int, t_start: float) -> tuple[dict, dict]:
    """End-to-end metrics: medians over the input sets measured in
    ``seconds`` (at least MIN_SETS of them), times scaled to the yardstick
    speed YARDSTICK_S."""
    raw: dict[str, list[float]] = {
        "setup_s": [], "wall_s": [], "wall_s_j2": [], "peak_rss_mb": [], "yardstick_s": [],
    }
    k, set_s = 0, 0.0
    while k < MIN_SETS or _now() - t_start + set_s <= seconds:
        if _now() - t_start > RUN_BUDGET_S:
            break
        t_set = _now()
        one = run.experiment(k, jobs=1)
        two = run.experiment(k, jobs=2)
        raw["setup_s"] += [one["setup_s"], two["setup_s"]]
        raw["wall_s"].append(one["wall_s"])
        raw["wall_s_j2"].append(two["wall_s"])
        raw["peak_rss_mb"].append(one["peak_rss_mb"])
        raw["yardstick_s"] += one["yardstick_s"] + two["yardstick_s"]
        run.same_bytes("jobs_invariance", one, two)
        run.check_artifact(one)
        run.drop(one, two)
        set_s = _now() - t_set
        k += 1
    medians = {name: statistics.median(vals) for name, vals in raw.items()}
    scale = YARDSTICK_S / medians["yardstick_s"]
    metrics = {name: medians[name] * scale for name in ("setup_s", "wall_s", "wall_s_j2")}
    metrics["peak_rss_mb"] = medians["peak_rss_mb"]
    return metrics, {"sets": k, "speed_scale": scale, "raw_medians": medians, "raw": raw}


def measure_traced(run: Run, t_start: float) -> tuple[dict, dict]:
    """Per-layer metrics of input set 0: medians over traced runs, plus the
    probes and the tracing overhead against untraced runs of the same set."""
    untraced, traced = [], []
    for i in range(TRACE_PAIRS):
        if i and _now() - t_start > RUN_BUDGET_S / 2:
            break
        plain = run.experiment(0, jobs=1)
        spans = os.path.join(run.root, ".perfbench_out", f"spans-{run.workload}-seed{run.seed}.npz")
        tr = run.experiment(0, jobs=1, spans=spans)
        run.same_bytes("tracing_invariance", plain, tr)
        if i == 0:
            run.check_artifact(plain)
        untraced.append(plain)
        traced.append(tr)
        run.drop(plain, tr)
    metrics = {
        key: statistics.median(tr["layers"][key] for tr in traced) for key in traced[0]["layers"]
    }
    wall = statistics.median(r["wall_s"] for r in untraced)
    wall_traced = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_pct"] = 100.0 * (wall_traced / wall - 1.0)
    metrics["trace.wall_s"] = wall_traced
    metrics["simctl.out_bytes"] = traced[0]["out_bytes"]
    metrics.update(run.probe())
    return metrics, {"pairs": len(traced), "untraced_wall_s": [r["wall_s"] for r in untraced]}


def machine_facts(root: str) -> dict:
    import platform

    import numpy

    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "gpsq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def work_counts(workload: str, sets: int) -> dict:
    cfg = WORKLOADS[workload]["config"]
    grid = len(cfg.get("sweep", {}).get("rho", ())) or 1
    out = {"sets": sets, "replications_per_set": cfg["replications"], "grid_points": grid}
    if cfg["mode"] == "forward_sim":
        out["arrivals_per_set"] = cfg["replications"] * cfg["horizon"]
    return out


def run_one(root: str, workload: str, seed: int, seconds: int, trace: int, declared: dict) -> dict:
    t_start = _now()
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    run = Run(root, workload, seed, tmp)
    try:
        if trace:
            metrics, detail = measure_traced(run, t_start)
            sets = 1
        else:
            metrics, detail = measure(run, seconds, t_start)
            sets = detail["sets"]
    except WorkerError as exc:
        run.check("worker", False, str(exc))
        metrics, detail, sets = {}, {}, 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # An operation is a replication or a check.  A replication that reports
    # an exhausted lookback returned a certified answer, so only failed
    # checks (and crashed workers) count in `failed`; exhaustions at a
    # stable load count in failed_frac.
    attempted = run.ops + len(run.checks)
    failed = sum(1 for _, ok, _ in run.checks if not ok)
    metrics["failed_frac"] = (run.exhausted_stable + failed) / attempted
    kind = "per_layer" if trace else "end_to_end"
    missing = [m["name"] for m in declared[kind] if m["name"] not in metrics]
    if missing:
        run.check("metrics", False, f"not measured: {missing}")
        attempted += 1
        failed += 1
    correct = all(ok for _, ok, _ in run.checks)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared[kind] if m["name"] in metrics
        },
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_facts(root),
        "work": work_counts(workload, sets),
        "detail": detail,
        "extra_metrics": {k: v for k, v in metrics.items() if k not in result["metrics"]},
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in run.checks],
        "run_s": _now() - t_start,
        "result": result,
    }
    with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for name, ok, d in run.checks:
        if not ok:
            print(f"FAIL {workload} {name}: {d}", file=sys.stderr)
    print(f"{workload} machine {json.dumps(record['machine'])}")
    print(f"{workload} work {json.dumps(record['work'])}")
    return result


def main(argv: list[str] | None = None) -> int:
    names = sorted(WORKLOADS)
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's shipped base seed)")
    p.add_argument("--seconds", type=int, default=40,
                   help="how long the input sets are measured (at least %d sets)" % MIN_SETS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gpsq", "__init__.py")):
        print(f"perfbench: no gpsq sources under {root}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))

    if args.workload != "all":
        seed = args.seed if args.seed is not None else WORKLOADS[args.workload]["default_seed"]
        result = run_one(root, args.workload, seed, args.seconds, args.trace, declared)
        for name, m in result["metrics"].items():
            print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    ok = True
    for workload in names:
        seed = args.seed if args.seed is not None else WORKLOADS[workload]["default_seed"]
        for trace in (0, 1):
            result = run_one(root, workload, seed, args.seconds, trace, declared)
            ok = ok and result["correct"]
            print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
            for name, m in result["metrics"].items():
                print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
