"""One measurement in a fresh interpreter; prints one JSON object.

    worker.py run CONFIG --jobs N --t-spawn T [--spans PATH]
    worker.py probe

``run`` measures set-up (from ``T``, the CLOCK_MONOTONIC reading the parent
took just before starting this process, to a loaded and validated config),
then one ``run_experiment`` call between two timings of a gpsq-free
yardstick, and the peak resident memory of this process and its workers.
With ``--spans`` the call is traced (see ``spans.py``) and the per-layer
metrics are added.

``probe`` times the layers on fixed inputs, independent of any seed.

The package is imported from ``PYTHONPATH``, which ``run.py`` points at the
checkout's ``src``.
"""

import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run(argv: list[str]) -> dict:
    import argparse

    p = argparse.ArgumentParser(prog="worker.py run")
    p.add_argument("config")
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    import gpsq.simctl as simctl
    from gpsq.input_process import generator_from_config
    from gpsq.rates import validate

    cfg = simctl.load_config(args.config)
    generator_from_config(cfg.input_spec, seed_override=0)
    report = validate(simctl.rate_from_config(cfg.rate_spec))
    if not report.ok:
        raise SystemExit("rate fails validation: " + "; ".join(report.violations))
    setup_s = _now() - args.t_spawn

    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    before = yardstick_s()
    t0 = _now()
    result = simctl.run_experiment(cfg, jobs=args.jobs)
    wall_s = _now() - t0
    out = {
        "gpsq_file": simctl.__file__,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "yardstick_s": [before, yardstick_s()],
        "out_path": result.out_path,
        "records": result.rows,
        "exhausted": result.exhausted,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.summary(wall_s)
        tracer.dump(args.spans)

    out["peak_rss_mb"] = _peak_rss_kb() / 1024.0
    return out


def yardstick_s() -> float:
    """Time of a fixed piece of interpreter and numpy work that runs no gpsq
    code: how fast the machine is at the moment, for ``run.py`` to scale
    the end-to-end times by."""
    import numpy as np

    t0 = time.perf_counter()
    for i in range(8000):
        key = np.array([i, 7], dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random()
        xs = sorted([u, 0.5, 0.25, 0.75, u / 2, u / 3])
        [x - u for x in xs if x > u]
    return time.perf_counter() - t0


def _peak_rss_kb() -> int:
    """Peak resident memory of this process plus that of its waited-for
    children (the jobs=2 workers).  This process's own ``ru_maxrss`` is not
    used: Linux carries the parent's peak over ``exec``, so it would report
    the benchmark's memory; ``VmHWM`` starts afresh at ``exec``."""
    import resource

    with open("/proc/self/status", encoding="ascii") as fh:
        hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return hwm + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _per_call_us(fn, calls: int, repeats: int = 5) -> float:
    """Median over ``repeats`` batches of the time per call, in µs;
    ``fn(r)`` makes ``calls`` calls in batch ``r``."""
    times = []
    for rep in range(repeats):
        t0 = time.perf_counter()
        fn(rep)
        times.append((time.perf_counter() - t0) / calls * 1e6)
    times.sort()
    return times[len(times) // 2]


def probe() -> dict:
    import numpy as np

    from gpsq import CountingMeasure, half_interference, iid_input, lindley_W, step
    from gpsq.input_process import Exponential, generator_from_config
    from gpsq.simctl import rate_from_config
    from workloads import WORKLOADS

    iid = iid_input(Exponential(3.0), Exponential(1.0), seed=12345)
    sweep = WORKLOADS["sweep_mm"]["config"]
    mm = generator_from_config(sweep["input"], seed_override=12345)
    table = rate_from_config(sweep["rate"])

    # distinct indices in every batch, so no memoised value is read
    def sample_batch(gen, n):
        def go(rep):
            for i in range(-(rep + 1) * n, -rep * n):
                gen.sample(i)

        return go

    out = {
        "input_process.probe_us_iid": _per_call_us(sample_batch(iid, 4000), 4000),
        "input_process.probe_us_mm": _per_call_us(sample_batch(mm, 1000), 1000),
    }
    atoms = np.random.default_rng(0).uniform(1.0, 10.0, 99)
    for n, r, key in (
        (1, half_interference(), "n1"),
        (10, half_interference(), "n10"),
        (100, half_interference(), "n100"),
        (100, table, "n100_table"),
    ):
        # n - 1 atoms plus the arrival; the cycle is too short for anyone
        # to leave, so every call drains exactly n customers
        mu = CountingMeasure(atoms[: n - 1])
        calls = 4000 if n < 100 else 1000

        def go(rep, mu=mu, r=r, calls=calls):
            for _ in range(calls):
                step(mu, 5.0, 1e-3, r)

        out[f"dynamics.probe_step_us_{key}"] = _per_call_us(go, calls)

    terms = 10_000
    # a window longer than the scan: no certification, exactly `terms` terms
    out["stationary.probe_lindley_us_per_term"] = _per_call_us(
        lambda rep: lindley_W(iid.shift(-rep * terms), 0.5, max_lookback=terms,
                              improvement_window=2 * terms),
        terms,
        repeats=3,
    )
    return out


def main() -> int:
    import json

    if len(sys.argv) < 2 or sys.argv[1] not in ("run", "probe"):
        print(__doc__, file=sys.stderr)
        return 2
    out = run(sys.argv[2:]) if sys.argv[1] == "run" else probe()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
