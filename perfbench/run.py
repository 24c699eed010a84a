"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics on the unmodified program.
``--trace 1`` runs the workload twice on identical inputs, untraced and
then with every layer wrapper of ``perfbench/layers.py`` installed, and
reports the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a failed correctness check
sets ``correct`` to false and the exit code to 1.  Results, the
environment record and (for ``--trace 1``) a Chrome trace are written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict
from typing import Dict, Optional, Tuple

#: BLAS threads, fixed before numpy loads and recorded in every result
BLAS_THREADS = 1
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)
    # the program's default fast paths, whatever the caller's environment
    os.environ.pop("NDPIPE_SCALAR_PATH", None)
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))

from perfbench.clock import REFERENCE_SNIP_S, PairedCalibration  # noqa: E402

__all__ = ["END_TO_END", "SETUP_REPEATS", "main", "run_steps"]

#: end-to-end metric name -> unit; every workload reports every one
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "p50_s": "s",
    "second_latency_s": "s",
}
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: spans kept in the Chrome trace dump (all spans feed the tables)
CHROME_SPANS = 20_000
RESULTS_DIR = os.path.join(ROOT, "perfbench", "results")


def run_steps(workload, seconds: float, calibration: PairedCalibration,
              max_steps: Optional[int] = None,
              recorder=None) -> Tuple[int, float]:
    """Run timed steps; returns (steps, timed reference seconds).

    Without ``max_steps`` the loop runs until ``seconds`` of wall time
    spent in steps (at least ``workload.min_steps`` steps), with a
    wall-clock cap so a very slow machine still finishes.  Each step's
    wall time is scaled by ``calibration`` before the workload records
    it.  With ``recorder`` each step is one root span.
    """
    wall_cap = 4 * seconds + 20
    started = time.perf_counter()
    steps = 0
    wall = 0.0
    timed = 0.0
    while True:
        if max_steps is not None:
            if steps >= max_steps:
                break
        elif steps >= workload.min_steps and (
                wall >= seconds
                or time.perf_counter() - started > wall_cap):
            break
        workload.before_step()
        if recorder is None:
            t0 = time.perf_counter()
            workload.step()
            elapsed = time.perf_counter() - t0
        else:
            with recorder.root(f"{workload.name}.step"):
                t0 = time.perf_counter()
                workload.step()
                elapsed = time.perf_counter() - t0
        scale = calibration.factor()
        calibration.steps.append((elapsed, scale))
        workload.after_step(elapsed, scale)
        wall += elapsed
        timed += elapsed * scale
        steps += 1
    return steps, timed


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment(args, workload) -> Dict:
    import numpy as np

    from repro.fastpath import flags

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fastpath_flags": asdict(flags()),
        "sizes": workload.sizes(),
        "machine": platform.machine(),
    }


def _untraced(cls, args) -> Tuple[object, Dict[str, float], Dict]:
    calibration = PairedCalibration()
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = cls(args.seed)
        t0 = time.perf_counter()
        workload.setup()
        setups.append((time.perf_counter() - t0) * calibration.factor())
    run_steps(workload, args.seconds, calibration)
    workload.finish()
    metrics = {"setup_s": statistics.median(setups),
               "peak_rss_mb": _peak_rss_mb(), **workload.generic()}
    return workload, metrics, {"snip_s": calibration.snips,
                               "steps_wall_s_scale": calibration.steps}


def _traced(cls, args) -> Tuple[object, Dict[str, float], Dict]:
    from perfbench.layers import TARGETS, per_layer_metrics
    from perfbench.spans import SpanRecorder, chrome_trace, installed, layer_table

    calibration = PairedCalibration()
    plain = cls(args.seed)
    plain.setup()
    steps, plain_s = run_steps(plain, args.seconds / 2, calibration)
    plain.finish()
    del plain

    workload = cls(args.seed)
    workload.setup()
    recorder = SpanRecorder(workload.name)
    with installed(TARGETS, recorder):
        _, traced_s = run_steps(workload, args.seconds, calibration,
                                max_steps=steps, recorder=recorder)
    workload.finish()

    table = layer_table(recorder)
    root_name = f"{workload.name}.step"
    root = table[root_name]
    total_self = sum(row["self_s"] for row in table.values())
    if abs(total_self - root["busy_s"]) > 1e-6 * root["busy_s"] + 1e-9:
        raise RuntimeError(f"self times sum to {total_self!r}, root spans "
                           f"to {root['busy_s']!r}")
    extras = dict(workload.layer_extras())
    extras["trace_overhead_share"] = traced_s / plain_s - 1.0
    metrics = per_layer_metrics(table, recorder.counters, extras, root_name)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{workload.name}.chrome.json"),
              "w") as f:
        f.write(chrome_trace(recorder, CHROME_SPANS))
    detail = {"layers": table, "counters": recorder.counters,
              "untraced_s": plain_s, "traced_s": traced_s, "steps": steps,
              "snip_s": calibration.snips,
              "steps_wall_s_scale": calibration.steps}
    return workload, metrics, detail


def _print_layer_table(workload: str, table: Dict, root_name: str) -> None:
    root_s = table[root_name]["busy_s"]
    print(f"# per-layer table: {workload} (root = {root_s:.6f} s over "
          f"{int(table[root_name]['calls'])} steps)")
    print(f"{'span':58s} {'calls':>9s} {'busy_s':>11s} {'self_s':>11s} "
          f"{'self%':>6s}")
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        label = "unattributed" if name == root_name else name
        print(f"{label:58s} {int(row['calls']):9d} {row['busy_s']:11.6f} "
              f"{row['self_s']:11.6f} {100 * row['self_s'] / root_s:6.2f}")
    total = sum(row["self_s"] for row in table.values())
    print(f"{'sum of self_s (= root)':58s} {'':9s} {'':11s} {total:11.6f} "
          f"{100 * total / root_s:6.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "retrain", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    from perfbench.layers import PER_LAYER
    from perfbench.workloads import WORKLOADS, CheckFailed

    cls = WORKLOADS[args.workload]
    try:
        if args.trace:
            workload, metrics, detail = _traced(cls, args)
        else:
            workload, metrics, detail = _untraced(cls, args)
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    env = _environment(args, workload)
    env["median_snip_s"] = statistics.median(detail["snip_s"])
    env["reference_snip_s"] = REFERENCE_SNIP_S
    summary = workload.summary()
    summary["failed_share"] = (workload.failed / workload.attempted, "share")
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print("# workload metrics (README.md maps them to the end-to-end names)")
    for name, (value, unit) in summary.items():
        print(f"{name:32s} {value:.9g} {unit}")
    print("# reported metrics")
    for name, value in metrics.items():
        print(f"{name:58s} {value:.9g} {units[name]}")
    if args.trace:
        _print_layer_table(args.workload, detail["layers"],
                           f"{args.workload}.step")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(
        RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"environment": env,
                   "workload_metrics": {k: {"value": v, "unit": u}
                                        for k, (v, u) in summary.items()},
                   "metrics": metrics, "detail": detail,
                   "attempted": workload.attempted,
                   "failed": workload.failed}, f, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": True,
        "attempted": int(workload.attempted),
        "failed": int(workload.failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
