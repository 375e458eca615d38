#!/usr/bin/env python3
"""Layered end-to-end benchmark of the DASHMM/HPX-5 reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload session-cube --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed.  ``--trace 1`` wraps each layer's public functions from the
outside (``perfbench/spans.py``), traces every other steady-phase
operation, reports the per-layer metrics, the share of time no layer
span covers and the tracing overhead, and writes a Chrome trace-event
file under ``perfbench/out/``.  Metric names and units come from
``BENCHMARK.json``.  Human-readable lines go first; the last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def tail(samples: list[float]):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    xs = sorted(samples)
    return xs[n - 11], 100.0 * (n - 10) / n, n


def host_info(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # the BLAS description is informational only
        blas = {"name": "unknown"}
    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": blas,
        "blas_env": {k: os.environ.get(k, "unset") for k in THREAD_ENV},
        "seed": seed,
    }


def overhead(ops) -> tuple[float, float]:
    """Traced minus untraced latency, per traced op (s) and as a fraction.

    Compares operations of one kind; the first of each kind is left out
    because it also pays one-off warm-up work.
    """
    num = den = 0.0
    n_traced = 0
    for kind in {k for k, *_ in ops}:
        same = [(dt, t) for k, dt, _, t in ops if k == kind][1:]
        tr = [dt for dt, t in same if t]
        un = [dt for dt, t in same if not t]
        if tr and un:
            mu = statistics.fmean(un)
            num += len(tr) * (statistics.fmean(tr) - mu)
            den += len(tr) * mu
            n_traced += len(tr)
    if not n_traced:
        return 0.0, 0.0
    return num / n_traced, num / den


def end_to_end(run) -> dict[str, float]:
    lat = [dt for _, dt, _, _ in run.ops]
    return {
        "setup_s": statistics.median(run.setup_s),
        "latency_ms_p50": 1e3 * statistics.median(lat),
        "points_per_s": sum(n for _, _, n, _ in run.ops) / sum(lat),
        "peak_rss_mb": run.peak_rss_mb,
    }


def named_lines(run) -> list[str]:
    """The per-operation-class figures, under their workload-specific names."""
    lines = []
    classes = {"requery": ("requery_ms", 1e3, "ms"), "step": ("step_ms", 1e3, "ms"),
               "evaluate": ("evaluate_s", 1.0, "s"), "phantom": ("phantom_s", 1.0, "s")}
    for kind, (name, scale, unit) in classes.items():
        xs = [dt for k, dt, _, _ in run.ops if k == kind]
        if not xs:
            continue
        lines.append(f"{name}_p50 {scale * statistics.median(xs):.6g} {unit} (n={len(xs)})")
        lines.append(f"# {name} samples: " + " ".join(f"{scale * x:.4g}" for x in xs))
        t = tail(xs)
        if t is None:
            lines.append(
                f"{name}_tail n/a (n={len(xs)}: no percentile has ten samples above it; "
                f"max {scale * max(xs):.6g} {unit})"
            )
        else:
            lines.append(f"{name}_tail {scale * t[0]:.6g} {unit} (p{t[1]:.1f}, n={t[2]})")
    errs = [v for name, _, v, _ in run.checks if name == "rel_error"]
    if errs:
        lines.append(f"rel_error {statistics.median(errs):.4e} ratio (median of {len(errs)}, max {max(errs):.4e})")
    return lines


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the parallel backend snapshots fitted operators to a temporary
    # directory; keep it (and everything else temporary) in the checkout
    tmp = os.path.join(HERE, "out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = tmp

    from spans import Tracer, instrument
    from workloads import WORKLOADS, Run

    tracer = Tracer()
    if args.trace:
        instrument(tracer)
    run = Run(tracer, bool(args.trace))
    host = host_info(args.seed)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# host {json.dumps(host, sort_keys=True)}")
    WORKLOADS[args.workload](run, args.seed, args.seconds)
    for note in run.notes:
        print(f"# {note}")

    attempted = len(run.ops) + run.op_failures + len(run.checks)
    failed = run.op_failures + sum(1 for _, ok, _, known in run.checks if not ok and not known)
    all_failed = failed + sum(1 for _, ok, _, known in run.checks if not ok and known)
    by_check: dict[str, list] = {}
    for name, ok, value, known in run.checks:
        by_check.setdefault(name, []).append((ok, value, known))
    for name, rows in by_check.items():
        bad = sum(1 for ok, _, _ in rows if not ok)
        worst = max(abs(v) for _, v, _ in rows)
        label = " (known defect, see perfbench/NOTES.md)" if rows[0][2] and bad else ""
        print(f"check {name}: {len(rows) - bad}/{len(rows)} passed, max |value| {worst:.6g}{label}")
    print(f"failed_frac {all_failed / attempted:.6g} ratio ({all_failed} of {attempted}, known defects included)")

    if args.trace:
        metrics = tracer.layer_metrics("steady")
        metrics.update(tracer.dag_metrics())
        for key, val in tracer.layer_metrics("setup").items():
            metrics[f"setup.{key}"] = val
        per_op, frac = overhead(run.ops)
        metrics["trace.overhead_ms"] = 1e3 * per_op
        metrics["trace.overhead_frac"] = frac
        metrics.update(run.extra)
        wanted = spec["per_layer"]
        path = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write_chrome(path, {"workload": args.workload, "host": host})
        print(f"# chrome trace: {os.path.relpath(path, ROOT)} ({len(tracer.spans)} spans)")
    else:
        metrics = end_to_end(run)
        for line in named_lines(run):
            print(line)
        wanted = spec["end_to_end"]
    result = {}
    for m in wanted:
        value = float(metrics.get(m["name"], 0.0))
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']}")
    correct = failed == 0 and len(run.ops) > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


def stop_helpers() -> None:
    """End the resource-tracker process that spawned workers leave behind.

    It would otherwise outlive this process by a moment; ``_stop`` closes
    its pipe and waits for it.  Registered with ``atexit`` before
    ``multiprocessing`` is imported, so it runs after multiprocessing's
    own exit hook has released every semaphore the tracker watches.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


if __name__ == "__main__":
    atexit.register(stop_helpers)
    sys.exit(main())
