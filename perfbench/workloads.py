"""The benchmark's workloads: inputs made from the seed, one closed loop each.

Every workload has the same shape: a *setup* phase that repeats the
workload's first operation on fresh state (its median is ``setup_s``),
then a *steady* phase of operations issued one after another by a
single client until ``seconds`` of operation time have been measured
and at least ``MIN_OPS`` operations (whole cycles on the sessions) ran.
Inputs come from :mod:`repro.workloads.distributions` seeded by the
benchmark's ``--seed``; the program only ever sees the generated
arrays.  Correctness checks run between operations, outside the timed
windows.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import time
import traceback

import numpy as np

from repro.dashmm import DashmmEvaluator, EvaluatorSession, FmmPolicy
from repro.hpx.runtime import RuntimeConfig
from repro.kernels.fitops import OperatorFactory
from repro.kernels.laplace import LaplaceKernel
from repro.kernels.yukawa import YukawaKernel
from repro.methods.direct import direct_potentials
from repro.sim.costmodel import CostModel
from repro.tree import dualtree
from repro.tree import lists as tree_lists
from repro.workloads.distributions import cube_points, random_charges, sphere_points

HERE = os.path.dirname(os.path.abspath(__file__))

#: the paper's accuracy target: three correct digits
REL_TOL = 1e-3
#: targets checked against direct summation (fixed positions in the set)
CHECK_TARGETS = 256
#: fresh-state repetitions of the first operation per run
SETUPS = 2
PHANTOM_SETUPS = 3
#: steady-phase operations per run at least, so a median never rests on
#: two samples (the first of which pays one-off warm-up work)
MIN_OPS = 3

SESSION_N = 20_000
SESSION_P = 5
ONESHOT_N = 20_000
ONESHOT_P = 5
PHANTOM_N = 105_000
#: the six axis poles of the sphere_points() sphere (radius 0.5 about
#: (0.5, 0.5, 0.5)); with them in every set the bounding cube is [0, 1]^3
SPHERE_POLES = np.array(
    [[0.0, 0.5, 0.5], [1.0, 0.5, 0.5], [0.5, 0.0, 0.5],
     [0.5, 1.0, 0.5], [0.5, 0.5, 0.0], [0.5, 0.5, 1.0]]
)


class Run:
    """What one workload run timed and checked."""

    def __init__(self, tracer, trace: bool):
        self.tracer = tracer
        self.trace = trace
        self.setup_s: list[float] = []
        self.ops: list[tuple] = []  # (kind, seconds, n_targets, traced)
        self.op_failures = 0
        self.checks: list[tuple] = []  # (name, ok, value, known_defect)
        self.extra: dict[str, float] = {}
        self.notes: list[str] = []
        self.peak_rss_mb = 0.0

    def _timed(self, kind, phase, traced, fn):
        # every timed call starts from the same collector state, so a
        # full collection owed by earlier garbage is not billed to it
        gc.collect()
        with self.tracer.request(kind, phase, traced):
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
        return out, dt

    def setup(self, kind: str, fn):
        out, dt = self._timed(kind, "setup", self.trace, fn)
        self.setup_s.append(dt)
        return out

    def op(self, kind: str, n_targets: int, traced: bool, fn):
        """One steady-phase operation; returns (result or None, seconds)."""
        t0 = time.perf_counter()
        try:
            out, dt = self._timed(kind, "steady", traced, fn)
        except Exception:
            traceback.print_exc()
            self.op_failures += 1
            return None, time.perf_counter() - t0
        self.ops.append((kind, dt, n_targets, traced))
        return out, dt

    def checked(self, fn):
        """Run untimed check work (traced as phase ``check`` in traced runs)."""
        with self.tracer.request("check", "check", self.trace):
            return fn()

    def check(self, name: str, ok: bool, value: float, known_defect: bool = False):
        self.checks.append((name, bool(ok), float(value), known_defect))

    def accuracy(self, kernel, sources, weights, targets, potentials):
        """Relative L2 error against direct summation on the fixed subsample."""
        if potentials is None:
            return
        idx = np.linspace(0, len(targets) - 1, CHECK_TARGETS).astype(np.intp)
        ref = self.checked(
            # small chunks keep the check's temporaries out of peak_rss_mb
            lambda: direct_potentials(kernel, targets[idx], sources, weights, chunk=32)
        )
        err = float(np.linalg.norm(potentials[idx] - ref) / np.linalg.norm(ref))
        self.check("rel_error", err <= REL_TOL, err)

    def sample_rss(self) -> None:
        """Peak resident memory of this process plus its live children."""
        pids = ["self"] + [p.pid for p in multiprocessing.active_children()]
        self.peak_rss_mb = max(self.peak_rss_mb, sum(_vmhwm_mb(p) for p in pids))


def _vmhwm_mb(pid) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:  # the child exited after active_children() listed it
        pass
    return 0.0


def _charges(n: int, seed: int, i: int) -> np.ndarray:
    return random_charges(n, seed=seed * 7919 + i)


# -- session-cube / session-cube-parallel ---------------------------------------
def _moved(points, rng, lo, hi, frac=0.01, scale=1e-3):
    """A copy of ``points`` with ``frac`` of them nudged, kept inside [lo, hi]."""
    out = points.copy()
    idx = rng.choice(len(points), size=max(1, int(len(points) * frac)), replace=False)
    out[idx] = np.clip(out[idx] + rng.normal(scale=scale, size=(len(idx), 3)), lo, hi)
    return out


def session_cube(run: Run, seed: int, seconds: float, backend: str = "sim") -> None:
    """Closed loop over one EvaluatorSession: 3 re-queries, then 1 step."""
    n = SESSION_N
    kernel = LaplaceKernel(SESSION_P)
    workers = max(1, min(2, os.cpu_count() or 1))
    cfg = RuntimeConfig(n_localities=2 if backend == "sim" else workers, backend=backend)
    points0 = cube_points(n, seed=seed)
    q0 = _charges(n, seed, 0)
    run.notes.append(f"n={n} laplace p={SESSION_P} fmm localities={cfg.n_localities} backend={backend}")

    cold = None
    session = None
    for _ in range(SETUPS):
        if session is not None:
            run.sample_rss()
            session.close()
        ev = DashmmEvaluator(kernel, method="fmm", runtime_config=cfg, factory=OperatorFactory(kernel))
        session = EvaluatorSession(ev)
        out = run.setup("first-submit", lambda: session.submit(points0, q0))
        run.accuracy(kernel, points0, q0, points0, out)
        if cold is None:
            cold = out

    if backend == "parallel":
        # warm fleet vs the independent cold fleet of the first setup
        warm = run.checked(lambda: session.submit(points0, q0))
        run.check("warm_equals_cold", np.array_equal(warm, cold), float(np.abs(warm - cold).max()))

    rng = np.random.default_rng((seed, 1))
    lo, hi = points0.min(axis=0), points0.max(axis=0)
    pts, q, out = points0, q0, cold
    # whole cycles only, so every run weighs re-queries and steps alike
    measured, i = 0.0, 0
    while measured < seconds or i % 4:
        kind = "step" if i % 4 == 3 else "requery"
        if kind == "step":
            pts = _moved(pts, rng, lo, hi)
        q = _charges(n, seed, i + 1)
        traced = run.trace and (i // 4) % 2 == 0
        out, dt = run.op(kind, n, traced, lambda: session.submit(pts, q))
        measured += dt
        run.accuracy(kernel, pts, q, pts, out)
        i += 1
    run.sample_rss()

    if backend == "sim":
        # the last warm result against a cold evaluate() over the same domain
        ev = session.evaluator

        def cold_evaluate():
            dual = dualtree.build_dual_tree(
                pts, pts, ev.threshold, source_weights=q, domain=session.domain
            )
            return ev.evaluate(pts, q, pts, dual=dual).potentials

        ref = run.checked(cold_evaluate)
        if out is not None:
            run.check("warm_equals_cold", np.array_equal(out, ref), float(np.abs(out - ref).max()))
    else:
        # sim vs parallel on the same inputs (known defect: the parent's
        # BLAS runs multi-threaded, the workers' single-threaded)
        sim_ev = DashmmEvaluator(
            kernel, method="fmm", runtime_config=RuntimeConfig(n_localities=cfg.n_localities),
            factory=OperatorFactory(kernel),
        )
        sim = run.checked(lambda: sim_ev.evaluate(points0, q0, points0).potentials)
        diff = float(np.abs(sim - cold).max() / np.abs(sim).max())
        run.check("sim_equals_parallel", diff == 0.0, diff, known_defect=True)
        run.extra["check.sim_parallel_max_rel_diff"] = diff
    session.close()


def session_cube_parallel(run: Run, seed: int, seconds: float) -> None:
    session_cube(run, seed, seconds, backend="parallel")


# -- oneshot-sphere-yukawa -------------------------------------------------------
def _sphere(n: int, seed: int, i: int, pinned: bool = True) -> np.ndarray:
    pts = sphere_points(n, seed=seed * 7919 + i)
    if pinned:
        pts[: len(SPHERE_POLES)] = SPHERE_POLES
    return pts


def oneshot_sphere_yukawa(run: Run, seed: int, seconds: float) -> None:
    """One evaluate() per fresh sphere; the first on a fresh OperatorFactory."""
    n = ONESHOT_N
    kernel = YukawaKernel(ONESHOT_P, lam=1.0)
    cfg = RuntimeConfig(n_localities=4, workers_per_locality=8)
    run.notes.append(f"n={n} yukawa lam=1 p={ONESHOT_P} fmm sim 4x8 cores")

    ev = None
    for k in range(SETUPS):
        ev = DashmmEvaluator(kernel, method="fmm", runtime_config=cfg, factory=OperatorFactory(kernel))
        pts, q = _sphere(n, seed, k), _charges(n, seed, k)
        rep = run.setup("first-evaluate", lambda: ev.evaluate(pts, q, pts))
        run.accuracy(kernel, pts, q, pts, rep.potentials)
        run.sample_rss()

    measured, i = 0.0, SETUPS
    while measured < seconds or i < SETUPS + MIN_OPS:
        pts, q = _sphere(n, seed, i), _charges(n, seed, i)
        traced = run.trace and (i - SETUPS) % 2 == 0
        rep, dt = run.op("evaluate", n, traced, lambda: ev.evaluate(pts, q, pts))
        measured += dt
        run.accuracy(kernel, pts, q, pts, None if rep is None else rep.potentials)
        rep = None  # the report holds the runtime; free it before the next run
        i += 1
    run.sample_rss()

    if run.trace:
        # known defect: Yukawa fits are keyed by the exact box size, so a
        # sphere whose bounding cube differs in the last digits refits
        # every operator even on a warm factory
        pts, q = _sphere(n, seed, i, pinned=False), _charges(n, seed, i)
        misses = ev.factory.misses
        t0 = time.perf_counter()
        rep = run.checked(lambda: ev.evaluate(pts, q, pts))
        run.extra["kernels.fresh_domain_evaluate_s"] = time.perf_counter() - t0
        run.extra["kernels.fresh_domain_fit_count"] = float(ev.factory.misses - misses)
        run.accuracy(kernel, pts, q, pts, rep.potentials)
        run.sample_rss()


# -- phantom-sphere-1024 ---------------------------------------------------------
PHANTOM_REFERENCE = os.path.join(HERE, "phantom_reference.json")


def phantom_problem(g: int):
    """Geometry ``g`` of the phantom workload and its evaluator."""
    src = sphere_points(PHANTOM_N, seed=2 * g + 1)
    tgt = sphere_points(PHANTOM_N, seed=2 * g + 2)
    w = random_charges(PHANTOM_N, seed=g)
    cm = CostModel.for_kernel("laplace")
    ev = DashmmEvaluator(
        LaplaceKernel(9),
        mode="phantom",
        runtime_config=RuntimeConfig(n_localities=32, workers_per_locality=32),
        cost_model=cm,
        policy=FmmPolicy(balance="work", cost_model=cm),
    )
    return src, w, tgt, ev


def phantom_build(ev, src, w, tgt):
    """The phantom workload's set-up: tree, interaction lists and DAG."""
    dual = dualtree.build_dual_tree(src, tgt, ev.threshold, source_weights=w)
    lists = tree_lists.build_lists(dual)
    dag, _ = ev.build_dag(dual, lists)
    return dual, lists, dag


def phantom_signature(report) -> dict:
    st = report.runtime_stats
    return {"time": report.time, "tasks_run": st["tasks_run"], "parcels_sent": st["parcels_sent"]}


def phantom_sphere_1024(run: Run, seed: int, seconds: float) -> None:
    """Phantom evaluations of a prebuilt sphere DAG on 32 x 32 simulated cores."""
    with open(PHANTOM_REFERENCE) as fh:
        reference = json.load(fh)["geometries"]
    g = seed % len(reference)
    want = reference[g]
    src, w, tgt, ev = phantom_problem(g)
    run.notes.append(f"geometry {g} of {len(reference)}: sphere n={PHANTOM_N} laplace(9) cost model, 32x32 cores")

    built = None
    for _ in range(PHANTOM_SETUPS):
        built = None  # release the previous build before timing the next
        built = run.setup("build", lambda: phantom_build(ev, src, w, tgt))
    dual, lists, dag = built
    run.sample_rss()

    measured, i = 0.0, 0
    while measured < seconds or i < MIN_OPS:
        traced = run.trace and i % 2 == 0
        rep, dt = run.op(
            "phantom", tgt.shape[0], traced,
            lambda: ev.evaluate(src, w, tgt, dual=dual, lists=lists, dag=dag),
        )
        measured += dt
        if rep is not None:
            got = phantom_signature(rep)
            for key in ("time", "tasks_run", "parcels_sent"):
                run.check(f"phantom_{key}", got[key] == want[key], got[key])
        rep = None  # the report holds the runtime; free it before the next run
        i += 1
    run.sample_rss()


WORKLOADS = {
    "session-cube": session_cube,
    "session-cube-parallel": session_cube_parallel,
    "oneshot-sphere-yukawa": oneshot_sphere_yukawa,
    "phantom-sphere-1024": phantom_sphere_1024,
}
