"""EvaluatorSession: the persistent evaluation layer.

The correctness bar is *bit-identity*: every ``submit()`` must return
exactly the floats a cold-start evaluation of the same inputs would -
on the warm repeat-shape path, after weights-only updates, after an
incremental tree splice, and after a shape change.  On top of that the
warm path must provably do zero structural work: the module counters in
``repro.tree.dualtree``/``repro.tree.lists``/``repro.dashmm.dag``
record every tree carve, interaction-list build and DAG assembly.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.dashmm.dag as dag_mod
import repro.tree.dualtree as dualtree_mod
import repro.tree.lists as lists_mod
from repro.dashmm import DashmmEvaluator, EvaluatorSession
from repro.hpx.runtime import RuntimeConfig
from repro.kernels.fitops import OperatorFactory
from repro.kernels.laplace import LaplaceKernel


@pytest.fixture(scope="module")
def kernel():
    return LaplaceKernel(5)


@pytest.fixture(scope="module")
def factory(kernel):
    return OperatorFactory(kernel, eps=1e-4)


@pytest.fixture()
def evaluator(kernel, factory):
    return DashmmEvaluator(
        kernel,
        method="fmm",
        threshold=25,
        runtime_config=RuntimeConfig(n_localities=3),
        factory=factory,
    )


@pytest.fixture()
def cloud():
    rng = np.random.default_rng(5)
    n = 700
    return rng, rng.uniform(0, 1, (n, 3)), rng.normal(size=n)


def _counters():
    return (
        dict(dualtree_mod.COUNTERS),
        dict(lists_mod.COUNTERS),
        dict(dag_mod.COUNTERS),
    )


def test_first_submit_matches_cold_evaluate(evaluator, cloud):
    rng, pts, w = cloud
    cold = evaluator.evaluate(pts, w, pts).potentials
    with EvaluatorSession(evaluator) as sess:
        assert np.array_equal(sess.submit(pts, w), cold)


def test_warm_repeat_zero_structural_work(evaluator, cloud):
    rng, pts, w = cloud
    cold = evaluator.evaluate(pts, w, pts).potentials
    with EvaluatorSession(evaluator) as sess:
        first = sess.submit(pts, w)
        trees, lists, dags = _counters()  # snapshot AFTER the cold paths
        for _ in range(3):
            warm = sess.submit(pts, w)
            assert np.array_equal(warm, cold)
        assert np.array_equal(first, cold)
        # zero tree carving, zero list builds, zero DAG assemblies
        assert _counters() == (trees, lists, dags)
        assert sess.stats["template_hits"] == 3
        assert sess.stats["template_misses"] == 1


def test_weights_only_update(evaluator, cloud):
    rng, pts, w = cloud
    w2 = rng.normal(size=len(w))
    cold = evaluator.evaluate(pts, w2, pts).potentials
    with EvaluatorSession(evaluator) as sess:
        sess.submit(pts, w)
        trees, lists, dags = _counters()
        assert np.array_equal(sess.submit(pts, w2), cold)
        assert _counters() == (trees, lists, dags)
        assert sess.stats["tree_updates"][-1]["source"] == "unchanged"


def test_incremental_move_bit_identical(evaluator, cloud):
    rng, pts, w = cloud
    # move <=1% of the points slightly, staying inside the pinned domain
    pts2 = pts.copy()
    idx = rng.choice(len(pts), size=len(pts) // 100, replace=False)
    pts2[idx] = np.clip(
        pts2[idx] + rng.normal(scale=1e-3, size=(len(idx), 3)), pts.min(), pts.max()
    )
    with EvaluatorSession(evaluator) as sess:
        sess.submit(pts, w)
        warm = sess.submit(pts2, w)
        info = sess.stats["tree_updates"][-1]
        assert info["source"] in ("unchanged", "spliced")
        # a cold-start session over the same pinned frame is the reference
        with EvaluatorSession(evaluator, domain=sess.domain) as cold_sess:
            assert np.array_equal(warm, cold_sess.submit(pts2, w))


def test_shape_change_then_return_hits_template(evaluator, cloud):
    rng, pts, w = cloud
    # shrink the cloud into a subcube: denser cells force deeper
    # refinement, so the tree *shape* changes (uniform jitter would not)
    pts2 = 0.4 * pts + 0.1
    with EvaluatorSession(evaluator) as sess:
        sess.submit(pts, w)
        misses0 = sess.stats["template_misses"]
        out2 = sess.submit(pts2, w)
        assert sess.stats["template_misses"] == misses0 + 1
        with EvaluatorSession(evaluator, domain=sess.domain) as cold_sess:
            assert np.array_equal(out2, cold_sess.submit(pts2, w))
        # returning to the original geometry re-hits the cached template
        hits0 = sess.stats["template_hits"]
        sess.submit(pts, w)
        assert sess.stats["template_hits"] == hits0 + 1
        assert sess.stats["template_misses"] == misses0 + 1


def test_factory_stats_accumulate_across_submits(evaluator, cloud):
    rng, pts, w = cloud
    factory = evaluator.factory
    with EvaluatorSession(evaluator) as sess:
        sess.submit(pts, w)
        stats1 = factory.cache_stats()
        sess.submit(pts, w)
        sess.submit(pts, rng.normal(size=len(w)))
        stats2 = factory.cache_stats()
        # persistent across submits: hits keep growing, never reset...
        assert stats2["hits"] > stats1["hits"]
        # ...and the warm path refits nothing
        assert stats2["misses"] == stats1["misses"]
        # a shape change re-fits at most the operators of genuinely new
        # (op, geometry) signatures - and the *template* misses exactly once
        misses_before = sess.stats["template_misses"]
        pts2 = 0.4 * pts + 0.1  # shrink: forces a genuine shape change
        sess.submit(pts2, w)
        assert sess.stats["template_misses"] == misses_before + 1
        sess.submit(pts2, w)
        assert sess.stats["template_misses"] == misses_before + 1


def test_submit_many_coalesces_and_preserves_order(evaluator, cloud):
    rng, pts, w = cloud
    ptsB = rng.uniform(0, 1, pts.shape)
    w2 = rng.normal(size=len(w))
    with EvaluatorSession(evaluator) as sess:
        refA1 = sess.submit(pts, w)
        refB = sess.submit(ptsB, w)
        refA2 = sess.submit(pts, w2)
    with EvaluatorSession(evaluator) as sess:
        # interleaved geometries: the batcher groups A, A then B
        out = sess.submit_many([(pts, w), (ptsB, w), (pts, w2)])
        assert np.array_equal(out[0], refA1)
        assert np.array_equal(out[2], refA2)
        assert np.allclose(out[1], refB)


def test_template_key_includes_schema_fingerprint(evaluator, cloud):
    """The template LRU keys on (declared-schema fingerprint, tree
    shape): a repeated shape under the same schema hits, swapping the
    method - same points, same shape - misses instead of replaying the
    other method's graph, and the results stay bit-identical to cold
    evaluation per method."""
    rng, pts, w = cloud
    cold_basic = DashmmEvaluator(
        evaluator.kernel,
        method="fmm-basic",
        threshold=evaluator.threshold,
        runtime_config=evaluator.runtime_config,
        factory=evaluator.factory,
    ).evaluate(pts, w, pts).potentials
    with EvaluatorSession(evaluator) as sess:
        first = sess.submit(pts, w)
        hits0, misses0 = sess.stats["template_hits"], sess.stats["template_misses"]
        # same schema, same shape: hit
        sess.submit(pts, w)
        assert sess.stats["template_hits"] == hits0 + 1
        # schema change (method swap), same points hence same shape: miss
        evaluator.method = "fmm-basic"
        out_basic = sess.submit(pts, w)
        assert sess.stats["template_misses"] == misses0 + 1
        assert np.array_equal(out_basic, cold_basic)
        # both templates stay cached under their own schema token
        evaluator.method = "fmm"
        hits1 = sess.stats["template_hits"]
        assert np.array_equal(sess.submit(pts, w), first)
        assert sess.stats["template_hits"] == hits1 + 1
        assert sess.stats["template_misses"] == misses0 + 1


def test_barnes_hut_session(kernel, factory, cloud):
    rng, pts, w = cloud
    ev = DashmmEvaluator(
        kernel,
        method="bh",
        threshold=25,
        theta=0.5,
        runtime_config=RuntimeConfig(n_localities=2),
        factory=factory,
    )
    cold = ev.evaluate(pts, w, pts).potentials
    with EvaluatorSession(ev) as sess:
        assert np.array_equal(sess.submit(pts, w), cold)
        assert np.array_equal(sess.submit(pts, w), cold)


def test_session_rejects_phantom_mode(kernel):
    ev = DashmmEvaluator(kernel, mode="phantom")
    with pytest.raises(ValueError):
        EvaluatorSession(ev)


def test_tree_update_history_is_bounded(evaluator, cloud):
    rng, pts, w = cloud
    pts, w = pts[:200], w[:200]
    with EvaluatorSession(evaluator) as sess:
        bound = sess.stats["tree_updates"].maxlen
        assert bound is not None
        for _ in range(bound + 5):
            sess.submit(pts, rng.normal(size=len(w)))
            assert len(sess.stats["tree_updates"]) <= bound
        assert len(sess.stats["tree_updates"]) == bound
        assert sess.stats["submits"] == bound + 5
        assert sess.stats["tree_updates"][-1]["source"] == "unchanged"


@pytest.mark.parametrize("arg", ["points", "charges", "targets"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_submit_rejects_non_finite_input(evaluator, cloud, arg, bad):
    rng, pts, w = cloud
    inputs = {"points": pts.copy(), "charges": w.copy(), "targets": pts.copy()}
    flat = inputs[arg].reshape(-1)
    flat[len(flat) // 2] = bad
    with EvaluatorSession(evaluator) as sess:
        with pytest.raises(ValueError, match=arg):
            sess.submit(**inputs)
        assert sess.stats["submits"] == 0


def _locality_shifting_move(rng, pts):
    """Nudge 5% of ``pts``.  For the seed-5, 300-point cube on 2
    localities at threshold 20 this keeps the tree shape but moves a box
    across the count-balanced locality cut."""
    moved = pts.copy()
    idx = rng.choice(len(pts), size=len(pts) // 20, replace=False)
    moved[idx] = np.clip(
        moved[idx] + rng.normal(scale=0.05, size=(len(idx), 3)), pts.min(), pts.max()
    )
    return moved


def test_locality_shift_recompiles_and_runs_no_task(kernel, factory, monkeypatch):
    from repro.dashmm.registrar import Registrar
    from repro.tree.dualtree import build_dual_tree

    rng = np.random.default_rng(5)
    n = 300
    pts = rng.random((n, 3))
    q = rng.random(n)
    moved = _locality_shifting_move(rng, pts)
    ev = DashmmEvaluator(
        kernel,
        method="fmm",
        threshold=20,
        runtime_config=RuntimeConfig(n_localities=2),
        factory=factory,
    )
    compiled = []
    compile_replay = Registrar.compile_replay

    def spy(self):
        compiled.append(self)
        return compile_replay(self)

    def no_task(*args, **kwargs):
        raise AssertionError("the session ran the task graph")

    monkeypatch.setattr(Registrar, "compile_replay", spy)
    for name in ("initial_tasks", "_continuation", "_process_edges", "_run_edges"):
        monkeypatch.setattr(Registrar, name, no_task)
    with EvaluatorSession(ev) as sess:
        sess.submit(pts, q)
        tpl = sess._current
        locs = [nd.locality for nd in tpl.dag.nodes]
        out = sess.submit(moved, q)
        assert sess._current is tpl, "the step should keep the tree shape"
        assert [nd.locality for nd in tpl.dag.nodes] != locs, "no locality shift"
        assert len(compiled) == 2
        monkeypatch.undo()
        dual = build_dual_tree(moved, moved, ev.threshold, source_weights=q, domain=sess.domain)
        assert np.array_equal(out, ev.evaluate(moved, q, moved, dual=dual).potentials)


@pytest.mark.parametrize(
    "args",
    [
        (np.zeros((0, 3)), np.zeros(0), None),
        (np.zeros((0, 3)), np.zeros(0), np.full((5, 3), 0.5)),
        (np.full((5, 3), 0.5), np.ones(5), np.zeros((0, 3))),
    ],
    ids=["nothing", "no-sources", "no-targets"],
)
def test_submit_empty_input_matches_evaluate(evaluator, args):
    pts, q, tgts = args
    want = evaluator.evaluate(pts, q, pts if tgts is None else tgts).potentials
    with EvaluatorSession(evaluator) as sess:
        out = sess.submit(pts, q, tgts)
        assert out.shape == want.shape and np.array_equal(out, want)
        assert sess.domain is None, "an empty submit must not pin the frame"
        assert sess.stats["submits"] == 1


@pytest.mark.parametrize(
    "arg, spoil, match",
    [
        ("charges", lambda a: a + 1j, "charges must hold real numbers"),
        ("charges", lambda a: a.astype(str), "charges must hold real numbers"),
        ("points", lambda a: a + 1j, "points must hold real numbers"),
        ("targets", lambda a: a[:, :2], r"targets must have shape \(M, 3\)"),
        ("charges", lambda a: a[:-1], "charges must have shape"),
    ],
    ids=["complex-charges", "text-charges", "complex-points", "flat-targets", "short-charges"],
)
def test_submit_rejects_malformed_input(evaluator, cloud, arg, spoil, match):
    rng, pts, w = cloud
    inputs = {"points": pts, "charges": w, "targets": pts}
    inputs[arg] = spoil(inputs[arg])
    with EvaluatorSession(evaluator) as sess:
        with pytest.raises(ValueError, match=match):
            sess.submit(**inputs)
        assert sess.stats["submits"] == 0


@pytest.mark.parallel
def test_parallel_session_bit_identical():
    rng = np.random.default_rng(7)
    n = 350
    pts = rng.random((n, 3))
    w = rng.random(n)
    kern = LaplaceKernel(4)
    fac = OperatorFactory(kern, eps=1e-4)
    ev_par = DashmmEvaluator(
        kern,
        method="fmm",
        threshold=20,
        runtime_config=RuntimeConfig(
            backend="parallel", n_localities=2, start_method="spawn"
        ),
        factory=fac,
    )
    ev_sim = DashmmEvaluator(
        kern,
        method="fmm",
        threshold=20,
        runtime_config=RuntimeConfig(n_localities=2),
        factory=fac,
    )
    cold = ev_par.evaluate(pts, w, pts).potentials
    with EvaluatorSession(ev_par) as sess, EvaluatorSession(ev_sim) as sim:
        # cold + warm repeat: workers persist, result matches a cold run
        assert np.array_equal(sess.submit(pts, w), cold)
        assert np.array_equal(sess.submit(pts, w), cold)
        assert np.array_equal(sim.submit(pts, w), cold)
        # weights-only and incremental-move rounds against the sim session
        w2 = rng.random(n)
        assert np.array_equal(sess.submit(pts, w2), sim.submit(pts, w2))
        pts2 = pts.copy()
        idx = rng.choice(n, size=4, replace=False)
        pts2[idx] = np.clip(
            pts2[idx] + rng.normal(scale=1e-3, size=(4, 3)), pts.min(), pts.max()
        )
        assert np.array_equal(sess.submit(pts2, w2), sim.submit(pts2, w2))


@pytest.mark.parallel
def test_parallel_warm_rounds_replay():
    """Warm rounds replay the compiled plan instead of draining the task
    graph, bit-identical to the sim session on every kind of round."""
    rng = np.random.default_rng(5)
    n = 300
    pts = rng.random((n, 3))
    w = rng.random(n)
    shifted = _locality_shifting_move(rng, pts)
    w2 = rng.random(n)
    nudged = pts.copy()
    idx = rng.choice(n, size=4, replace=False)
    nudged[idx] = np.clip(
        nudged[idx] + rng.normal(scale=1e-3, size=(4, 3)), pts.min(), pts.max()
    )
    ev_par = _parallel_evaluator()
    ev_sim = DashmmEvaluator(
        ev_par.kernel,
        method="fmm",
        threshold=20,
        runtime_config=RuntimeConfig(n_localities=2),
        factory=ev_par.factory,
    )
    rounds = [
        ("cold", pts, w),
        ("weights", pts, w2),
        ("same-shape move", nudged, w2),
        ("locality shift", shifted, w2),
        ("shape change", 0.4 * pts + 0.1, w2),
    ]
    with EvaluatorSession(ev_par) as sess, EvaluatorSession(ev_sim) as sim:
        for kind, p, q in rounds:
            tpl = sim._current
            locs = None if tpl is None else [nd.locality for nd in tpl.dag.nodes]
            assert np.array_equal(sess.submit(p, q), sim.submit(p, q)), kind
            if kind == "locality shift":
                assert sim._current is tpl
                assert [nd.locality for nd in tpl.dag.nodes] != locs
            elif kind == "shape change":
                assert sim._current is not tpl
            workers = sess._parallel.round_stats[-1]["workers"]
            for st in workers:
                assert st["drained"] is (kind == "cold"), kind
                assert {"update_s", "replay_s", "flush_s", "exchange_s"} <= set(st)
                if kind != "cold":
                    assert st["dataflow_s"] == 0.0


def _parallel_evaluator(n_localities=2, threshold=20):
    kern = LaplaceKernel(4)
    return DashmmEvaluator(
        kern,
        method="fmm",
        threshold=threshold,
        runtime_config=RuntimeConfig(
            backend="parallel", n_localities=n_localities, start_method="spawn"
        ),
        factory=OperatorFactory(kern, eps=1e-4),
    )


@pytest.mark.parallel
def test_round_survives_worker_kill():
    """A worker killed between rounds: respawn + re-drive, same bits."""
    rng = np.random.default_rng(11)
    n = 300
    pts = rng.random((n, 3))
    w = rng.random(n)
    with EvaluatorSession(_parallel_evaluator()) as sess:
        cold = sess.submit(pts, w)
        svc = sess._parallel
        victim = svc._procs[0]
        victim.terminate()
        victim.join(timeout=10.0)
        # the next round detects the casualty, respawns the fleet from
        # the retained spec/manifest and re-drives - bit-identically
        out = sess.submit(pts, w)
        assert np.array_equal(out, cold)
        assert svc.respawns == 1
        assert sess._parallel is svc  # same service, recovered in place
        assert svc.round_stats[-1]["respawns"] == 1
        # the recovered fleet keeps serving warm rounds
        w2 = rng.random(n)
        assert np.array_equal(sess.submit(pts, w2), sess.submit(pts, w2))


@pytest.mark.parallel
def test_worker_kill_without_respawn_budget_fails_cleanly():
    """Exhausted respawn budget: tear down, raise once, raise clearly after."""
    from repro.hpx.gas import ShmArena
    from repro.hpx.parallel import ParallelError

    rng = np.random.default_rng(12)
    n = 300
    pts = rng.random((n, 3))
    w = rng.random(n)
    with EvaluatorSession(_parallel_evaluator()) as sess:
        cold = sess.submit(pts, w)
        svc = sess._parallel
        svc.max_respawns = 0
        svc._procs[1].terminate()
        svc._procs[1].join(timeout=10.0)
        with pytest.raises(ParallelError):
            sess.submit(pts, w)
        # no workers left alive and blocked on inboxes, no arena leak
        assert svc._procs == []
        assert svc._arena is None
        # the failed service raises clearly instead of hanging
        with pytest.raises(ParallelError, match="failed"):
            svc.submit(pts, w, pts)
        # the session dropped the dead service and recovers with a
        # fresh fleet on the next submit
        assert sess._parallel is None
        assert np.array_equal(sess.submit(pts, w), cold)
    assert ShmArena.leaked() == []
