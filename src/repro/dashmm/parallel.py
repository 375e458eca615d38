"""Real-parallel DASHMM evaluation: the worker body and entry point.

``RuntimeConfig(backend="parallel")`` routes
:meth:`~repro.dashmm.evaluator.DashmmEvaluator.evaluate` here.  The
generic process/queue/shared-memory machinery lives in
:mod:`repro.hpx.parallel`; this module supplies the DASHMM-specific
pieces: what each locality process does, and how the evaluation DAG is
partitioned, executed and made to produce potentials **bit-identical**
to the simulator backend.

Execution model - *replicated metadata, partitioned execution*:

* Bulk data (source/target points, weights, the result vector) lives in
  shared memory; each worker maps the same pages.
* Every worker deterministically rebuilds the dual tree, interaction
  lists, DAG and distribution from those arrays - setup is a pure
  function of the inputs, so all ranks (and the parent) agree on node
  ids, edge order and localities without shipping the structures.
* Each worker allocates expansion LCOs only for *its* nodes and runs
  the standard :class:`~repro.dashmm.registrar.Registrar` machinery on
  them.  Remote out-edges leave as framed queue parcels through the
  unchanged coalescing path; each parcel ships the source node's
  expansion data, which the receiver mirrors so
  ``Registrar._data_of`` works for remote sources.

Why the result is bit-identical to the simulator:

* LCO contributions fold at trigger time in canonical dedup-key order,
  so fold order never depends on arrival order (PRs 4/5).
* Every batched flush groups by a canonical key that *includes the
  destination node's locality*, and an edge always executes at its
  destination's locality - so the markers one worker accumulates are
  exactly one locality-keyed simulator group, and the stacked GEMM
  operands (hence the floats) match byte for byte.
* The lazy bridge/downward cascade needs remote expansion data only at
  flush time, which runs as a staged pipeline with deterministic
  exchanges: dataflow quiescence, then M->I flush (M data already
  mirrored), Is exchange, I->I flush, It exchange, I->L flush, a
  per-level L->L loop (parent-L exchange before each level), a final-L
  exchange for remote L->T reads, and the deferred leaf-output flush.
  Exchange contents and barrier counts are derived from the replicated
  DAG, identically on every rank.

Warm rounds of a persistent service skip the dataflow: each rank
replays its slice of the registrar's compiled plan
(:meth:`~repro.dashmm.registrar.Registrar.compile_replay`) - the whole
upward pass, with remote multipoles kept in the mirror, then the eager
folds, lazy lists and leaf outputs of its own destinations - and runs
the same staged pipeline.  Batch compositions are keyed exactly as in
the dataflow, so a warm round is bit-identical to the drained cold one.
"""

from __future__ import annotations

import queue as _queue
import shutil
import tempfile
import time
import traceback

import numpy as np

from repro.dashmm.registrar import Registrar
from repro.hpx.parallel import (
    LocalityRuntime,
    ParallelError,
    ParallelRuntime,
    QueueChannel,
    WorkerScheduler,
    seed_worker_rngs,
)
from repro.hpx.scheduler import ScheduleFuzzer, Task, resolve_policy


class ParallelRegistrar(Registrar):
    """Registrar for one locality process.

    Differences from the simulator registrar, all confined here:

    * :meth:`allocate` creates LCOs only for this rank's nodes;
    * :meth:`_data_of` and :meth:`_store` fall back to the mirror for
      remote nodes (filled by parcels, stage exchanges and the replayed
      upward pass);
    * ``_own_localities`` slices the replay plan and the leaf-multipole
      cache to this rank (the base keying already matches).
    """

    def __init__(self, rank: int, *args, **kwargs):
        self._rank = rank
        self._mirror: dict[int, object] = {}
        super().__init__(*args, **kwargs)
        self._own_localities = {rank}

    def _data_of(self, node_id: int):
        lco = self.lcos.get(node_id)
        if lco is not None:
            return lco.data
        return self._mirror[node_id]

    def _store(self, node_id: int, value) -> None:
        lco = self.lcos.get(node_id)
        if lco is not None:
            lco.data = value
        else:
            self._mirror[node_id] = value

    def allocate(self) -> None:
        from repro.dashmm.registrar import ExpansionLCO

        for node in self.dag.nodes:
            n_in = self.dag.in_degree[node.id]
            if node.kind == "S" or n_in == 0 or node.locality != self._rank:
                continue
            lco = ExpansionLCO(self.runtime, node.locality, node, n_in, self)
            self.lcos[node.id] = lco
            lco.register_continuation(
                Task(
                    fn=self._continuation,
                    args=(node.id,),
                    op_class=f"edges:{node.kind}",
                    priority=self._node_priority(node),
                )
            )


def _stage_plan(dag, rank: int, n: int) -> dict:
    """Deterministic exchange plan for the staged flush pipeline.

    For each stage, which locally-owned expansion nodes this rank must
    ship to which peers (source nodes of cross-locality lazy edges),
    plus the global, rank-independent list of L->L parent levels (every
    rank walks the same level sequence so the barrier counts line up).
    """
    nodes = dag.nodes
    sends: dict[object, dict[int, set]] = {
        "i2i": {}, "i2l": {}, "l2t": {}
    }
    l2l_levels: set[int] = set()
    for edges in dag.out_edges:
        for e in edges:
            op = e.op
            if op == "I2I":
                stage: object = "i2i"
            elif op == "I2L":
                stage = "i2l"
            elif op == "L2T":
                stage = "l2t"
            elif op == "L2L":
                lvl = nodes[e.src].level
                l2l_levels.add(lvl)
                stage = ("l2l", lvl)
                sends.setdefault(stage, {})
            else:
                continue
            sloc, dloc = nodes[e.src].locality, nodes[e.dst].locality
            if sloc == rank and dloc != rank:
                sends[stage].setdefault(dloc, set()).add(e.src)
    return {
        "sends": {
            k: {dst: sorted(v) for dst, v in m.items()}
            for k, m in sends.items()
        },
        "l2l_levels": sorted(l2l_levels),
    }


class _WorkerBody:
    """The evaluation loop of one locality process."""

    def __init__(self, rank: int, n: int, spec: dict, manifest: dict, inboxes, parent_q):
        self.rank = rank
        self.n = n
        self.spec = spec
        self.inbox = inboxes[rank]
        self.parent_q = parent_q
        self.channel = QueueChannel(rank, inboxes)
        self._stage_ends: dict[object, int] = {}
        self._expected = 0
        self._stopped = False
        #: per-phase wall seconds of the last round (see :meth:`stats`)
        self._phases: dict = {}
        self._build(manifest)

    # -- deterministic setup (untimed) -----------------------------------------
    def _build(self, manifest) -> None:
        from repro.dashmm.evaluator import DashmmEvaluator
        from repro.hpx.gas import ShmArena
        from repro.kernels.fitops import OperatorFactory
        from repro.tree.dualtree import build_dual_tree

        spec = self.spec
        seed_worker_rngs(spec["seed"], self.rank)
        self.arena = ShmArena.attach(manifest)
        sources = self.arena.get("sources")
        weights = self.arena.get("weights")
        targets = self.arena.get("targets")

        factory = OperatorFactory.shared(spec["kernel"], eps=spec["eps"])
        if spec["factory_path"]:
            factory.load(path=spec["factory_path"], strict=False)
        self.factory = factory
        self.ev = DashmmEvaluator(
            spec["kernel"],
            method=spec["method"],
            threshold=spec["threshold"],
            policy=spec["policy"],
            runtime_config=spec["config"],
            mode="numeric",
            cost_model=spec["cost_model"],
            size_model=spec["size_model"],
            theta=spec["theta"],
            eps=spec["eps"],
            factory=factory,
            vectorized_setup=spec["vectorized_setup"],
        )
        # a persistent session pins the root cube so trees of every
        # round live in one coordinate frame (absent for single-shot)
        self.dual = build_dual_tree(
            sources,
            targets,
            self.ev.threshold,
            source_weights=weights,
            vectorized=self.ev.vectorized_setup,
            domain=spec.get("domain"),
        )
        self.dag, _ = self.ev.build_dag(self.dual)
        self.ev.policy.assign(self.dag, self.dual, self.n)
        # geometry-matrix cache shared by every registrar this body
        # builds across rounds; only worth the memory when rounds repeat
        self._geom_cache = {} if spec.get("persistent") else None
        self._make_registrar(self.dual, self.dag)

    def _make_registrar(self, dual, dag, centers: dict | None = None) -> None:
        """(Re)build the per-round execution state over ``dual``/``dag``.

        Called at setup and again whenever a round changes the node
        distribution or the tree shape; the shared-memory arena, the
        parcel channel, the operator factory and the geometry cache all
        survive rebuilds.
        """
        ev = self.ev
        rcfg = ev._resolved_config()
        policy = resolve_policy(rcfg.policy, rcfg.priorities)
        driver = (
            ScheduleFuzzer(rcfg.fuzz_schedule + self.rank)
            if rcfg.fuzz_schedule is not None
            else None
        )
        self.sched = WorkerScheduler(self.rank, policy, schedule_driver=driver)
        lrt = LocalityRuntime(self.rank, self.n, self.sched)
        self.reg = ParallelRegistrar(
            self.rank,
            lrt,
            dag,
            dual,
            ev.kernel,
            self.factory,
            mode="numeric",
            cost_model=ev.cost_model,
            size_model=ev.size_model,
            coalesce=True,
            sequential_edges=True,
            batch_edges=True,
            centers=centers,
        )
        self.reg.geom_cache = self._geom_cache
        # flush plans pay off exactly when rounds repeat; a rebuilt
        # registrar starts with fresh plans, so a changed assignment
        # can never replay stale group compositions
        self.reg.plan_caching = self._geom_cache is not None
        # all ranks share the one result vector; each writes only the
        # target-box slices of its own T nodes (disjoint by construction)
        self.reg.result = self.arena.get("result")
        self.reg.allocate()
        self._expected = sum(
            dag.in_degree[nid] for nid in self.reg.lcos
        )
        self.plan = _stage_plan(dag, self.rank, self.n)
        # the replay plan bakes this registrar's DAG and localities in;
        # compiled on the first warm round
        self.replay_plan = None
        from repro.hpx.parallel import ParallelContext

        self.ctx = ParallelContext(self.sched, self._on_parcel)

    # -- between-round state updates (persistent service) ----------------------
    def _round_update(self, update: dict) -> None:
        """Apply one round's input change; every rank derives the same
        conclusion independently (replicated metadata, as at setup).

        ``kind="weights"``: coordinates untouched - swap the charges
        into the existing tree and rewind the LCO network.
        ``kind="points"``: incrementally update the tree.  A preserved
        shape with an unchanged node distribution rebinds the live
        registrar; a shifted distribution or a changed shape rebuilds
        the registrar (and, for a shape change, the lists/DAG) while
        keeping the process, arena, factory and channel.
        """
        from repro.dashmm.dag import refresh_n_points
        from repro.tree.fingerprint import dual_shape_fingerprint
        from repro.tree.incremental import update_dual_tree

        self.reg._mirror.clear()
        self._stage_ends.clear()
        self.sched.lco_sets_applied = 0
        sources = self.arena.get("sources")
        weights = self.arena.get("weights")
        targets = self.arena.get("targets")
        if update["kind"] == "weights":
            self.dual.source.set_weights(weights)
            self.reg.reset(zero_result=False)
            return
        old_shape = dual_shape_fingerprint(self.dual)
        new_dual, _info = update_dual_tree(
            self.dual,
            sources,
            targets,
            source_weights=weights,
            vectorized=self.ev.vectorized_setup,
        )
        if self._geom_cache:
            # every cached matrix is coordinate-derived, hence stale
            self._geom_cache.clear()
        if dual_shape_fingerprint(new_dual) == old_shape:
            refresh_n_points(self.dag, new_dual)
            old_locs = [nd.locality for nd in self.dag.nodes]
            self.ev.policy.assign(self.dag, new_dual, self.n)
            self.dual = new_dual
            if [nd.locality for nd in self.dag.nodes] == old_locs:
                self.reg.rebind(new_dual)
                self.reg.reset(zero_result=False)
            else:
                # ownership moved: the local LCO set changes, so the
                # network reallocates (box centers stay shape-valid)
                self._make_registrar(new_dual, self.dag, centers=self.reg._centers)
            return
        dag, _ = self.ev.build_dag(new_dual)
        self.ev.policy.assign(dag, new_dual, self.n)
        self.dual, self.dag = new_dual, dag
        self._make_registrar(new_dual, dag)

    # -- parcel egress ---------------------------------------------------------
    def _on_parcel(self, parcel) -> None:
        if parcel.action != "dashmm_edges":
            raise ParallelError(
                f"parallel backend cannot route action {parcel.action!r}"
            )
        node_id, positions = parcel.args
        lco = self.reg.lcos.get(node_id)
        data = lco.data if lco is not None else None
        self.channel.send(
            parcel.target_locality,
            "edges",
            (node_id, positions, parcel.priority, data),
        )

    # -- frame ingress ---------------------------------------------------------
    def _drain(self, block: bool = False, timeout: float = 0.05) -> bool:
        """Process one inbox message; False when none was available."""
        try:
            msg = self.inbox.get(block, timeout) if block else self.inbox.get_nowait()
        except _queue.Empty:
            return False
        tag = msg[0]
        if tag == "frame":
            _, src, seq, kind, payload = msg
            if self.channel.handle_frame(src, seq, kind):
                self._dispatch(kind, payload)
        elif tag == "ack":
            self.channel.handle_ack(msg[2])
        elif tag == "stop":
            self._stopped = True
        # "go" is consumed by run() before the loops start
        return True

    def _dispatch(self, kind: str, payload) -> None:
        if kind == "edges":
            node_id, positions, priority, data = payload
            if data is not None:
                self.reg._mirror[node_id] = data
            self.sched.enqueue(
                Task(
                    fn=self.reg._edges_action,
                    args=(self.rank, node_id, positions),
                    op_class="parcel:edges",
                    priority=priority,
                ),
                self.rank,
            )
        elif kind == "stage":
            name, data = payload
            self.reg._mirror.update(data)
        elif kind == "stage_end":
            self._stage_ends[payload] = self._stage_ends.get(payload, 0) + 1
        else:  # pragma: no cover - defensive
            raise ParallelError(f"unknown frame kind {kind!r}")

    # -- dataflow phase --------------------------------------------------------
    def _run_dataflow(self) -> None:
        """Drive the DAG until local quiescence.

        Local termination detection: this rank is done when every input
        of every local LCO has been applied (``applied == expected``; an
        arriving edge frame always applies at least one, so reaching the
        total implies no frame is still in flight toward us), the ready
        queues are empty, and all our outbound frames are acked.
        """
        self.reg.initial_tasks()
        sched, ctx = self.sched, self.ctx
        while (
            sched.lco_sets_applied < self._expected
            or sched.has_ready()
            or self.channel.unacked
        ):
            while self._drain(block=False):
                pass
            task = sched.pop()
            if task is not None:
                task.fn(ctx, *task.args)
            elif (
                sched.lco_sets_applied < self._expected or self.channel.unacked
            ):
                self._drain(block=True, timeout=0.05)

    # -- staged flush pipeline -------------------------------------------------
    def _exchange(self, stage, send_map: dict) -> None:
        """Ship stage data, then barrier on every peer's stage_end."""
        t0 = time.perf_counter()
        for dst in sorted(send_map):
            payload = {nid: self.reg._data_of(nid) for nid in send_map[dst]}
            self.channel.send(dst, "stage", (stage, payload))
        for dst in range(self.n):
            if dst != self.rank:
                self.channel.send(dst, "stage_end", stage)
        while (
            self._stage_ends.get(stage, 0) < self.n - 1
            or self.channel.unacked
        ):
            self._drain(block=True, timeout=0.05)
        self._phases["exchange_s"] += time.perf_counter() - t0

    def _run_flushes(self) -> None:
        reg, plan = self.reg, self.plan
        sends = plan["sends"]
        if reg._lazy_m2i:
            reg._flush_m2i()
        if self.n > 1:
            self._exchange("i2i", sends["i2i"])
        if reg._lazy_i2i:
            reg._flush_i2i()
        if self.n > 1:
            self._exchange("i2l", sends["i2l"])
        if reg._lazy_i2l:
            reg._flush_i2l()
        by_level = dict(reg._l2l_by_level())
        for level in plan["l2l_levels"]:
            if self.n > 1:
                self._exchange(("l2l", level), sends.get(("l2l", level), {}))
            edges = by_level.get(level)
            if edges:
                reg._flush_l2l_level(level, edges)
        if self.n > 1:
            self._exchange("l2t", sends["l2t"])
        reg.flush_deferred()

    # -- protocol --------------------------------------------------------------
    def run(self) -> None:
        """READY, then rounds of GO -> evaluate -> DONE until STOP.

        The single-shot runtime sends ``("go",)`` then ``("stop",)``; a
        persistent service sends ``("go", update)`` per submission and
        one final STOP.  Round boundaries are quiet by construction -
        every exchange barriers on its acks, so no frame is in flight
        when DONE is posted - which is what makes the per-round state
        rewind in :meth:`_round_update` sufficient.
        """
        self.parent_q.put(("ready", self.rank))
        while not self._stopped:
            msg = self.inbox.get()
            tag = msg[0]
            if tag == "stop":
                break
            if tag == "frame":  # stragglers between rounds (defensive)
                _, src, seq, kind, payload = msg
                if self.channel.handle_frame(src, seq, kind):
                    self._dispatch(kind, payload)
                continue
            if tag == "ack":
                self.channel.handle_ack(msg[2])
                continue
            if tag != "go":  # pragma: no cover - defensive
                raise ParallelError(f"unexpected message {tag!r} between rounds")
            self._round(msg[1] if len(msg) > 1 else None)
            self.parent_q.put(("done", self.rank, self.stats()))
        self.arena.close()

    def _round(self, update) -> None:
        """One evaluation.  A cold GO (no update: the first round, or a
        re-drive on respawned workers) drains the task graph - the
        reference every warm round must match bit for bit.  A warm round
        replays the registrar's compiled plan instead; a rebuilt
        registrar (shifted localities, new shape) recompiles it.  Both
        end in the same staged flush pipeline."""
        drained = update is None
        ph = self._phases = dict.fromkeys(
            ("update_s", "dataflow_s", "replay_s", "flush_s", "exchange_s"), 0.0
        )
        ph["drained"] = drained
        t0 = time.perf_counter()
        if drained:
            self._run_dataflow()
        else:
            self._round_update(update)
            t1 = time.perf_counter()
            ph["update_s"], t0 = t1 - t0, t1
            if self.replay_plan is None:
                self.replay_plan = self.reg.compile_replay()
            self.reg.replay(self.replay_plan)
        t1 = time.perf_counter()
        ph["dataflow_s" if drained else "replay_s"] = t1 - t0
        self._run_flushes()
        ph["flush_s"] = time.perf_counter() - t1 - ph["exchange_s"]

    def stats(self) -> dict:
        """Counters of this rank plus the last round's phase split:
        ``drained`` (task drain or plan replay) and wall seconds of
        ``update_s`` (input change), ``dataflow_s`` (the drain; 0 on a
        replayed round), ``replay_s`` (the replay, including a plan
        recompile; 0 on a drained round), ``flush_s`` (staged flushes)
        and ``exchange_s`` (their stage exchanges and barriers)."""
        return {
            "rank": self.rank,
            "tasks_run": self.sched.tasks_run,
            "lco_sets": self.sched.lco_sets_applied,
            "lcos": len(self.reg.lcos),
            **self.channel.stats(),
            **self._phases,
        }


def _worker_main(rank: int, n: int, spec: dict, manifest: dict, inboxes, parent_q) -> None:
    """Process entry point (module-level for spawn picklability)."""
    try:
        _WorkerBody(rank, n, spec, manifest, inboxes, parent_q).run()
    except BaseException:
        try:
            parent_q.put(("error", rank, traceback.format_exc()))
        finally:
            raise


def _validate(evaluator) -> None:
    cfg = evaluator.runtime_config
    if evaluator.mode != "numeric":
        raise ValueError(
            "backend='parallel' computes real potentials; phantom-mode "
            "scaling studies run on the simulator backend"
        )
    for flag in ("coalesce", "sequential_edges", "batch_edges"):
        if not getattr(evaluator, flag):
            raise ValueError(
                f"backend='parallel' requires {flag}=True (the ablation "
                "paths are simulator-only)"
            )
    if cfg.replay_schedule is not None:
        raise ValueError(
            "schedule replay records simulator decisions; it cannot "
            "drive the parallel backend"
        )
    if cfg.detect_hazards:
        raise ValueError(
            "the happens-before detector instruments the simulator's "
            "virtual clock; run hazard detection on backend='sim'"
        )


def evaluate_parallel(evaluator, sources, weights, targets):
    """Run one evaluation on real cores; returns an EvaluationReport.

    Setup (trees, DAG, operator fits) is rebuilt deterministically in
    every worker and excluded from the timed window, which spans GO to
    the last worker's DONE.  The parent's fitted-operator cache is
    handed to workers through a disk snapshot so fits warmed by a prior
    simulator run are not refitted per rank.
    """
    from repro.dashmm.evaluator import EvaluationReport
    from repro.hpx.tracing import Tracer
    from repro.tree.dualtree import build_dual_tree

    _validate(evaluator)
    cfg = evaluator.runtime_config
    sources = np.ascontiguousarray(sources, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    targets = np.ascontiguousarray(targets, dtype=np.float64)

    # parent-side replica of the setup, for the report and the inverse
    # permutation (identical to what every worker derives)
    dual = build_dual_tree(
        sources,
        targets,
        evaluator.threshold,
        source_weights=weights,
        vectorized=evaluator.vectorized_setup,
    )
    dag, lists = evaluator.build_dag(dual)
    evaluator.policy.assign(dag, dual, cfg.n_localities)

    tmpdir = tempfile.mkdtemp(prefix="hmmops_")
    try:
        factory_path = None
        if evaluator.factory is not None:
            factory_path = str(evaluator.factory.save(directory=tmpdir))
        spec = {
            "kernel": evaluator.kernel,
            "method": evaluator.method,
            "threshold": evaluator.threshold,
            "policy": evaluator.policy,
            "config": cfg,
            "cost_model": evaluator.cost_model,
            "size_model": evaluator.size_model,
            "theta": evaluator.theta,
            "eps": evaluator.eps,
            "vectorized_setup": evaluator.vectorized_setup,
            "factory_path": factory_path,
            "seed": cfg.seed,
        }
        runtime = ParallelRuntime(
            cfg.n_localities,
            _worker_main,
            spec,
            arrays={"sources": sources, "weights": weights, "targets": targets},
            outputs={"result": ((dual.target.n_points,), np.float64)},
            start_method=cfg.start_method,
        )
        out = runtime.run()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    potentials = np.empty(dual.target.n_points)
    potentials[dual.target.perm] = out["result"]
    stats = {
        "backend": "parallel",
        "n_localities": cfg.n_localities,
        "start_method": cfg.start_method,
        "wall_time": runtime.wall_time,
        "tasks": sum(w["tasks_run"] for w in runtime.worker_stats),
        "workers": runtime.worker_stats,
    }
    return EvaluationReport(
        potentials=potentials,
        time=runtime.wall_time,
        runtime_stats=stats,
        tracer=Tracer(enabled=False),
        dag=dag,
        dual=dual,
        lists=lists,
        extras={"backend": "parallel"},
    )


class PersistentParallelService:
    """Parent half of the persistent parallel backend.

    Where :func:`evaluate_parallel` spawns, runs one round and tears
    everything down, this keeps the worker processes, their attached
    shared-memory arena and each worker's rebuilt metadata (tree, DAG,
    LCO network, operator and geometry caches, compiled replay plan)
    alive across submissions.  The cold round drains the task graph; a
    warm round costs one in-place array overwrite, one GO/DONE handshake
    and a plan replay plus the staged flushes - no process spawn, no
    operator refit, no tree carve, no task.  ``round_stats`` keeps each
    round's wall time and every worker's DONE stats, including its
    ``drained`` flag and per-phase wall seconds (see
    :meth:`_WorkerBody.stats`).

    The parent keeps its own tree replica (updated incrementally, like
    every worker) purely for the inverse permutation that unsorts the
    shared result vector.  Drive through
    :class:`repro.dashmm.service.EvaluatorSession`, which owns the
    shape/statistics bookkeeping.
    """

    def __init__(
        self, evaluator, domain, timeout: float = 600.0, max_respawns: int = 1
    ):
        _validate(evaluator)
        self.evaluator = evaluator
        self.domain = domain
        self.timeout = timeout
        self.max_respawns = max_respawns
        self.n = evaluator.runtime_config.n_localities
        self.rounds = 0
        self.respawns = 0
        self.round_stats: list = []
        self._arena = None
        self._procs: list = []
        self._inboxes: list = []
        self._parent_q = None
        self._dual = None
        self._n_src = self._n_tgt = None
        # per-round re-drive state: the worker spec and arena manifest
        # are kept for the life of the service so a failed round can be
        # re-driven on respawned workers (they rebuild deterministically
        # from the live arena arrays)
        self._spec = None
        self._manifest = None
        self._tmpdir = None
        self._failed: BaseException | None = None

    def compatible(self, n_src: int, n_tgt: int) -> bool:
        """Shm blocks are fixed-size: a changed N needs a respawn."""
        return self._n_src == n_src and self._n_tgt == n_tgt

    # -- lifecycle ---------------------------------------------------------------
    def start(self, sources, weights, targets):
        """Spawn workers and run the cold round."""
        import multiprocessing as mp

        from repro.hpx.gas import ShmArena
        from repro.hpx.parallel import _THREAD_ENV, await_workers
        from repro.tree.dualtree import build_dual_tree

        ev = self.evaluator
        cfg = ev.runtime_config
        sources = np.ascontiguousarray(sources, dtype=np.float64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        targets = np.ascontiguousarray(targets, dtype=np.float64)
        self._n_src, self._n_tgt = len(sources), len(targets)
        self._dual = build_dual_tree(
            sources,
            targets,
            ev.threshold,
            source_weights=weights,
            vectorized=ev.vectorized_setup,
            domain=self.domain,
        )

        # the snapshot directory outlives the cold spawn: respawned
        # workers reload the same operator fits after a mid-round fault
        self._tmpdir = tempfile.mkdtemp(prefix="hmmops_")
        arena = ShmArena()
        try:
            factory_path = None
            if ev.factory is not None:
                factory_path = str(ev.factory.save(directory=self._tmpdir))
            self._spec = {
                "kernel": ev.kernel,
                "method": ev.method,
                "threshold": ev.threshold,
                "policy": ev.policy,
                "config": cfg,
                "cost_model": ev.cost_model,
                "size_model": ev.size_model,
                "theta": ev.theta,
                "eps": ev.eps,
                "vectorized_setup": ev.vectorized_setup,
                "factory_path": factory_path,
                "seed": cfg.seed,
                "domain": self.domain,
                "persistent": True,
            }
            arena.put("sources", sources)
            arena.put("weights", weights)
            arena.put("targets", targets)
            arena.alloc("result", (self._n_tgt,), np.float64)
            self._manifest = arena.manifest()
            self._arena = arena
            self._spawn_workers()
        except BaseException:
            self._arena = arena
            self.close()
            raise
        out = self._round(None)
        return out, self._round_info({"source": "built", "target": "built"})

    def _spawn_workers(self) -> None:
        """Bring up a fresh worker fleet from the retained spec/manifest.

        Used for the cold start and again by :meth:`_respawn` after a
        mid-round fault.  Fresh inboxes and parent queue are created
        each time so stale messages from a failed round (a DONE from a
        rank that finished before a sibling died, or a queued error
        report) can never be mistaken for this fleet's traffic.
        """
        import multiprocessing as mp
        import os as _os

        from repro.hpx.parallel import _THREAD_ENV, await_workers

        ctx = mp.get_context(self.evaluator.runtime_config.start_method)
        self._inboxes = [ctx.Queue() for _ in range(self.n)]
        self._parent_q = ctx.Queue()
        self._procs = []
        saved = {k: _os.environ.get(k) for k in _THREAD_ENV}
        try:
            _os.environ.update({k: "1" for k in _THREAD_ENV})
            for rank in range(self.n):
                p = ctx.Process(
                    target=_worker_main,
                    args=(
                        rank,
                        self.n,
                        self._spec,
                        self._manifest,
                        self._inboxes,
                        self._parent_q,
                    ),
                    daemon=True,
                )
                p.start()
                self._procs.append(p)
        finally:
            for k, v in saved.items():
                if v is None:
                    _os.environ.pop(k, None)
                else:
                    _os.environ[k] = v
        await_workers(self._parent_q, self._procs, self.n, "ready", self.timeout)

    def _respawn(self) -> None:
        """Kill any surviving workers and spawn a replacement fleet."""
        for p in self._procs:
            if p.is_alive():
                p.terminate()
        for p in self._procs:
            p.join(timeout=5.0)
        self._abandon_queues()
        self._spawn_workers()
        self.respawns += 1

    def _abandon_queues(self) -> None:
        """Let process exit skip flushing the retired fleet's queues.

        A dead worker's inbox pipe can be full of frames its peers sent
        before they noticed; our own STOP/GO put behind them would then
        block the queue's feeder thread, and with it interpreter exit,
        forever.  Nobody reads these queues again.
        """
        for q in (*self._inboxes, self._parent_q):
            if q is not None:
                q.cancel_join_thread()

    def close(self) -> None:
        """Stop workers and release the arena (idempotent)."""
        for q in self._inboxes:
            try:
                q.put(("stop",))
            except Exception:
                pass
        for p in self._procs:
            p.join(timeout=10.0)
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        self._abandon_queues()
        self._procs = []
        self._inboxes = []
        self._parent_q = None
        if self._arena is not None:
            self._arena.destroy()
            self._arena = None
        if self._tmpdir is not None:
            shutil.rmtree(self._tmpdir, ignore_errors=True)
            self._tmpdir = None

    # -- rounds ------------------------------------------------------------------
    def submit(self, sources, weights, targets):
        """One warm round: overwrite inputs in place, GO, read result."""
        from repro.tree.incremental import update_dual_tree

        self._check_usable()
        sources = np.ascontiguousarray(sources, dtype=np.float64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        targets = np.ascontiguousarray(targets, dtype=np.float64)
        shm_s = self._arena.get("sources")
        shm_w = self._arena.get("weights")
        shm_t = self._arena.get("targets")
        same_geometry = np.array_equal(shm_s, sources) and np.array_equal(
            shm_t, targets
        )
        # workers are blocked on their inboxes between rounds, so the
        # parent owns the arena here and in-place writes are race-free
        shm_w[:] = weights
        if same_geometry:
            self._dual.source.set_weights(weights)
            info = {"source": "unchanged", "target": "unchanged"}
            update = {"kind": "weights"}
        else:
            shm_s[:] = sources
            shm_t[:] = targets
            self._dual, info = update_dual_tree(
                self._dual,
                sources,
                targets,
                source_weights=weights,
                vectorized=self.evaluator.vectorized_setup,
            )
            update = {"kind": "points"}
        out = self._round(update)
        return out, self._round_info(info)

    def _check_usable(self) -> None:
        from repro.hpx.parallel import ParallelError

        if self._failed is not None:
            raise ParallelError(
                "parallel service already failed and was shut down "
                f"({self._failed}); start a new session"
            )
        if self._arena is None:
            raise ParallelError(
                "parallel service is not started (or already closed)"
            )

    def _round(self, update) -> np.ndarray:
        from repro.hpx.parallel import ParallelError, await_workers

        self._check_usable()
        t0 = time.perf_counter()
        msg = ("go",) if update is None else ("go", update)
        attempts = 0
        while True:
            result = self._arena.get("result")
            result[:] = 0.0  # flushes accumulate with +=
            try:
                for q in self._inboxes:
                    q.put(msg)
                stats = await_workers(
                    self._parent_q, self._procs, self.n, "done", self.timeout
                )
                break
            except ParallelError as exc:
                # a worker died (or wedged) mid-round.  The session is
                # still a valid basis for a re-drive: the arena already
                # holds this round's inputs, the parent's tree replica
                # was updated before _round ran, and survivors are
                # killed with the casualty.  Respawned workers rebuild
                # their metadata from the live arrays, so a plain cold
                # GO re-drives the identical round.
                attempts += 1
                if attempts > self.max_respawns:
                    self._failed = exc
                    self.close()
                    raise
                try:
                    self._respawn()
                except BaseException as spawn_exc:
                    self._failed = spawn_exc
                    self.close()
                    raise
                # respawned workers cold-build from the current arrays;
                # an incremental update message would double-apply
                msg = ("go",)
            except BaseException as exc:
                # anything non-recoverable (KeyboardInterrupt, ...):
                # mirror start()'s handling - tear the fleet down so
                # workers are never left alive and blocked on inboxes
                self._failed = exc
                self.close()
                raise
        wall = time.perf_counter() - t0
        self.rounds += 1
        stat = {"wall_time": wall, "workers": stats}
        if attempts:
            stat["respawns"] = attempts
        self.round_stats.append(stat)
        potentials = np.empty(self._n_tgt)
        potentials[self._dual.target.perm] = result
        return potentials

    def _round_info(self, tree_info: dict) -> dict:
        from repro.tree.fingerprint import dual_shape_fingerprint

        return {
            "tree": tree_info,
            "shape": dual_shape_fingerprint(self._dual),
            "wall_time": self.round_stats[-1]["wall_time"],
        }
