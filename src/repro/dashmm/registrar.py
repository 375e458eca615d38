"""The implicit DAG: expansion LCOs, out-edge processing, coalescing.

This module realizes Section IV and Fig. 2 of the paper.  Every DAG
node with inputs becomes a user-defined *expansion LCO* storing both
the expansion data and the out-edge list.  During execution the LCO
continuously reduces arriving inputs into the stored expansion; when
the last input arrives it triggers and its single registered
continuation processes the out-edge list:

* *local* edges (target on the same locality) are transformed
  sequentially and set into their target LCOs, which may trigger
  further asynchronous evaluation;
* *remote* edges are coalesced: one active-message parcel per
  destination locality carries the expansion data and the relevant
  edges, which are then evaluated at the destination as normal
  (``coalesce=False`` sends one parcel per edge instead - the ablation
  of the paper's design choice).

Source (S) nodes have no inputs; an initial task per source leaf
processes their out-edges (S->M, S->T, S->L) at time zero.  Execution
modes:

* ``numeric`` - edge transforms really compute (fitted operators,
  kernel evaluations); the result is numerically identical to the
  synchronous FMM up to summation order.
* ``phantom`` - transforms are skipped, only costs/messages are
  simulated; used for paper-scale scaling studies.

What a numeric run computes depends only on the DAG and the node
localities, never on the schedule, so warm paths skip the task graph:
:meth:`Registrar.compile_replay` turns both into a static plan and
:meth:`Registrar.replay` executes it (persistent sessions, and every
warm round of a parallel worker).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.dashmm.dag import DAG, DagNode
from repro.hpx.lco import LCO
from repro.hpx.parcel import Parcel
from repro.hpx.runtime import Runtime
from repro.hpx.scheduler import HIGH, LOW, Task
from repro.kernels.base import Kernel
from repro.kernels.fitops import OperatorFactory
from repro.sim.costmodel import CostModel, SizeModel

#: With the binary priority extension on (Section VI), the expansion
#: pipeline - everything that unlocks downstream dataflow - outranks the
#: abundant leaf-output work (S->T, M->T, L->T), which any idle core can
#: do at any time.  The paper frames this as "early execution of the
#: most critical work up the source tree ... overlapped with other less
#: critical work"; simulation shows the whole critical chain (upward
#: plus bridge plus L->L) must be promoted for the starved region to
#: disappear.
CRITICAL_OPS = ("S2M", "M2M", "M2I", "I2I", "I2L", "M2L", "L2L", "S2L")
FILLER_OPS = ("S2T", "M2T", "L2T")


class _Deferred:
    """Placeholder value for a leaf-output edge (S->T, M->T, L->T).

    The batched path sets these into target LCOs instead of computed
    potentials; the numeric work happens once per (op, level) group in
    :meth:`Registrar.flush_deferred` after the runtime drains.  Trigger
    counting, effect ordering and the virtual clock are untouched
    because none of them depend on the payload.
    """

    __slots__ = ("edge",)

    def __init__(self, edge):
        self.edge = edge


class _Lazy:
    """Placeholder for a lazy edge value (M->I, I->I, I->L, L->L).

    Reducers ignore it: the registrar tracks the edge in a per-op list
    and materializes every pending value of one op together - one
    stacked GEMM per group - when the flush cascade runs, so each
    operator stack streams through memory once per wave instead of once
    per edge.
    """

    __slots__ = ("edge",)

    def __init__(self, edge):
        self.edge = edge


def _marker_order(m) -> tuple:
    """Canonical sort key for a lazy marker.

    Markers are appended in task-execution order, which varies with
    network timing (and under fault injection, with the fault
    schedule); every flush sorts them first so grouping and
    accumulation order - hence the floating-point result - depend only
    on the DAG.
    """
    e = m.edge
    return (e.src, e.dst, repr(e.aux))

#: canonical direction order for the padded full-width operator stacks
_FULL_DIRS = tuple(sorted(("+z", "-z", "+x", "-x", "+y", "-y")))
_DIR_IDX = {d: i for i, d in enumerate(_FULL_DIRS)}


@dataclass
class ReplayPlan:
    """Static numeric plan compiled from a DAG and its node localities.

    See :meth:`Registrar.compile_replay`.  Valid while the DAG and the
    node localities stay as compiled; coordinates and charges may
    change freely.
    """

    m_folds: list  # (dst id, in-edges in fold-key order), deepest level first
    l_folds: list  # (dst id, eager in-edges in fold-key order)
    s2l_groups: list  # S->L batch groups as the batched dataflow forms them
    lazy: tuple  # canonically sorted (m2i, i2i, i2l, l2l) marker lists
    deferred: list  # canonically sorted leaf-output edges


class ExpansionLCO(LCO):
    """User-defined LCO: expansion data + DAG out-edge list (Fig. 2).

    Contributions are buffered as they arrive and folded *at trigger
    time in canonical dedup-key order* (the key is the edge's position
    in the DAG, see :meth:`Registrar._edge_key`).  Arrival order over a
    network is timing- and fault-dependent; folding in key order makes
    the floating-point reduction - and therefore the evaluation result
    - bit-identical across schedules, which is what lets a faulty run
    under the reliable transport reproduce the fault-free potentials
    exactly.  Contributions without a key fold in arrival order, after
    all keyed ones.
    """

    def __init__(self, runtime, locality: int, node: DagNode, n_inputs: int, registrar):
        super().__init__(runtime, locality)
        self.node = node
        self.remaining = n_inputs
        self.registrar = registrar
        self.data = None
        #: deferred leaf-output edges, in canonical fold order (T nodes)
        self.pending = None
        self._inbox: list = []
        self._unkeyed = 0

    @property
    def hazard_subject(self) -> str:
        """IR-derived identity for hazard reports: the DAG node, not an
        opaque GAS address, so a report names the offending graph
        element directly."""
        n = self.node
        return f"{n.kind}[{n.tree} box {n.box_index} L{n.level}]@{self.addr!r}"

    def _fold(self, value, key) -> None:
        self.remaining -= 1
        if value is None:
            return
        if key is None:
            # sort unkeyed contributions after all DAG edges (node ids
            # are >= 0), in arrival order
            key = (1 << 60, self._unkeyed)
            self._unkeyed += 1
        self._inbox.append((key, value))

    def _finalize(self) -> None:
        inbox = self._inbox
        inbox.sort(key=lambda kv: kv[0])
        reduce = self._reduce
        for _, value in inbox:
            reduce(value)
        self._inbox = []

    def _reduce(self, value) -> None:
        if type(value) is _Deferred:
            if self.pending is None:
                self.pending = []
            self.pending.append(value.edge)
        elif type(value) is _Lazy:
            # tracked registrar-side; materialized in bulk on first read
            pass
        elif self.node.kind == "It":
            # per-direction plane-wave accumulators
            direction, amps = value
            if self.data is None:
                self.data = {}
            if direction in self.data:
                self.data[direction] = self.data[direction] + amps
            else:
                self.data[direction] = amps
        else:
            self.data = value if self.data is None else self.data + value

    def _predicate(self) -> bool:
        return self.remaining <= 0


class Registrar:
    """Builds and runs the implicit LCO network for one evaluation."""

    def __init__(
        self,
        runtime: Runtime,
        dag: DAG,
        dual,
        kernel,
        factory: OperatorFactory | None,
        mode: str = "numeric",
        cost_model: CostModel | None = None,
        size_model: SizeModel | None = None,
        coalesce: bool = True,
        sequential_edges: bool = True,
        batch_edges: bool = True,
        centers: dict | None = None,
    ):
        if mode not in ("numeric", "phantom"):
            raise ValueError("mode must be 'numeric' or 'phantom'")
        if mode == "numeric" and factory is None:
            raise ValueError("numeric mode needs an operator factory")
        self.runtime = runtime
        self.dag = dag
        self.dual = dual
        self.kernel = kernel
        self.factory = factory
        self.mode = mode
        self.cost = cost_model or CostModel()
        self.sizes = size_model or SizeModel()
        self.coalesce = coalesce
        #: Section VI: "the sequential execution of out edges maximizes
        #: cache locality ... but sacrifices parallelism".  False spawns
        #: one task per local edge instead (the road not taken).
        self.sequential_edges = sequential_edges
        #: Batched numeric fast path: a node's local out-edges that
        #: share an operator (all S2T/M2T/L2T leaf outputs, S2L edges at
        #: one level) are executed as a single stacked NumPy operation
        #: instead of one small matvec per edge.  Virtual-clock charges
        #: and effect ordering are identical either way; only wall-clock
        #: time changes.  False restores per-edge execution (ablation).
        self.batch_edges = batch_edges
        #: node id -> sorted receiving directions, filled lazily by the
        #: batched M->I fast path (the set is static per DAG)
        self._m2i_dirs: dict[int, tuple] = {}
        #: leaf-output edges whose numeric value was deferred; evaluated
        #: in one stacked pass per (op, level) by :meth:`flush_deferred`
        self._deferred: list = []
        #: source box index -> multipole, all leaves fitted in one
        #: stacked pass per level (batched path, built on first S->M)
        self._s2m: dict[int, np.ndarray] | None = None
        #: localities whose edges this registrar executes (the parallel
        #: backend sets the worker's own rank); None = all.  The replay
        #: plan compiles only their destinations, and the leaf-multipole
        #: cache keeps only their batches
        self._own_localities: "set[int] | None" = None
        #: M->I / I->I / I->L / L->L edges whose value is pending bulk
        #: materialization (the exponential bridge and the downward
        #: shift are lazy end to end)
        self._lazy_m2i: list = []
        self._lazy_i2i: list = []
        self._lazy_i2l: list = []
        self._lazy_l2l: list = []
        self.lcos: dict[int, ExpansionLCO] = {}
        #: node id -> {id(edge): position in its out-edge list}; edge
        #: positions are both the parcel wire format and the per-LCO
        #: dedup keys, so retried contributions fold exactly once
        self._pos: dict[int, dict] = {}
        self.result = np.zeros(dual.target.n_points) if dual is not None else None
        #: box centers are a pure function of the box keys and the
        #: domain - i.e. of the tree *shape* - so a persistent session
        #: hands the dict of a previous same-shape evaluation back in
        #: instead of recomputing the Python loop per submit
        self._centers = centers if centers is not None else {
            "source": np.array([dual.domain.box_center(b.key) for b in dual.source.boxes]),
            "target": np.array([dual.domain.box_center(b.key) for b in dual.target.boxes]),
        }
        #: optional cache of geometry-derived operator matrices (p2m
        #: basis rows, s2t greens chunks, m2t/l2t evaluation matrices),
        #: owned by the persistent session.  None (the default) disables
        #: caching entirely; when set, the flush paths populate it and
        #: reuse entries on later warm runs.  Entries are keyed so a hit
        #: reproduces the cold stacked operands bit for bit; the session
        #: is responsible for invalidation when points or shape move.
        self.geom_cache: dict | None = None
        #: flush-plan recording (persistent sessions): the first batched
        #: m2i flush records its group compositions and the first i2i
        #: flush its compiled factor tables and index arrays
        #: (:meth:`_compile_i2i`), so warm re-runs skip the marker sort,
        #: the grouping and the compile.  Plans bake node localities in;
        #: anything that reassigns nodes under a live registrar must
        #: call :meth:`invalidate_plans`.
        self.plan_caching = False
        self._m2i_plan: tuple | None = None
        self._i2i_plan: tuple | None = None
        # hot references resolved once (touched per edge in the runs)
        self._nodes = dag.nodes
        self._sboxes = dual.source.boxes if dual is not None else None
        self._tboxes = dual.target.boxes if dual is not None else None
        # scheduling-policy wiring: a prioritized policy splits the
        # critical chain from leaf outputs (binary HIGH/LOW or graded
        # levels); a graded one additionally stamps offline
        # critical-path levels onto continuations and parcels
        pol = runtime.scheduler.policy
        self.policy = pol
        self._split = pol.prioritized
        self._node_levels: list[int] | None = None
        self._near_ops: frozenset = frozenset()
        self._filler_level = LOW
        if pol.graded:
            # lazy import: repro.hpx must stay importable without the
            # analysis layer, and analysis imports repro.dashmm.dag
            from repro.analysis.critical_path import node_priorities

            # the last level is reserved for the near-field stream the
            # policy interposes; graded levels cover the rest
            self._near_ops = frozenset(getattr(pol, "near_ops", ("S2T",)))
            self._filler_level = pol.n_levels - 1
            stamp = getattr(dag, "priorities", None)
            if (
                stamp is not None
                and stamp.get("levels") == pol.n_levels - 1
                and stamp.get("cost") is self.cost
            ):
                # the declarative builder already graded this DAG
                # against the same cost model and resolution
                # (DagBuilder.stamp_priorities); reuse the stamp
                self._node_levels = stamp["values"]
            else:
                self._node_levels = node_priorities(
                    dag, cost_model=self.cost, levels=pol.n_levels - 1
                )
        runtime.register_action("dashmm_edges", self._edges_action)
        # per-evaluation mutable state outside the GAS (lazy/deferred
        # accumulators, the result vector, recorded flush plans) rides
        # checkpoints through the participant protocol
        participants = getattr(runtime, "checkpoint_participants", None)
        if participants is not None:
            participants.append(self)

    # -- expansion-data access ----------------------------------------------------
    def _data_of(self, node_id: int):
        """Expansion data of a node, wherever it lives.

        In the simulator every LCO is in-process, so this is a plain
        lookup.  The real-parallel backend overrides it: data of a
        remote node comes from the mirror filled by arriving parcels
        and staged flush exchanges (:mod:`repro.dashmm.parallel`).
        """
        return self.lcos[node_id].data

    # -- allocation (Fig. 2, t0/t1) ------------------------------------------------
    def allocate(self) -> None:
        """Allocate an LCO per DAG node with inputs; register continuations."""
        for node in self.dag.nodes:
            n_in = self.dag.in_degree[node.id]
            if node.kind == "S" or n_in == 0:
                continue
            lco = ExpansionLCO(self.runtime, node.locality, node, n_in, self)
            self.lcos[node.id] = lco
            pr = self._node_priority(node)
            lco.register_continuation(
                Task(
                    fn=self._continuation,
                    args=(node.id,),
                    op_class=f"edges:{node.kind}",
                    priority=pr,
                )
            )

    def initial_tasks(self) -> int:
        """Enqueue the time-zero tasks (out-edges of every S node)."""
        count = 0
        for node in self.dag.nodes:
            if node.kind != "S":
                continue
            edges = self.dag.out_edges[node.id]
            if not edges:
                continue
            if self._split:
                # split critical-path work (S->M, S->L) from the near
                # field so the scheduler favours the expansion pipeline
                crit = [e for e in edges if e.op in CRITICAL_OPS]
                rest = [e for e in edges if e.op not in CRITICAL_OPS]
                groups = [
                    (g, self._edge_priority(g)) for g in (crit, rest) if g
                ]
            else:
                groups = [(edges, LOW)]
            for group, pr in groups:
                if not group:
                    continue
                self.runtime.enqueue_task(
                    Task(
                        fn=self._process_edges,
                        args=(node.id, group),
                        op_class="edges:S",
                        priority=pr,
                    ),
                    node.locality,
                )
                count += 1
        return count

    # -- persistent-session support -------------------------------------------------
    def reset(self, zero_result: bool = True) -> None:
        """Rewind every LCO and all per-evaluation state for a warm re-run.

        After ``reset`` the registrar is observationally equivalent to a
        freshly allocated one over the same DAG: every LCO has its full
        input count outstanding, an empty inbox, no data, and its
        continuation re-registered; all lazy/deferred accumulators are
        empty.  Static shape-derived state - the LCO objects themselves
        (and their GAS addresses), ``_pos`` dedup positions, ``_centers``
        and ``_m2i_dirs`` - survives, which is the point: a same-shape
        resubmission skips allocation entirely.
        """
        in_degree = self.dag.in_degree
        for nid, lco in self.lcos.items():
            lco.remaining = in_degree[nid]
            # a re-run of the distribution policy may have moved the
            # node; keep the LCO's home in step so trigger tasks enqueue
            # where a cold allocation would put them
            lco.locality = lco.node.locality
            lco.triggered = False
            lco.data = None
            lco.pending = None
            lco._inbox = []
            lco._unkeyed = 0
            lco._seen_keys = None
            lco._continuations.clear()
            node = lco.node
            lco.register_continuation(
                Task(
                    fn=self._continuation,
                    args=(node.id,),
                    op_class=f"edges:{node.kind}",
                    priority=self._node_priority(node),
                )
            )
        self._deferred = []
        self._s2m = None
        self._lazy_m2i = []
        self._lazy_i2i = []
        self._lazy_i2l = []
        self._lazy_l2l = []
        if zero_result and self.result is not None:
            self.result[:] = 0.0

    def checkpoint_state(self) -> dict:
        """Mutable per-evaluation state for a runtime checkpoint.

        The registrar's LCOs live in the GAS and are snapshotted there
        (:mod:`repro.hpx.checkpoint`); this covers everything else that
        changes while an evaluation runs: the lazy marker lists and
        deferred leaf outputs, the stacked-multipole cache, the result
        vector, and the recorded flush plans (which are
        schedule-dependent under fuzzing, so a restore must rewind them
        with everything else).
        """
        return {
            "deferred": list(self._deferred),
            "s2m": None if self._s2m is None else dict(self._s2m),
            "lazy_m2i": list(self._lazy_m2i),
            "lazy_i2i": list(self._lazy_i2i),
            "lazy_i2l": list(self._lazy_i2l),
            "lazy_l2l": list(self._lazy_l2l),
            "m2i_dirs": dict(self._m2i_dirs),
            "m2i_plan": self._m2i_plan,
            "i2i_plan": self._i2i_plan,
            "result": None if self.result is None else self.result.copy(),
        }

    def restore_state(self, state: dict) -> None:
        """Write a :meth:`checkpoint_state` snapshot back in place."""
        self._deferred = list(state["deferred"])
        self._s2m = None if state["s2m"] is None else dict(state["s2m"])
        self._lazy_m2i = list(state["lazy_m2i"])
        self._lazy_i2i = list(state["lazy_i2i"])
        self._lazy_i2l = list(state["lazy_i2l"])
        self._lazy_l2l = list(state["lazy_l2l"])
        self._m2i_dirs = dict(state["m2i_dirs"])
        self._m2i_plan = state["m2i_plan"]
        self._i2i_plan = state["i2i_plan"]
        if state["result"] is not None:
            # in place: closures and the evaluator hold this array
            self.result[:] = state["result"]

    def invalidate_plans(self) -> None:
        """Drop recorded flush plans (group compositions + i2i tables).

        Required whenever node localities change under a live registrar:
        the plans bake the (direction, level, locality) group keys - and
        hence the stacked operand compositions - of the run that
        recorded them.  The next flush re-records from scratch.
        """
        self._m2i_plan = None
        self._i2i_plan = None

    def _record_plans(self) -> bool:
        """Flush plans are only sound when every flush sees the full
        marker set, i.e. in sequential batched mode where markers
        accumulate until one global flush cascade."""
        return self.plan_caching and self.sequential_edges and self.batch_edges

    def rebind(self, dual) -> None:
        """Point the registrar at a replacement dual tree of the *same shape*.

        A spliced tree keeps every box key, id and leaf flag but carries
        re-sorted points and updated start/stop/count tables; the DAG and
        the LCO network built over the old tree stay structurally valid.
        Box centers depend only on keys and domain, so ``_centers`` is
        untouched.  Callers must refresh the DAG's ``n_points`` (see
        :func:`repro.dashmm.dag.refresh_n_points`) and re-run the
        distribution policy themselves if counts shifted.
        """
        self.dual = dual
        self._sboxes = dual.source.boxes
        self._tboxes = dual.target.boxes

    def _node_priority(self, node: DagNode) -> int:
        """Expansion nodes drive the critical chain; leaf data does not.

        Graded policies use the node's offline critical-path level; the
        binary policy promotes every expansion node to HIGH.
        """
        if self._node_levels is not None:
            return self._node_levels[node.id]
        if not self._split:
            return LOW
        return HIGH if node.kind in ("M", "Is", "It", "L") else LOW

    # -- execution ---------------------------------------------------------------------
    def _continuation(self, ctx, node_id: int) -> None:
        node = self.dag.nodes[node_id]
        edges = self.dag.out_edges[node_id]
        if self._split and node.kind in ("M", "Is", "It", "L"):
            # run the critical chain inline at the node's priority,
            # defer the leaf-output edges (M->T, L->T) to a
            # lower-priority sibling
            crit = [e for e in edges if e.op in CRITICAL_OPS]
            rest = [e for e in edges if e.op not in CRITICAL_OPS]
            self._process_edges(ctx, node_id, crit)
            if rest:
                ctx.spawn(
                    Task(
                        fn=self._process_edges,
                        args=(node_id, rest),
                        op_class=f"edges:{node.kind}",
                        priority=self._edge_priority(rest),
                    )
                )
        else:
            self._process_edges(ctx, node_id, edges)
        if node.kind == "T" and self.mode == "numeric":
            box = self.dual.target.boxes[node.box_index]
            lco = self.lcos[node_id]
            if lco.data is not None:
                self.result[box.start : box.stop] = lco.data
            if lco.pending:
                self._deferred.extend(lco.pending)
                lco.pending = None

    def _pos_for(self, node_id: int) -> dict:
        d = self._pos.get(node_id)
        if d is None:
            d = self._pos[node_id] = {
                id(e): i for i, e in enumerate(self.dag.out_edges[node_id])
            }
        return d

    def _edge_key(self, e) -> tuple:
        """Canonical identity of one edge: (source node, out-list position)."""
        return (e.src, self._pos_for(e.src)[id(e)])

    def _process_edges(self, ctx, node_id: int, edges) -> None:
        node = self.dag.nodes[node_id]
        all_edges = self.dag.out_edges[node_id]
        # positions within the node's full out-edge list travel in
        # parcels; built lazily since purely local nodes never need it
        pos: dict[int, int] | None = None
        by_loc: dict[int, list] = defaultdict(list)
        nodes = self._nodes
        for e in edges:
            by_loc[nodes[e.dst].locality].append(e)
        here = ctx.locality
        # destination order is schedule freedom: parcels to different
        # localities are unordered, so the fuzzer permutes the canonical
        # sorted order (edges *within* one parcel keep their dedup-key
        # fold order - reordering destinations must not change results)
        locs = sorted(by_loc)
        drv = self.runtime.scheduler.schedule_driver
        if drv is not None and len(locs) > 1:
            locs = drv.permute("coalesce", locs)
        for loc in locs:
            group = by_loc[loc]
            if loc == here:
                if self.sequential_edges:
                    self._run_edges(ctx, group)
                else:
                    for e in group:
                        ctx.spawn(
                            Task(
                                fn=self._run_edge_task,
                                args=(e,),
                                op_class=e.op,
                                priority=self._edge_priority([e]),
                            )
                        )
            elif self.coalesce:
                if pos is None:
                    pos = self._pos_for(node_id)
                data_bytes = self.sizes.payload_bytes(
                    group[0].op, n_src_points=node.n_points
                )
                nbytes = self.sizes.parcel_bytes(data_bytes, len(group))
                ctx.charge("_runtime", self.cost.remote_handling_cost(len(group), nbytes))
                ctx.send_parcel(
                    Parcel(
                        action="dashmm_edges",
                        target=loc,
                        args=(node_id, tuple(pos[id(e)] for e in group)),
                        size_bytes=nbytes,
                        op_class="parcel:edges",
                        priority=self._edge_priority(group),
                    )
                )
            else:
                if pos is None:
                    pos = self._pos_for(node_id)
                for e in group:
                    data_bytes = self.sizes.payload_bytes(e.op, n_src_points=node.n_points)
                    nb1 = self.sizes.parcel_bytes(data_bytes, 1)
                    ctx.charge("_runtime", self.cost.remote_handling_cost(1, nb1))
                    ctx.send_parcel(
                        Parcel(
                            action="dashmm_edges",
                            target=loc,
                            args=(node_id, (pos[id(e)],)),
                            size_bytes=nb1,
                            op_class="parcel:edges",
                            priority=self._edge_priority([e]),
                        )
                    )

    def _edge_priority(self, edges) -> int:
        """Priority stamp for a task/parcel carrying this edge group.

        Graded: the most critical destination level in the group, except
        pure near-field (P2P) groups, which land on the reserved filler
        level the policy interposes under far-field bursts.  Binary:
        HIGH when any edge is on the critical chain.
        """
        levels = self._node_levels
        if levels is not None:
            if all(e.op in self._near_ops for e in edges):
                return self._filler_level
            return min(levels[e.dst] for e in edges)
        if not self._split:
            return LOW
        return HIGH if any(e.op in CRITICAL_OPS for e in edges) else LOW

    def _run_edge_task(self, ctx, e) -> None:
        if self._lazy_m2i or self._lazy_i2l:
            self._flush_lazy(e.src)
        self._run_edge(ctx, e)

    def _edges_action(self, ctx, target, node_id: int, edge_indices) -> None:
        """Parcel action: evaluate coalesced remote edges at the destination."""
        edges = self.dag.out_edges[node_id]
        self._run_edges(ctx, [edges[i] for i in edge_indices])

    # -- edge transforms ------------------------------------------------------------------
    def _charge_edge(self, ctx, e) -> None:
        """Account the virtual-clock cost of one edge (both exec paths)."""
        op = e.op
        nodes = self._nodes
        if op == "S2T":
            sbox = self._sboxes[nodes[e.src].box_index]
            tbox = self._tboxes[nodes[e.dst].box_index]
            ctx.charge(op, self.cost.edge_cost(op, n_src=sbox.count, n_tgt=tbox.count))
        elif op in ("S2M", "S2L"):
            sbox = self._sboxes[nodes[e.src].box_index]
            ctx.charge(op, self.cost.edge_cost(op, n_src=sbox.count))
        elif op in ("L2T", "M2T"):
            tbox = self._tboxes[nodes[e.dst].box_index]
            ctx.charge(op, self.cost.edge_cost(op, n_tgt=tbox.count))
        elif op in ("M2M", "M2L", "M2I", "I2I", "I2L", "L2L"):
            ctx.charge(op, self.cost.edge_cost(op))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown edge op {op}")

    def _edge_value(self, e):
        """Numeric value of one edge (per-edge reference path)."""
        src_node = self.dag.nodes[e.src]
        dst_node = self.dag.nodes[e.dst]
        op = e.op
        if op == "S2T":
            sbox = self.dual.source.boxes[src_node.box_index]
            tbox = self.dual.target.boxes[dst_node.box_index]
            return self.kernel.direct(
                self.dual.target.points[tbox.start : tbox.stop],
                self.dual.source.points[sbox.start : sbox.stop],
                self.dual.source.weights[sbox.start : sbox.stop],
            )
        if op == "S2M":
            sbox = self.dual.source.boxes[src_node.box_index]
            h = self.dual.domain.box_size(sbox.level)
            rel = (
                self.dual.source.points[sbox.start : sbox.stop]
                - self._centers["source"][sbox.index]
            ) / h
            return self.kernel.p2m(
                rel, self.dual.source.weights[sbox.start : sbox.stop], h
            )
        if op == "S2L":
            sbox = self.dual.source.boxes[src_node.box_index]
            tbox = self.dual.target.boxes[dst_node.box_index]
            h = self.dual.domain.box_size(tbox.level)
            rel = (
                self.dual.source.points[sbox.start : sbox.stop]
                - self._centers["target"][tbox.index]
            ) / h
            return self.kernel.p2l(
                rel, self.dual.source.weights[sbox.start : sbox.stop], h
            )
        if op == "M2M":
            h = self.dual.domain.box_size(src_node.level)
            return self.factory.m2m(e.aux, h) @ self._data_of(e.src)
        if op == "M2L":
            h = self.dual.domain.box_size(src_node.level)
            return self.factory.m2l(e.aux, h) @ self._data_of(e.src)
        if op == "M2I":
            h = self.dual.domain.box_size(src_node.level)
            dirs = {ee.aux[0] for ee in self.dag.out_edges[e.dst] if ee.op == "I2I"}
            M = self._data_of(e.src)
            return {d: self.factory.m2i(d, h) @ M for d in dirs}
        if op == "I2I":
            d, delta = e.aux
            h = self.dual.domain.box_size(src_node.level)
            W = self._data_of(e.src)[d]
            return (d, W * self.factory.i2i(d, delta, h))
        if op == "I2L":
            h = self.dual.domain.box_size(src_node.level)
            acc = None
            data = self._data_of(e.src) or {}
            for d, V in sorted(data.items()):
                c = self.factory.i2l(d, h) @ V
                acc = c if acc is None else acc + c
            return acc if acc is not None else np.zeros(self.kernel.size, dtype=complex)
        if op == "L2L":
            h = self.dual.domain.box_size(src_node.level)
            return self.factory.l2l(e.aux, h) @ self._data_of(e.src)
        if op == "L2T":
            tbox = self.dual.target.boxes[dst_node.box_index]
            h = self.dual.domain.box_size(src_node.level)
            rel = (
                self.dual.target.points[tbox.start : tbox.stop]
                - self._centers["target"][src_node.box_index]
            ) / h
            return self.kernel.l2t(self._data_of(e.src), rel, h)
        if op == "M2T":
            sbox = self.dual.source.boxes[src_node.box_index]
            tbox = self.dual.target.boxes[dst_node.box_index]
            h = self.dual.domain.box_size(sbox.level)
            rel = (
                self.dual.target.points[tbox.start : tbox.stop]
                - self._centers["source"][sbox.index]
            ) / h
            return self.kernel.m2t(self._data_of(e.src), rel, h)
        raise ValueError(f"unknown edge op {op}")  # pragma: no cover - defensive

    def _run_edge(self, ctx, e) -> None:
        self._charge_edge(ctx, e)
        value = self._edge_value(e) if self.mode == "numeric" else None
        ctx.lco_set(self.lcos[e.dst], value, key=self._edge_key(e), op_class=e.op)

    # -- batched fast path ----------------------------------------------------------------
    def _edge_value_fast(self, e):
        """Numeric value of one edge using stacked (batched) operators.

        M->I collapses all receiving directions into one matvec over the
        row-stacked operator; I->L collapses all incoming directions
        into one matvec over the column-stacked operator.  Every other
        op falls through to the per-edge reference evaluation.
        """
        op = e.op
        if op == "S2M":
            if self._s2m is None:
                self._s2m = self._leaf_multipoles()
            return self._s2m[self.dag.nodes[e.src].box_index]
        if op == "M2I":
            if not self._m2i_dirs_of(e.dst):
                return {}
            lazy = self._lazy_m2i
        elif op == "I2I":
            lazy = self._lazy_i2i
        elif op == "I2L":
            lazy = self._lazy_i2l
        elif op == "L2L":
            lazy = self._lazy_l2l
        else:
            return self._edge_value(e)
        marker = _Lazy(e)
        lazy.append(marker)
        return marker

    def _m2i_dirs_of(self, is_id: int) -> tuple:
        """Sorted directions an Is node radiates into (static per DAG)."""
        dirs = self._m2i_dirs.get(is_id)
        if dirs is None:
            dirs = self._m2i_dirs[is_id] = tuple(
                sorted({e.aux[0] for e in self.dag.out_edges[is_id] if e.op == "I2I"})
            )
        return dirs

    def _flush_m2i(self) -> None:
        """Materialize every pending M->I value in stacked GEMMs.

        One ``(edges, size) @ (size, 6 * nterms)`` product per level
        against the full-width direction stack computes the same
        per-direction dot products the per-edge path does, but reads
        the operator once for the whole wave (directions a node does
        not radiate into are computed and discarded - the FLOPs are
        negligible next to the saved memory traffic).

        Groups are keyed by (source level, destination locality).  Every
        edge executes at its destination node's locality, so adding the
        locality makes each group exactly the set of markers one
        real-parallel worker accumulates: the stacked operands - hence
        the floating-point results - are bit-identical whether the flush
        runs globally (simulator) or per worker (parallel backend).
        The same keying applies to every flush below.  A recorded plan
        replays the group compositions without the marker sort.
        """
        lazy, self._lazy_m2i = self._lazy_m2i, []
        plan = self._m2i_plan
        if plan is None or len(lazy) != plan[0]:
            lazy.sort(key=_marker_order)
            nodes = self._nodes
            groups: dict[tuple, list] = {}
            for m in lazy:
                e = m.edge
                groups.setdefault(
                    (nodes[e.src].level, nodes[e.dst].locality), []
                ).append(e)
            plan = (len(lazy), [(lv, grp) for (lv, _), grp in groups.items()])
            if self._record_plans():
                self._m2i_plan = plan
        lcos, dirs = self.lcos, self._m2i_dirs
        for level, grp in plan[1]:
            stack = self.factory.m2i_stack(_FULL_DIRS, self.dual.domain.box_size(level))
            M = np.stack([self._data_of(e.src) for e in grp])
            amps = M @ stack.T
            per = amps.shape[1] // len(_FULL_DIRS)
            for row, e in zip(amps, grp):
                lcos[e.dst].data = {
                    d: row[_DIR_IDX[d] * per : (_DIR_IDX[d] + 1) * per]
                    for d in dirs[e.dst]
                }

    def _compile_i2i(self, lazy) -> list:
        """Compile pending I->I markers into per-group factor tables.

        An I->I value is the source's outgoing plane wave times a
        diagonal factor that depends only on (direction, integer offset,
        level).  Each (direction, source level, destination locality)
        group therefore compiles to ``(d, srcs, T, slots, dsts)``:

        * ``T`` - one factor row per distinct offset in the group;
        * ``srcs`` - the distinct source nodes, whose plane waves are
          stacked once per flush;
        * ``dsts`` - the destinations, by decreasing in-degree;
        * ``slots[j] = (r, k)`` - the j-th incoming edge, in canonical
          order, of each of the first ``len(r)`` destinations, as source
          rows ``r`` and offset rows ``k``.

        Everything here is a function of the DAG and the node
        localities, never of the charges or coordinates.
        """
        lazy.sort(key=_marker_order)
        nodes = self._nodes
        groups: dict[tuple, dict] = {}
        for m in lazy:
            e = m.edge
            groups.setdefault(
                (e.aux[0], nodes[e.src].level, nodes[e.dst].locality), {}
            ).setdefault(e.dst, []).append(e)
        compiled = []
        for (d, level, _), by_dst in groups.items():
            dsts = sorted(by_dst, key=lambda n: -len(by_dst[n]))
            srcs: dict[int, int] = {}
            offs: dict[tuple, int] = {}
            slots = []
            col = [by_dst[n] for n in dsts]
            for j in range(len(col[0])):
                col = [es for es in col if len(es) > j]
                es = [es[j] for es in col]
                r = [srcs.setdefault(e.src, len(srcs)) for e in es]
                k = [offs.setdefault(e.aux[1], len(offs)) for e in es]
                slots.append((np.array(r, dtype=np.intp), np.array(k, dtype=np.intp)))
            h = self.dual.domain.box_size(level)
            T = np.stack([self.factory.i2i(d, delta, h) for delta in offs])
            compiled.append((d, list(srcs), T, slots, dsts))
        return compiled

    def _flush_i2i(self) -> None:
        """Materialize every pending I->I value from compiled factor tables.

        Per group (:meth:`_compile_i2i`) the source plane waves are
        stacked once into ``W``; slot 0 starts every destination's
        accumulator as ``W[r0] * T[k0]`` and each later slot adds
        ``W[rj] * T[kj]`` into the destinations that have a j-th edge
        (a prefix of ``dsts``, which is ordered by in-degree).
        Each destination thus folds its edges one by one in canonical
        order - the per-edge LCO fold, bit for bit - and the result is
        the same whether the flush runs globally or per worker.  A
        recorded plan keeps only the compiled tables and index arrays.
        """
        lazy, self._lazy_i2i = self._lazy_i2i, []
        plan = self._i2i_plan
        if plan is None or len(lazy) != plan[0]:
            plan = (len(lazy), self._compile_i2i(lazy))
            if self._record_plans():
                self._i2i_plan = plan
        lcos, data_of = self.lcos, self._data_of
        for d, srcs, T, slots, dsts in plan[1]:
            W = np.stack([data_of(s)[d] for s in srcs])
            acc = np.empty((len(dsts), T.shape[1]), dtype=np.result_type(W, T))
            # destination blocks of 32 rows keep every gathered operand
            # cache-resident while all slots fold into the block
            (r0, k0), *rest = slots
            for a in range(0, len(dsts), 32):
                b = a + 32
                np.multiply(W[r0[a:b]], T[k0[a:b]], out=acc[a:b])
                for r, k in rest:
                    if len(r) <= a:
                        break
                    acc[a : min(b, len(r))] += W[r[a:b]] * T[k[a:b]]
            for dst_id, s in zip(dsts, acc):
                dst = lcos[dst_id]
                if dst.data is None:
                    dst.data = {d: s}
                else:
                    cur = dst.data.get(d)
                    dst.data[d] = s if cur is None else cur + s

    def _flush_i2l(self) -> None:
        """Materialize every pending I->L value in stacked GEMMs against
        the full-width direction stack (absent directions are zero rows,
        which contribute exactly nothing), accumulating each result into
        its target local expansion."""
        lazy, self._lazy_i2l = self._lazy_i2l, []
        lazy.sort(key=_marker_order)
        nodes, lcos = self._nodes, self.lcos
        groups: dict[tuple, list] = {}
        for m in lazy:
            e = m.edge
            groups.setdefault(
                (nodes[e.src].level, nodes[e.dst].locality), []
            ).append(e)
        for (level, _), grp in groups.items():
            h = self.dual.domain.box_size(level)
            stack = self.factory.i2l_stack(_FULL_DIRS, h)
            nt = stack.shape[1] // len(_FULL_DIRS)
            V = np.zeros((len(grp), stack.shape[1]), dtype=complex)
            for i, e in enumerate(grp):
                for d, amps in self._data_of(e.src).items():
                    j = _DIR_IDX[d]
                    V[i, j * nt : (j + 1) * nt] = amps
            locs = V @ stack.T
            for row, e in zip(locs, grp):
                dst = lcos[e.dst]
                dst.data = row if dst.data is None else dst.data + row

    def _flush_l2l(self) -> None:
        """Materialize every pending L->L value, coarse levels first.

        Parents strictly precede children in the downward pass, so
        processing levels in ascending order guarantees every parent
        local expansion is complete (its own lazy inputs flushed) before
        its children consume it; within a level the edges sharing an
        octant operator run as one GEMM.
        """
        for level, edges in self._l2l_by_level():
            self._flush_l2l_level(level, edges)

    def _l2l_by_level(self) -> list[tuple[int, list]]:
        """Drain pending L->L markers into (level, edges) batches,
        coarse levels first, edges in canonical marker order."""
        lazy, self._lazy_l2l = self._lazy_l2l, []
        lazy.sort(key=_marker_order)
        nodes = self._nodes
        by_level: dict[int, list] = {}
        for m in lazy:
            by_level.setdefault(nodes[m.edge.src].level, []).append(m.edge)
        return [(level, by_level[level]) for level in sorted(by_level)]

    def _flush_l2l_level(self, level: int, edges) -> None:
        """One downward-shift level: grouped GEMMs per (octant, dst
        locality).  Split out so the parallel backend can interleave a
        parent-data exchange barrier between levels."""
        nodes, lcos = self._nodes, self.lcos
        groups: dict[tuple, list] = {}
        for e in edges:
            groups.setdefault((e.aux, nodes[e.dst].locality), []).append(e)
        h = self.dual.domain.box_size(level)
        for (octant, _), grp in groups.items():
            op = self.factory.l2l(octant, h)
            P = np.stack([self._data_of(e.src) for e in grp])
            vals = P @ op.T
            for row, e in zip(vals, grp):
                dst = lcos[e.dst]
                dst.data = row if dst.data is None else dst.data + row

    def _flush_lazy(self, src_id: int) -> None:
        """Materialize pending lazy values before ``src_id``'s data is read.

        The exponential bridge and the downward shift are lazy end to
        end, so in batched sequential mode nothing reads an intermediate
        or local expansion during the run and the entire cascade runs
        once, at full batch width, from :meth:`flush_deferred`.  This
        hook serves the per-edge-task ablation paths, which do read
        expansions eagerly.
        """
        kind = self._nodes[src_id].kind
        if kind == "Is":
            if self._lazy_m2i:
                self._flush_m2i()
        elif kind == "It":
            if self._lazy_m2i:
                self._flush_m2i()
            if self._lazy_i2i:
                self._flush_i2i()
        elif kind == "L":
            if self._lazy_m2i:
                self._flush_m2i()
            if self._lazy_i2i:
                self._flush_i2i()
            if self._lazy_i2l:
                self._flush_i2l()
            if self._lazy_l2l:
                self._flush_l2l()

    def _leaf_multipoles(self) -> dict[int, np.ndarray]:
        """Multipoles of every source leaf, one stacked fit per level.

        The per-edge path builds one ``p2m`` matrix per leaf; here all
        leaves at a level share a single matrix build over their
        concatenated points, and per-leaf coefficients fall out of a
        segmented reduction of the charge-weighted rows.

        Batches are keyed by (level, locality of the leaf's M node) -
        the locality at which the S->M edge executes - so a batch has
        the same composition whether one registrar fits every leaf or a
        parallel worker fits them; the geometry cache keeps only the
        batches of ``_own_localities``.  Leaves with no M node group
        under locality -1.
        """
        src = self.dual.source
        dom = self.dual.domain
        centers = self._centers["source"]
        m_index = self.dag.index.get("M", {})
        dnodes = self.dag.nodes
        own = self._own_localities
        by_level: dict[tuple, list] = {}
        for b in src.boxes:
            if b.is_leaf and b.count > 0:
                mid = m_index.get(b.index)
                loc = dnodes[mid].locality if mid is not None else -1
                by_level.setdefault((b.level, loc), []).append(b)
        cache = self.geom_cache
        out: dict[int, np.ndarray] = {}
        for (level, loc), boxes in by_level.items():
            h = dom.box_size(level)
            w = np.concatenate([src.weights[b.start : b.stop] for b in boxes])
            # the p2m basis matrix depends only on point geometry (and
            # scale), not on the charges: a weights-only resubmission
            # reuses it and pays one elementwise multiply.  Computed
            # chunk by chunk exactly like the uncached path, and the
            # elementwise product w[:, None] * P is chunking-invariant,
            # so a cache hit is bit-identical to a cold fit.
            ck = ("p2m", level, loc, len(w))
            keep = cache is not None and (own is None or loc in own)
            P = cache.get(ck) if keep else None
            if P is None:
                rel = (
                    np.concatenate(
                        [src.points[b.start : b.stop] - centers[b.index] for b in boxes]
                    )
                    / h
                )
                P = np.empty((len(rel), self.kernel.size), dtype=complex)
                for lo in range(0, len(rel), 2048):
                    hi = lo + 2048
                    P[lo:hi] = self.kernel.p2m_matrix(rel[lo:hi], h)
                if keep:
                    cache[ck] = P
            rows = w[:, None] * P
            starts = np.zeros(len(boxes), dtype=np.intp)
            starts[1:] = np.cumsum([b.count for b in boxes])[:-1]
            coeffs = np.add.reduceat(rows, starts, axis=0)
            for b, c in zip(boxes, coeffs):
                out[b.index] = c
        return out
    def _batch_key(self, e):
        """Edges of one node sharing a key run as one stacked operation.

        All out-edges being processed share the source node, so S2L
        edges at one target level share the operator scale.  Everything
        else is either lazy (the exponential bridge, leaf outputs) or
        gains nothing from stacking, and returns None.
        """
        op = e.op
        if op == "S2L":
            return (op, self.dag.nodes[e.dst].level)
        return None

    def _run_edges(self, ctx, edges) -> None:
        """Execute local edges of one node, batching compatible groups.

        Charges are emitted per edge in the original order and LCO sets
        are buffered per edge in the original order, so the virtual
        clock, the trace and the downstream trigger sequence are
        identical to the sequential per-edge path.
        """
        if not self.batch_edges or self.mode != "numeric":
            run = self._run_edge
            for e in edges:
                run(ctx, e)
            return
        if not edges:
            return
        charge = self._charge_edge
        for e in edges:
            charge(ctx, e)
        values: dict[int, object] = {}
        groups: dict[object, list] = {}
        value_fast = self._edge_value_fast
        batch_key = self._batch_key
        for e in edges:
            if e.op in FILLER_OPS:
                # leaf-output values are only read at the final gather:
                # defer them and evaluate all of them in stacked passes
                values[id(e)] = _Deferred(e)
            else:
                key = batch_key(e)
                if key is None:
                    values[id(e)] = value_fast(e)
                else:
                    groups.setdefault(key, []).append(e)
        for key, group in groups.items():
            if len(group) == 1:
                values[id(group[0])] = self._edge_value(group[0])
            else:
                self._batch_values(group, values)
        lco_set = ctx.lco_set
        lcos = self.lcos
        edge_key = self._edge_key
        for e in edges:
            lco_set(lcos[e.dst], values[id(e)], key=edge_key(e), op_class=e.op)

    def _batch_values(self, group, values: dict) -> None:
        """Stacked numeric evaluation of one (op, operator-key) group.

        S2L: one p2l matrix build for all target boxes at this level.
        """
        src_node = self.dag.nodes[group[0].src]
        tgt = self.dual.target
        tboxes = [tgt.boxes[self.dag.nodes[e.dst].box_index] for e in group]
        sbox = self.dual.source.boxes[src_node.box_index]
        spts = self.dual.source.points[sbox.start : sbox.stop]
        q = self.dual.source.weights[sbox.start : sbox.stop]
        h = self.dual.domain.box_size(tboxes[0].level)
        centers = np.stack([self._centers["target"][b.index] for b in tboxes])
        E, n = len(group), len(spts)
        # edge blocks keep the (block*n, size) matrix cache-resident
        blk = max(1, 2048 // max(n, 1))
        coeffs = np.empty((E, self.kernel.size), dtype=complex)
        for i in range(0, E, blk):
            j = min(i + blk, E)
            rel = (spts[None, :, :] - centers[i:j, None, :]) / h
            mat = self.kernel.p2l_matrix(rel.reshape(-1, 3), h)
            coeffs[i:j] = np.matmul(q, mat.reshape(j - i, n, -1))
        for e, c in zip(group, coeffs):
            values[id(e)] = c

    # -- replay plan ------------------------------------------------------------------
    def compile_replay(self) -> ReplayPlan:
        """Compile the DAG and the node localities into a replay plan.

        The batched sequential dataflow decides only *when* values are
        computed and folded.  *What* is computed is fixed by the DAG:
        every LCO folds its eager inputs (S->M, M->M, S->L, M->L) in
        canonical edge-key order, the S->L edges of one source batch by
        (destination locality, target level), and every lazy or
        deferred edge lands in a list the flushes sort canonically.
        The plan records exactly that, so :meth:`replay` followed by
        :meth:`flush_deferred` reproduces a drained run bit for bit
        without running a task.

        The upward pass (every M node) is always compiled whole: a
        parallel worker needs remote multipoles as sources.  Everything
        else is compiled only for destinations in ``_own_localities``.
        Assumes the batched, sequential, coalesced numeric path (the
        ablation flags schedule the same edges differently).  Also
        fills ``_m2i_dirs``.

        Only edges the dataflow runs are compiled.  A non-source node
        with no inputs never triggers (an L box with empty interaction
        lists, e.g. when the cloud fills a corner of a pinned domain),
        nor does anything that waits on its out-edges; such a node's
        out-edges never run, and a T node that never triggers never
        hands its leaf outputs to the deferred list.
        """
        nodes = self._nodes
        out_edges = self.dag.out_edges
        in_degree = self.dag.in_degree
        stuck = [n.id for n in nodes if n.kind != "S" and not in_degree[n.id]]
        dead = set(stuck)
        while stuck:
            for e in out_edges[stuck.pop()]:
                if e.dst not in dead:
                    dead.add(e.dst)
                    stuck.append(e.dst)
        own = self._own_localities
        ins_m: dict[int, list] = {}
        ins_l: dict[int, list] = {}
        s2l: dict[tuple, list] = {}
        lazy: dict[str, list] = {"M2I": [], "I2I": [], "I2L": [], "L2L": []}
        deferred = []
        for edges in out_edges:
            for e in edges:
                if e.src in dead:
                    break
                op = e.op
                if op in ("S2M", "M2M"):
                    ins_m.setdefault(e.dst, []).append(e)
                    continue
                dst = nodes[e.dst]
                if own is not None and dst.locality not in own:
                    continue
                if op in ("S2L", "M2L"):
                    ins_l.setdefault(e.dst, []).append(e)
                    if op == "S2L":
                        # the composition _run_edges sees once
                        # _process_edges has split the source's out-edges
                        # by destination locality, in out-edge order
                        s2l.setdefault((e.src, dst.locality, dst.level), []).append(e)
                elif op in lazy:
                    if op != "M2I" or self._m2i_dirs_of(e.dst):
                        lazy[op].append(_Lazy(e))
                elif op in FILLER_OPS:
                    if e.dst not in dead:
                        deferred.append(e)
                else:  # pragma: no cover - defensive
                    raise ValueError(f"unknown edge op {op}")
        edge_key = self._edge_key
        for d in dead:
            ins_m.pop(d, None)
            ins_l.pop(d, None)
        for es in (*ins_m.values(), *ins_l.values()):
            es.sort(key=edge_key)
        for markers in lazy.values():
            markers.sort(key=_marker_order)
        deferred.sort(key=lambda e: (e.src, e.dst, e.op))
        return ReplayPlan(
            # children strictly precede parents: deepest destinations first
            m_folds=sorted(ins_m.items(), key=lambda kv: (-nodes[kv[0]].level, kv[0])),
            l_folds=list(ins_l.items()),
            s2l_groups=list(s2l.values()),
            lazy=tuple(lazy.values()),
            deferred=deferred,
        )

    def _store(self, node_id: int, value) -> None:
        """Set a node's expansion data (the counterpart of :meth:`_data_of`)."""
        self.lcos[node_id].data = value

    def replay(self, plan: ReplayPlan) -> None:
        """Execute a compiled plan against the current tree and charges.

        Call on a freshly allocated or :meth:`reset` registrar.  Leaves
        it in the state a drained batched run leaves it in - eager
        inputs folded in canonical key order, lazy and deferred lists
        populated in canonical order - so the ordinary flush cascade
        (:meth:`flush_deferred`, or the parallel backend's staged
        pipeline) finishes the evaluation bit-identically.
        """
        nodes = self._nodes
        dom = self.dual.domain
        m2m = self.factory.m2m
        data_of = self._data_of
        # upward sweep: stacked leaf fits, then per-node canonical folds
        s2m = self._leaf_multipoles()
        for dst, es in plan.m_folds:
            acc = None
            for e in es:
                if e.op == "S2M":
                    v = s2m[nodes[e.src].box_index]
                else:
                    v = m2m(e.aux, dom.box_size(nodes[e.src].level)) @ data_of(e.src)
                acc = v if acc is None else acc + v
            self._store(dst, acc)
        # list-X contributions in the batch compositions of the dataflow
        values: dict[int, object] = {}
        for group in plan.s2l_groups:
            if len(group) == 1:
                values[id(group[0])] = self._edge_value(group[0])
            else:
                self._batch_values(group, values)
        lcos = self.lcos
        for dst, es in plan.l_folds:
            acc = None
            for e in es:
                v = values[id(e)] if e.op == "S2L" else self._edge_value(e)
                acc = v if acc is None else acc + v
            lcos[dst].data = acc
        # the bridge, downward shift and leaf outputs flush from here
        m2i, i2i, i2l, l2l = plan.lazy
        self._lazy_m2i = list(m2i)
        self._lazy_i2i = list(i2i)
        self._lazy_i2l = list(i2l)
        self._lazy_l2l = list(l2l)
        self._deferred = list(plan.deferred)

    def flush_deferred(self) -> None:
        """Evaluate all deferred leaf-output edges in stacked passes.

        Grouping is global: every M->T (resp. L->T) edge at one source
        level shares one evaluation-matrix build over the concatenated
        target points, with each point dotted against its own edge's
        coefficient row; S->T edges regroup by source leaf so each leaf
        does a single direct sum over all its target points, even when
        the runtime split its out-edges across tasks or parcels.
        Contributions are accumulated into the result in group order -
        each per-point value is the same dot product the per-edge path
        computes, so potentials agree to roundoff.
        """
        # materialize the lazy bridge and downward shift first: the
        # deferred L->T outputs below read the final local expansions
        if self._lazy_m2i:
            self._flush_m2i()
        if self._lazy_i2i:
            self._flush_i2i()
        if self._lazy_i2l:
            self._flush_i2l()
        if self._lazy_l2l:
            self._flush_l2l()
        if not self._deferred:
            return
        dom = self.dual.domain
        tgt = self.dual.target
        res = self.result
        # canonical order: the deferred list accumulates in T-continuation
        # run order, which is timing/fault dependent
        self._deferred.sort(key=lambda e: (e.src, e.dst, e.op))
        groups: dict[object, list] = {}
        dnodes = self.dag.nodes
        for e in self._deferred:
            op = e.op
            # the destination locality rides in every key so the group
            # compositions (and stacked operands) match between a global
            # flush and the per-worker flushes of the parallel backend
            if op == "S2T":
                key = (op, e.src, dnodes[e.dst].locality)
            else:  # M2T / L2T share the operator scale per source level
                key = (op, dnodes[e.src].level, dnodes[e.dst].locality)
            groups.setdefault(key, []).append(e)
        self._deferred = []
        nodes = self.dag.nodes
        cache = self.geom_cache
        for (op, sub, loc), group in groups.items():
            tboxes = [tgt.boxes[nodes[e.dst].box_index] for e in group]
            pts = np.concatenate([tgt.points[b.start : b.stop] for b in tboxes])
            if op == "S2T":
                sbox = self.dual.source.boxes[nodes[group[0].src].box_index]
                spts = self.dual.source.points[sbox.start : sbox.stop]
                sw = self.dual.source.weights[sbox.start : sbox.stop]
                if cache is None or type(self.kernel).direct is not Kernel.direct:
                    out = self.kernel.direct(pts, spts, sw)
                else:
                    # replicate Kernel.direct chunk for chunk, caching
                    # each chunk's greens matrix: it depends on the
                    # coordinates only, so a warm re-query pays one
                    # matvec against the fresh charges.  Identical
                    # chunking + identical per-chunk matvec operands
                    # make hit and miss bit-identical to the uncached
                    # direct sum.
                    out = np.zeros(len(pts))
                    for lo in range(0, len(pts), 2048):
                        hi = lo + 2048
                        ck = (op, sub, loc, len(pts), sbox.count, lo)
                        G = cache.get(ck)
                        if G is None:
                            t = pts[lo:hi]
                            r = np.linalg.norm(
                                t[:, None, :] - spts[None, :, :], axis=-1
                            )
                            G = self.kernel.greens(r)
                            cache[ck] = G
                        out[lo:hi] = G @ sw
            else:
                h = dom.box_size(sub)
                side = "source" if op == "M2T" else "target"
                centers = self._centers[side][[nodes[e.src].box_index for e in group]]
                coeffs = np.stack([self._data_of(e.src) for e in group])
                # which edge owns each concatenated point (small intp
                # array; the per-point center/coefficient rows are
                # gathered per chunk so every temporary stays
                # cache-resident instead of streaming through memory)
                eidx = np.repeat(
                    np.arange(len(group)), [b.count for b in tboxes]
                )
                # per-chunk evaluation matrices depend on the target
                # points and box centers (geometry + shape) but not on
                # the expansion coefficients, so a warm re-evaluation
                # over unmoved points skips the basis build and only
                # pays the row-dot against the fresh coefficients - the
                # same (matrix * rows).sum contraction as m2t_rows /
                # l2t_rows, hence bit-identical.
                matf = self.kernel.m2t_matrix if op == "M2T" else self.kernel.l2t_matrix
                out = np.empty(len(pts))
                for lo in range(0, len(pts), 2048):
                    hi = lo + 2048
                    sel = eidx[lo:hi]
                    mat = None
                    if cache is not None:
                        ck = (op, sub, loc, len(pts), lo)
                        mat = cache.get(ck)
                    if mat is None:
                        rel = (pts[lo:hi] - centers[sel]) / h
                        mat = matf(rel, h)
                        if cache is not None:
                            cache[ck] = mat
                    out[lo:hi] = (mat * coeffs[sel]).sum(axis=1).real
            off = 0
            for b in tboxes:
                res[b.start : b.stop] += out[off : off + b.count]
                off += b.count


