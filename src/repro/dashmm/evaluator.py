"""DASHMM's public evaluator: the runtime-independent user interface.

Mirrors the framework's design objectives (Section I): the concrete
method and interaction kernel are parameters, and no knowledge of the
underlying runtime is required.  One call chain:

    ev = DashmmEvaluator(LaplaceKernel(p=10), method="fmm")
    report = ev.evaluate(sources, weights, targets)
    report.potentials      # numeric results (numeric mode)
    report.time            # virtual evaluation time on the simulated cluster
    report.runtime_stats   # tasks, steals, parcels, remote bytes
    report.tracer          # per-operation event trace (Figs. 4/5)

``mode="phantom"`` runs the same DAG through the same runtime with the
cost model only (no numerics), enabling paper-scale scaling studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.dashmm.dag import DAG, build_bh_dag, build_fmm_dag
from repro.dashmm.distribution import DistributionPolicy, FmmPolicy
from repro.dashmm.registrar import Registrar
from repro.hpx.runtime import Runtime, RuntimeConfig
from repro.hpx.tracing import Tracer
from repro.kernels.base import Kernel
from repro.kernels.fitops import OperatorFactory
from repro.methods.barneshut import mac_pairs
from repro.sim.costmodel import CostModel, SizeModel
from repro.tree.dualtree import DualTree, build_dual_tree
from repro.tree.lists import InteractionLists, build_lists

METHODS = ("fmm", "fmm-basic", "bh")


def check_inputs(names: tuple, sources, weights, targets) -> tuple:
    """Validate one evaluation's inputs and return them as float64 arrays.

    The front door of :meth:`DashmmEvaluator.evaluate` and
    :meth:`repro.dashmm.service.EvaluatorSession.submit`; ``names``
    labels the three arguments in error messages, and ``targets`` may
    be None (returned as None).  Raises ``ValueError`` naming the
    argument for:

    * a complex or non-numeric dtype - the float64 cast would silently
      drop an imaginary part;
    * a bad shape - points must be ``(N, 3)`` and weights ``(N,)``;
    * NaN or inf - a non-finite coordinate would otherwise be
      Morton-binned like any other point and come back as finite,
      silently wrong potentials.
    """
    out = []
    for i, (name, arr) in enumerate(zip(names, (sources, weights, targets))):
        if arr is None:
            out.append(None)
            continue
        a = np.asarray(arr)
        if a.dtype.kind not in "iuf":
            raise ValueError(f"{name} must hold real numbers, got dtype {a.dtype}")
        if i == 1:
            want = f"({len(out[0])},)"
            ok = a.shape == (len(out[0]),)
        else:
            want = "(N, 3)" if i == 0 else "(M, 3)"
            ok = a.ndim == 2 and a.shape[1] == 3
        if not ok:
            raise ValueError(f"{name} must have shape {want}, got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"{name} contains non-finite values (NaN or inf)")
        out.append(np.ascontiguousarray(a, dtype=np.float64))
    return tuple(out)


@dataclass
class EvaluationReport:
    """Everything one evaluation produced."""

    potentials: np.ndarray | None
    time: float
    runtime_stats: dict[str, Any]
    tracer: Tracer
    dag: DAG
    dual: DualTree
    lists: InteractionLists | None = None
    extras: dict[str, Any] = field(default_factory=dict)


class DashmmEvaluator:
    """Generic HMM evaluation on the asynchronous many-tasking runtime.

    Parameters
    ----------
    kernel:
        Interaction kernel (Laplace, Yukawa, or user-defined).
    method:
        ``"fmm"`` (advanced, merge-and-shift), ``"fmm-basic"`` (eight
        operators, direct M->L), or ``"bh"`` (Barnes-Hut).
    threshold:
        Tree refinement threshold (paper: 60).
    policy:
        Distribution policy for DAG nodes (default: the paper's).
    runtime_config:
        Simulated-cluster configuration (localities, cores, network,
        priorities ...).
    mode:
        ``"numeric"`` computes real potentials; ``"phantom"`` simulates
        cost/communication only.
    theta:
        Barnes-Hut opening angle (ignored for FMM).
    vectorized_setup:
        Run the whole setup phase (tree carving, interaction lists, MAC
        traversal, DAG assembly) through the array-based passes (the
        default).  ``False`` selects the per-box reference loops; both
        produce identical trees, lists and DAGs, hence identical virtual
        clocks.
    assembly:
        ``"declarative"`` (default) materializes the DAG through the
        method's declared schema and the validated
        :class:`repro.dag.DagBuilder`; ``"legacy"`` keeps the original
        imperative assembly (the bit-identity oracle).  Both produce
        the same graph, potentials and virtual clock.
    validate_dag:
        Type-check the built graph against its schema on every build
        (declarative assembly only).  Off by default on the evaluation
        hot path - the golden-graph and property suites gate the
        builder - but cheap enough to enable for debugging.
    """

    def __init__(
        self,
        kernel: Kernel,
        method: str = "fmm",
        threshold: int = 60,
        policy: DistributionPolicy | None = None,
        runtime_config: RuntimeConfig | None = None,
        mode: str = "numeric",
        cost_model: CostModel | None = None,
        size_model: SizeModel | None = None,
        coalesce: bool = True,
        sequential_edges: bool = True,
        batch_edges: bool = True,
        theta: float = 0.5,
        eps: float = 1e-4,
        factory: OperatorFactory | None = None,
        vectorized_setup: bool = True,
        assembly: str = "declarative",
        validate_dag: bool = False,
    ):
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if assembly not in ("declarative", "legacy"):
            raise ValueError("assembly must be 'declarative' or 'legacy'")
        self.kernel = kernel
        self.method = method
        self.assembly = assembly
        self.validate_dag = validate_dag
        self.threshold = threshold
        self.policy = policy or FmmPolicy()
        self.runtime_config = runtime_config or RuntimeConfig()
        self.mode = mode
        self.cost_model = cost_model or CostModel.for_kernel(kernel.name)
        self.size_model = size_model or SizeModel()
        self.coalesce = coalesce
        self.sequential_edges = sequential_edges
        self.batch_edges = batch_edges
        self.theta = theta
        self.eps = eps
        self.vectorized_setup = vectorized_setup
        # the shared factory fits each translation operator at most once
        # per process, no matter how many evaluators are constructed
        self.factory = factory or (
            OperatorFactory.shared(kernel, eps=eps) if mode == "numeric" else None
        )

    # -- DAG construction -------------------------------------------------------
    @property
    def schema(self):
        """The method's declared DAG schema (:class:`repro.dag.MethodSchema`)."""
        from repro.dag import method_schema

        return method_schema(self.method)

    def _builder(self):
        from repro.dag import DagBuilder

        return DagBuilder(self.schema, validate=self.validate_dag)

    def build_dag(
        self,
        dual: DualTree,
        lists: InteractionLists | None = None,
    ) -> tuple[DAG, InteractionLists | None]:
        vec = self.vectorized_setup
        declarative = self.assembly == "declarative"
        if self.method == "bh":
            pairs = mac_pairs(dual, self.theta, vectorized=vec)
            if declarative:
                return self._builder().build(dual, mac_pairs=pairs), None
            return build_bh_dag(dual, pairs, vectorized=vec), None
        if lists is None:
            lists = build_lists(dual, vectorized=vec)
        if declarative:
            return self._builder().build(dual, lists=lists), lists
        dag = build_fmm_dag(dual, lists, advanced=(self.method == "fmm"), vectorized=vec)
        return dag, lists

    def _resolved_config(self) -> RuntimeConfig:
        """The runtime config with method-aware policy resolution.

        The ``"critical-path"`` policy string is resolved here rather
        than in the scheduler so the near/far operator split matches the
        method actually being evaluated (FMM vs Barnes-Hut); the hpx
        layer never imports method modules.
        """
        cfg = self.runtime_config
        if cfg.policy == "critical-path":
            from repro.hpx.scheduler import CriticalPathPolicy

            if self.method == "bh":
                from repro.methods.barneshut import FAR_FIELD_OPS, NEAR_FIELD_OPS
            else:
                from repro.methods.fmm import FAR_FIELD_OPS, NEAR_FIELD_OPS
            return replace(
                cfg,
                policy=CriticalPathPolicy(
                    near_ops=NEAR_FIELD_OPS, far_ops=FAR_FIELD_OPS
                ),
            )
        return cfg

    # -- evaluation ----------------------------------------------------------------
    def evaluate(
        self,
        sources: np.ndarray,
        weights: np.ndarray,
        targets: np.ndarray,
        dual: DualTree | None = None,
        lists: InteractionLists | None = None,
        dag: DAG | None = None,
    ) -> EvaluationReport:
        """Evaluate potentials at ``targets`` due to weighted ``sources``.

        Prebuilt trees/lists/DAGs may be passed to amortize setup over
        repeated evaluations (the iterative use case of Section IV).
        Malformed inputs raise ``ValueError`` (see :func:`check_inputs`).
        """
        sources, weights, targets = check_inputs(
            ("sources", "weights", "targets"), sources, weights, targets
        )
        if self.runtime_config.backend == "parallel":
            # real-core execution: every worker process rebuilds the
            # setup deterministically from the raw arrays, so prebuilt
            # structures are not consumed here (the parent derives the
            # identical ones for the report)
            from repro.dashmm.parallel import evaluate_parallel

            return evaluate_parallel(self, sources, weights, targets)
        if dual is None:
            dual = build_dual_tree(
                sources,
                targets,
                self.threshold,
                source_weights=weights,
                vectorized=self.vectorized_setup,
            )
        if dag is None:
            dag, lists = self.build_dag(dual, lists)
        self.policy.assign(dag, dual, self.runtime_config.n_localities)

        runtime = Runtime(self._resolved_config())
        replay_trace = runtime.schedule_trace
        if self.runtime_config.replay_schedule is not None and replay_trace is not None:
            # the IR anchors replays: a trace recorded against a different
            # graph is a structured divergence, not a silent hang
            want = replay_trace.meta.get("graph_fingerprint")
            if want is not None:
                from repro.dag import dag_fingerprint
                from repro.hpx.scheduler import ReplayDivergence

                have = dag_fingerprint(dag)
                if have != want:
                    raise ReplayDivergence(
                        "replayed trace was recorded against a different DAG "
                        f"(trace graph {want[:16]}..., built graph {have[:16]}...)"
                    )
        reg = Registrar(
            runtime,
            dag,
            dual,
            self.kernel,
            self.factory,
            mode=self.mode,
            cost_model=self.cost_model,
            size_model=self.size_model,
            coalesce=self.coalesce,
            sequential_edges=self.sequential_edges,
            batch_edges=self.batch_edges,
        )
        reg.allocate()
        reg.initial_tasks()
        t = runtime.run()

        potentials = None
        if self.mode == "numeric":
            reg.flush_deferred()
            potentials = np.empty(dual.target.n_points)
            potentials[dual.target.perm] = reg.result
        extras: dict[str, Any] = {
            "untriggered": sum(1 for l in reg.lcos.values() if not l.triggered),
            # the live runtime and registrar, so a checkpointed
            # evaluation can be rewound and resumed (see resume())
            "runtime": runtime,
            "registrar": reg,
        }
        if runtime.checkpoints:
            extras["checkpoints"] = runtime.checkpoints
        if runtime.hazard_detector is not None:
            extras["hazards"] = runtime.hazards
        trace = runtime.schedule_trace
        if trace is not None:
            from repro.dag import dag_fingerprint

            trace.meta.setdefault("method", self.method)
            trace.meta.setdefault("graph_fingerprint", dag_fingerprint(dag))
            extras["schedule_trace"] = trace
        return EvaluationReport(
            potentials=potentials,
            time=t,
            runtime_stats=runtime.stats(),
            tracer=runtime.tracer,
            dag=dag,
            dual=dual,
            lists=lists,
            extras=extras,
        )

    def resume(self, report: EvaluationReport, checkpoint) -> EvaluationReport:
        """Rewind a checkpointed evaluation and drive it to completion.

        ``report`` must come from :meth:`evaluate` on the sim backend
        with ``RuntimeConfig(checkpoint_every=...)`` set (or with an
        abort checkpoint in hand); ``checkpoint`` is one of
        ``report.extras["checkpoints"]`` or the ``exc.checkpoint`` a
        structured abort attached.  The resumed evaluation is
        bit-identical - potentials and virtual clock - to one that was
        never interrupted, which is the fail-safe restart story: a run
        killed at any checkpoint loses only the work since the last
        capture, never its correctness.
        """
        runtime = report.extras["runtime"]
        reg = report.extras["registrar"]
        runtime.restore(checkpoint)
        t = runtime.run()
        potentials = None
        if self.mode == "numeric":
            reg.flush_deferred()
            potentials = np.empty(report.dual.target.n_points)
            potentials[report.dual.target.perm] = reg.result
        extras: dict[str, Any] = {
            "untriggered": sum(1 for l in reg.lcos.values() if not l.triggered),
            "runtime": runtime,
            "registrar": reg,
            "resumed_from": checkpoint.time,
        }
        if runtime.checkpoints:
            extras["checkpoints"] = runtime.checkpoints
        return EvaluationReport(
            potentials=potentials,
            time=t,
            runtime_stats=runtime.stats(),
            tracer=runtime.tracer,
            dag=report.dag,
            dual=report.dual,
            lists=report.lists,
            extras=extras,
        )
