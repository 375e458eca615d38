"""The replay plan compiled from the DAG (``Registrar.compile_replay``).

What a drained batched run computes is fixed by the DAG and the node
localities, so the plan derives its lazy and deferred edge lists from
the graph alone.  They must equal, in order, what the simulator's task
drain accumulates before its flush cascade, and replaying the plan must
reproduce the drained potentials bit for bit - for every method,
locality count and cloud, including a cloud filling one corner of a
pinned domain, where some L nodes get no input and never trigger.
Sessions replay the plan on both backends (``tests/test_service.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dashmm import DashmmEvaluator
from repro.dashmm.registrar import Registrar, _marker_order
from repro.hpx.runtime import Runtime, RuntimeConfig
from repro.kernels.fitops import OperatorFactory
from repro.kernels.laplace import LaplaceKernel
from repro.tree.box import Domain
from repro.tree.dualtree import build_dual_tree
from repro.workloads.distributions import cube_points, random_charges

N = 400


@pytest.fixture(scope="module")
def kernel():
    return LaplaceKernel(4)


@pytest.fixture(scope="module")
def factory(kernel):
    return OperatorFactory(kernel, eps=1e-4)


def _cloud(name: str):
    pts = cube_points(N, seed=21)
    domain = None
    if name == "planar":
        pts[:, 2] = 0.5
    elif name == "corner":
        # the unit cube stays the frame, as a session pinned by an
        # earlier submission would keep it
        domain = Domain.bounding(pts)
        pts = 0.4 * pts + 0.1
    return pts, random_charges(N, seed=22), domain


def _drained(ev, pts, q, domain):
    """A simulator registrar driven to quiescence, before any flush."""
    dual = build_dual_tree(pts, pts, ev.threshold, source_weights=q, domain=domain)
    dag, _ = ev.build_dag(dual)
    ev.policy.assign(dag, dual, ev.runtime_config.n_localities)
    runtime = Runtime(ev._resolved_config())
    reg = Registrar(runtime, dag, dual, ev.kernel, ev.factory)
    reg.allocate()
    reg.initial_tasks()
    runtime.run()
    return reg


@pytest.mark.parametrize("cloud", ["cube", "planar", "corner"])
@pytest.mark.parametrize("n_localities", [1, 2, 4])
@pytest.mark.parametrize("method", ["fmm", "fmm-basic", "bh"])
def test_compiled_plan_matches_drained_run(kernel, factory, method, n_localities, cloud):
    pts, q, domain = _cloud(cloud)
    ev = DashmmEvaluator(
        kernel,
        method=method,
        threshold=20,
        runtime_config=RuntimeConfig(n_localities=n_localities),
        factory=factory,
    )
    reg = _drained(ev, pts, q, domain)
    drained_lazy = [
        [m.edge for m in sorted(lazy, key=_marker_order)]
        for lazy in (reg._lazy_m2i, reg._lazy_i2i, reg._lazy_i2l, reg._lazy_l2l)
    ]
    drained_deferred = sorted(reg._deferred, key=lambda e: (e.src, e.dst, e.op))
    if cloud == "corner" and method != "bh":
        # the frame's coarse boxes see no well-separated sources
        assert any(not lco.triggered for lco in reg.lcos.values())
    plan = reg.compile_replay()
    assert [[m.edge for m in lazy] for lazy in plan.lazy] == drained_lazy
    assert plan.deferred == drained_deferred
    assert plan.deferred, "every cloud has leaf outputs"

    reg.flush_deferred()
    drained = reg.result.copy()
    reg.reset()
    reg.replay(plan)
    reg.flush_deferred()
    assert np.array_equal(reg.result, drained)
