"""The compiled I->I flush: factor tables + slot-ordered folds.

An I->I value is a source plane wave times a diagonal factor that
depends only on (direction, integer offset, level).  The flush compiles
each (direction, source level, destination locality) group into one
table row per distinct offset plus index arrays, then folds every
destination's edges one by one in canonical order.  These tests pin
that contract on a small cube: the result equals a plain per-edge
sequential fold bit for bit, the tables hold exactly one row per
distinct offset, and a warm session keeps no per-edge factor stacks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dashmm import DashmmEvaluator, EvaluatorSession
from repro.dashmm.registrar import Registrar, _marker_order
from repro.hpx.runtime import RuntimeConfig
from repro.workloads.distributions import cube_points, random_charges


@pytest.fixture(scope="module")
def cube():
    n = 1500
    return cube_points(n, seed=3), random_charges(n, seed=4)


def _evaluator(laplace, laplace_factory):
    return DashmmEvaluator(
        laplace,
        method="fmm",
        threshold=20,
        runtime_config=RuntimeConfig(n_localities=2),
        factory=laplace_factory,
    )


@pytest.fixture(scope="module")
def flushed(cube, laplace, laplace_factory):
    """Every I->I flush of one evaluation: the registrar, its canonically
    sorted markers, the reference fold computed from the same source
    amplitudes just before the flush, and the compiled groups."""
    calls = []
    orig = Registrar._flush_i2i

    def spy(self):
        lazy = sorted(self._lazy_i2i, key=_marker_order)
        nodes, dom = self.dag.nodes, self.dual.domain
        ref: dict[int, dict] = {}
        for m in lazy:
            e = m.edge
            d, delta = e.aux
            h = dom.box_size(nodes[e.src].level)
            v = self._data_of(e.src)[d] * self.factory.i2i(d, delta, h)
            acc = ref.setdefault(e.dst, {})
            acc[d] = v if d not in acc else acc[d] + v
        compiled = self._compile_i2i(list(self._lazy_i2i))
        orig(self)
        calls.append((self, lazy, ref, compiled))

    mp = pytest.MonkeyPatch()
    mp.setattr(Registrar, "_flush_i2i", spy)
    try:
        pts, q = cube
        _evaluator(laplace, laplace_factory).evaluate(pts, q, pts)
    finally:
        mp.undo()
    assert calls, "the evaluation ran no I->I flush"
    return calls


def test_flush_matches_sequential_per_edge_fold(flushed):
    levels = set()
    for reg, lazy, ref, _ in flushed:
        levels |= {reg.dag.nodes[m.edge.src].level for m in lazy}
        for dst, by_dir in ref.items():
            data = reg.lcos[dst].data
            assert set(data) == set(by_dir)
            for d, v in by_dir.items():
                assert np.array_equal(data[d], v), (dst, d)
    assert len(levels) > 1, "the cube should exercise several I->I levels"


def test_one_table_row_per_distinct_offset(flushed):
    for reg, lazy, _, compiled in flushed:
        nodes, dom = reg.dag.nodes, reg.dual.domain
        groups: dict[tuple, dict] = {}
        for m in lazy:
            e = m.edge
            key = (e.aux[0], nodes[e.src].level, nodes[e.dst].locality)
            groups.setdefault(key, {}).setdefault(e.dst, []).append(e)
        assert len(compiled) == len(groups)
        for (d, srcs, T, slots, dsts), (key, by_dst) in zip(compiled, groups.items()):
            assert d == key[0]
            edges = [e for es in by_dst.values() for e in es]
            assert T.shape[0] == len({e.aux[1] for e in edges})
            assert sorted(dsts) == sorted(by_dst)
            assert sum(len(r) for r, _ in slots) == len(edges)
            h = dom.box_size(key[1])
            # slot j holds the j-th canonical in-edge of each destination
            for j, (r, k) in enumerate(slots):
                for i in range(len(r)):
                    e = by_dst[dsts[i]][j]
                    assert srcs[r[i]] == e.src
                    assert np.array_equal(T[k[i]], reg.factory.i2i(d, e.aux[1], h))


def test_warm_session_keeps_no_per_edge_i2i_stacks(cube, laplace, laplace_factory):
    pts, q = cube
    ev = _evaluator(laplace, laplace_factory)
    cold = ev.evaluate(pts, 2 * q, pts).potentials
    with EvaluatorSession(ev) as sess:
        sess.submit(pts, q)
        warm = sess.submit(pts, 2 * q)
        reg = sess._current.registrar
        assert reg.geom_cache, "the warm path should populate the geometry cache"
        assert not [k for k in reg.geom_cache if k[0] == "i2i"]
        assert reg._i2i_plan is not None
    assert np.array_equal(warm, cold)
