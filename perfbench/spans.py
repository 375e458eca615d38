"""Outside-in span tracer for the benchmark's traced runs.

The tracer never edits ``repro``: :func:`instrument` wraps public
functions and methods of each layer from the outside, and rebinds every
reference a loaded ``repro`` module holds to them, so calls made inside
the program are timed too.  A span records name, start, end, its own
id, the id of the span that caused it and the id of the request (one
benchmark operation) it belongs to.  Counts are recorded at the same
boundaries.  Everything stays in memory; :meth:`Tracer.write_chrome`
writes the spans as Chrome trace-event JSON (open it in Perfetto or
chrome://tracing).

Only the benchmark's own process is traced.  Parallel-backend worker
processes start from a fresh import, so their work shows up as the
parent's ``parallel.*`` spans and counts, not as per-layer spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: spans that mark the API entry a request goes through; every other
#: span belongs to a layer, and time under no layer span is "untraced"
ENTRY_SPANS = frozenset({"service.submit", "dashmm.evaluate"})

#: edge operators reported as ``dag.edges.<op>`` (zero where absent)
EDGE_OPS = (
    "S2M", "M2M", "M2L", "M2I", "I2I", "I2L", "L2L", "S2L", "M2T", "L2T", "S2T",
)

#: fitted-operator getters of ``OperatorFactory``; a call that raises the
#: factory's ``misses`` counter is one fit
_FACTORY_GETTERS = (
    "m2m", "l2l", "m2l", "m2i", "m2i_stack", "i2l", "i2l_stack",
    "m2l_coarse", "i2i", "i2i_factors",
)


class Tracer:
    """In-memory spans and counts, grouped into requests."""

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []  # (name, t0, t1, span_id, parent_id, request_id)
        self.requests: dict[int, dict] = {}
        self.counts: dict[int, dict] = {}
        self.last_dag = None
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 1
        self._request: int | None = None
        self._origin = time.perf_counter()

    # -- recording -------------------------------------------------------------
    @contextmanager
    def request(self, kind: str, phase: str, traced: bool):
        """One benchmark operation; its layer spans are recorded if ``traced``."""
        if not traced:
            yield
            return
        rid = self._new_id()
        self.requests[rid] = {"kind": kind, "phase": phase}
        self.counts[rid] = defaultdict(float)
        self._request, self.enabled = rid, True
        self._stack.append(rid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.enabled, self._request = False, None
            self.requests[rid].update(t0=t0, t1=t1)
            self.spans.append((f"request.{kind}", t0, t1, rid, None, rid))

    def count(self, name: str, value: float) -> None:
        if self._request is not None:
            self.counts[self._request][name] += value

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def wrap(self, fn, name: str, after=None, when=None):
        """``fn`` timed as span ``name``; only the outermost call of a name.

        ``when(args)`` snapshots state before the call (e.g. a miss
        counter); ``after(tracer, args, result, snapshot)`` records
        counts at the boundary and drops the span by returning False.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or tracer._active[name]:
                return fn(*args, **kwargs)
            before = when(args) if when is not None else None
            sid = tracer._new_id()
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            tracer._active[name] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._active[name] -= 1
                tracer._stack.pop()
            keep = True
            if after is not None:
                keep = after(tracer, args, out, before) is not False
            if keep:
                tracer.spans.append((name, t0, t1, sid, parent, tracer._request))
            return out

        return wrapper

    # -- aggregation -----------------------------------------------------------
    def layer_metrics(self, phase: str) -> dict[str, float]:
        """Per-operation means of every layer metric over ``phase``'s requests."""
        rids = [r for r, info in self.requests.items() if info["phase"] == phase]
        by_req: dict[int, list] = defaultdict(list)
        for sp in self.spans:
            if sp[5] in self.requests and sp[3] != sp[5]:
                by_req[sp[5]].append(sp)
        tot: dict[str, float] = defaultdict(float)
        untraced = 0.0
        wall = 0.0
        for rid in rids:
            info = self.requests[rid]
            dur = info["t1"] - info["t0"]
            wall += dur
            spans = by_req[rid]
            for name, t0, t1, *_ in spans:
                tot[f"{name}_s"] += t1 - t0
            layer = [(t0, t1) for name, t0, t1, *_ in spans if name not in ENTRY_SPANS]
            untraced += dur - _union(layer)
            for sp in spans:
                if sp[0] == "service.submit":  # self time of the session entry
                    kids = [(c[1], c[2]) for c in spans if c[4] == sp[3]]
                    tot["service.other_s"] += (sp[2] - sp[1]) - _union(kids)
            for k, v in self.counts[rid].items():
                tot[k] += v
        n = max(len(rids), 1)
        out = {k: v / n for k, v in tot.items()}
        out["untraced_frac"] = untraced / wall if wall > 0 else 0.0
        run_s = out.get("hpx.run_s", 0.0)
        out["hpx.tasks_per_s"] = out.get("hpx.tasks", 0.0) / run_s if run_s else 0.0
        submit = out.get("service.submit_s", 0.0)
        rounds = out.get("parallel.round_s", 0.0)
        out["parallel.parent_s"] = submit - rounds if rounds else 0.0
        return out

    def dag_metrics(self) -> dict[str, float]:
        """Structure of the last DAG the program built."""
        dag = self.last_dag
        out = {f"dag.edges.{op}": 0.0 for op in EDGE_OPS}
        out["dag.nodes"] = 0.0
        out["registrar.s2t_pairs"] = 0.0
        if dag is None:
            return out
        out["dag.nodes"] = float(len(dag.nodes))
        nodes = dag.nodes
        for edges in dag.out_edges:
            for e in edges:
                key = f"dag.edges.{e.op}"
                out[key] = out.get(key, 0.0) + 1
                if e.op == "S2T":
                    out["registrar.s2t_pairs"] += nodes[e.src].n_points * nodes[e.dst].n_points
        return out

    # -- export ----------------------------------------------------------------
    def write_chrome(self, path, meta: dict) -> None:
        """All spans as Chrome trace-event JSON (complete ``X`` events)."""
        events = []
        for name, t0, t1, sid, parent, rid in self.spans:
            args = {"span": sid, "parent": parent, "request": rid}
            if sid == rid:
                args.update(self.requests[rid])
                args.pop("t0", None)
                args.pop("t1", None)
                args["counts"] = dict(self.counts.get(rid, {}))
            events.append({
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (t0 - self._origin) * 1e6,
                "dur": (t1 - t0) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}, fh)


def _union(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _rebind(orig, wrapped) -> None:
    """Point every reference a loaded ``repro`` module holds to ``orig`` at ``wrapped``."""
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapped)


def _wrap_function(tracer: Tracer, module, attr: str, name: str, after=None) -> None:
    orig = getattr(module, attr)
    _rebind(orig, tracer.wrap(orig, name, after=after))


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, after=None, when=None) -> None:
    if attr in vars(cls):
        setattr(cls, attr, tracer.wrap(vars(cls)[attr], name, after=after, when=when))


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (idempotent per process)."""
    import repro.dashmm.parallel  # noqa: F401  (loaded so _rebind sees its imports)
    import repro.dashmm.service  # noqa: F401
    from repro.dag.schema import DagBuilder
    from repro.dashmm import distribution
    from repro.dashmm.evaluator import DashmmEvaluator
    from repro.dashmm.parallel import PersistentParallelService
    from repro.dashmm.registrar import Registrar
    from repro.dashmm.service import EvaluatorSession
    from repro.hpx.runtime import Runtime
    from repro.kernels.fitops import OperatorFactory
    from repro.kernels.laplace import LaplaceKernel
    from repro.kernels.yukawa import YukawaKernel
    from repro.tree import dualtree, fingerprint, incremental, lists

    # tree
    _wrap_function(tracer, dualtree, "build_dual_tree", "tree.build")
    _wrap_function(tracer, lists, "build_lists", "tree.lists")

    def tree_update(tr, args, out, _):
        for status in out[1].values():
            tr.count(f"tree.{status}", 1)

    _wrap_function(tracer, incremental, "update_dual_tree", "tree.update", tree_update)
    for fn in ("dual_shape_fingerprint", "dual_full_fingerprint", "geometry_token"):
        _wrap_function(tracer, fingerprint, fn, "tree.fingerprint")

    # dag + distribution
    def dag_built(tr, args, out, _):
        tr.last_dag = out

    _wrap_method(tracer, DagBuilder, "build", "dag.build", dag_built)
    for cls in (distribution.DistributionPolicy, distribution.FmmPolicy):
        _wrap_method(tracer, cls, "assign", "distribution.assign")

    # registrar
    _wrap_method(tracer, Registrar, "allocate", "registrar.allocate")
    _wrap_method(tracer, Registrar, "flush_deferred", "registrar.flush")

    # kernels: a getter call that fits (raises ``misses``) is a fit span
    def fit_before(args):
        return args[0].misses

    def fit_after(tr, args, out, misses_before):
        fits = args[0].misses - misses_before
        if not fits:
            return False
        tr.count("kernels.fit_count", fits)
        return True

    for getter in _FACTORY_GETTERS:
        _wrap_method(tracer, OperatorFactory, getter, "kernels.fit", fit_after, fit_before)
    for cls in (LaplaceKernel, YukawaKernel):
        _wrap_method(tracer, cls, "greens", "kernels.greens")
        _wrap_method(tracer, cls, "m2t_matrix", "kernels.eval_matrix")
        _wrap_method(tracer, cls, "l2t_matrix", "kernels.eval_matrix")

    # hpx runtime
    def runtime_ran(tr, args, out, _):
        st = args[0].stats()
        tr.count("hpx.tasks", st["tasks_run"])
        tr.count("hpx.steals", st["steals"])
        tr.count("hpx.parcels", st["parcels_sent"])
        tr.count("hpx.remote_bytes", st["remote_bytes"])

    _wrap_method(tracer, Runtime, "run", "hpx.run", runtime_ran)

    # service + evaluator entry points
    def hits_before(args):
        st = args[0].stats
        return st["template_hits"], st["template_misses"]

    def submitted(tr, args, out, before):
        st = args[0].stats
        tr.count("service.template_hits", st["template_hits"] - before[0])
        tr.count("service.template_misses", st["template_misses"] - before[1])

    _wrap_method(tracer, EvaluatorSession, "submit", "service.submit", submitted, hits_before)
    _wrap_method(tracer, DashmmEvaluator, "evaluate", "dashmm.evaluate")

    # parallel backend (parent side)
    frames_seen: dict[int, int] = {}

    def round_done(tr, args, out, respawns_before):
        svc, sources, weights, targets = args[:4]
        stat = svc.round_stats[-1]
        tr.count("parallel.round_s", stat["wall_time"])
        frames = sum(w["frames_sent"] for w in stat["workers"])
        fresh = out[1]["tree"].get("source") == "built" or svc.respawns != respawns_before
        prev = 0 if fresh else frames_seen.get(id(svc), 0)
        frames_seen[id(svc)] = frames
        tr.count("parallel.parcels", frames - prev)
        tr.count("parallel.respawns", svc.respawns - respawns_before)
        # computed bytes through the shared arena: charges every round,
        # coordinates when they moved, the result vector back
        moved = out[1]["tree"].get("source") != "unchanged"
        nbytes = weights.nbytes + out[0].nbytes
        if moved:
            nbytes += sources.nbytes + targets.nbytes
        tr.count("parallel.bytes", nbytes)

    def respawns_before(args):
        return args[0].respawns

    _wrap_method(tracer, PersistentParallelService, "start", "parallel.start", round_done, respawns_before)
    _wrap_method(tracer, PersistentParallelService, "submit", "parallel.submit", round_done, respawns_before)
