"""Numerically constructed box-to-box translation operators.

Every FMM translation (M->M, M->L, L->L, M->I, I->L) is a linear map
between expansion coefficient spaces.  Rather than deriving each map
analytically per kernel (which would defeat DASHMM's kernel-generic
design), the maps are *fitted by least squares from the analytic
particle-side operators*: random unit sources are placed in the
relevant geometry, both the input and the output expansion of each
sample are computed analytically, and the dense matrix relating them is
recovered with :func:`numpy.linalg.lstsq`.

Because the input expansions of the samples span the realizable
coefficient manifold, the fitted operator agrees with the exact
translation up to the FMM truncation error - which is the accuracy
floor anyway.  Operators are cached per (operator, geometry, level
key); scale-invariant kernels (Laplace) share one operator set across
all levels, scale-variant kernels (Yukawa) get per-level sets, exactly
the distinction the paper draws.

Geometry conventions (everything in units of the box edge at the
relevant level):

* ``m2m(octant)``  - child multipole -> parent multipole; the child
  center sits at ``(+-1/4, +-1/4, +-1/4)`` in parent units.
* ``m2l(delta)``   - source multipole -> target local for same-level
  boxes with integer center offset ``delta`` (list 2).
* ``l2l(octant)``  - parent local -> child local.
* ``m2i(dir)``     - source multipole -> outgoing plane-wave amplitudes.
* ``i2l(dir)``     - incoming plane-wave amplitudes -> target local.
* ``m2l_coarse(delta, ratio)`` - multipole of a (possibly coarser)
  source box -> local of a target box, used for list 4-style geometry.
"""

from __future__ import annotations

import ast
import json
import zlib
from pathlib import Path

import numpy as np

from repro.kernels.base import Kernel
from repro.kernels.expo import frame, i2i_factor, p2w_matrix
from repro.kernels.quadrature import build_quadrature

#: bump when the fitting procedure or the on-disk layout changes; caches
#: written with a different version are rejected on load
CACHE_FORMAT_VERSION = 2

_OCTANTS = [
    np.array([(0.5 if b else -0.5) / 2.0 for b in ((o >> 0) & 1, (o >> 1) & 1, (o >> 2) & 1)])
    for o in range(8)
]


def octant_offset(octant: int) -> np.ndarray:
    """Child-center offset from parent center, in parent box units."""
    return _OCTANTS[octant]


def fit_linear_map(inputs: np.ndarray, outputs: np.ndarray, rcond: float = 1e-10) -> np.ndarray:
    """Least-squares T with ``outputs ~ inputs @ T.T`` (rows = samples)."""
    sol, *_ = np.linalg.lstsq(inputs, outputs, rcond=rcond)
    return sol.T


class OperatorFactory:
    """Builds and caches all fitted translation operators for a kernel.

    Parameters
    ----------
    kernel:
        The interaction kernel (supplies analytic particle-side ops).
    eps:
        Accuracy target of the exponential quadratures.
    n_extra:
        Extra samples beyond the coefficient-space dimension used in
        each fit (more samples -> better conditioning, slower fits).
    seed:
        Seed of the sample generator; fits are deterministic given it.

    Fitted operators are expensive (one ``lstsq`` each), so the cache
    can be shared process-wide (:meth:`shared`) and persisted to disk
    (:meth:`save`/:meth:`load`) as a versioned ``.npz`` keyed by the
    full fit signature (kernel name + parameters, ``p``, ``eps``,
    ``n_extra``, ``seed``).
    """

    #: process-wide registry used by :meth:`shared`
    _shared_instances: dict = {}

    def __init__(self, kernel: Kernel, eps: float = 1e-4, n_extra: int = 96, seed: int = 1234):
        self.kernel = kernel
        self.eps = eps
        self.n_extra = n_extra
        self.seed = seed
        self.hits = 0
        self.misses = 0
        self._cache: dict = {}
        self._quads: dict = {}

    # -- sharing & persistence ------------------------------------------------
    @classmethod
    def shared(
        cls, kernel: Kernel, eps: float = 1e-4, n_extra: int = 96, seed: int = 1234
    ) -> "OperatorFactory":
        """Process-wide factory for this fit signature.

        Evaluators with equivalent kernels (same name, order and
        parameters) get the same factory, so translation operators are
        fitted at most once per process instead of once per evaluator.
        """
        key = (kernel.name, kernel.p, tuple(kernel.param_key()), eps, n_extra, seed)
        fac = cls._shared_instances.get(key)
        if fac is None:
            fac = cls(kernel, eps=eps, n_extra=n_extra, seed=seed)
            cls._shared_instances[key] = fac
        return fac

    def signature(self) -> dict:
        """Everything the fitted operators depend on (cache identity)."""
        return {
            "format": CACHE_FORMAT_VERSION,
            "kernel": self.kernel.name,
            "p": self.kernel.p,
            "params": [float(v) for v in self.kernel.param_key()],
            "eps": float(self.eps),
            "n_extra": int(self.n_extra),
            "seed": int(self.seed),
        }

    def default_cache_path(self, directory) -> Path:
        """Canonical ``.npz`` path for this signature under ``directory``."""
        sig = self.signature()
        params = "".join(f"_{v:g}" for v in sig["params"])
        name = (
            f"ops_{sig['kernel']}{params}_p{sig['p']}_eps{sig['eps']:g}"
            f"_x{sig['n_extra']}_s{sig['seed']}_v{sig['format']}.npz"
        )
        return Path(directory) / name

    def save(self, path=None, directory=None) -> Path:
        """Persist every fitted operator to a versioned ``.npz``."""
        if path is None:
            path = self.default_cache_path(directory or ".")
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = {f"op::{key!r}": np.asarray(val) for key, val in self._cache.items()}
        np.savez_compressed(
            path, __signature__=np.array(json.dumps(self.signature())), **arrays
        )
        return path

    def load(self, path=None, directory=None, strict: bool = True) -> bool:
        """Load a cache written by :meth:`save`; returns True on success.

        A cache whose signature (kernel, ``p``, ``eps``, ``n_extra``,
        ``seed`` or format version) differs from this factory's is never
        reused: ``strict=True`` raises, ``strict=False`` returns False.
        """
        if path is None:
            path = self.default_cache_path(directory or ".")
        path = Path(path)
        if not path.exists():
            if strict:
                raise FileNotFoundError(path)
            return False
        with np.load(path, allow_pickle=False) as data:
            sig = json.loads(str(data["__signature__"]))
            if sig != self.signature():
                if strict:
                    raise ValueError(
                        f"operator cache signature mismatch: file {sig}, "
                        f"factory {self.signature()}"
                    )
                return False
            for name in data.files:
                if not name.startswith("op::"):
                    continue
                self._cache[ast.literal_eval(name[4:])] = data[name]
        return True

    # -- sample helpers ------------------------------------------------------
    def _rng(self, tag: str) -> np.random.Generator:
        # crc32, not hash(): string hashing is randomized per process, which
        # would make fitted operators (and persisted caches) irreproducible
        # across runs
        return np.random.default_rng((self.seed, zlib.crc32(tag.encode())))

    def _box_samples(self, n: int, tag: str) -> np.ndarray:
        return self._rng(tag).uniform(-0.5, 0.5, size=(n, 3))

    def _far_samples(self, n: int, tag: str, lo: float = 1.6, hi: float = 5.0) -> np.ndarray:
        """Points outside the near zone (|x|_inf > lo), within |x|_inf < hi."""
        rng = self._rng(tag)
        out = np.empty((0, 3))
        while len(out) < n:
            cand = rng.uniform(-hi, hi, size=(2 * n, 3))
            keep = np.abs(cand).max(axis=1) > lo
            out = np.vstack([out, cand[keep]])
        return out[:n]

    # -- quadratures ----------------------------------------------------------
    def quadrature(self, scale: float):
        key = self.kernel.level_key(scale)
        if key not in self._quads:
            self._quads[key] = build_quadrature(self.kernel, scale, eps=self.eps)
        return self._quads[key]

    # -- fitted operators ------------------------------------------------------
    def _lookup(self, key):
        """Cache probe with hit/miss accounting (operators are never None)."""
        op = self._cache.get(key)
        if op is None:
            self.misses += 1
        else:
            self.hits += 1
        return op

    def m2m(self, octant: int, child_scale: float) -> np.ndarray:
        """Child multipole (scale h) -> parent multipole (scale 2h)."""
        k = self.kernel
        key = ("m2m", octant, k.level_key(child_scale))
        op = self._lookup(key)
        if op is None:
            n = k.size + self.n_extra
            u = self._box_samples(n, f"m2m{octant}")
            off = octant_offset(octant)
            mi = k.p2m_matrix(u, child_scale)
            mo = k.p2m_matrix(off + u / 2.0, 2.0 * child_scale)
            self._cache[key] = op = fit_linear_map(mi, mo)
        return op

    def l2l(self, octant: int, parent_scale: float) -> np.ndarray:
        """Parent local (scale 2h) -> child local (scale h)."""
        k = self.kernel
        key = ("l2l", octant, k.level_key(parent_scale))
        op = self._lookup(key)
        if op is None:
            n = k.size + self.n_extra
            x = self._far_samples(n, f"l2l{octant}")
            off = octant_offset(octant)
            li = k.p2l_matrix(x, parent_scale)
            lo = k.p2l_matrix((x - off) * 2.0, parent_scale / 2.0)
            self._cache[key] = op = fit_linear_map(li, lo)
        return op

    def m2l(self, delta: tuple[int, int, int], scale: float) -> np.ndarray:
        """Same-level source multipole -> target local, offset ``delta``."""
        k = self.kernel
        key = ("m2l", tuple(int(v) for v in delta), k.level_key(scale))
        op = self._lookup(key)
        if op is None:
            n = k.size + self.n_extra
            u = self._box_samples(n, f"m2l{delta}")
            d = np.asarray(delta, dtype=float)
            mi = k.p2m_matrix(u, scale)
            lo = k.p2l_matrix(u - d, scale)
            self._cache[key] = op = fit_linear_map(mi, lo)
        return op

    def m2i(self, direction: str, scale: float) -> np.ndarray:
        """Source multipole -> outgoing plane-wave amplitudes (M->I)."""
        k = self.kernel
        key = ("m2i", direction, k.level_key(scale))
        op = self._lookup(key)
        if op is None:
            quad = self.quadrature(scale)
            n = k.size + self.n_extra
            u = self._box_samples(n, f"m2i{direction}")
            mi = k.p2m_matrix(u, scale)
            wo = p2w_matrix(quad, direction, u, scale)
            self._cache[key] = op = fit_linear_map(mi, wo)
        return op

    def m2i_stack(self, directions: tuple, scale: float) -> np.ndarray:
        """Row-stacked M->I operators for several directions.

        One ``(len(directions) * nterms, size)`` matrix so a node's
        outgoing plane-wave amplitudes for all directions come from a
        single matvec; rows split back per direction in caller order.
        """
        key = ("m2i_stack", tuple(directions), self.kernel.level_key(scale))
        op = self._lookup(key)
        if op is None:
            self._cache[key] = op = np.vstack([self.m2i(d, scale) for d in directions])
        return op

    def i2l(self, direction: str, scale: float) -> np.ndarray:
        """Incoming plane-wave amplitudes -> target local (I->L).

        Samples are unit sources placed in the incoming cone of the
        direction (separation along d between 1 and 4 box units, lateral
        offset up to 4), i.e. exactly where list-2 sources live relative
        to the target box.
        """
        k = self.kernel
        key = ("i2l", direction, k.level_key(scale))
        op = self._lookup(key)
        if op is None:
            quad = self.quadrature(scale)
            n = quad.nterms + 2 * self.n_extra
            rng = self._rng(f"i2l{direction}")
            fr = frame(direction)
            # Positions relative to the *target* center, box units.  The
            # range is the actual list-2 source cone (centres 2-3 boxes
            # away along d, sources within half a box of the centre), so
            # the quadrature's design window z in [1, 4] covers the
            # whole separation between any sample and any target point.
            uz = rng.uniform(-3.5, -1.5, size=n)
            ux = rng.uniform(-3.5, 3.5, size=n)
            uy = rng.uniform(-3.5, 3.5, size=n)
            pts = np.stack([ux, uy, uz], axis=1) @ fr  # back to xyz coords
            # incoming amplitudes of each sample: outgoing from the
            # source position, translated to the target center.  Using
            # p2w around the target center directly encodes both steps.
            vi = p2w_matrix(quad, direction, pts, scale)
            lo = k.p2l_matrix(pts, scale)
            self._cache[key] = op = fit_linear_map(vi, lo)
        return op

    def i2l_stack(self, directions: tuple, scale: float) -> np.ndarray:
        """Column-stacked I->L operators for several directions.

        One ``(size, len(directions) * nterms)`` matrix so a node's
        incoming plane-wave amplitudes for all directions collapse to a
        local expansion in a single matvec (columns in caller order).
        """
        key = ("i2l_stack", tuple(directions), self.kernel.level_key(scale))
        op = self._lookup(key)
        if op is None:
            self._cache[key] = op = np.hstack([self.i2l(d, scale) for d in directions])
        return op

    def m2l_coarse(
        self, delta: np.ndarray, source_scale: float, target_scale: float
    ) -> np.ndarray:
        """Multipole of a source box -> local of a (finer) target box.

        ``delta`` is the target center minus source center in *source*
        box units.  Used for cross-level translations when a pruned
        target sub-tree collects contributions above leaf level.
        """
        k = self.kernel
        ratio = target_scale / source_scale
        # pure-Python floats keep the key repr()/literal_eval round-trippable
        key = (
            "m2lc",
            tuple(round(float(v), 9) for v in np.asarray(delta, dtype=float)),
            round(ratio, 9),
            k.level_key(source_scale),
        )
        op = self._lookup(key)
        if op is None:
            n = k.size + self.n_extra
            u = self._box_samples(n, f"m2lc{key[1]}")
            d = np.asarray(delta, dtype=float)
            mi = k.p2m_matrix(u, source_scale)
            lo = k.p2l_matrix((u - d) / ratio, target_scale)
            self._cache[key] = op = fit_linear_map(mi, lo)
        return op

    def i2i(self, direction: str, delta, scale: float) -> np.ndarray:
        """Diagonal I->I translation factors for integer offset ``delta``."""
        key = ("i2i", direction, tuple(int(v) for v in delta), self.kernel.level_key(scale))
        op = self._lookup(key)
        if op is None:
            quad = self.quadrature(scale)
            self._cache[key] = op = i2i_factor(quad, direction, np.asarray(delta, dtype=float))
        return op

    def cache_stats(self) -> dict[str, int]:
        """Cached-operator counts per type plus hit/miss counters."""
        out: dict[str, int] = {"hits": self.hits, "misses": self.misses}
        for key in self._cache:
            out[key[0]] = out.get(key[0], 0) + 1
        return out
