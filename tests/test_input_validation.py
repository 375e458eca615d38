"""Public entry points reject malformed input with a structured error.

A NaN or infinite coordinate would otherwise be Morton-binned like any
other point, and a complex charge cast to float64 would lose its
imaginary part: both would return finite, silently wrong potentials.
Empty ensembles are valid input.  The session's entry point is covered
in ``tests/test_service.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dashmm import DashmmEvaluator


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(11)
    n = 64
    return {
        "sources": rng.uniform(0, 1, (n, 3)),
        "weights": rng.normal(size=n),
        "targets": rng.uniform(0, 1, (n, 3)),
    }


@pytest.mark.parametrize("mode", ["numeric", "phantom"])
@pytest.mark.parametrize("arg", ["sources", "weights", "targets"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_rejects_non_finite_input(laplace, inputs, mode, arg, bad):
    args = {k: v.copy() for k, v in inputs.items()}
    args[arg].reshape(-1)[-1] = bad
    ev = DashmmEvaluator(laplace, mode=mode)
    with pytest.raises(ValueError, match=arg):
        ev.evaluate(**args)


@pytest.mark.parametrize(
    "arg, spoil, match",
    [
        ("weights", lambda a: a + 1j, "weights must hold real numbers"),
        ("weights", lambda a: a.astype(object), "weights must hold real numbers"),
        ("sources", lambda a: a.astype(str), "sources must hold real numbers"),
        ("targets", lambda a: a + 0j, "targets must hold real numbers"),
        ("targets", lambda a: a[:, :2], r"targets must have shape \(M, 3\)"),
        ("sources", lambda a: a.T, r"sources must have shape \(N, 3\)"),
        ("weights", lambda a: a[:-1], r"weights must have shape \(64,\)"),
    ],
    ids=[
        "complex-weights",
        "object-weights",
        "text-sources",
        "complex-targets",
        "flat-targets",
        "transposed-sources",
        "short-weights",
    ],
)
def test_evaluate_rejects_malformed_input(laplace, inputs, arg, spoil, match):
    args = dict(inputs)
    args[arg] = spoil(args[arg])
    with pytest.raises(ValueError, match=match):
        DashmmEvaluator(laplace, mode="phantom").evaluate(**args)


@pytest.mark.parametrize("n_src, n_tgt", [(0, 64), (64, 0), (0, 0)])
def test_evaluate_empty_input(laplace_factory, inputs, n_src, n_tgt):
    ev = DashmmEvaluator(laplace_factory.kernel, factory=laplace_factory)
    out = ev.evaluate(
        inputs["sources"][:n_src], inputs["weights"][:n_src], inputs["targets"][:n_tgt]
    ).potentials
    assert out.shape == (n_tgt,)
    assert not out.any()
