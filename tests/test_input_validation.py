"""Public entry points reject non-finite input with a structured error.

A NaN or infinite coordinate would otherwise be Morton-binned like any
other point and the evaluation would return finite, silently wrong
potentials.  The session's entry point is covered in
``tests/test_service.py``.
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
