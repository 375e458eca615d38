#!/usr/bin/env python3
"""Regenerate ``phantom_reference.json``, the phantom workload's exact answers.

Run from the repository root::

    python3 perfbench/make_reference.py

For each geometry the phantom workload can pick (``seed % 8``) this
records the virtual clock, ``tasks_run`` and ``parcels_sent`` of
one phantom evaluation.  The benchmark requires every later evaluation
to reproduce them exactly, so regenerate only when a change is meant to
alter the simulated schedule, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import (  # noqa: E402
    PHANTOM_N,
    PHANTOM_REFERENCE,
    phantom_build,
    phantom_problem,
    phantom_signature,
)


GEOMETRIES = 8


def main() -> None:
    rows = []
    for g in range(GEOMETRIES):
        src, w, tgt, ev = phantom_problem(g)
        dual, lists, dag = phantom_build(ev, src, w, tgt)
        sig = phantom_signature(ev.evaluate(src, w, tgt, dual=dual, lists=lists, dag=dag))
        rows.append({"geometry": g, **sig})
        print(json.dumps(rows[-1]), flush=True)
    with open(PHANTOM_REFERENCE, "w") as fh:
        json.dump({"n": PHANTOM_N, "geometries": rows}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
