"""Compute ``ground_truth.json``: the dpll verdict of every base-pool instance.

Run from the repository root::

    python3 perfbench/make_ground_truth.py

DPLL is exponential: a 120-variable UNSAT instance takes up to five minutes,
the whole pool about half an hour. The verdicts are written incrementally,
so an interrupted run resumes where it stopped. The oracle is ``dpll``,
never ``cdcl``: the kernel under test must not grade itself.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import pool  # noqa: E402

TRUTH_FILE = os.path.join(HERE, "ground_truth.json")


def main() -> int:
    from repro.cnf.formula import CNFFormula
    from repro.solvers.registry import make_solver

    truth = {}
    if os.path.exists(TRUTH_FILE):
        with open(TRUTH_FILE) as handle:
            truth = json.load(handle)
    for num_variables, index in pool.pool_keys():
        key = f"{num_variables}-{index}"
        if key in truth:
            continue
        clauses = pool.base_instance(num_variables, index)
        started = time.perf_counter()
        result = make_solver("dpll").solve(
            CNFFormula.from_ints(clauses, num_variables=num_variables)
        )
        elapsed = time.perf_counter() - started
        truth[key] = {
            "status": result.status,
            "digest": pool.digest(clauses),
            "dpll_seconds": round(elapsed, 3),
        }
        print(key, result.status, f"{elapsed:.1f}s", flush=True)
        with open(TRUTH_FILE + ".tmp", "w") as handle:
            order = [f"{n}-{i}" for n, i in pool.pool_keys() if f"{n}-{i}" in truth]
            json.dump({key: truth[key] for key in order}, handle, indent=1)
        os.replace(TRUTH_FILE + ".tmp", TRUTH_FILE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
