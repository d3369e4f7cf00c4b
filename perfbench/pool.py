"""The fixed base pool of random 3-SAT instances behind ``serve-search``.

Random 3-SAT at the phase transition has no verdict by construction, and the
independent oracle (``dpll``) needs up to five minutes per 120-variable UNSAT
instance, so it cannot run per seed inside a run. Instead the oracle runs
once over this fixed pool (``make_ground_truth.py`` writes
``ground_truth.json``), and requests carry verdict-preserving isomorphic
copies of the pool (see :func:`corpus.isomorph`). Pure stdlib: the program
under test never generates its own inputs.
"""

from __future__ import annotations

import hashlib
import json
import random

#: Variable counts of the random 3-SAT instances.
SIZES = (60, 90, 120)
#: Clause/variable ratio at the 3-SAT phase transition.
RATIO = 4.26
#: Base instances per size.
PER_SIZE = 16


def random_3sat(num_variables: int, rng: random.Random) -> list[list[int]]:
    """Uniform random 3-SAT: ``round(RATIO * n)`` clauses of 3 distinct variables."""
    clauses = []
    for _ in range(round(RATIO * num_variables)):
        variables = rng.sample(range(1, num_variables + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


def base_instance(num_variables: int, index: int) -> list[list[int]]:
    """Pool instance ``index`` of size ``num_variables`` (seeded by name)."""
    return random_3sat(num_variables, random.Random(f"r3sat-{num_variables}-{index}"))


def digest(clauses: list[list[int]]) -> str:
    """Short content hash of a clause list, guarding against generator drift."""
    return hashlib.sha256(json.dumps(clauses).encode()).hexdigest()[:16]


def pool_keys() -> list[tuple[int, int]]:
    """Every ``(num_variables, index)`` of the pool, in a fixed order."""
    return [(n, i) for n in SIZES for i in range(PER_SIZE)]
