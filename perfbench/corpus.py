"""Seeded request streams for the three workloads, with their ground truth.

Every request carries the verdict it must receive. Verdicts come from
construction (pigeonhole, colouring with an embedded 4-chromatic graph,
implication/equality/parity chains, miters with fixed inputs, 2-variable
UNSAT cores) or from an oracle independent of the kernel under test:
``dpll`` over the fixed random 3-SAT pool (``ground_truth.json``) and
``brute-force`` over the tiny ``nbl-grid`` formulas. The program under test
never generates an input; it receives only the encoded request lines.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import os
import random
from dataclasses import dataclass

import pool

HERE = os.path.dirname(os.path.abspath(__file__))
TRUTH_FILE = os.path.join(HERE, "ground_truth.json")

# -- serve-search -------------------------------------------------------------
#: Mean think time (s) of the two serve-search users: with about 90 ms per
#: round trip the single worker is busy about half of the time.
SEARCH_THINK_S = 0.2
#: Every 4th item of each serve-search kind asks for the inprocessing pipeline.
PREPROCESS_EVERY = 4
#: Rotation of random 3-SAT sizes. Service times cluster by size; twice as
#: many 90-variable instances put the median request inside the 90-variable
#: cluster instead of on the edge between two clusters, where it would jump
#: from seed to seed.
SEARCH_SIZES = (60, 90, 120, 90)
#: Period of the stream: eight blocks of ten hold 64 random 3-SAT items (one
#: pass over the pool at 60 and at 120 variables, two at 90) and two chunks
#: each of pigeonhole and colouring items.
SEARCH_PERIOD = 80

# -- serve-wire ---------------------------------------------------------------
#: Formulas the untimed warm-up server writes to the cache; timed reads
#: cycle through them.
WIRE_WARM = 32
#: Variable range of the structured formulas.
WIRE_VARS = (500, 5000)
#: Size strata of the new formulas: every run of 16 writes holds each
#: family at each of four sizes.
WIRE_STRATA = 4
#: Ceiling on a request line: below the server's 64 KiB line limit, so no
#: request fails on the transport.
WIRE_MAX_LINE = 60_000
#: Period of the timed stream: 32 reads (one pass over the warm set)
#: interleaved with 32 writes (two passes over families x size strata).
WIRE_PERIOD = 2 * WIRE_WARM

# -- nbl-grid -----------------------------------------------------------------
#: (n, m) cells of the sampled-NBL grid.
GRID_CELLS = ((3, 4), (3, 6), (4, 6), (4, 8))
#: Per-request sample budgets.
GRID_SAMPLES = (50_000, 200_000)
#: Requests per block of the stream: every (cell, verdict, budget) once.
GRID_PERIOD = len(GRID_CELLS) * 2 * len(GRID_SAMPLES)
#: Latency limit (ms) behind ``slo_attainment``: a round number above the
#: p90 measured when the benchmark was defined, fixed from then on.
SLO_MS = {"serve-search": 500.0, "serve-wire": 250.0, "nbl-grid": 1000.0}


@dataclass
class Request:
    """One generated request: its wire line and the verdict it must get."""

    rid: str
    line: bytes
    expected: str
    kind: str

    def clauses(self) -> list[list[int]]:
        """The formula, decoded from the line actually sent."""
        return json.loads(self.line)["clauses"]


def encode(rid: str, clauses, num_variables: int, **fields) -> bytes:
    """A ``solve`` request line (compact JSON plus newline)."""
    payload = {"op": "solve", "id": rid, "clauses": clauses,
               "num_variables": num_variables, **fields}
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def satisfies(clauses, assignment) -> bool:
    """Whether a model given as signed literals satisfies every clause."""
    true_literals = set(assignment)
    return all(any(lit in true_literals for lit in clause) for clause in clauses)


def isomorph(clauses, num_variables: int, rng: random.Random):
    """A verdict-preserving copy: renamed variables, flipped signs, shuffled clauses."""
    labels = list(range(1, num_variables + 1))
    rng.shuffle(labels)
    image = [label if rng.random() < 0.5 else -label for label in labels]
    out = [[image[lit - 1] if lit > 0 else -image[-lit - 1] for lit in clause]
           for clause in clauses]
    rng.shuffle(out)
    return out


def canonical(clauses) -> tuple:
    """Order-insensitive identity of a formula (what the server fingerprints)."""
    return tuple(sorted(tuple(sorted(clause)) for clause in clauses))


# -- structured families --------------------------------------------------------
def pigeonhole(pigeons: int) -> tuple[list[list[int]], int]:
    """PHP(pigeons, pigeons - 1): unsatisfiable by construction."""
    holes = pigeons - 1

    def var(i: int, j: int) -> int:
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for a, b in itertools.combinations(range(pigeons), 2):
            clauses.append([-var(a, j), -var(b, j)])
    return clauses, pigeons * holes


def mycielski_edges() -> list[tuple[int, int]]:
    """The Groetzsch graph (11 vertices, triangle-free, chromatic number 4)."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    for i in range(5):
        edges += [(5 + i, (i + 1) % 5), (5 + i, (i - 1) % 5), (5 + i, 10)]
    return edges


def colouring_refutation(rng: random.Random) -> tuple[list[list[int]], int]:
    """3-colouring of a random graph embedding the Groetzsch graph: UNSAT."""
    vertices = rng.randint(20, 30)
    place = rng.sample(range(vertices), 11)
    edges = {tuple(sorted((place[a], place[b]))) for a, b in mycielski_edges()}
    while len(edges) < 20 + 2 * vertices:
        a, b = rng.sample(range(vertices), 2)
        edges.add((min(a, b), max(a, b)))
    colours = 3

    def var(vertex: int, colour: int) -> int:
        return vertex * colours + colour + 1

    clauses = []
    for vertex in range(vertices):
        clauses.append([var(vertex, c) for c in range(colours)])
        for c1, c2 in itertools.combinations(range(colours), 2):
            clauses.append([-var(vertex, c1), -var(vertex, c2)])
    for a, b in sorted(edges):
        for c in range(colours):
            clauses.append([-var(a, c), -var(b, c)])
    return clauses, vertices * colours


def implication_chain(n: int) -> tuple[list[list[int]], str]:
    """x1 and x1 -> x2 -> ... -> xn: one propagation cascade, SAT."""
    return [[1]] + [[-i, i + 1] for i in range(1, n)], "SAT"


def equality_chain(n: int) -> tuple[list[list[int]], str]:
    """x1 and x1 <-> x2 <-> ... <-> xn: one propagation cascade, SAT."""
    clauses = [[1]]
    for i in range(1, n):
        clauses += [[-i, i + 1], [i, -(i + 1)]]
    return clauses, "SAT"


def parity_chain(n: int, rng: random.Random) -> tuple[list[list[int]], str]:
    """Tseitin XOR chain over n/2 inputs with a fixed output parity: SAT."""
    inputs = max(2, n // 2)
    clauses = []
    previous = 1
    for k in range(2, inputs + 1):
        x, t = k, inputs + k - 1
        clauses += [[-previous, -x, -t], [previous, x, -t],
                    [previous, -x, t], [-previous, x, t]]
        previous = t
    clauses.append([previous if rng.random() < 0.5 else -previous])
    return clauses, "SAT"


def miter(n: int, rng: random.Random) -> tuple[list[list[int]], str]:
    """Miter of a random AND/OR/XOR circuit against an equivalent rewrite.

    Every primary input is fixed by a unit clause, so a single propagation
    cascade evaluates both copies; the asserted difference makes it UNSAT.
    """
    inputs = 16
    gates = max(8, (n - inputs) // 5)
    clauses = [[i if rng.random() < 0.5 else -i] for i in range(1, inputs + 1)]
    counter = [inputs]

    def signal() -> int:
        counter[0] += 1
        return counter[0]

    def and_gate(a: int, b: int) -> int:
        out = signal()
        clauses.extend([[-a, -b, out], [a, -out], [b, -out]])
        return out

    def or_gate(a: int, b: int) -> int:
        out = signal()
        clauses.extend([[a, b, -out], [-a, out], [-b, out]])
        return out

    def xor_gate(a: int, b: int) -> int:
        out = signal()
        clauses.extend([[-a, -b, -out], [a, b, -out], [a, -b, out], [-a, b, out]])
        return out

    def xor_rewrite(a: int, b: int) -> int:
        # a XOR b == (a OR b) AND NOT (a AND b), NOT folded into the literal.
        either, both = or_gate(a, b), and_gate(a, b)
        out = signal()
        clauses.extend([[-either, both, out], [either, -out], [-both, -out]])
        return out

    plan = [(rng.randrange(3), rng.randrange(inputs + k), rng.randrange(inputs + k))
            for k in range(gates)]
    outputs = []
    for rewrite in (False, True):
        wires = list(range(1, inputs + 1))
        for op, a, b in plan:
            x, y = wires[a], wires[b]
            if op == 0:
                wires.append(and_gate(x, y))
            elif op == 1:
                wires.append(or_gate(x, y))
            else:
                wires.append((xor_rewrite if rewrite else xor_gate)(x, y))
        outputs.append(wires[-1])
    clauses.append([xor_gate(*outputs)])
    return clauses, "UNSAT"


WIRE_FAMILIES = ("implication", "equality", "parity", "miter")


def _wire_formula(family: str, n: int, rng: random.Random):
    if family == "implication":
        return implication_chain(n)
    if family == "equality":
        return equality_chain(n)
    if family == "parity":
        return parity_chain(n, rng)
    return miter(n, rng)


def _num_vars(clauses) -> int:
    return max(abs(lit) for clause in clauses for lit in clause)


def _family_line(rid, family, n, seed):
    rng = random.Random(seed)
    clauses, expected = _wire_formula(family, n, rng)
    num_variables = _num_vars(clauses)
    return encode(rid, isomorph(clauses, num_variables, rng), num_variables), expected


def _sized_line(rid, family, n, max_bytes, seed):
    """A relabelled family member of about ``n`` variables within ``max_bytes``."""
    while True:
        line, expected = _family_line(rid, family, n, seed)
        if len(line) <= max_bytes:
            return line, expected
        n = int(n * max_bytes / len(line) * 0.98)


# -- streams ----------------------------------------------------------------------
def load_pool() -> dict:
    """``(n, i) -> (clauses, dpll verdict)`` of the random 3-SAT pool.

    Refuses to run when ``ground_truth.json`` lacks an instance or when the
    generator no longer reproduces the instance the verdict was computed on.
    """
    with open(TRUTH_FILE) as handle:
        truth = json.load(handle)
    bases = {}
    for n, i in pool.pool_keys():
        entry = truth.get(f"{n}-{i}")
        clauses = pool.base_instance(n, i)
        if entry is None or entry["digest"] != pool.digest(clauses):
            raise SystemExit(f"ground_truth.json has no verdict for pool instance {n}-{i}")
        bases[(n, i)] = (clauses, entry["status"])
    return bases


def _search_item(kind: str, j: int, bases: dict):
    """Item ``j`` of a serve-search kind: ``(clauses, n, verdict, preprocess)``.

    Items do not depend on the run's seed: a run of a given length uses the
    same items of every kind, so every seed offers the same work. Item ``j``
    of a random 3-SAT size is a fixed isomorph of pool instance
    ``(j + j // PER_SIZE) % PER_SIZE``, so the preprocessed items (every 4th)
    rotate over the pool.
    """
    rng = random.Random(f"{kind}-{j}")
    preprocess = j % PREPROCESS_EVERY == PREPROCESS_EVERY - 1
    if kind == "pigeonhole":
        base, n = pigeonhole(6 + (j // PREPROCESS_EVERY) % 2)
        expected = "UNSAT"
    elif kind == "colouring":
        base, n = colouring_refutation(rng)
        expected = "UNSAT"
    else:
        n = int(kind.rsplit("-", 1)[1])
        base, expected = bases[(n, (j + j // pool.PER_SIZE) % pool.PER_SIZE)]
    return isomorph(base, n, rng), n, expected, preprocess


def search_stream(seed: int):
    """serve-search, without end: random 3-SAT isomorphs, pigeonhole, colouring.

    The mix is stratified: blocks of ten requests hold eight random 3-SAT
    instances (sizes in the rotation ``SEARCH_SIZES``), one pigeonhole and
    one colouring refutation. The seed orders the roles within each block
    and the items of each kind within chunks (a chunk of a random 3-SAT size
    is one pass over its pool), so any prefix of the stream covers the pool
    evenly. The items themselves are fixed (see :func:`_search_item`):
    random 3-SAT run times vary tenfold between isomorphs of one instance,
    and per-seed isomorphs made the latency percentiles move by a third
    between seeds.
    """
    bases = load_pool()
    rng = random.Random(f"search-{seed}")
    pending: dict = {}
    used = collections.Counter()
    rotation = 0
    seen = set()
    for index in itertools.count():
        if index % 10 == 0:
            roles = ["random3sat"] * 8 + ["pigeonhole", "colouring"]
            rng.shuffle(roles)
        kind = roles[index % 10]
        if kind == "random3sat":
            kind = f"random3sat-{SEARCH_SIZES[rotation % len(SEARCH_SIZES)]}"
            rotation += 1
        if not pending.get(kind):
            chunk = pool.PER_SIZE if kind.startswith("random3sat") else PREPROCESS_EVERY
            pending[kind] = list(range(used[kind], used[kind] + chunk))
            rng.shuffle(pending[kind])
        clauses, n, expected, preprocess = _search_item(kind, pending[kind].pop(), bases)
        used[kind] += 1
        key = canonical(clauses)
        if key in seen:
            raise SystemExit(f"serve-search items collide at request {index}")
        seen.add(key)
        rid = f"s{index}"
        fields = {"preprocess": True} if preprocess else {}
        yield Request(rid, encode(rid, clauses, n, **fields), expected, kind)


def think_times(seed: int, mean_s: float):
    """Seeded exponential think times: ``index -> seconds``.

    Stratified twice, so the offered load does not vary with the seed: the
    values are 512 fixed quantiles of the exponential distribution, and
    every run of 16 consecutive indices takes one value from each of 16
    strata (a seeded choice, in a seeded order).
    """
    rng = random.Random(f"think-{seed}")
    strata, chunks = 16, 32
    count = strata * chunks
    values = [-math.log(1.0 - (k + 0.5) / count) * mean_s for k in range(count)]
    layers = [values[s * chunks:(s + 1) * chunks] for s in range(strata)]
    for layer in layers:
        rng.shuffle(layer)
    sequence = []
    for c in range(chunks):
        chunk = [layer[c] for layer in layers]
        rng.shuffle(chunk)
        sequence += chunk
    return lambda index: sequence[index % count]


class WireStream:
    """serve-wire: warm formulas (reads) alternating with new ones (writes).

    Request ``i`` is a pure function of ``(seed, i)``. Even positions read a
    warm formula (cycling), odd positions write a new one.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # Largest size per family whose line fits WIRE_MAX_LINE, measured on
        # one probe instance, so drawn sizes rarely need shrinking.
        self._max_vars = {}
        for family in WIRE_FAMILIES:
            probe, _ = _family_line("probe", family, WIRE_VARS[1], 0)
            per_var = len(probe) / json.loads(probe)["num_variables"]
            self._max_vars[family] = min(WIRE_VARS[1], int(WIRE_MAX_LINE / per_var * 0.97))
        self.warm = [self._stratified(f"w{k}", f"warm-{k}", k, WIRE_WARM // len(WIRE_FAMILIES))
                     for k in range(WIRE_WARM)]

    def _new(self, rid: str, tag: str, family: str, stratum: float) -> Request:
        """A relabelled ``family`` member; ``stratum`` in [0, 1) places its size.

        Sizes are stratified by the caller, so the work of a run does not
        depend on which sizes a seed happened to draw.
        """
        rng = random.Random(f"wire-{self.seed}-{tag}")
        low, high = WIRE_VARS[0], self._max_vars[family]
        n = int(low + (high - low) * stratum)
        line, expected = _sized_line(rid, family, n, WIRE_MAX_LINE, rng.random())
        return Request(rid, line, expected, family)

    def _stratified(self, rid: str, tag: str, k: int, strata: int) -> Request:
        """Member ``k`` of a sequence that cycles the families, then the size strata."""
        families = len(WIRE_FAMILIES)
        stratum = (k // families) % strata
        jitter = random.Random(f"wire-{self.seed}-{tag}-size").random()
        return self._new(rid, tag, WIRE_FAMILIES[k % families], (stratum + jitter) / strata)

    def requests(self):
        """The timed stream, without end."""
        writes = 0
        for i in itertools.count():
            rid = f"r{i}"
            if i % 2 == 0:
                warm = self.warm[(i // 2) % WIRE_WARM]
                line = warm.line.replace(f'"id":"{warm.rid}"'.encode(),
                                         f'"id":"{rid}"'.encode(), 1)
                yield Request(rid, line, warm.expected, warm.kind)
            else:
                yield self._stratified(rid, f"new-{i}", writes, WIRE_STRATA)
                writes += 1


def grid_stream(seed: int, blocks: int):
    """nbl-grid: ``blocks`` blocks, balanced SAT/UNSAT over the cells and budgets.

    Each block holds every (cell, verdict, budget) once, always in the same
    order. The run's item sets (formula and engine seed per combination) are
    fixed, and the seed rotates the order in which the blocks use them. So
    every run of a given length asks the engine the same questions in the
    same pattern of sizes: the verdicts of the sampled engine vary with its
    noise, per-seed items made the median latency and the accuracy move by
    a fifth between seeds, and a per-seed order within blocks moved the
    median by a tenth through the server's memory state. SAT instances are
    random 3-SAT drawn until ``brute-force`` finds a model; UNSAT instances
    pad a 2-variable core ``{a, -a or b, -b}`` with random 3-clauses. Every
    formula is distinct, because the server's cache keys on the formula and
    not on the seed.
    """
    from repro.cnf.formula import CNFFormula
    from repro.solvers.registry import make_solver

    oracle = make_solver("brute-force")
    combos = [(cell, verdict, samples) for cell in GRID_CELLS
              for verdict in ("SAT", "UNSAT") for samples in GRID_SAMPLES]
    seen = set()
    item_sets = []
    for block in range(blocks):
        items = []
        for combo, ((n, m), verdict, samples) in enumerate(combos):
            item_rng = random.Random(f"grid-{block}-{combo}")
            for _ in range(10_000):
                clauses = _grid_formula(n, m, verdict, item_rng)
                key = canonical(clauses)
                if key in seen:
                    continue
                formula = CNFFormula.from_ints(clauses, num_variables=n)
                if oracle.solve(formula).status == verdict:
                    break
            else:
                raise SystemExit(f"nbl-grid ran out of distinct {verdict} formulas at {(n, m)}")
            seen.add(key)
            engine_seed = item_rng.randrange(1 << 31)
            items.append((clauses, n, verdict, samples, engine_seed, f"n{n}m{m}-{samples // 1000}k"))
        item_sets.append(items)
    index = 0
    for block in range(blocks):
        for clauses, n, verdict, samples, engine_seed, kind in item_sets[(block + seed) % blocks]:
            rid = f"g{index}"
            index += 1
            line = encode(rid, clauses, n, solver="nbl-sampled", carrier="uniform",
                          samples=samples, seed=engine_seed)
            yield Request(rid, line, verdict, kind)


def _grid_formula(n: int, m: int, verdict: str, rng: random.Random):
    def clause3():
        return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]

    if verdict == "SAT":
        return [clause3() for _ in range(m)]
    a, b = rng.sample(range(1, n + 1), 2)
    a, b = a * rng.choice((1, -1)), b * rng.choice((1, -1))
    clauses = [[a], [-a, b], [-b]] + [clause3() for _ in range(m - 3)]
    rng.shuffle(clauses)
    return clauses
