"""The traced in-process replay: spans around each layer's public functions.

:class:`Tracer` wraps the public entry points of every layer (the table
:data:`TARGETS`) with span recorders: name, start, end, parent span and
request id. :func:`replay` feeds request lines through an in-process
``SolveService`` (same configuration as ``repro serve --solver cdcl
--workers 1``, with an inline executor so every span is on one thread), and
:func:`layer_metrics` turns the spans into per-call medians, counts and
ratios. Nothing under ``src/`` is modified; the wrappers are installed on the
imported modules and removed afterwards.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Optional


def _num_literals(args, kwargs, result):
    return result.num_literals


def _clause_reduction(args, kwargs, result):
    before = (args[1] if len(args) > 1 else kwargs["formula"]).num_clauses
    return 1.0 - result.formula.num_clauses / before if before else 0.0


def _cdcl_counters(args, kwargs, result):
    stats = result.stats
    return (stats.propagations, stats.conflicts, stats.decisions)


def _samples_used(args, kwargs, result):
    return result.samples_used


def _bytes_per_sample(args, kwargs, result):
    # A block is (m, n, 2, B) float64 samples: m * n * 2 * 8 bytes per sample.
    m, n, pair, _ = result.shape
    return m * n * pair * result.itemsize


def _hit(args, kwargs, result):
    return result is not None


#: (span name, module, attribute path, what to keep from the call).
#: A dotted attribute path names a method (patched on its class); a plain
#: name is a module function, rebound wherever ``repro`` imported it.
TARGETS = (
    ("protocol.parse", "repro.service.protocol", "parse_request", None),
    ("protocol.build_job", "repro.service.protocol", "build_job", None),
    ("protocol.encode", "repro.service.protocol", "encode_message", None),
    ("cnf.build", "repro.cnf.formula", "CNFFormula.from_ints", _num_literals),
    ("cnf.fingerprint", "repro.cnf.formula", "CNFFormula.fingerprint", None),
    ("cnf.evaluate", "repro.cnf.formula", "CNFFormula.evaluate", None),
    ("shards.get", "repro.runtime.shards", "ShardedResultCache.get", _hit),
    ("shards.put", "repro.runtime.shards", "ShardedResultCache.put", None),
    ("pool.execute", "repro.runtime.pool", "execute_job", None),
    ("preprocess", "repro.preprocess.pipeline", "Preprocessor.preprocess",
     _clause_reduction),
    ("cdcl.solve", "repro.solvers.cdcl.solver", "CDCLSolver.solve", _cdcl_counters),
    ("nbl.check", "repro.core.sampled", "SampledNBLEngine.check", _samples_used),
    ("noise.sample_block", "repro.noise.bank", "NoiseBank.sample_block",
     _bytes_per_sample),
    ("hyperspace.tau", "repro.hyperspace.reference", "reference_hyperspace", None),
    ("core.sigma", "repro.core.sigma", "sigma_samples", None),
)

#: The replay's own root span: one per request.
ROOT = "request"


class Tracer:
    """In-memory spans: ``[name, start, end, parent, request id, value]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request_id: Optional[str] = None
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.request_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, keep: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if keep is not None:
                try:
                    span[5] = keep(args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError, KeyError):
                    tracer.missing.add(f"{name} value")
            return result

        return traced

    @contextlib.contextmanager
    def root(self, request_id: str):
        """The root span of one replayed request."""
        self.request_id = request_id
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is listed in ``missing``."""
        for name, module_name, path, keep in TARGETS:
            try:
                module = importlib.import_module(module_name)
                if "." in path:
                    class_name, attr = path.split(".")
                    self._patch_method(getattr(module, class_name), attr, name, keep)
                else:
                    self._rebind(getattr(module, path), name, keep)
            except (ImportError, AttributeError) as exc:
                self.missing.add(f"{name} ({exc})")

    def _patch_method(self, cls, attr: str, name: str, keep) -> None:
        own = cls.__dict__.get(attr)
        raw = getattr(cls, attr) if own is None else own
        if isinstance(raw, classmethod):
            patched = classmethod(self.wrap(name, raw.__func__, keep))
        else:
            patched = self.wrap(name, raw, keep)
        setattr(cls, attr, patched)
        if own is None:
            self._undo.append(lambda: delattr(cls, attr))
        else:
            self._undo.append(lambda: setattr(cls, attr, own))

    def _rebind(self, fn: Callable, name: str, keep) -> None:
        traced = self.wrap(name, fn, keep)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._undo.append(
                        lambda module=module, attr=attr: setattr(module, attr, fn)
                    )

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (times in seconds from the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for index, (name, start, end, parent, rid, value) in enumerate(self.spans):
                handle.write(json.dumps({
                    "span": index, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "request": rid,
                    "value": value,
                }) + "\n")


def replay(requests, cache_dir: Optional[str], tracer: Optional[Tracer],
           budget_s: Optional[float] = None) -> dict:
    """Serve ``requests`` one at a time through an in-process ``SolveService``.

    Stops early once ``budget_s`` seconds have passed. Returns the number of
    requests replayed, the wall time, and the cache's load time and replayed
    WAL records.
    """
    from repro.runtime.pool import WorkerPool
    from repro.runtime.shards import ShardedResultCache
    from repro.service import ServiceConfig, SolveService, protocol

    started = time.perf_counter()
    cache = ShardedResultCache(directory=cache_dir)
    load_s = time.perf_counter() - started
    service = SolveService(
        ServiceConfig(solver="cdcl", workers=1),
        cache=cache,
        executor=WorkerPool(workers=1).executor(inline=True),
    )

    async def serve() -> int:
        count = 0
        begin = time.perf_counter()
        for request in requests:
            if budget_s is not None and time.perf_counter() - begin >= budget_s:
                break
            text = request.line.decode()
            if tracer is None:
                protocol.encode_message(await service.handle_line(text))
            else:
                with tracer.root(request.rid):
                    protocol.encode_message(await service.handle_line(text))
            count += 1
        return count

    if tracer is not None:
        tracer.install()
    try:
        begin = time.perf_counter()
        count = asyncio.run(serve())
        wall = time.perf_counter() - begin
    finally:
        if tracer is not None:
            tracer.uninstall()
        cache.close()
    return {"count": count, "wall_s": wall, "load_s": load_s,
            "replayed_records": cache.replayed_records}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def self_times(spans: list[list]) -> dict:
    """Total self time (s) per span name: duration minus child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict = defaultdict(float)
    for index, (name, start, end, _, _, _) in enumerate(spans):
        totals[name] += end - start - child[index]
    return dict(totals)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer values from the spans (per-call medians unless noted)."""
    spans = tracer.spans
    by_name: dict = defaultdict(list)
    for span in spans:
        by_name[span[0]].append(span)

    def median_ms(name: str) -> float:
        return _median([(s[2] - s[1]) * 1000 for s in by_name[name]])

    def seconds(name: str) -> float:
        return sum(s[2] - s[1] for s in by_name[name])

    def values(name: str) -> list:
        return [s[5] for s in by_name[name] if s[5] is not None]

    per_request: dict = defaultdict(float)
    for span in by_name["cnf.fingerprint"]:
        per_request[span[4]] += (span[2] - span[1]) * 1000

    def owner(index: int, name: str) -> int:
        while index >= 0 and spans[index][0] != name:
            index = spans[index][3]
        return index

    checks_per_solve: dict = defaultdict(int)
    for index, span in enumerate(spans):
        if span[0] == "nbl.check":
            checks_per_solve[owner(index, "pool.execute")] += 1

    cdcl = values("cdcl.solve")
    gets = values("shards.get")
    depth_one = sum(s[2] - s[1] for s in spans if s[3] >= 0 and spans[s[3]][0] == ROOT)
    return {
        "protocol.parse_ms": median_ms("protocol.parse"),
        "protocol.build_job_ms": median_ms("protocol.build_job"),
        "protocol.encode_ms": median_ms("protocol.encode"),
        "cnf.build_ms": median_ms("cnf.build"),
        "cnf.fingerprint_ms": _median(list(per_request.values())),
        "cnf.evaluate_ms": median_ms("cnf.evaluate"),
        "cnf.literals": _median(values("cnf.build")),
        "shards.get_ms": median_ms("shards.get"),
        "shards.put_ms": median_ms("shards.put"),
        "shards.hit_ratio": sum(gets) / len(gets) if gets else 0.0,
        "pool.execute_ms": median_ms("pool.execute"),
        "preprocess.ms": median_ms("preprocess"),
        "preprocess.clause_reduction": _median(values("preprocess")),
        "cdcl.solve_ms": median_ms("cdcl.solve"),
        "cdcl.props_per_s": (sum(c[0] for c in cdcl) / seconds("cdcl.solve")
                             if cdcl else 0.0),
        "cdcl.conflicts": _median([c[1] for c in cdcl]),
        "cdcl.decisions": _median([c[2] for c in cdcl]),
        "nbl.check_ms": median_ms("nbl.check"),
        "nbl.samples_per_s": (sum(values("nbl.check")) / seconds("nbl.check")
                              if by_name["nbl.check"] else 0.0),
        "nbl.checks_per_solve": _median(list(checks_per_solve.values())),
        "noise.sample_block_ms": median_ms("noise.sample_block"),
        "hyperspace.tau_ms": median_ms("hyperspace.tau"),
        "core.sigma_ms": median_ms("core.sigma"),
        "nbl.bytes_per_sample": _median(values("noise.sample_block")),
        "trace.coverage": depth_one / wall_s if wall_s > 0 else 0.0,
    }
