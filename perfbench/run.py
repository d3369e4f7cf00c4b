"""The repository benchmark: served solves over real TCP, with a layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each run starts ``repro serve --solver cdcl --workers 1`` from the checkout's
``src/`` (five times, to time set-up; the last one is measured) and drives
it from this process over TCP with at most two connections:

``serve-search``
    two users, each waiting a seeded exponential think time (mean
    ``corpus.SEARCH_THINK_S``) before its next request, so the worker is
    about half busy and a request often queues behind the other user's;
    fresh cache; distinct random 3-SAT (60/90/120 variables, ratio 4.26),
    pigeonhole and colouring refutations; every 4th item preprocessed.
``serve-wire``
    closed loop, 2 connections; structured formulas of 500-5000 variables
    sent as ``clauses``; a killed warm-up server leaves the read set in the
    cache's write-ahead log, and the timed stream alternates those formulas
    (reads) with new ones (writes); every line stays below the server's
    64 KiB limit.
``nbl-grid``
    closed loop, 1 connection; ``nbl-sampled`` with explicit seeds over
    the (n, m) grid of ``corpus.GRID_CELLS``, balanced SAT/UNSAT.

A timed phase sends a fixed number of requests: whole periods of the
stream (``PERIOD``), as many as last ``--seconds`` at the rate in
``RATE``. Within a period the seed only orders and relabels the requests,
so every seed asks for the same mix of work.

With ``--trace 0`` the last line is the end-to-end result; with
``--trace 1`` the timed phase is half as long, the same requests are then
replayed in-process with spans around each layer (``layertrace.py``), and
the last line holds the per-layer metrics. Every verdict is checked; a
wrong verdict on a classical workload exits 1. Scratch files live in
``.perfbench_work/`` of the checkout; a traced run leaves its spans there
as ``trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
# One BLAS thread in this process and in the servers it starts: idle BLAS
# threads that spin on a two-core host add scheduler noise to every timing.
# One malloc arena in the servers: with one per thread, the peak resident
# set of nbl-grid moved by a tenth with the order of its requests.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "MALLOC_ARENA_MAX"):
    os.environ[_var] = "1"

import corpus  # noqa: E402
import loadgen  # noqa: E402

WORKLOADS = ("serve-search", "serve-wire", "nbl-grid")
#: Server start-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Connections (users) per workload: at most two.
CONNECTIONS = {"serve-search": 2, "serve-wire": 2, "nbl-grid": 1}
#: Period of each stream: every period holds the same mix of requests,
#: whatever the seed.
PERIOD = {"serve-search": corpus.SEARCH_PERIOD, "serve-wire": corpus.WIRE_PERIOD,
          "nbl-grid": corpus.GRID_PERIOD}
#: Requests per second each workload sustained on a 2-vCPU x86-64 host when
#: the benchmark was defined, in the host's slower spells (its speed moved
#: by up to 1.8x within minutes). A timed phase of S seconds sends the
#: fewest whole periods that last S seconds at this rate: a fixed amount of
#: work, so a host that runs faster or slower shows in the times and not in
#: the mix of requests (or in the cache's size).
RATE = {"serve-search": 6.5, "serve-wire": 24.0, "nbl-grid": 6.0}

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "req/s",
    "slo_attainment": "ratio",
    "success_share": "ratio",
    "verdict_accuracy": "ratio",
    "setup_s": "s",
    "server_peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "protocol.parse_ms": "ms",
    "protocol.build_job_ms": "ms",
    "protocol.encode_ms": "ms",
    "cnf.build_ms": "ms",
    "cnf.fingerprint_ms": "ms",
    "cnf.evaluate_ms": "ms",
    "cnf.literals": "count",
    "shards.get_ms": "ms",
    "shards.put_ms": "ms",
    "shards.load_s": "s",
    "shards.replayed_records": "count",
    "shards.hit_ratio": "ratio",
    "server.overhead_ms": "ms",
    "server.executed": "count",
    "server.cache_hits": "count",
    "server.dedup_hits": "count",
    "server.rejected": "count",
    "pool.execute_ms": "ms",
    "pool.elapsed_ms": "ms",
    "preprocess.ms": "ms",
    "preprocess.clause_reduction": "ratio",
    "cdcl.solve_ms": "ms",
    "cdcl.props_per_s": "1/s",
    "cdcl.conflicts": "count",
    "cdcl.decisions": "count",
    "nbl.check_ms": "ms",
    "nbl.samples_per_s": "1/s",
    "nbl.checks_per_solve": "count",
    "noise.sample_block_ms": "ms",
    "hyperspace.tau_ms": "ms",
    "core.sigma_ms": "ms",
    "nbl.bytes_per_sample": "B",
    "loadgen.lag_p99_ms": "ms",
    "trace.coverage": "ratio",
    "trace.wall_on_s": "s",
    "trace.wall_off_s": "s",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Workload:
    """One workload's corpus, server set-up and timed phase."""

    def __init__(self, name: str, seed: int, seconds: float, work: str) -> None:
        self.name, self.seed, self.work = name, seed, work
        self.classical = name != "nbl-grid"
        self.problems: list[str] = []
        self.seed_cache = None
        period = PERIOD[name]
        count = period * max(1, math.ceil(seconds * RATE[name] / period))
        if name == "serve-search":
            source = corpus.search_stream(seed)
        elif name == "serve-wire":
            self.stream = corpus.WireStream(seed)
            source = self.stream.requests()
        else:
            source = corpus.grid_stream(seed, count // period)
        self.requests = list(itertools.islice(source, count))

    def warm_up(self, checkout: str) -> None:
        """serve-wire: an untimed server writes the warm set, then is killed.

        SIGKILL after every response leaves the verdicts in the write-ahead
        log, so the timed server's set-up replays them.
        """
        self.seed_cache = os.path.join(self.work, "warm")
        server = loadgen.Server(checkout, self.seed_cache, os.path.join(self.work, "warm.log"))
        try:
            warm = self.stream.warm
            records, _ = loadgen.closed_loop((server.host, server.port), warm, 1)
        finally:
            server.kill()
        for request, record in zip(warm, records):
            if self.judge(request, record)[0] != "ok":
                self.problems.append(f"warm-up {request.rid}: {record.error or record.response}")

    def cache_dir(self, tag: str) -> str:
        path = os.path.join(self.work, f"cache-{tag}")
        if self.seed_cache is not None:
            shutil.copytree(self.seed_cache, path)
        return path

    def run_phase(self, server) -> tuple[list, float]:
        think = None
        if self.name == "serve-search":
            think = corpus.think_times(self.seed, corpus.SEARCH_THINK_S)
        return loadgen.closed_loop((server.host, server.port), self.requests,
                                   CONNECTIONS[self.name], think)

    def judge(self, request, record) -> tuple[str, bool]:
        """``(outcome, verdict_ok)``: outcome is ``ok``, ``failed`` or ``wrong``.

        On the classical workloads a SAT answer whose model does not satisfy
        the formula has failed, and a wrong status is ``wrong``; either one
        fails the run. On nbl-grid both are the engine's statistical errors:
        counted against ``verdict_accuracy``, never as failures.
        """
        response = record.response
        if response is None or response.get("code") != 200:
            return "failed", False
        status = response.get("status")
        if status not in ("SAT", "UNSAT"):
            return "wrong", False
        model_ok = status != "SAT" or corpus.satisfies(
            request.clauses(), response["result"].get("assignment") or ()
        )
        verdict_ok = status == request.expected and model_ok
        if not self.classical:
            return "ok", verdict_ok
        if not model_ok:
            return "failed", False
        return ("ok" if verdict_ok else "wrong"), verdict_ok


def end_to_end(workload: Workload, records, duration: float, setups, rss: float):
    """The end-to-end metrics of one timed phase, and their sample counts."""
    by_id = {request.rid: request for request in workload.requests}
    slo = corpus.SLO_MS[workload.name] / 1000.0
    latencies, served, within, failed, verdicts, responses = [], 0, 0, 0, 0, 0
    for record in records:
        request = by_id[record.rid]
        outcome, verdict_ok = workload.judge(request, record)
        if record.response is not None and record.response.get("code") == 200:
            responses += 1
            verdicts += verdict_ok
            if workload.classical and not verdict_ok:
                workload.problems.append(
                    f"{record.rid} ({request.kind}): expected {request.expected}, "
                    f"got {record.response.get('status')}"
                    + (" with a model that fails the formula" if outcome == "failed" else "")
                )
        if outcome == "failed":
            failed += 1
            latencies.append(loadgen.REQUEST_TIMEOUT)
            continue
        latency = record.done - record.due
        latencies.append(latency)
        if outcome == "ok":
            served += 1
            within += latency <= slo
    attempted = len(records)
    metrics = {
        "latency_p50_ms": percentile(latencies, 0.50) * 1000,
        "latency_p90_ms": percentile(latencies, 0.90) * 1000,
        "throughput_rps": served / duration,
        "slo_attainment": within / attempted,
        "success_share": (attempted - failed) / attempted,
        "verdict_accuracy": verdicts / responses if responses else 0.0,
        "setup_s": statistics.median(setups),
        "server_peak_rss_mb": rss,
    }
    counts = {
        "latency_p50_ms": attempted, "latency_p90_ms": attempted,
        "throughput_rps": served, "slo_attainment": attempted,
        "success_share": attempted, "verdict_accuracy": responses,
        "setup_s": len(setups), "server_peak_rss_mb": 1,
    }
    return metrics, counts, attempted, failed


def tcp_layers(records, before: dict, after: dict) -> dict:
    """Per-layer values read from the wire: stats deltas, overhead, lag."""
    service_before, service_after = before["service"], after["service"]
    executed = [r for r in records
                if r.response is not None and r.response.get("code") == 200
                and not r.response.get("from_cache") and not r.response.get("deduped")]
    overhead = [(r.done - r.due - r.response["result"]["elapsed_seconds"]) * 1000
                for r in executed]
    elapsed = [r.response["result"]["elapsed_seconds"] * 1000 for r in executed]
    lags = [(r.sent - r.due) * 1000 for r in records]
    layers = {
        f"server.{key}": float(service_after[key] - service_before[key])
        for key in ("executed", "cache_hits", "dedup_hits", "rejected")
    }
    layers["server.overhead_ms"] = statistics.median(overhead) if overhead else 0.0
    layers["pool.elapsed_ms"] = statistics.median(elapsed) if elapsed else 0.0
    layers["loadgen.lag_p99_ms"] = percentile(lags, 0.99) if lags else 0.0
    return layers


def run_workload(name: str, seed: int, seconds: float, trace: bool, checkout: str) -> dict:
    root = os.path.join(checkout, ".perfbench_work")
    work = os.path.join(root, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(name, seed, seconds, trace, checkout, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name, seed, seconds, trace, checkout, root, work) -> dict:
    phase = seconds / 2 if trace else seconds
    workload = Workload(name, seed, phase, work)
    if name == "serve-wire":
        workload.warm_up(checkout)
    setups, server = [], None
    try:
        for k in range(SETUPS):
            if server is not None and server.shutdown() != 0:
                workload.problems.append("server did not shut down cleanly")
            server = loadgen.Server(checkout, workload.cache_dir(str(k)),
                                    os.path.join(work, f"server-{k}.log"))
            setups.append(server.setup_s)
        before = server.stats()
        records, duration = workload.run_phase(server)
        after = server.stats()
        rss = server.peak_rss_mb()
        if server.shutdown() != 0:
            workload.problems.append("server did not shut down cleanly")
    finally:
        if server is not None:
            server.kill()  # reaps at once when the server has already exited
    metrics, counts, attempted, failed = end_to_end(workload, records, duration, setups, rss)
    result = {
        "workload": name, "seed": seed, "trace": trace, "phase_s": duration,
        "attempted": attempted, "failed": failed, "end_to_end": metrics,
        "counts": counts, "problems": workload.problems,
    }
    if trace:
        result.update(_traced_replay(workload, records, before, after, seconds, root))
    with open(os.path.join(root, f"corpus-{name}-{seed}.json"), "w") as handle:
        json.dump([{"id": r.rid, "kind": r.kind, "expected": r.expected, "bytes": len(r.line)}
                   for r in workload.requests], handle)
    return result


def _traced_replay(workload, records, before, after, seconds, root) -> dict:
    import layertrace as tracing

    requests = workload.requests
    # Pay first-call costs (lazy imports, allocator growth) before either
    # timed replay, so the two walls differ only by the tracing.
    tracing.replay(requests[:3], None, None)
    tracer = tracing.Tracer()
    traced = tracing.replay(requests, workload.cache_dir("replay-on"), tracer,
                            budget_s=seconds / 4)
    untraced = tracing.replay(requests[:traced["count"]], workload.cache_dir("replay-off"), None)
    layers = tracing.layer_metrics(tracer, traced["wall_s"])
    layers.update(tcp_layers(records, before, after))
    layers["shards.load_s"] = traced["load_s"]
    layers["shards.replayed_records"] = float(traced["replayed_records"])
    layers["trace.wall_on_s"] = traced["wall_s"]
    layers["trace.wall_off_s"] = untraced["wall_s"]
    tracer.dump(os.path.join(root, f"trace-{workload.name}-{workload.seed}.jsonl"))
    return {"layers": layers, "replayed": traced["count"],
            "self_times": tracing.self_times(tracer.spans),
            "untraced_targets": sorted(tracer.missing)}


def print_report(result: dict) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  trace={int(result['trace'])}"
          f"  timed phase {result['phase_s']:.2f} s")
    attempted, failed = result["attempted"], result["failed"]
    print(f"   attempted {attempted}  failed {failed}"
          f"  failed_share {failed / attempted:.4f}")
    for key, value in result["end_to_end"].items():
        print(f"   {key:<22} {value:>14.4f} {END_TO_END_UNITS[key]:<6}"
              f" (n={result['counts'][key]})")
    if "layers" in result:
        layers = result["layers"]
        print(f"   per-layer, from {result['replayed']} requests replayed in-process"
              f" (wall {layers['trace.wall_on_s']:.2f} s traced,"
              f" {layers['trace.wall_off_s']:.2f} s untraced)")
        for key, value in layers.items():
            print(f"   {key:<28} {value:>16.4f} {PER_LAYER_UNITS[key]}")
        print("   self time by span (share of the traced replay's wall time)")
        wall = layers["trace.wall_on_s"]
        for name, total in sorted(result["self_times"].items(), key=lambda item: -item[1]):
            print(f"     {name:<22} {total * 1000:>10.1f} ms  {total / wall:>7.1%}")
        for missing in result["untraced_targets"]:
            print(f"   UNTRACED {missing}")
    for problem in result["problems"][:20]:
        print(f"   PROBLEM {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    checkout = os.getcwd()
    src = os.path.join(checkout, "src")
    if not os.path.isfile(os.path.join(src, "repro", "cli.py")):
        print("error: run from the root of a checkout (src/repro is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    results = []
    for name, trace in runs:
        result = run_workload(name, args.seed, args.seconds, trace, checkout)
        print_report(result)
        results.append(result)

    correct = all(not r["problems"] for r in results)
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}/" if args.workload == "all" else ""
        values, units = ((r["layers"], PER_LAYER_UNITS) if r["trace"]
                         else (r["end_to_end"], END_TO_END_UNITS))
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
