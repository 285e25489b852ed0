"""The four workloads, their seeded inputs, and their answer checks.

Every workload is a closed loop driven by one client thread: the next
operation is sent only after the previous one answered.  Each run has
a fixed operation count derived from ``--seconds`` and the scale, never
a time box, and no background timer runs inside the measured loop
(``mixed_rw`` compacts by calling ``compact()`` at fixed points).

Each ``serve_*`` function runs setup plus one measured phase on fresh
state.  With a :class:`~perfbench.harness.Tracer` it also wraps the
layers' public call points in spans; with the
:class:`~perfbench.harness.NullTracer` it measures the end-to-end
numbers untouched.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import random
import shutil
import time
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.harness import (
    Phase,
    graph_digest,
    list_digest,
    median,
    percentile,
    process_hwm_bytes,
    timed_setups,
)
from repro import MatchEngine, MatchService
from repro.closure.store import ClosureStore
from repro.closure.transitive import TransitiveClosure
from repro.core.topk_en import TopkEN
from repro.engine import core as engine_core
from repro.engine.config import EngineConfig
from repro.engine.planner import Planner
from repro.graph.generators import citation_graph
from repro.kernel import TIER_COMPILED, KernelRun
from repro.query import compile_query, to_dsl
from repro.service import service as service_module
from repro.service.sharded import ShardedMatchService
from repro.shard.engine import ShardedEngine
from repro.shard.manifest import shard_index
from repro.shard.merge import merge_topk
from repro.workloads.queries import random_query_tree

NUM_LABELS = 60
QUERY_SIZES = (2, 3, 4)
K_CHOICES = (1, 10, 100)
#: Fixed k of the reuse workloads: one plan-cache key per pooled query.
POOL_K = 10
EDGES_PER_WRITE = 4
#: sharded_batch keeps this many requests in flight: one per pool thread
#: and shard worker, so latency is scatter + shard work + merge rather
#: than queueing behind the client's own burst.
SHARDED_WINDOW = 2
#: cold_build's wildcard twig under each label: three wildcard leaves
#: put every twig's estimated copies over the kernel's 4096-copy cap,
#: so the interpreted Topk-EN with lazy block loading answers it.
TWIG = "[*][*][*]"
#: Metric-name tags of the closure ladder's rungs (their full-scale sizes).
LADDER_TAGS = ("1k", "2k", "4k")

#: Sizes per scale.  ``*_per_s`` rates times ``--seconds`` give the
#: operation counts; ``min_reads`` keeps at least ten samples beyond
#: ``read_p99_ms`` at full scale.
SCALES = {
    "full": {
        "min_reads": 1000,
        "check_sample": 8,
        # Timed set-ups per untraced run; cheap ones repeat more.
        "cold_setups": 5,
        "mixed_setups": 30,
        "sharded_setups": 12,
        "cold_nodes": 2000,
        "cold_reads_per_s": 240,
        "cold_twig_share": 0.1,
        "mixed_nodes": 600,
        "mixed_pool": 64,
        "mixed_batches_per_s": 6,
        "mixed_reads_per_batch": 20,
        "mixed_compact_every": 15,
        "sharded_nodes": 3000,
        "sharded_pool": 128,
        "sharded_passes_per_s": 1.0,
        "sharded_decompose": 64,
        "ladder": (1000, 2000, 4000),
    },
    "tiny": {
        "min_reads": 20,
        "check_sample": 3,
        "cold_setups": 2,
        "mixed_setups": 2,
        "sharded_setups": 2,
        "cold_nodes": 150,
        "cold_reads_per_s": 0,
        "cold_twig_share": 0.1,
        "mixed_nodes": 120,
        "mixed_pool": 8,
        "mixed_batches_per_s": 0,
        "mixed_reads_per_batch": 5,
        "mixed_compact_every": 2,
        "sharded_nodes": 200,
        "sharded_pool": 12,
        "sharded_passes_per_s": 0,
        "sharded_decompose": 4,
        "ladder": (100, 200, 400),
    },
}


@dataclass
class Run:
    """One invocation: workload, seed, length, scale and work directory."""

    workload: str
    seed: int
    seconds: int
    scale: dict
    workdir: Path

    def rng(self, purpose: str) -> random.Random:
        """The traffic stream: request order, k, distinct queries, samples."""
        # A string seed hashes with SHA-512 inside random.Random, so it
        # is stable across processes whatever PYTHONHASHSEED says.
        return random.Random(f"perfbench:{self.workload}:{self.seed}:{purpose}")

    def dataset_rng(self, purpose: str) -> random.Random:
        """The dataset stream: graph and query pools, the same for every seed.

        Like the paper's fixed DBLP graph, the dataset stays put and
        ``--seed`` draws the traffic over it, so run-to-run spread
        measures the program and the traffic, not a different graph.
        """
        return random.Random(f"perfbench:{self.workload}:dataset:{purpose}")

    def count(self, key: str, floor: int) -> int:
        return max(floor, round(self.scale[key] * self.seconds))

    def graph(self, nodes: int, purpose: str = "graph"):
        return citation_graph(
            nodes, num_labels=NUM_LABELS, seed=self.dataset_rng(purpose).getrandbits(32)
        )


@dataclass
class Served:
    """What one ``serve_*`` call measured."""

    phase: Phase
    setup_s: list[float]
    index_bytes: int
    counts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    checked: int = 0


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def distinct_queries(closure, rng: random.Random, count: int) -> list[str]:
    """``count`` distinct realizable tree queries (DSL) of 2-4 nodes."""
    seen = set()
    out: list[str] = []
    while len(out) < count:
        dsl = to_dsl(random_query_tree(closure, rng.choice(QUERY_SIZES), seed=rng))
        if dsl not in seen:
            seen.add(dsl)
            out.append(dsl)
    return out


def pool_passes(pool: list, rng: random.Random, count: int) -> list:
    """``count`` requests as whole passes over ``pool``, each freshly shuffled.

    Every seed sends the same request mix; the seed decides the order.
    """
    requests = []
    while len(requests) < count:
        order = list(pool)
        rng.shuffle(order)
        requests.extend(order)
    return requests[:count]


def edge_batches(graph, rng: random.Random, batches: int) -> list[tuple]:
    """New citation edges, newer -> older, so the graph stays a DAG."""
    n = graph.num_nodes
    taken: set[tuple[int, int]] = set()
    out = []
    for _ in range(batches):
        batch = []
        while len(batch) < EDGES_PER_WRITE:
            tail = rng.randrange(1, n)
            head = rng.randrange(0, tail)
            if (tail, head) in taken or graph.has_edge(tail, head):
                continue
            taken.add((tail, head))
            batch.append((tail, head))
        out.append(tuple(batch))
    return out


def scores(matches) -> tuple[float, ...]:
    return tuple(match.score for match in matches)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed(fn):
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value


def check_against(reference, served: dict, label: str) -> tuple[int, list[str]]:
    """Compare served score sequences with ``reference(query, k)``."""
    mismatches = []
    for (query, k), got in sorted(served.items()):
        want = scores(reference(query, k))
        if got != want:
            mismatches.append(f"{label}: {query!r} k={k}: got {got} want {want}")
    return len(served), mismatches


# ----------------------------------------------------------------------
# Trace points: each layer's public functions, wrapped from outside
# ----------------------------------------------------------------------
def _plan_note(plan):
    return {"tier": plan.tier}


TRACE_POINTS = [
    (service_module, "compile_query", "query.compile", None),
    (service_module, "fold", "delta.fold", None),
    (Planner, "plan", "engine.plan", _plan_note),
    (engine_core, "compile_program", "kernel.lower", None),
    (engine_core, "bind_program", "kernel.bind", None),
    (KernelRun, "top_k", "kernel.run", None),
    (TopkEN, "top_k", "core.topk_en", None),
]


def serve_requests(phase: Phase, tracer, service, requests, keep=()):
    """Send ``(query, k)`` requests one at a time; return kept answers."""
    kept = {}
    for index, (query, k) in enumerate(requests):
        with tracer.request(index), tracer.span("request"):
            response = phase.read(lambda: service.request(query, k))
        if index in keep and response is not None:
            kept[(query, k)] = scores(response.matches)
    return kept


def setups(run: Run, tracer, key: str) -> int:
    """Timed set-ups of a run: one on the traced run, which gates nothing."""
    return 1 if tracer.enabled else run.scale[key]


def span_layers(tracer, reads: int) -> dict:
    """Per-layer means (ms per call) from the traced phase's spans.

    A layer with no spans is left out, so the report names it as
    having had no traffic.
    """
    if not tracer.enabled:
        return {}
    self_times = tracer.self_times()
    out = {}
    for metric, span in (
        ("query.compile_ms", "query.compile"),
        ("engine.plan_ms", "engine.plan"),
        ("kernel.lower_ms", "kernel.lower"),
        ("kernel.bind_ms", "kernel.bind"),
        ("kernel.run_ms", "kernel.run"),
        ("core.topk_en_ms", "core.topk_en"),
        ("service.self_ms", "request"),
        ("delta.fold_ms", "delta.fold"),
        ("delta.compact_ms", "delta.compact"),
    ):
        values = self_times.get(span)
        if values:
            out[metric] = 1e3 * sum(values) / len(values)
    plans = [span for span in tracer.spans if span[0] == "engine.plan"]
    if plans:
        compiled = sum(1 for span in plans if span[5].get("tier") == TIER_COMPILED)
        out["engine.compiled_share"] = compiled / len(plans)
        out["kernel.binds_per_read"] = len(self_times.get("kernel.bind", [])) / reads
    return out


def timed_median(fn, repeats: int) -> float:
    return median([timed(fn)[0] for _ in range(repeats)])


# ----------------------------------------------------------------------
# cold_build
# ----------------------------------------------------------------------
def prepare_cold_build(run: Run) -> dict:
    scale = run.scale
    graph = run.graph(scale["cold_nodes"])
    reads = run.count("cold_reads_per_s", scale["min_reads"])
    rng = run.rng("requests")
    labels = sorted(graph.labels())
    # Wildcard twigs cycle through every label in a shuffled order, with
    # the next k on each cycle, so every label gets the same twig load.
    n_twigs = round(reads * scale["cold_twig_share"])
    twigs = []
    for cycle in range(-(-n_twigs // len(labels))):
        order = list(labels)
        rng.shuffle(order)
        k = K_CHOICES[cycle % len(K_CHOICES)]
        twigs.extend((f"{label}{TWIG}", k) for label in order)
    twigs = twigs[:n_twigs]
    closure = TransitiveClosure(graph)
    plain = distinct_queries(closure, rng, reads - len(twigs))
    del closure
    requests = twigs + [(query, rng.choice(K_CHOICES)) for query in plain]
    rng.shuffle(requests)
    check_rng = run.rng("check")
    plain_idx = [i for i, (q, _) in enumerate(requests) if "*" not in q]
    twig_idx = [i for i, (q, _) in enumerate(requests) if "*" in q]
    sample = set(check_rng.sample(plain_idx, scale["check_sample"] - 1))
    sample.add(check_rng.choice(twig_idx))
    return {
        "graph": graph,
        "requests": requests,
        "sample": sample,
    }


def serve_cold_build(run: Run, inputs: dict, tracer) -> Served:
    def make():
        return MatchService(
            inputs["graph"], backend="full", plan_cache_size=0, result_cache_size=0,
            max_workers=1, auto_compact=False,
        )

    service, setup_s = timed_setups(make, setups(run, tracer, "cold_setups"))
    try:
        engine = service.snapshot().engine
        index_path = run.workdir / "cold.ridx"
        save_s, _ = timed(lambda: engine.save_index(index_path))
        index_bytes = index_path.stat().st_size
        counter = engine.store.counter
        before = counter.snapshot()
        stats_before = service.statistics()
        phase = Phase()
        gc.collect()
        with tracer.patched(TRACE_POINTS):
            phase.start()
            answers = serve_requests(
                phase, tracer, service, inputs["requests"], keep=inputs["sample"]
            )
            phase.stop()
        reads = len(inputs["requests"])
        io_delta = counter.delta_since(before)
        counts = {
            "closure.pairs": engine.backend.stats()["pair_count"],
            "index_bytes": index_bytes,
            "storage.blocks_read": io_delta.blocks_read,
        }
        checked, mismatches = check_against(
            lambda q, k: engine.top_k(q, k, algorithm="dp-b"), answers, "dp-b"
        )
        layers = {
            **span_layers(tracer, reads),
            "storage.blocks_per_read": io_delta.blocks_read / reads,
            "storage.entries_per_read": io_delta.entries_read / reads,
            **hit_rates_between(stats_before, service.statistics()),
            "closure.pairs": counts["closure.pairs"],
            "io.save_s": save_s,
        }
    finally:
        service.close()
    return Served(phase, setup_s, index_bytes, counts, layers, mismatches, checked)


def closure_ladder(run: Run) -> dict:
    """Closure row and table build times over a node-count ladder."""
    block_size = EngineConfig().block_size
    out = {}
    sizes, totals = [], []
    for nodes, tag in zip(run.scale["ladder"], LADDER_TAGS):
        graph = run.graph(nodes, purpose=f"ladder{nodes}")
        rows_s, closure = timed(lambda: TransitiveClosure(graph))
        tables_s, _ = timed(lambda: ClosureStore(graph, closure, block_size=block_size))
        out[f"closure.rows_s_{tag}"] = rows_s
        out[f"closure.tables_s_{tag}"] = tables_s
        sizes.append(math.log(nodes))
        totals.append(math.log(rows_s + tables_s))
        del closure
        gc.collect()
    mean_x = sum(sizes) / len(sizes)
    mean_y = sum(totals) / len(totals)
    out["closure.build_exponent"] = sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(sizes, totals)
    ) / sum((x - mean_x) ** 2 for x in sizes)
    return out


def trace_extras_cold_build(run: Run, inputs: dict) -> dict:
    graph = inputs["graph"]
    block_size = EngineConfig().block_size
    rows_s, closure = timed(lambda: TransitiveClosure(graph))
    tables_s, _ = timed(lambda: ClosureStore(graph, closure, block_size=block_size))
    del closure
    gc.collect()
    return {"closure.rows_s": rows_s, "closure.tables_s": tables_s, **closure_ladder(run)}


def hit_rates_between(before: dict, after: dict) -> dict:
    """Service cache hit rates between two ``statistics()`` snapshots."""
    out = {}
    for cache, name in (
        ("compile_cache", "service.compile_cache_hit_rate"),
        ("plan_cache", "service.plan_cache_hit_rate"),
        ("result_cache", "service.result_cache_hit_rate"),
    ):
        hits = after[cache]["hits"] - before[cache]["hits"]
        lookups = after[cache]["lookups"] - before[cache]["lookups"]
        out[name] = hits / lookups if lookups else 0.0
    return out


def trace_extras_index(run: Run, inputs: dict) -> dict:
    """``MatchEngine.load`` and ``save_index`` times of a workload's index."""
    path = inputs["index"]
    repeats = 3
    load_s = timed_median(lambda: MatchEngine.load(path), repeats)
    engine = MatchEngine.load(path)
    scratch = run.workdir / "save-probe.ridx"
    save_s = timed_median(lambda: engine.save_index(scratch), repeats)
    scratch.unlink()
    return {"io.load_s": load_s, "io.save_s": save_s}


# ----------------------------------------------------------------------
# mixed_rw
# ----------------------------------------------------------------------
def prepare_mixed_rw(run: Run) -> dict:
    scale = run.scale
    graph = run.graph(scale["mixed_nodes"])
    engine = MatchEngine(graph, backend="full")
    pool = distinct_queries(engine.closure, run.dataset_rng("pool"), scale["mixed_pool"])
    rng = run.rng("requests")
    per_batch = scale["mixed_reads_per_batch"]
    batches = run.count(
        "mixed_batches_per_s", -(-scale["min_reads"] // per_batch)
    )
    # The write edges are part of the dataset: fold costs depend on which
    # closure rows an edge touches, and the seed only orders the reads.
    writes = edge_batches(graph, run.dataset_rng("writes"), batches)
    flat = pool_passes([(q, POOL_K) for q in pool], rng, batches * per_batch)
    reads = [flat[i : i + per_batch] for i in range(0, len(flat), per_batch)]
    index = fresh_dir(run.workdir / "mixed-source") / "index.ridx"
    engine.save_index(index)
    return {
        "graph": graph,
        "index": index,
        "writes": writes,
        "reads": reads,
        "requests": [r for batch in reads for r in batch],
    }


def final_graph(inputs: dict):
    """The source graph plus every write batch, built without the service."""
    graph = inputs["graph"].copy()
    for batch in inputs["writes"]:
        for tail, head in batch:
            graph.add_edge(tail, head)
    return graph


def serve_mixed_rw(run: Run, inputs: dict, tracer) -> Served:
    home = fresh_dir(run.workdir / "mixed")
    path, wal = home / "index.ridx", home / "index.wal"
    shutil.copyfile(inputs["index"], path)

    def make():
        return MatchService.from_index(
            path, wal_path=wal, auto_compact=False, max_workers=1,
        )

    every = run.scale["mixed_compact_every"]
    batches = list(zip(inputs["writes"], inputs["reads"]))
    service, setup_s = timed_setups(make, setups(run, tracer, "mixed_setups"))
    try:
        stats_before = service.statistics()
        phase = Phase()
        wal_growth = []
        generation = None
        answers = {}
        gc.collect()
        with tracer.patched(TRACE_POINTS):
            phase.start()
            for number, (batch, reads) in enumerate(batches, start=1):
                size = wal.stat().st_size if tracer.enabled else 0
                phase.write(lambda: service.apply_updates(edges_added=batch))
                if tracer.enabled:
                    wal_growth.append(wal.stat().st_size - size)
                # The reads after the last write are the ones checked.
                keep = range(len(reads)) if number == len(batches) else ()
                answers.update(serve_requests(phase, tracer, service, reads, keep=keep))
                if number % every == 0:
                    # Compaction time counts in the wall time but is
                    # not an operation; a failure here ends the run.
                    with tracer.span("delta.compact"):
                        report = service.compact()
                    if report["path"]:
                        generation = Path(report["path"])
            phase.stop()
        stats = service.statistics()
        delta = stats["delta"]
        counts = {
            "delta.folds": delta["materializations"],
            "delta.compactions": delta["compactions"],
            "service.result_cache_hits": stats["result_cache"]["hits"],
        }
        fresh = MatchEngine(final_graph(inputs), backend="full")
        checked, mismatches = check_against(
            lambda q, k: fresh.top_k(q, k), answers, "fresh build"
        )
        index_bytes = generation.stat().st_size if generation else path.stat().st_size
        layers = {
            **span_layers(tracer, len(inputs["requests"])),
            **hit_rates_between(stats_before, stats),
            "delta.folds": counts["delta.folds"],
            "delta.compactions": counts["delta.compactions"],
            "delta.generation_bytes": index_bytes,
            "delta.write_ack_ms": percentile(sorted(phase.write_ms), 50),
            "delta.wal_bytes_per_write": (
                sum(wal_growth) / len(wal_growth) if wal_growth else 0.0
            ),
            "closure.pairs": fresh.backend.stats()["pair_count"],
        }
    finally:
        service.close()
    counts["index_bytes"] = index_bytes
    return Served(phase, setup_s, index_bytes, counts, layers, mismatches, checked)


# ----------------------------------------------------------------------
# sharded_batch
# ----------------------------------------------------------------------
def prepare_sharded_batch(run: Run) -> dict:
    scale = run.scale
    graph = run.graph(scale["sharded_nodes"])
    closure = TransitiveClosure(graph)
    pool = distinct_queries(closure, run.dataset_rng("pool"), scale["sharded_pool"])
    del closure
    passes = run.count("sharded_passes_per_s", -(-scale["min_reads"] // len(pool)))
    requests = pool_passes(
        [(q, POOL_K) for q in pool], run.rng("requests"), passes * len(pool)
    )
    manifest = fresh_dir(run.workdir / "sharded") / "index.ridx"
    shard_index(graph, manifest, 2, replication=1)
    check_rng = run.rng("check")
    return {
        "graph": graph,
        "manifest": manifest,
        "requests": requests,
        "sample": set(
            check_rng.sample(range(len(requests)), min(len(requests), 8 * scale["check_sample"]))
        ),
    }


def _worker_hwm() -> int:
    return max(
        (process_hwm_bytes(child.pid) for child in multiprocessing.active_children()),
        default=0,
    )


def serve_sharded_batch(run: Run, inputs: dict, tracer) -> Served:
    manifest = inputs["manifest"]

    def make():
        return ShardedMatchService(manifest=manifest, max_workers=SHARDED_WINDOW)

    service, setup_s = timed_setups(make, setups(run, tracer, "sharded_setups"))
    try:
        requests = inputs["requests"]
        answers = {}
        done_at = [0.0] * len(requests)
        in_flight = {}

        def finished(index):
            def record(_future):
                done_at[index] = time.perf_counter()
            return record

        def submit(index):
            query, k = requests[index]
            if tracer.enabled:
                with tracer.request(index), tracer.span("shard.route") as record:
                    record[5]["fanout"] = len(service.route(query))
            started = time.perf_counter()
            try:
                future = service.submit(query, k)
            except Exception:  # noqa: BLE001 - counted as a failed read
                phase.record_read(None)
                return
            future.add_done_callback(finished(index))
            in_flight[future] = (index, started)

        phase = Phase()
        position = 0
        gc.collect()
        phase.start()
        while position < len(requests) or in_flight:
            # Keep the window full until the segment is due, then let it
            # drain: the host probe runs with no request in flight.
            while (
                position < len(requests)
                and len(in_flight) < SHARDED_WINDOW
                and not phase.due()
            ):
                submit(position)
                position += 1
            if not in_flight:
                phase.tick()
                continue
            done, _ = futures_wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                index, started = in_flight.pop(future)
                try:
                    response = future.result()
                except Exception:  # noqa: BLE001 - counted as a failed read
                    phase.record_read(None)
                    continue
                phase.record_read((done_at[index] - started) * 1e3)
                if index in inputs["sample"]:
                    answers[requests[index]] = scores(response.matches)
        phase.stop()
        phase.peak_rss = max(phase.peak_rss, _worker_hwm())
        layers = {}
        if tracer.enabled:
            layers = decompose_sharded(run, inputs, service, tracer)
    finally:
        service.close()
    flat = MatchEngine(inputs["graph"])
    checked, mismatches = check_against(
        lambda q, k: flat.top_k(q, k), answers, "flat engine"
    )
    index_bytes = sum(p.stat().st_size for p in manifest.parent.iterdir())
    return Served(
        phase, setup_s, index_bytes, {"index_bytes": index_bytes},
        layers, mismatches, checked,
    )


def decompose_sharded(run: Run, inputs: dict, service, tracer) -> dict:
    """Split sync requests into route, slowest shard, merge and IPC.

    The shard work is replayed in process on ``ShardedEngine.load`` of
    the same manifest, with a freshly compiled query each time, as a
    worker sees it after unpickling.
    """
    routes = [span[5]["fanout"] for span in tracer.spans if span[0] == "shard.route"]
    route_ms = [1e3 * (s[2] - s[1]) for s in tracer.spans if s[0] == "shard.route"]
    local = ShardedEngine.load(inputs["manifest"])
    engines = local.shard_engines
    requests = inputs["requests"][: run.scale["sharded_decompose"]]

    def replay(query, k):
        partials, slowest = [], 0.0
        for shard in local.route(query):
            shard_s, partial = timed(lambda: engines[shard].top_k(compile_query(query), k))
            partials.append(partial)
            slowest = max(slowest, shard_s)
        return partials, slowest

    for query, k in requests:  # page in and warm, as the workers already are
        replay(query, k)
    engine_ms, merge_ms, ipc_ms = [], [], []
    for query, k in requests:
        request_s, _ = timed(lambda: service.request(query, k))
        partials, slowest = replay(query, k)
        merge_s, _ = timed(lambda: merge_topk(partials, k))
        engine_ms.append(1e3 * slowest)
        merge_ms.append(1e3 * merge_s)
        ipc_ms.append(1e3 * (request_s - slowest - merge_s))
    return {
        "shard.route_ms": sum(route_ms) / len(route_ms),
        "shard.fanout": sum(routes) / len(routes),
        "shard.engine_ms": sum(engine_ms) / len(engine_ms),
        "shard.merge_ms": sum(merge_ms) / len(merge_ms),
        "shard.ipc_ms": sum(ipc_ms) / len(ipc_ms),
        "closure.pairs": sum(e.backend.stats()["pair_count"] for e in engines),
    }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
WORKLOADS = {
    "cold_build": (prepare_cold_build, serve_cold_build, trace_extras_cold_build),
    "mixed_rw": (prepare_mixed_rw, serve_mixed_rw, trace_extras_index),
    "sharded_batch": (prepare_sharded_batch, serve_sharded_batch, None),
}


def input_digests(inputs: dict) -> dict:
    return {
        "graph_digest": graph_digest(inputs["graph"]),
        "request_digest": list_digest(inputs["requests"]),
        "write_digest": list_digest(inputs.get("writes", ())),
    }


def end_to_end(served: Served) -> dict:
    phase = served.phase
    reads = sorted(phase.read_ms)
    return {
        "setup_s": median(served.setup_s),
        "ops_per_s": phase.completed / phase.wall,
        "read_p50_ms": percentile(reads, 50),
        "read_p99_ms": percentile(reads, 99),
        "index_bytes": served.index_bytes,
        "peak_rss_mb": phase.peak_rss / 2**20,
        "success_frac": 1.0 - (phase.failed + len(served.mismatches)) / phase.attempted,
    }
