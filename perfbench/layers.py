"""The traced run: wrap each layer's entry points, replay, derive metrics.

Which wrapped call stands for which layer (see ``README.md`` for what
each metric should move):

========== ==========================================================
client     ``QueryEngine.query`` / ``insert`` / ``delete`` and the
           benchmark's HTTP round trip
serving    ``AsyncExecutor.submit``
planner    ``Planner.plan``
executor   ``ExecutionCore.dispatch``
writes     ``WritePath.insert`` / ``delete``
core       each catalog index's ``query``
metrics    ``EngineStats.record``
io         ``BlockStore.read`` / ``read_payload``
========== ==========================================================
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Dict, List, Tuple

import spans as S
from spans import Recorder, durations, mean

from repro.engine.metrics import q_error
from repro.engine.obs import render_prometheus
from repro.engine.planner import ShardedPlan
from repro.geometry.primitives import LinearConstraint

KINDS = ("halfplane2d", "halfspace3d", "partition_tree", "full_scan",
         "dynamic")
#: Reads per dataset whose routing regret is measured after the run.
REGRET_SAMPLE = 16
#: Reads per dataset saved with ``explain(analyze=True)``.
EXPLAIN_SAMPLE = 2


def install(workload, recorder: Recorder) -> None:
    """Wrap every layer entry point of the workload's live engine."""
    engine = workload.engine
    wrap = recorder.wrap
    for attr in ("query", "insert", "delete"):
        wrap(engine, attr, "client." + attr, "client", anchor=True)
    if workload.through_serving:
        wrap(workload, "round_trip", "client.http", "client", anchor=True)
        wrap(engine.serving_executor(), "submit", "serving.submit",
             "serving", anchor=True)
    wrap(engine.planner, "plan", "planner.plan", "planner",
         after=lambda state, args, plan: (
             args[0], list(args[1].coeffs), args[1].offset,
             plan.expected_output if plan is not None else None))
    core = engine.executor.core
    wrap(core, "dispatch", "executor.dispatch", "executor", anchor=True,
         after=lambda state, args, answer: (
             answer.shards_queried, answer.shards_pruned)
         if answer is not None else None)
    for attr in ("insert", "delete"):
        wrap(core.writes, attr, "writes." + attr, "writes",
             after=lambda state, args, result: (
                 result.ios if result is not None else None))
    wrap(engine.stats, "record", "metrics.record", "metrics")
    stores = {}
    for dataset in workload.datasets():
        store = dataset.store
        stores[id(store)] = store
        for kind, index in dataset.indexes.items():
            wrap(index, "query", "core." + kind, "core",
                 before=lambda args, store=store: store.stats.snapshot(),
                 after=lambda before, args, result, store=store:
                 store.stats.delta(before).total)
    for store in stores.values():
        for attr in ("read", "read_payload"):
            wrap(store, attr, "io." + attr, "io",
                 before=lambda args, store=store: store.stats.cache_hits,
                 after=lambda hits, args, result, store=store:
                 store.stats.cache_hits - hits)


def deep_size(value, seen=None) -> int:
    """Bytes held by containers and plain records, recursively."""
    seen = set() if seen is None else seen
    if id(value) in seen or callable(value):
        return 0
    seen.add(id(value))
    size = sys.getsizeof(value)
    if isinstance(value, dict):
        size += sum(deep_size(k, seen) + deep_size(v, seen)
                    for k, v in value.items())
    elif isinstance(value, (list, tuple, set, frozenset)):
        size += sum(deep_size(item, seen) for item in value)
    elif hasattr(value, "__dict__") and type(value).__module__.startswith(
            "repro.engine.metrics"):
        size += deep_size(vars(value), seen)
    return size


def retained_bytes(stats) -> int:
    """What the metrics store keeps in its own lists and dicts."""
    return sum(deep_size(value) for value in vars(stats).values()
               if isinstance(value, (list, dict)))


def routing_regret(workload, reads) -> Dict[str, object]:
    """Cold I/Os of the chosen index over the cheapest candidate's.

    Runs on a fixed sample (the first reads of each dataset) after the
    timed replay: each candidate index answers the constraint from a
    cold buffer pool, on every shard the plan touches.
    """
    engine = workload.engine
    catalog = engine.catalog
    taken: Dict[str, int] = {}
    chosen_ios = best_ios = 0
    per_dataset: Dict[str, List[int]] = {}
    for op in reads:
        if taken.get(op.dataset, 0) >= REGRET_SAMPLE:
            continue
        taken[op.dataset] = taken.get(op.dataset, 0) + 1
        constraint = LinearConstraint(coeffs=op.query[0],
                                      offset=op.query[1])
        plan = engine.planner.plan(op.dataset, constraint)
        if isinstance(plan, ShardedPlan):
            shards = {shard.shard_id: shard
                      for shard in catalog.sharded(op.dataset).shards}
            parts = [(shards[shard_id].replicas[0], shard_plan)
                     for shard_id, shard_plan in plan.shard_plans]
        else:
            parts = [(catalog.dataset(op.dataset), plan)]
        for dataset, part in parts:
            costs = {estimate.index_name: dataset.indexes[
                estimate.index_name].query_with_stats(
                    constraint, clear_cache=True).total_ios
                for estimate in part.estimates}
            chosen, best = costs[part.index_name], min(costs.values())
            chosen_ios += chosen
            best_ios += best
            entry = per_dataset.setdefault(op.dataset, [0, 0])
            entry[0] += chosen
            entry[1] += best
    return {"routing_regret": chosen_ios / max(best_ios, 1),
            "regret_by_dataset": {name: c / max(b, 1) for name, (c, b)
                                  in per_dataset.items()},
            "regret_sample": taken}


def measure(workload, rounds: int, loop_type):
    """Replay ``rounds`` rounds traced.

    Returns the loop, the per-layer metrics, what the run record keeps
    beside them and the span recorder.
    """
    engine = workload.engine
    recorder = Recorder()
    retained_before = retained_bytes(engine.stats)
    install(workload, recorder)
    workload.recorder = recorder
    loop = loop_type(workload, keep=True)
    recorder.active = True
    try:
        loop.run(rounds=rounds)
    finally:
        recorder.active = False
        recorder.unwrap_all()
        workload.recorder = None
    retained = retained_bytes(engine.stats) - retained_before
    metrics = derive(workload, recorder, loop)
    metrics["metrics.retained_bytes_per_op"] = (retained / loop.ops, "bytes")
    reads = [op for op in loop.kept if op.kind == "read" and op.ok]
    extras: Dict[str, object] = routing_regret(workload, reads)
    metrics["planner.routing_regret"] = (extras["routing_regret"], "ratio")
    summary_times = []
    for __ in range(3):
        started = time.perf_counter()
        engine.summary()
        summary_times.append(time.perf_counter() - started)
    metrics["metrics.summary_ms"] = (statistics.median(summary_times) * 1e3,
                                     "ms")
    explained: Dict[str, int] = {}
    extras["explain"] = []
    for op in reads:
        if explained.get(op.dataset, 0) >= EXPLAIN_SAMPLE:
            continue
        explained[op.dataset] = explained.get(op.dataset, 0) + 1
        extras["explain"].append(engine.explain(
            op.dataset, LinearConstraint(coeffs=op.query[0],
                                         offset=op.query[1]),
            analyze=True))
    if workload.through_serving:
        extras["metrics_scrape"] = workload.get("/metrics").decode()
    else:
        engine.stats.refresh_model_metrics()
        extras["metrics_scrape"] = render_prometheus(engine.stats.registry)
    extras["span_counts"] = dict(sorted(
        (name, len(recorder.of(name)))
        for name in {span[S.NAME] for span in recorder.spans}))
    return loop, metrics, extras, recorder


def derive(workload, recorder: Recorder, loop) -> Dict[str, Tuple]:
    """Per-layer metrics from the spans and the replayed operations."""
    ops = loop.kept
    reads = [op for op in ops if op.kind == "read"]
    served = ops if workload.through_serving else []
    m: Dict[str, Tuple] = {}

    http = recorder.of("client.http")
    m["server.self_ms"] = (mean(recorder.self_times("client.http")) * 1e3,
                           "ms")
    m["server.response_kb"] = (
        mean(op.response_bytes for op in reads) / 1024.0 if http else 0.0,
        "KiB")

    serving_self = sum(recorder.self_times("serving.submit"))
    m["serving.overhead_ms"] = (
        serving_self / len(served) * 1e3 if served else 0.0, "ms")
    m["serving.queue_wait_ms"] = (
        mean(op.queue_wait_s for op in served) * 1e3, "ms")

    plans = recorder.of("planner.plan")
    m["planner.plan_ms"] = (mean(durations(plans)) * 1e3, "ms")
    counts = {(op.dataset, tuple(op.query[0]), op.query[1]): len(op.points)
              for op in reads if op.ok}
    errors = []
    for span in plans:
        info = span[S.INFO]
        if info is None or info[3] is None:
            continue
        key = (info[0], tuple(info[1]), info[2])
        if key in counts:
            errors.append(q_error(info[3], counts[key]))
    m["stats.estimate_qerror"] = (mean(errors), "ratio")

    m["executor.self_ms"] = (
        mean(recorder.self_times("executor.dispatch")) * 1e3, "ms")
    m["executor.result_cache_hit_ratio"] = (
        mean(op.from_result_cache for op in reads), "ratio")
    fanouts = [span[S.INFO] for span in recorder.of("executor.dispatch")
               if span[S.INFO] is not None and span[S.INFO][0] > 0]
    m["sharding.shards_queried_per_query"] = (
        mean(info[0] for info in fanouts), "count")
    m["sharding.shards_pruned_per_query"] = (
        mean(info[1] for info in fanouts), "count")

    writes = recorder.of("writes.insert") + recorder.of("writes.delete")
    m["writes.apply_ms"] = (mean(durations(writes)) * 1e3, "ms")
    m["writes.ios_per_write"] = (
        mean(span[S.INFO] for span in writes if span[S.INFO] is not None),
        "ios")

    builds: Dict[str, List] = {}
    for record in workload.build_records():
        builds.setdefault(record.kind, []).append(record)
    for kind in KINDS:
        queries = recorder.of("core." + kind)
        m["core.%s.query_ms" % kind] = (mean(durations(queries)) * 1e3, "ms")
        m["core.%s.ios_per_query" % kind] = (
            mean(span[S.INFO] for span in queries
                 if span[S.INFO] is not None), "ios")
        m["core.%s.build_s" % kind] = (
            float(sum(r.build_seconds for r in builds.get(kind, ()))), "s")
        m["core.%s.space_blocks" % kind] = (
            float(sum(r.space_blocks for r in builds.get(kind, ()))),
            "blocks")

    block_reads = recorder.of("io.read") + recorder.of("io.read_payload")
    m["io.read_us"] = (mean(durations(block_reads)) * 1e6, "us")
    m["io.reads_per_query"] = (len(block_reads) / len(reads), "count")
    m["io.cache_hit_ratio"] = (
        mean(span[S.INFO] for span in block_reads
             if span[S.INFO] is not None), "ratio")

    m["metrics.record_us"] = (
        mean(durations(recorder.of("metrics.record"))) * 1e6, "us")
    return m
