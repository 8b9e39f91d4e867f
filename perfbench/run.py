"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_reads --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing of the
benchmark's inside the program.  ``--trace 1`` runs the same inputs
twice on fresh engines, first untraced and then with every layer's
entry points wrapped in timers, checks that both runs return the same
answers and the same per-query I/O, and prints the per-layer metrics
derived from the spans.  Every answer of both modes is checked against
the independent numpy oracle.  Timing figures are stated at the
reference speed that the bursts of ``speed.py`` measure.  Each run
also writes a record (and, when traced, the spans) under
``perfbench/out/``.  ``--size tiny`` shrinks every input so the harness
can test itself in seconds.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: Engine set-ups per run, ``setup_s`` being their median: at least the
#: first number, and more, up to the second, until they add up to the
#: third in seconds (a set-up of tens of milliseconds needs many
#: samples for a steady median).
SETUP_REPS = (5, 40, 3.0)
#: Bursts timed between the steps of each set-up.
SETUP_BURSTS = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def source_id() -> str:
    """The commit when the checkout is a git repository, else a hash of
    the program's sources (benchmark checkouts carry no ``.git``)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
        return "src-sha256:" + digest.hexdigest()[:16]


def percentile(values: List[float], fraction: float) -> float:
    import numpy as np
    return float(np.percentile(values, 100.0 * fraction))


#: Windows per run: consecutive whole rounds whose bursts (see
#: ``speed.py``) set the speed their timings are stated at.  A window of
#: about two seconds follows the host's speed closely yet averages
#: enough bursts for a steady divisor, and holds enough reads of every
#: dataset for its own p95.
WINDOWS = 10


def dataset_percentile(reads, fraction: float) -> float:
    """Each dataset's percentile of read latency, averaged by its share
    of the reads.

    A workload's datasets answer in different ranges (a 3-D read takes
    several times a 2-D one), so a percentile of all reads would sit
    where the ranges meet and jump with small shifts of either; each
    dataset's own percentile does not.  With one dataset this is the
    plain percentile.
    """
    by_dataset: Dict[str, List[float]] = {}
    for dataset, ms in reads:
        by_dataset.setdefault(dataset, []).append(ms)
    return sum(len(values) * percentile(values, fraction)
               for values in by_dataset.values()) / len(reads)


def at_reference_speed(loop) -> Dict[str, float]:
    """The run's timing figures at the reference speed.

    The rounds are split into ``WINDOWS`` windows; each window's
    latencies and round times are multiplied by ``NOMINAL_S`` over the
    mean of its bursts, each figure is taken per window, and the run
    reports the median window.  A hiccup of the host that the bursts
    miss (a few milliseconds at the wrong moment) moves the tail of one
    window, not the run's figure.
    """
    from speed import NOMINAL_S
    rounds = loop.per_round
    figures: Dict[str, List[float]] = {}
    for number in range(WINDOWS):
        window = rounds[len(rounds) * number // WINDOWS:
                        len(rounds) * (number + 1) // WINDOWS]
        if not window:
            continue
        scale = NOMINAL_S / statistics.fmean(r[4] for r in window)
        reads = [(dataset, ms * scale) for r in window for dataset, ms in r[0]]
        writes = [ms * scale for r in window for ms in r[1]]
        for name, value in (
                ("query_p50_ms", dataset_percentile(reads, 0.50)),
                ("query_p95_ms", dataset_percentile(reads, 0.95)),
                ("write_p50_ms", percentile(writes, 0.50)),
                ("ops_per_s", sum(r[2] for r in window)
                 / (sum(r[3] for r in window) * scale))):
            figures.setdefault(name, []).append(value)
    return {name: statistics.median(values)
            for name, values in figures.items()}


class Tally:
    """Attempted and failed operations per operation type."""

    def __init__(self) -> None:
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: Counter = Counter()
        self.visible = 0

    def add(self, kind: str, good: bool, error: str = "") -> None:
        self.attempted[kind] += 1
        if not good:
            self.failed[kind] += 1
            self.errors[error or "oracle mismatch"] += 1

    def summary(self) -> Dict[str, object]:
        return {"attempted": dict(self.attempted),
                "failed": dict(self.failed),
                "errors": dict(self.errors.most_common(5)),
                "write_visibility_checks": self.visible}


def check(workload, ops, tally: Tally) -> None:
    """Judge one round against the mirror, applying acknowledged writes.

    A read fails on a transport/outcome error or when its answer is not
    the oracle's multiset; the read that covers a probe insert must
    also report the inserted point (write visibility).
    """
    from oracle import matches
    for op in ops:
        mirror = workload.mirrors[op.dataset]
        if op.kind == "read":
            good = op.ok and matches(mirror, op.query, op.points)
            if good and op.expects is not None:
                tally.visible += 1
                good = op.expects in {tuple(p) for p in op.points}
            tally.add("read", good, op.error)
        else:
            if op.ok:
                (mirror.insert if op.kind == "insert"
                 else mirror.delete)(op.point)
            tally.add(op.kind, op.ok, op.error)


class Loop:
    """The closed loop: whole rounds, timed without the oracle checks,
    each followed by one burst of ``speed`` (a :class:`speed.Speed`)."""

    def __init__(self, workload, speed, keep: bool = False):
        self.workload = workload
        self.keep = keep
        self.speed = speed
        self.tally = Tally()
        self.timed_s = 0.0
        self.rounds = 0
        self.reads = 0
        self.writes = 0
        #: Per round: ((dataset, read latency ms) pairs, write latencies
        #: ms, operations, seconds, burst seconds), which
        #: :func:`at_reference_speed` groups into windows.
        self.per_round: List[tuple] = []
        #: Cold-pool block transfers of all reads: charged reads plus
        #: the buffer-pool hits the engine's stats attribute to reads.
        self.cold_ios = 0
        self.ops = 0
        #: Per-operation parity key: (kind, answer digest, I/Os).
        self.digests: List[tuple] = []
        #: Every operation of the run, kept only when tracing.
        self.kept: List = []

    def run(self, seconds: Optional[float] = None,
            rounds: Optional[int] = None) -> None:
        stats = self.workload.engine.stats
        hits_before = stats.store_cache_hits
        while (self.timed_s < seconds) if rounds is None \
                else (self.rounds < rounds):
            ops = self.workload.round_ops(self.rounds)
            for number, op in enumerate(ops):
                op.request = self.ops + number
            started = time.perf_counter()
            self.workload.run(ops)
            elapsed = time.perf_counter() - started
            self.timed_s += elapsed
            burst = self.speed.burst()
            check(self.workload, ops, self.tally)
            reads, writes = [], []
            for op in ops:
                self.digests.append(digest(op))
                if op.kind == "read":
                    reads.append((op.dataset, op.latency_s * 1e3))
                    self.cold_ios += op.ios
                else:
                    writes.append(op.latency_s * 1e3)
            self.reads += len(reads)
            self.writes += len(writes)
            self.per_round.append((reads, writes, len(ops), elapsed, burst))
            if self.keep:
                self.kept.extend(ops)
            self.ops += len(ops)
            self.rounds += 1
        self.cold_ios += stats.store_cache_hits - hits_before


def digest(op) -> tuple:
    import numpy as np
    if op.kind != "read":
        return (op.kind, op.ok, op.ios)
    rows = np.asarray(op.points, dtype=float)
    if rows.size:
        rows = rows[np.lexsort(rows.T[::-1])]
    return ("read", hashlib.sha1(rows.tobytes()).hexdigest(), op.ios)


def timed_setup(factory, seed: int, tiny: bool, speed=None):
    """A workload set up, and its set-up seconds.

    Given ``speed``, each step of the set-up is stated at the reference
    speed that the bursts just before and just after it show: a
    ``paper_reads`` set-up takes seconds, through which the host's
    speed moves.
    """
    workload = factory(seed, tiny)
    steps = workload.setup()
    if speed is None:
        started = time.perf_counter()
        for __ in steps:
            pass
        return workload, time.perf_counter() - started
    from speed import NOMINAL_S
    total = 0.0
    before = [speed.burst() for __ in range(SETUP_BURSTS)]
    done = False
    while not done:
        started = time.perf_counter()
        done = next(steps, StopIteration) is StopIteration
        elapsed = time.perf_counter() - started
        after = [speed.burst() for __ in range(SETUP_BURSTS)]
        total += elapsed * NOMINAL_S / statistics.fmean(before + after)
        before = after
    return workload, total


def end_to_end(args, factory, record: Dict[str, object]):
    """Serve with the first set-up, then set up again for ``setup_s``.

    The timed phase and the memory peak come from a process that has
    built one engine, so earlier set-ups leave nothing behind in them.
    """
    from speed import Speed
    tiny = args.size == "tiny"
    speed = Speed()
    try:
        workload, elapsed = timed_setup(factory, args.seed, tiny, speed)
        setups = [elapsed]
        try:
            loop = Loop(workload, speed)
            loop.run(seconds=args.seconds)
            figures = at_reference_speed(loop)
            metrics = {name: (figures[name], unit) for name, unit in (
                ("query_p50_ms", "ms"), ("query_p95_ms", "ms"),
                ("ops_per_s", "1/s"), ("write_p50_ms", "ms"))}
            metrics.update({
                "ios_per_query": (loop.cold_ios / loop.reads, "ios"),
                "index_blocks": (float(workload.index_blocks()), "blocks"),
                "peak_rss_mb": (workload.peak_rss_mb(), "MiB"),
            })
        finally:
            workload.close()
        while len(setups) < SETUP_REPS[0] or (
                sum(setups) < SETUP_REPS[2] and len(setups) < SETUP_REPS[1]):
            gc.collect()
            workload, elapsed = timed_setup(factory, args.seed, tiny, speed)
            workload.close()
            setups.append(elapsed)
    finally:
        speed.close()
    metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}
    bursts = [r[4] for r in loop.per_round]
    record.update(setup_samples_s=setups, rounds=loop.rounds,
                  operations=loop.ops, timed_s=loop.timed_s,
                  reads=loop.reads, writes=loop.writes,
                  burst_ms={"median": statistics.median(bursts) * 1e3,
                            "min": min(bursts) * 1e3,
                            "max": max(bursts) * 1e3},
                  tally=loop.tally.summary())
    return loop.tally, metrics


def per_layer(args, factory, record: Dict[str, object]):
    import layers
    from speed import Speed
    tiny = args.size == "tiny"
    speed = Speed()
    try:
        plain, __ = timed_setup(factory, args.seed, tiny)
        try:
            untraced = Loop(plain, speed)
            untraced.run(seconds=args.seconds / 2.0)
        finally:
            plain.close()
        gc.collect()
        workload, __ = timed_setup(factory, args.seed, tiny)
        try:
            traced, metrics, extras, spans = layers.measure(
                workload, untraced.rounds,
                functools.partial(Loop, speed=speed))
        finally:
            workload.close()
    finally:
        speed.close()
    mismatches = sum(a != b for a, b in zip(untraced.digests,
                                            traced.digests))
    # Both replays ran the same rounds: the ratio of their rates at the
    # reference speed stands for the ratio of their times.
    overhead = (at_reference_speed(untraced)["ops_per_s"]
                / at_reference_speed(traced)["ops_per_s"] - 1.0) * 100.0
    metrics["bench.tracing_overhead_pct"] = (overhead, "%")
    tally = Tally()
    for source in (untraced.tally, traced.tally):
        tally.attempted.update(source.attempted)
        tally.failed.update(source.failed)
        tally.errors.update(source.errors)
        tally.visible += source.visible
    record.update(rounds=untraced.rounds, operations=untraced.ops,
                  untraced_timed_s=untraced.timed_s,
                  traced_timed_s=traced.timed_s,
                  parity={"operations": len(traced.digests),
                          "mismatches": mismatches},
                  tally=tally.summary(), **extras)
    record["spans"] = spans
    return tally, metrics, mismatches == 0 and \
        len(untraced.digests) == len(traced.digests)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    # The engine and its HTTP server run in this one process, whose
    # Python threads share one interpreter lock: a second CPU adds no
    # parallelism, while every hand-off between threads on different
    # CPUs waits for the other virtual CPU to be woken, which on a host
    # lent to other machines takes milliseconds at random (http_mixed
    # read p95 was 9.4-11.7 ms across two CPUs against 4.6 ms on one, in
    # alternating runs).  So the process is held to one CPU, before
    # the workloads size the engine's pools from the CPUs it may use.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy
    import oracle
    from workloads import NPROC, WORKLOADS
    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    corrupted, counted = oracle.self_test()
    if counted != corrupted:
        print("perfbench: the oracle counted %d of %d corrupted answers "
              "as failed" % (counted, corrupted), file=sys.stderr)
        return 3
    factory = WORKLOADS[args.workload]
    record: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "size": args.size, "nproc": NPROC,
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": source_id(),
        "oracle_self_test": {"corrupted": corrupted, "counted_failed": counted},
        "cpus": sorted(os.sched_getaffinity(0)),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    correct = True
    if args.trace:
        tally, metrics, correct = per_layer(args, factory, record)
    else:
        tally, metrics = end_to_end(args, factory, record)
    attempted = sum(tally.attempted.values())
    failed = sum(tally.failed.values())
    record["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    stem = "%s-%s-s%d-t%d" % (time.strftime("%Y%m%dT%H%M%S"), args.workload,
                              args.seed, args.trace)
    spans = record.pop("spans", None)
    if spans is not None:
        spans.write(str(OUT / (stem + "-spans.jsonl.gz")))
        record["spans_file"] = stem + "-spans.jsonl.gz"
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1,
                                                   default=str))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
