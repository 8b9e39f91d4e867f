"""The two workloads: how each sets the engine up and drives one round.

A round is a fixed list of operations whose inputs come from
``inputs.rng(seed, ROUND, r)``; every round of a workload has the same
make-up, so the share of failed operations cannot depend on how many
rounds a run fits in.  Each workload is one closed loop with a single
caller: the next operation is sent only after the previous one
answered.
"""

from __future__ import annotations

import http.client
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import inputs
from inputs import Query
from oracle import Mirror

from repro import LinearConstraint, QueryEngine
from repro.engine.server import ApiKey

#: Fan-out threads and serving concurrency are capped at ``nproc``, the
#: CPUs this process may use (``run.py`` holds it to one before this
#: module is imported): more would only time-slice the same cores and
#: make the figures depend on the scheduler.
NPROC = len(os.sched_getaffinity(0))

API_KEY = "perfbench-key"


@dataclass
class Op:
    """One operation of a round and what came back."""

    kind: str                      # "read", "insert" or "delete"
    dataset: str
    query: Optional[Query] = None
    point: Optional[Tuple[float, ...]] = None
    latency_s: float = 0.0
    ok: bool = False               # transport/outcome level success
    error: str = ""
    points: Sequence = ()          # the reported points (reads)
    ios: int = 0                   # block transfers charged
    from_result_cache: bool = False
    queue_wait_s: float = 0.0
    response_bytes: int = 0
    #: Request id the traced run's spans carry (operation sequence no.).
    request: int = -1
    #: For the read that follows a probe insert: the inserted point,
    #: which the answer must contain (write visibility).
    expects: Optional[Tuple[float, ...]] = None


def _read(dataset: str, query: Query) -> Op:
    return Op("read", dataset, query=query)


def _probe(generator: np.random.Generator, dataset: str,
           points: np.ndarray) -> List[Op]:
    """Insert a point, read it back, delete it, read again.

    The read constraint is chosen first and the point placed strictly
    under it, so the oracle sees the write in the first answer and its
    absence in the second.
    """
    query = inputs.constraint(generator, points,
                              inputs.log_uniform(generator, 0.001, 0.05))
    point = inputs.covered_point(generator, query)
    check = _read(dataset, query)
    check.expects = point
    return [Op("insert", dataset, point=point), check,
            Op("delete", dataset, point=point), _read(dataset, query)]




class Workload:
    """Shared set-up, teardown and synchronous operation plumbing."""

    name = ""
    #: Whether every operation passes the async serving layer.
    through_serving = False
    #: Datasets generated from the seed: name -> points.
    data: Dict[str, np.ndarray]

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.engine: Optional[QueryEngine] = None
        #: The traced run's span recorder (None when untraced).
        self.recorder = None
        self.data = self.make_data(inputs.rng(seed, inputs.DATA))
        self.mirrors = {name: Mirror(points)
                        for name, points in self.data.items()}

    # -- to be provided per workload ------------------------------------
    def make_data(self, generator) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def setup(self) -> Iterator[None]:
        """Set the engine up, yielding after each step (a build, a
        calibration, a server start), where the caller may time bursts
        between the steps."""
        raise NotImplementedError

    def round_ops(self, r: int) -> List[Op]:
        raise NotImplementedError

    def run(self, ops: List[Op]) -> None:
        for op in ops:
            self.run_sync(op)

    # -- shared ---------------------------------------------------------
    def run_sync(self, op: Op) -> None:
        """Serve one operation through the embedded synchronous API."""
        engine = self.engine
        self.mark(op.request)
        try:
            if op.kind == "read":
                constraint = LinearConstraint(coeffs=op.query[0],
                                              offset=op.query[1])
                started = time.perf_counter()
                answer = engine.query(op.dataset, constraint)
                op.latency_s = time.perf_counter() - started
                op.points = answer.points
                op.ios = answer.total_ios
                op.from_result_cache = answer.from_result_cache
                op.ok = True
            else:
                mutate = engine.insert if op.kind == "insert" \
                    else engine.delete
                started = time.perf_counter()
                result = mutate(op.dataset, op.point)
                op.latency_s = time.perf_counter() - started
                op.ios = result.ios
                op.ok = bool(result.applied)
                if not op.ok:
                    op.error = "write not applied"
        except Exception as exc:  # one failed operation, not a failed run
            op.error = "%s: %s" % (type(exc).__name__, exc)

    def mark(self, request: int) -> None:
        if self.recorder is not None:
            self.recorder.request = request

    def datasets(self):
        """Every live catalog dataset: plain ones and each shard replica."""
        catalog = self.engine.catalog
        for name in catalog.datasets():
            if catalog.is_sharded(name):
                for shard in catalog.sharded(name).shards:
                    yield from shard.replicas
            else:
                yield catalog.dataset(name)

    def build_records(self):
        return [record for dataset in self.datasets()
                for record in dataset.build_records.values()]

    def index_blocks(self) -> int:
        return sum(record.space_blocks for record in self.build_records())

    def peak_rss_mb(self) -> float:
        """Peak resident memory of this process, which hosts the engine."""
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc/self/status")

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None


class PaperReads(Workload):
    """Synchronous reads over the paper's structures, plus a write probe."""

    name = "paper_reads"
    #: Independent instances of each point set.  The randomized
    #: structures differ in size and speed from one build to the next
    #: and the planner learns its routing per dataset, so one instance
    #: makes a run's figures hang on one draw; a round reads them all.
    INSTANCES = 2
    #: Reads per round of each instance: about three 2-D reads, where
    #: the paper's structure is chosen, to each 3-D read.  ``ball0``
    #: reads least, since its structure's tail moves most between builds
    #: (p95 5.3 ms on one seed's ball, 10.9 ms on another's).
    READS = {"square0": 8, "square1": 8, "ball0": 1, "ball1": 4}
    #: Constraints each instance's indexes are probed with at set-up.
    CALIBRATION_PROBES = 8
    #: Index suites other than the default.  With its default suite a
    #: ball's reads go to ``partition_tree`` (``halfspace3d`` answered 0
    #: or 1 of 800-1200 reads per ball), so one ball has the paper's 3-D
    #: structure and only a full scan beside it, which bounds what a poor
    #: build of it costs (see README.md).
    KINDS = {"ball0": ["halfspace3d", "full_scan"]}

    def make_data(self, generator):
        # At 6144 points the planner sends nine 2-D reads in ten or more
        # to halfplane2d in every seed tried; at 8192 that share ran
        # from 28 % to 82 % between seeds.
        n2, n3, notes = (768, 512, 256) if self.tiny else (6144, 4096, 1024)
        data = {}
        for instance in range(self.INSTANCES):
            data["square%d" % instance] = inputs.square(generator, n2)
            data["ball%d" % instance] = inputs.ball(generator, n3)
        data["notes"] = inputs.square(generator, notes)
        return data

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        fixed = inputs.rng(seed, inputs.FIXED)
        self.probes = {
            name: [LinearConstraint(*inputs.constraint(
                fixed, points, inputs.log_uniform(fixed, 0.001, 0.05)))
                for __ in range(self.CALIBRATION_PROBES)]
            for name, points in self.data.items() if name != "notes"}

    def setup(self) -> Iterator[None]:
        """Register every instance, then calibrate its planner constants.

        The planner recalibrates only the index it chose, so without
        probes each 2-D instance stays on whichever index won its first
        reads: in 2 of 20 instances that was partition_tree for 2399 of
        2400 reads, at twice halfplane2d's time per read.  Probing every
        index at start-up, as a deployment does once, makes the choice
        rest on measured costs.
        """
        engine = QueryEngine(seed=self.seed, fanout_workers=NPROC)
        self.engine = engine
        for name, probes in self.probes.items():
            engine.register_dataset(name, self.data[name],
                                    kinds=self.KINDS.get(name))
            yield
            engine.calibrate(name, probes)
            yield
        engine.register_dataset("notes", self.data["notes"],
                                kinds=["dynamic", "full_scan"])
        yield

    def round_ops(self, r: int) -> List[Op]:
        generator = inputs.rng(self.seed, inputs.ROUND, r)
        names = [name for name, count in self.READS.items()
                 for __ in range(count)]
        generator.shuffle(names)
        ops = [_read(name, inputs.constraint(
                   generator, self.data[name],
                   inputs.log_uniform(generator, 0.001, 0.05)))
               for name in names]
        return ops + _probe(generator, "notes", self.data["notes"])


class HttpMixed(Workload):
    """Reads and writes over one keep-alive HTTP connection."""

    name = "http_mixed"
    through_serving = True
    SHARDS = 4
    HOT = 8

    def make_data(self, generator):
        points = inputs.square(generator, 512 if self.tiny else 4096)
        return {"points": points}

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        fixed = inputs.rng(seed, inputs.FIXED)
        self.hot = [inputs.constraint(fixed, self.data["points"], 0.01)
                    for __ in range(self.HOT)]
        self.server = None
        self.conn: Optional[http.client.HTTPConnection] = None

    def setup(self) -> Iterator[None]:
        engine = QueryEngine(seed=self.seed, fanout_workers=NPROC)
        self.engine = engine
        engine.register_sharded_dataset(
            "points", self.data["points"], num_shards=self.SHARDS,
            sharding="range", kinds=["partition_tree", "full_scan",
                                     "dynamic"])
        yield
        self.server = engine.serve_http([ApiKey(API_KEY, "bench")],
                                        max_concurrency=NPROC)
        host, port = self.server.address
        self.conn = http.client.HTTPConnection(host, port, timeout=60)
        self.conn.connect()
        yield

    def round_ops(self, r: int) -> List[Op]:
        """16 operations: an insert and a delete, each followed by reads.

        After each write: a fresh read, the read covering the written
        point, a hot constraint, two fresh reads, the same hot
        constraint again (answered from the result cache, since no
        write came between) and one more fresh read.
        """
        generator = inputs.rng(self.seed, inputs.ROUND, r)
        points = self.data["points"]
        insert, check, delete, recheck = _probe(generator, "points", points)

        def fresh():
            return _read("points", inputs.constraint(
                generator, points,
                inputs.log_uniform(generator, 0.001, 0.05)))

        ops = []
        for write, covering, hot in (
                (insert, check, self.hot[2 * r % self.HOT]),
                (delete, recheck, self.hot[(2 * r + 1) % self.HOT])):
            ops += [write, fresh(), covering, _read("points", hot), fresh(),
                    fresh(), _read("points", hot), fresh()]
        return ops

    def run(self, ops: List[Op]) -> None:
        for op in ops:
            self.run_http(op)

    def run_http(self, op: Op) -> None:
        if op.kind == "read":
            path = "/query"
            body = {"dataset": op.dataset,
                    "constraint": {"coeffs": list(op.query[0]),
                                   "offset": op.query[1]}}
        else:
            path = "/" + op.kind
            body = {"dataset": op.dataset, "point": list(op.point)}
        self.mark(op.request)
        try:
            status, raw, payload, elapsed = self.round_trip(path, body)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            op.error = "%s: %s" % (type(exc).__name__, exc)
            return
        op.latency_s = elapsed
        op.response_bytes = len(raw)
        outcome = payload.get("outcome")
        op.queue_wait_s = float(payload.get("queue_wait_s") or 0.0)
        if status != 200 or outcome != "served":
            op.error = "HTTP %d outcome %r: %s" % (status, outcome,
                                                  payload.get("error"))
            return
        if op.kind == "read":
            answer = payload["answer"]
            op.points = answer["points"]
            op.ios = int(answer["ios"])
            op.from_result_cache = bool(answer["from_result_cache"])
            op.ok = True
        else:
            mutation = payload["mutation"]
            op.ios = int(mutation["ios"])
            op.ok = bool(mutation["applied"])
            if not op.ok:
                op.error = "write not applied"

    def round_trip(self, path: str, body: dict):
        """One request on the kept-alive connection (timed end to end)."""
        headers = {"Content-Type": "application/json",
                   "Authorization": "Bearer " + API_KEY}
        started = time.perf_counter()
        self.conn.request("POST", path, body=json.dumps(body),
                          headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        payload = json.loads(raw)
        return response.status, raw, payload, time.perf_counter() - started

    def get(self, path: str) -> bytes:
        self.conn.request("GET", path,
                          headers={"Authorization": "Bearer " + API_KEY})
        return self.conn.getresponse().read()

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        super().close()


WORKLOADS = {cls.name: cls for cls in (PaperReads, HttpMixed)}
