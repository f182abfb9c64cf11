"""The serving workloads: ``query-online`` and ``query-bulk``.

Both run the HTTP front end in this process (``ServingApp`` over a
sharded ``HashingService``, configured as in ``bench_http_scale``) and
drive it from at most two keep-alive client connections.  Every answer is
checked against a serial oracle: direct ``HashingService.query`` calls on
a copy of the model taken before serving began, replaying the same write
schedule.  A response counts as failed when it is not a 200, times out,
or differs from the oracle in any id or distance.

``query-bulk`` sends concurrent 64-row queries, so two network forwards
overlap in nearly every round; while ``HashingNetwork`` toggles the
shared module's training mode around each forward, its answers drift
from the oracle and it reads ``correct=false``.  ``query-online`` sends
one-row queries whose forwards finish well inside the batcher's deadline,
and writes only while no query is in flight.
"""

from __future__ import annotations

import copy
import json
import threading
import time

import numpy as np

from perfbench import env, layers, stats
from perfbench.client import TIMEOUT_S, Connection, Outcome, open_loop, run_threads
from perfbench.inputs import VectorSource, stream
from perfbench.result import Digest, Metric, WorkloadResult
from perfbench.spans import Tracer

DIM = 512
BITS = 64
N_SHARDS = 4
TOP_K = 10
MAX_BATCH = 64
MAX_DELAY_S = 0.002
#: The served model is part of the program, not of the workload's inputs.
MODEL_SEED = 0
#: Database rows are added in slices of this many rows.
DB_CHUNK = 20_000

ONLINE_ROWS = 10_000
#: Offered rate: about a quarter of the closed-loop capacity of two
#: connections measured on a 2-core machine (~170 q/s), so the latency is
#: the per-request fixed cost rather than queueing behind bursts.
ONLINE_RATE = 40.0
ONLINE_SETUPS = 9
#: Requests per latency window: about 1.25 s of arrivals.
ONLINE_WINDOW = 50
#: Rounds of one /add and one /remove sent serially after each open-loop
#: phase, while no query is in flight.
ONLINE_WRITE_ROUNDS = 4

BULK_ROWS = 200_000
BULK_QUERY_ROWS = 64
#: Query requests each connection sends per round.
BULK_PER_CONN = 4
#: Rows of every /add and /remove, in both workloads.
WRITE_ROWS = 256
BULK_SETUPS = 3
#: Query requests per latency window: five rounds on two connections.
BULK_WINDOW = 40
#: The answers digest covers this many leading rounds, which every run
#: completes, so runs of one seed on two commits digest the same requests.
DIGEST_ROUNDS = 4


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def network():
    from repro.core.hashing_network import HashingNetwork

    return HashingNetwork(BITS, mode="feature", feature_extractor=_identity,
                          feature_dim=DIM, rng=MODEL_SEED)


def state_fingerprint(net) -> str:
    from repro.pipeline import array_fingerprint

    state = net.net.state_dict()
    return "".join(array_fingerprint(state[k]) for k in sorted(state))


def connections() -> int:
    return min(2, env.nproc())


def build_service(net, source: VectorSource, seed: int, rows: int,
                  workers: int):
    """A sharded service holding ``rows`` seeded database rows.

    Returns ``(service, seconds)`` where the seconds cover construction
    and every ``add`` call, not the generation of the rows.
    """
    from repro.serving import HashingService

    t0 = time.perf_counter()
    service = HashingService(net, backend="sharded", n_shards=N_SHARDS,
                             max_batch=MAX_BATCH, max_delay_s=MAX_DELAY_S,
                             workers=workers)
    elapsed = time.perf_counter() - t0
    for start in range(0, rows, DB_CHUNK):
        n = min(DB_CHUNK, rows - start)
        matrix = source.matrix(source.draw(stream(seed, 1, start), n))
        t0 = time.perf_counter()
        service.add(matrix)
        elapsed += time.perf_counter() - t0
    return service, elapsed


class Served:
    """The program under load: set up ``setups`` times, serve the last."""

    def __init__(self, source: VectorSource, seed: int, rows: int,
                 setups: int) -> None:
        from repro.serving.http import ServingApp, run_server_in_thread

        self.threads_before = env.live_threads()
        pristine = network()
        self.oracle_net = copy.deepcopy(pristine)
        self.setup_s: list[float] = []
        for k in range(setups):
            service, seconds = build_service(copy.deepcopy(pristine), source,
                                             seed, rows, env.nproc())
            self.setup_s.append(seconds)
            if k < setups - 1:
                service.close()
        self.service = service
        self.fingerprint = state_fingerprint(service.encoder)
        self.conns = connections()
        self.handle = run_server_in_thread(
            ServingApp(service, max_inflight=2 * self.conns),
            concurrency=self.conns)

    def connect(self) -> list[Connection]:
        return [Connection(self.handle.port) for _ in range(self.conns)]

    def batcher_stats(self) -> dict:
        return self.service.batcher.stats()

    def teardown(self) -> list[str]:
        """Stop the server; name every leak (each is a failed operation)."""
        self.handle.stop()
        problems = []
        if not self.service.closed:
            problems.append("service still open after server stop")
        pool = self.service.index.pool_stats()
        if pool["submitted"] != pool["completed"]:
            problems.append(f"pool submitted {pool['submitted']} != "
                            f"completed {pool['completed']}")
        leaked = env.leaked_threads(self.threads_before)
        if leaked:
            problems.append(f"threads alive after teardown: {leaked}")
        return problems

    @property
    def drifted(self) -> bool:
        return state_fingerprint(self.service.encoder) != self.fingerprint


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k]
            for k in ("requests", "flushes", "deadline_flushes")}


def _check(outcome: Outcome, expected, result: WorkloadResult,
           answers: Digest) -> None:
    """Compare one response with the oracle's answer; tally failures and
    add the response to the ``answers`` digest."""
    if outcome.status is None:
        result.failures["timeout_or_transport"] += 1
        answers.add_missing()
        return
    if not outcome.ok:
        result.failures[f"status_{outcome.status}"] += 1
        answers.add_missing()
        return
    body = json.loads(outcome.body)
    answers.add(np.asarray(body["ids"], dtype=np.int64),
               np.asarray(body["distances"], dtype=np.float64))
    ids, distances = expected
    if body["ids"] != ids.tolist() or body["distances"] != distances.tolist():
        result.failures["wrong_answer"] += 1
        result.wrong += 1


def _finish(result: WorkloadResult, served: Served, tracer: Tracer | None) -> None:
    # The teardown check is one operation; any leak fails it.
    problems = served.teardown()
    result.attempted += 1
    if problems:
        result.failures["teardown_leak"] += 1
    result.notes += [f"teardown: {problem}" for problem in problems]
    result.named["model_drifted"] = Metric(
        float(served.drifted), "flag",
        "served model's state-dict fingerprint changed while serving")
    if tracer is not None:
        result.layers["pool.tasks"] = Metric(
            float(tracer.counts["pool.tasks"]), "count")
        result.layers["pool.unbalanced"] = Metric(
            float(tracer.counts["pool.unbalanced"]), "count")


# -- query-online -----------------------------------------------------------


def online_inputs(source: VectorSource, seed: int, seconds: float):
    """``(due, idx, bodies)``: arrival offsets, query rows, request bodies.

    Arrivals are a Poisson process at :data:`ONLINE_RATE` conditioned on
    its count over ``seconds`` -- sorted uniform times -- so every run
    offers the same number of requests over the same span.
    """
    n = max(1, round(ONLINE_RATE * seconds))
    due = np.sort(stream(seed, 2).uniform(0.0, seconds, n))
    idx = source.draw(stream(seed, 3), n)
    bodies = [('{"vector": ' + source.json_rows(idx[i]) + ', "top_k": '
               + str(TOP_K) + '}').encode() for i in range(n)]
    return due, idx, bodies


def run_online(seed: int, seconds: float, tracer: Tracer | None) -> WorkloadResult:
    result = WorkloadResult(layers=layers.zero_layers() if tracer else {})
    source = VectorSource(seed, DIM)
    due, idx, bodies = online_inputs(source, seed, seconds)
    n = len(bodies)
    inputs = Digest()
    inputs.add(idx, due)

    served = Served(source, seed, ONLINE_ROWS, ONLINE_SETUPS)
    schedule = Schedule(source, seed, 0, ONLINE_ROWS)
    conns = served.connect()
    # Traced runs measure the first half untraced and the second traced,
    # on the same program, for trace.overhead.
    phases = [(0, n, False)] if tracer is None else [
        (0, n // 2, False), (n // 2, n, True)]
    outcomes: list[Outcome] = []
    phase_outcomes, phase_writes = [], []
    writes: list[tuple[int, int, Outcome]] = []
    for lo, hi, traced in phases:
        if traced:
            tracer.take()
            tracer.enabled = True
        before = served.batcher_stats()
        part = open_loop(conns, bodies[lo:hi],
                         due[lo:hi] - (due[lo - 1] if lo else 0.0), rid0=lo,
                         on_send=tracer.register if traced else None)
        r0 = len(phase_writes) * ONLINE_WRITE_ROUNDS
        phase_writes.append([])
        for r in range(r0, r0 + ONLINE_WRITE_ROUNDS):
            phase_writes[-1] += write_step(conns[0], schedule.bodies(r), r,
                                           n + 2 * r, tracer)
        if traced:
            tracer.enabled = False
            phase_spans = tracer.take()
            batcher = _delta(served.batcher_stats(), before)
        phase_outcomes.append(part)
        outcomes += part
        writes += phase_writes[-1]
    for conn in conns:
        conn.close()
    _finish(result, served, tracer)

    # -- correctness: serial oracle on the never-served model copy --------
    oracle, _ = build_service(served.oracle_net, source, seed, ONLINE_ROWS, 1)
    served_digest, oracle_digest = Digest(), Digest()
    for part, part_writes in zip(phase_outcomes, phase_writes):
        for o in part:
            expected = oracle.query(source.matrix(idx[o.rid]), top_k=TOP_K)
            oracle_digest.add(*expected)
            _check(o, expected, result, served_digest)
        for r in sorted({r for r, _, _ in part_writes}):
            _replay_writes(oracle, source, schedule.round(r),
                           [(slot, o) for rr, slot, o in part_writes if rr == r],
                           result)
    oracle.close()
    result.attempted += len(outcomes) + len(writes)

    # -- metrics -------------------------------------------------------------
    def latencies(part: list[Outcome]) -> list[float]:
        # A failed request counts as the client timeout: over any limit.
        return [o.latency(True) if o.ok else TIMEOUT_S for o in part]

    lat = latencies(outcomes)
    lateness = [o.sent - o.due for o in outcomes]
    span = max(o.done for o in outcomes) - min(o.due for o in outcomes)
    answered = sum(1 for o in outcomes if o.ok)
    _common(result, served.setup_s, lat, ONLINE_WINDOW, answered / span)
    _named_latency(result, "query", lat, ONLINE_WINDOW, "from due time")
    write_lat = [o.latency(False) for _, _, o in writes if o.ok]
    if write_lat:
        result.named["write_p50_ms"] = Metric(
            stats.median(write_lat) * 1e3, "ms",
            f"n={len(write_lat)} (/add and /remove, none in flight with queries)")
    result.provenance.update(
        offered_rate_per_s=ONLINE_RATE, requests=n, connections=served.conns,
        write_rounds=len(phase_writes) * ONLINE_WRITE_ROUNDS,
        workers=env.nproc(),
        generator_lateness_p99_ms=stats.percentile(lateness, 99) * 1e3)
    result.digests.update(inputs=inputs.hexdigest(),
                          answers=served_digest.hexdigest(),
                          oracle=oracle_digest.hexdigest())
    if tracer is not None:
        traced = phase_outcomes[1]
        layers.serving_metrics(result.layers, phase_spans, traced, True,
                               batcher, served.drifted)
        untraced_p50 = stats.percentile(latencies(phase_outcomes[0]), 50)
        traced_p50 = stats.percentile(latencies(traced), 50)
        result.layers["trace.overhead"] = Metric(traced_p50 / untraced_p50, "ratio")
    return result


# -- query-bulk ---------------------------------------------------------------


class Schedule:
    """The seeded read/write plan, round by round.

    Round ``r`` holds ``slots`` query requests of ``BULK_QUERY_ROWS`` rows,
    then one add of ``WRITE_ROWS`` new rows and one remove of as many rows
    that existed before that add, so the database of ``rows`` rows keeps
    its size.  Ids are the service's insertion-order ids, which the plan
    predicts.
    """

    def __init__(self, source: VectorSource, seed: int, slots: int,
                 rows: int) -> None:
        self.source = source
        self.seed = seed
        self.slots = slots
        self.alive = np.arange(rows, dtype=np.int64)
        self.next_id = rows
        self.rounds: list[dict] = []

    def round(self, r: int) -> dict:
        while len(self.rounds) <= r:
            k = len(self.rounds)
            rng = stream(self.seed, 6, k)
            removed = np.sort(rng.choice(self.alive, WRITE_ROWS,
                                         replace=False))
            added = np.arange(self.next_id, self.next_id + WRITE_ROWS,
                              dtype=np.int64)
            self.next_id += WRITE_ROWS
            self.alive = np.setdiff1d(np.concatenate([self.alive, added]),
                                      removed)
            self.rounds.append({
                "queries": self.source.draw(
                    stream(self.seed, 4, k),
                    self.slots * BULK_QUERY_ROWS,
                ).reshape(self.slots, BULK_QUERY_ROWS, self.source.dim),
                "add": self.source.draw(stream(self.seed, 5, k),
                                        WRITE_ROWS),
                "added": added,
                "removed": removed,
            })
        return self.rounds[r]

    def bodies(self, r: int) -> dict:
        plan = self.round(r)
        rows = self.source.json_rows
        return {
            "queries": [('{"vectors": ' + rows(q) + ', "top_k": '
                         + str(TOP_K) + '}').encode() for q in plan["queries"]],
            "add": ('{"vectors": ' + rows(plan["add"]) + '}').encode(),
            "remove": json.dumps({"ids": plan["removed"].tolist()}).encode(),
        }


def closed_loop(conns: list[Connection], schedule: Schedule, r0: int,
                budget_s: float, rid0: int, tracer: Tracer | None):
    """Run rounds from ``r0`` until ``budget_s`` of measured time passes.

    Measured time is each round's query window (first send to last
    response) plus its write step; building the next round's request
    bodies happens between rounds and is not measured.  Returns
    ``(records, rounds_run, measured_s)`` where each record is
    ``(round, slot, outcome)`` in request-id order; slot -1 is the add and
    -2 the remove.
    """
    per = BULK_PER_CONN
    barrier = threading.Barrier(len(conns), timeout=4 * TIMEOUT_S)
    state = {"round": r0, "bodies": schedule.bodies(r0), "measured": 0.0,
             "stop": False, "rid": rid0}
    outcomes: list[tuple[int, int, Outcome]] = []
    lock = threading.Lock()

    def send(conn: Connection, kind: str, path: str, body: bytes,
             r: int, slot: int) -> Outcome:
        with lock:
            rid = state["rid"]
            state["rid"] += 1
        outcome = Outcome(rid, kind, 0.0)
        if tracer is not None and tracer.enabled:
            tracer.register(rid, body)
        conn.post(outcome, path, body)
        with lock:
            outcomes.append((r, slot, outcome))
        return outcome

    def drive(conn: Connection) -> None:
        c = conns.index(conn)
        try:
            while True:
                r, bodies = state["round"], state["bodies"]
                for j in range(per):
                    slot = c * per + j
                    send(conn, "query", "/query", bodies["queries"][slot], r, slot)
                barrier.wait()
                if c == 0:
                    queries = [o for rr, _, o in outcomes
                               if rr == r and o.kind == "query"]
                    window = (max(o.done for o in queries)
                              - min(o.sent for o in queries))
                    with lock:
                        rid = state["rid"]
                        state["rid"] += 2
                    writes = write_step(conn, bodies, r, rid, tracer)
                    with lock:
                        outcomes.extend(writes)
                    add, remove = writes[0][2], writes[1][2]
                    state["measured"] += window + (remove.done - add.sent)
                    state["stop"] = state["measured"] >= budget_s
                    if not state["stop"]:
                        state["round"] = r + 1
                        state["bodies"] = schedule.bodies(r + 1)
                barrier.wait()
                if state["stop"]:
                    return
        except BaseException:
            barrier.abort()
            raise

    run_threads(drive, conns)
    outcomes.sort(key=lambda item: item[2].rid)
    return outcomes, state["round"] - r0 + 1, state["measured"]


def run_bulk(seed: int, seconds: float, tracer: Tracer | None) -> WorkloadResult:
    result = WorkloadResult(layers=layers.zero_layers() if tracer else {})
    source = VectorSource(seed, DIM)
    served = Served(source, seed, BULK_ROWS, BULK_SETUPS)
    schedule = Schedule(source, seed, served.conns * BULK_PER_CONN, BULK_ROWS)
    conns = served.connect()
    phases = [(seconds, False)] if tracer is None else [
        (seconds / 2, False), (seconds / 2, True)]
    records: list[tuple[int, int, Outcome]] = []
    phase_records, measured, rounds = [], [], 0
    for budget, traced in phases:
        if traced:
            tracer.take()
            tracer.enabled = True
        before = served.batcher_stats()
        part, n_rounds, secs = closed_loop(conns, schedule, rounds, budget,
                                           len(records), tracer)
        if traced:
            tracer.enabled = False
            phase_spans = tracer.take()
            batcher = _delta(served.batcher_stats(), before)
        rounds += n_rounds
        records += part
        phase_records.append(part)
        measured.append(secs)
    for conn in conns:
        conn.close()
    _finish(result, served, tracer)

    # -- correctness: replay the schedule serially on the pristine copy ----
    oracle, _ = build_service(served.oracle_net, source, seed, BULK_ROWS, 1)
    by_round: dict[int, list[tuple[int, Outcome]]] = {}
    for r, slot, o in records:
        by_round.setdefault(r, []).append((slot, o))
    served_digest, oracle_digest, inputs = Digest(), Digest(), Digest()
    for r in range(rounds):
        plan = schedule.round(r)
        digest_this = r < DIGEST_ROUNDS
        if digest_this:
            inputs.add(plan["queries"], plan["add"], plan["removed"])
        for slot, o in sorted(by_round[r], key=lambda item: item[0]):
            if slot >= 0:
                expected = oracle.query(source.matrix(plan["queries"][slot]),
                                        top_k=TOP_K)
                sink = served_digest if digest_this else Digest()
                _check(o, expected, result, sink)
                if digest_this:
                    oracle_digest.add(*expected)
        _replay_writes(oracle, source, plan, by_round[r], result)
    oracle.close()
    result.attempted += len(records)

    # -- metrics -------------------------------------------------------------
    def query_latencies(part) -> list[float]:
        return [o.latency(False) for _, _, o in part
                if o.kind == "query" and o.status is not None]

    lat = query_latencies(records)
    writes = [o.latency(False) for _, _, o in records
              if o.kind != "query" and o.status is not None]
    rows = BULK_QUERY_ROWS * sum(1 for _, _, o in records
                                 if o.kind == "query" and o.ok)
    rate = rows / sum(measured)
    _common(result, served.setup_s, lat, BULK_WINDOW, rate)
    _named_latency(result, "bulk", lat, BULK_WINDOW, "64-row queries")
    result.named["bulk_rows_per_s"] = Metric(
        rate, "1/s", "query rows answered per second of measured read/write time")
    result.named["write_p50_ms"] = Metric(
        stats.median(writes) * 1e3, "ms", f"n={len(writes)} (/add and /remove)")
    queries = sum(1 for _, _, o in records if o.kind == "query")
    result.named["failed_share"] = Metric(
        result.failed / result.attempted, "share",
        f"{result.wrong} wrong results in {queries} queries and "
        f"{len(records) - queries} writes")
    result.provenance.update(connections=served.conns, workers=env.nproc(),
                             rounds=rounds, requests_per_round=schedule.slots)
    result.digests.update(inputs=inputs.hexdigest(),
                          answers=served_digest.hexdigest(),
                          oracle=oracle_digest.hexdigest(),
                          digest_rounds=str(min(rounds, DIGEST_ROUNDS)))
    if tracer is not None:
        traced = [o for _, _, o in phase_records[1]]
        layers.serving_metrics(result.layers, phase_spans, traced, False,
                               batcher, served.drifted)
        untraced_p50 = stats.percentile(query_latencies(phase_records[0]), 50)
        traced_p50 = stats.percentile(query_latencies(phase_records[1]), 50)
        result.layers["trace.overhead"] = Metric(traced_p50 / untraced_p50, "ratio")
    return result


def write_step(conn: Connection, bodies: dict, r: int, rid: int,
               tracer: Tracer | None) -> list[tuple[int, int, Outcome]]:
    """Send round ``r``'s /add, then its /remove (``bodies`` from
    :meth:`Schedule.bodies`), on ``conn``; returns their ``(round, slot,
    outcome)`` records, slot -1 the add and -2 the remove, with request
    ids ``rid`` and ``rid + 1``."""
    records = []
    for slot, kind in ((-1, "add"), (-2, "remove")):
        outcome = Outcome(rid, kind, 0.0)
        if tracer is not None and tracer.enabled:
            tracer.register(rid, bodies[kind])
        conn.post(outcome, "/" + kind, bodies[kind])
        records.append((r, slot, outcome))
        rid += 1
    return records


def _replay_writes(oracle, source: VectorSource, plan: dict,
                   served: list[tuple[int, Outcome]],
                   result: WorkloadResult) -> None:
    """Apply one round's writes to the oracle and check the served write
    responses among ``served`` (``(slot, outcome)`` pairs) against them."""
    added = oracle.add(source.matrix(plan["add"]))
    if not np.array_equal(added, plan["added"]):
        raise RuntimeError("oracle assigned ids the write plan did not "
                           "predict; the schedule no longer matches the "
                           "service's id policy")
    oracle.remove(plan["removed"])
    for slot, o in served:
        if slot == -1:
            _check_write(o, {"ids": plan["added"].tolist()}, result)
        elif slot == -2:
            _check_write(o, {"removed": WRITE_ROWS}, result)


def _check_write(outcome: Outcome, expected: dict, result: WorkloadResult) -> None:
    if outcome.status is None:
        result.failures["timeout_or_transport"] += 1
    elif not outcome.ok:
        result.failures[f"status_{outcome.status}"] += 1
    elif json.loads(outcome.body) != expected:
        result.failures["wrong_write_result"] += 1
        result.wrong += 1


# -- shared ---------------------------------------------------------------------


def _named_latency(result: WorkloadResult, prefix: str, lat: list[float],
                   window: int, what: str) -> None:
    """Whole-run median, the highest percentile the sample supports, the
    windowed p90, and every window's p50 and p90."""
    n = len(lat)
    result.named[f"{prefix}_p50_ms"] = Metric(
        stats.percentile(lat, 50) * 1e3, "ms", f"n={n}, {what}")
    p = stats.supported_percentile(n)
    if p is not None and p > 50:
        result.named[f"{prefix}_{stats.percentile_label(p)}_ms"] = Metric(
            stats.percentile(lat, p) * 1e3, "ms",
            f"n={n}, {stats.beyond(n, p)} samples beyond; highest supported")
    tail = stats.percentile_label(stats.WINDOW_TAIL)
    tail_window = max(window, stats.window_for(stats.WINDOW_TAIL))
    result.named[f"{prefix}_window_{tail}_ms"] = Metric(
        stats.windowed(lat, stats.WINDOW_TAIL, tail_window) * 1e3, "ms",
        f"lower quartile over windows of {tail_window} requests")
    for q, size in ((50, window), (stats.WINDOW_TAIL, tail_window)):
        result.notes.append(
            f"{prefix} {stats.percentile_label(q)} per {size}-request window "
            f"(ms): " + " ".join(f"{v * 1e3:.2f}"
                                 for v in stats.per_window(lat, q, size)))


def _common(result: WorkloadResult, setup: list[float], lat: list[float],
            window: int, throughput: float) -> None:
    result.metrics["setup_s"] = Metric(stats.median(setup), "s",
                                       f"median of {len(setup)} set-ups")
    result.metrics["peak_rss_mb"] = Metric(env.peak_rss_mb(), "MB")
    result.metrics["p50_ms"] = Metric(
        stats.windowed(lat, 50, window) * 1e3, "ms",
        f"lower quartile over {max(1, len(lat) // window)} windows of "
        f"{window} requests of each window's p50")
    result.metrics["throughput_per_s"] = Metric(throughput, "1/s")
