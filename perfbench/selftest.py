"""Self-tests of the benchmark's own arithmetic and bookkeeping.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from perfbench import serving, stats
from perfbench.client import Outcome, open_loop
from perfbench.inputs import VectorSource
from perfbench.result import Digest, WorkloadResult
from perfbench.spans import Patcher, Span, Tracer, covered, overlapping, self_time, spanned


# -- span arithmetic -----------------------------------------------------------


def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent=parent)


def test_self_time_subtracts_overlapping_children_once():
    parent = _span(1, 0.0, 10.0)
    children = [_span(2, 1.0, 3.0, 1), _span(3, 2.0, 5.0, 1),  # overlap
                _span(4, 7.0, 8.0, 1), _span(5, 9.0, 12.0, 1)]  # runs past
    # Union inside [0, 10]: [1, 5] + [7, 8] + [9, 10] = 6.
    assert covered(0.0, 10.0, [(c.start, c.end) for c in children]) == 6.0
    assert self_time(parent, children) == 4.0


def test_self_time_of_nested_spans_counts_direct_children_only():
    root = _span(1, 0.0, 10.0)
    child = _span(2, 2.0, 6.0, 1)
    grandchild = _span(3, 3.0, 4.0, 2)
    assert self_time(root, [child]) == 6.0
    assert self_time(child, [grandchild]) == 3.0
    assert self_time(grandchild, []) == 1.0


def test_overlapping_counts_each_span_once():
    spans = [_span(1, 0, 2), _span(2, 1, 3), _span(3, 2.5, 4), _span(4, 5, 6)]
    assert overlapping(spans) == 3
    assert overlapping([_span(1, 0, 1), _span(2, 1, 2)]) == 0


def test_tracer_nests_spans_across_threads():
    tracer = Tracer()
    tracer.enabled = True

    def pooled_work() -> Span:
        with tracer.span("pooled") as span:
            return span

    with ThreadPoolExecutor(max_workers=2) as pool:
        with tracer.span("parent", trace=7) as parent:
            with tracer.span("child"):
                pass
            futures = [pool.submit(tracer.bind(tracer.current(), pooled_work))
                       for _ in range(2)]
            pooled = [f.result() for f in futures]
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["child"].parent == parent.sid
    assert by_name["child"].trace == 7
    assert all(p.parent == parent.sid and p.trace == 7 for p in pooled)


def test_patcher_restores_functions_and_classmethods():
    class Layer:
        @classmethod
        def build(cls, x):
            return ("built", x)

        def run(self, x):
            return x + 1

    tracer, patcher = Tracer(), Patcher()
    originals = dict(vars(Layer))
    patcher.wrap(Layer, "build", spanned(tracer, "build"))
    patcher.wrap(Layer, "run", spanned(tracer, "run",
                                       before=lambda self, x: {"x": x}))
    tracer.enabled = True
    assert Layer.build(3) == ("built", 3)
    assert Layer().run(1) == 2
    assert [s.name for s in tracer.spans] == ["build", "run"]
    assert tracer.spans[1].attrs == {"x": 1}
    patcher.undo()
    assert vars(Layer)["build"] is originals["build"]
    assert vars(Layer)["run"] is originals["run"]


# -- the percentile rule ----------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (99, 50.0), (20, 50.0), (19, None),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.supported_percentile(n) == expected
    if expected is not None:
        assert stats.beyond(n, expected) >= stats.MIN_BEYOND


def test_nearest_rank_percentile_and_windows():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99) == 99
    assert stats.window_for(90) == 100 and stats.window_for(99) == 1000
    # Four windows; a burst over one of them does not move the quartile.
    quiet = list(range(1, 101))
    burst = quiet + [1000] * 100 + quiet + quiet
    assert stats.per_window(burst, 90, 100) == [90, 1000, 90, 90]
    assert stats.windowed(burst, 90, 100) == 90
    # A slowdown of every window moves it.
    assert stats.windowed([2 * v for v in burst], 90, 100) == 180
    # Fewer samples than a window: one window over all of them.
    assert stats.windowed([3.0, 1.0, 2.0], 50, 100) == 2.0
    # The quartile interpolates inside the sample, never beyond it.
    assert stats.lower_quartile([1.0, 2.0]) == 1.25


# -- open-loop due-time accounting ------------------------------------------------


class _SlowConnection:
    """Answers every request after ``delay`` seconds."""

    def __init__(self, delay: float) -> None:
        self.delay = delay

    def post(self, outcome: Outcome, path: str, body: bytes) -> Outcome:
        outcome.sent = time.perf_counter()
        time.sleep(self.delay)
        outcome.status, outcome.done = 200, time.perf_counter()
        return outcome


def test_open_loop_counts_latency_from_due_time_when_connections_are_busy():
    delay = 0.1
    conns = [_SlowConnection(delay), _SlowConnection(delay)]
    # Three requests due at once: the third waits for a free connection.
    outcomes = open_loop(conns, [b"a", b"b", b"c"], [0.0, 0.0, 0.0])
    third = max(outcomes, key=lambda o: o.sent)
    assert third.sent - third.due >= 0.9 * delay
    assert third.latency(True) >= 1.9 * delay
    assert third.latency(False) < third.latency(True)
    for first in sorted(outcomes, key=lambda o: o.sent)[:2]:
        assert first.sent - first.due < 0.5 * delay


# -- seeded inputs -----------------------------------------------------------------


def test_inputs_are_a_function_of_the_seed():
    a, b, c = (serving.online_inputs(VectorSource(s, 8), s, 3.0) for s in (5, 5, 6))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert a[2] == b[2]
    assert not np.array_equal(a[0], c[0])
    # Every body parses back to exactly the drawn float64 values.
    source = VectorSource(5, 8)
    assert json.loads(a[2][0])["vector"] == source.matrix(a[1][0]).tolist()


def test_write_schedule_is_seeded_and_keeps_the_database_size():
    plans = []
    for _ in range(2):
        schedule = serving.Schedule(VectorSource(3, 4), 3, 8, serving.BULK_ROWS)
        plans.append([schedule.round(r) for r in range(3)])
        assert schedule.alive.size == serving.BULK_ROWS
    for first, second in zip(*plans):
        for key in ("queries", "add", "added", "removed"):
            assert np.array_equal(first[key], second[key])
    alive = set(range(serving.BULK_ROWS))
    for plan in plans[0]:
        assert set(plan["removed"].tolist()) <= alive  # rows that existed
        alive |= set(plan["added"].tolist())
        alive -= set(plan["removed"].tolist())
    other = serving.Schedule(VectorSource(4, 4), 4, 8, serving.BULK_ROWS).round(0)
    assert not np.array_equal(other["removed"], plans[0][0]["removed"])


# -- the oracle comparison ---------------------------------------------------------


def _answered(ids, distances, status=200):
    outcome = Outcome(0, "query", 0.0, status=status)
    outcome.body = json.dumps({"ids": ids.tolist(),
                               "distances": distances.tolist(),
                               "degraded": False}).encode()
    return outcome


def test_oracle_flags_a_perturbed_answer():
    ids = np.array([[4, 9, 1]])
    distances = np.array([[3.0, 5.0, 5.0]])
    result = WorkloadResult()
    serving._check(_answered(ids, distances), (ids, distances), result, Digest())
    assert result.failed == 0 and result.wrong == 0
    perturbed = distances.copy()
    perturbed[0, 2] = np.nextafter(5.0, 6.0)  # one ulp off
    serving._check(_answered(ids, perturbed), (ids, distances), result, Digest())
    serving._check(_answered(ids[:, ::-1], distances), (ids, distances), result,
                   Digest())
    assert result.failures["wrong_answer"] == 2 and result.wrong == 2
    serving._check(_answered(ids, distances, status=503), (ids, distances),
                   result, Digest())
    serving._check(Outcome(0, "query", 0.0), (ids, distances), result, Digest())
    assert result.failures["status_503"] == 1
    assert result.failures["timeout_or_transport"] == 1
    assert result.failed == 4 and result.wrong == 2


def test_threads_started_during_a_workload_are_reported():
    from perfbench import env

    before = env.live_threads()
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait, name="leaky")
    worker.start()
    try:
        assert env.leaked_threads(before, timeout_s=0.2) == ["leaky"]
    finally:
        stop.set()
        worker.join(5)
    assert not worker.is_alive()
    assert env.leaked_threads(before, timeout_s=1.0) == []
