"""Per-layer spans around the program's public entry points, and the
per-layer metrics derived from them.

:func:`install` wraps, at run time, the functions each layer exposes;
nothing under ``src/`` changes.  Every traced run reports every metric
in :data:`PER_LAYER`; a layer the workload never calls reports 0.

Serving metrics are medians over the traced phase's requests (writes for
the ``*.add_ms``/``*.remove_ms`` rows); offline metrics are totals over
the traced sweep.  Derived quantities:

- ``http.transport_ms``: client round trip minus ``ServingApp.handle_raw``
  (socket, event loop and executor hop, which no public function brackets).
- ``http.handle_self_ms``: ``handle_raw`` minus its child spans
  (``parse_query`` and ``HashingService.query``): JSON decode/encode,
  routing and admission.
- ``batcher.wait_ms``: the encode stage (query start to search start)
  minus the time network forwards cover inside it.
- ``service.idmap_ms``: query end minus search end (id map, histograms).
- ``sharded.fanout_self_ms``: ``ShardedIndex.search`` minus its slowest
  shard child.
- ``retrieval.bytes_scanned``: packed code bytes of every shard searched
  times its query rows -- computed from code sizes, not measured traffic.
- ``trace.unattributed_ms``: end-to-end latency (from due time on the
  open loop) not covered by any server-side span: client queueing plus
  transport on the serving path; sweep time outside every stage span on
  the offline path.
"""

from __future__ import annotations

import weakref
from collections import defaultdict

import numpy as np

from perfbench import stats
from perfbench.result import Metric
from perfbench.spans import Patcher, Span, Tracer, covered, overlapping, self_time, spanned

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("http.transport_ms", "ms"),
    ("http.handle_self_ms", "ms"),
    ("http.non200", "count"),
    ("http.parse_ms", "ms"),
    ("service.query_ms", "ms"),
    ("service.idmap_ms", "ms"),
    ("service.add_ms", "ms"),
    ("service.remove_ms", "ms"),
    ("batcher.wait_ms", "ms"),
    ("batcher.rows_per_flush", "rows"),
    ("batcher.deadline_flush_share", "share"),
    ("batcher.flushes", "count"),
    ("encode.forward_ms", "ms"),
    ("encode.rows", "count"),
    ("encode.overlaps", "count"),
    ("model.drifted", "flag"),
    ("sharded.search_ms", "ms"),
    ("sharded.fanout_self_ms", "ms"),
    ("sharded.add_ms", "ms"),
    ("sharded.remove_ms", "ms"),
    ("shard.search_max_ms", "ms"),
    ("shard.search_sum_ms", "ms"),
    ("shard.imbalance", "ratio"),
    ("retrieval.bytes_scanned", "B"),
    ("pool.tasks", "count"),
    ("pool.unbalanced", "count"),
    ("mine.ms", "ms"),
    ("mine.scores", "count"),
    ("denoise.ms", "ms"),
    ("denoise.kept", "count"),
    ("build_q.ms", "ms"),
    ("build_q.nnz", "count"),
    ("train.ms", "ms"),
    ("train.steps", "count"),
    ("train.step_ms", "ms"),
    ("encode_db.ms", "ms"),
    ("encode_db.rows_per_s", "1/s"),
    ("evaluate.ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.get_ms", "ms"),
    ("store.bytes_written", "B"),
    ("store.bytes_read", "B"),
    ("store.hit_ratio.mine", "share"),
    ("store.hit_ratio.denoise", "share"),
    ("store.hit_ratio.build_q", "share"),
    ("store.hit_ratio.train", "share"),
    ("store.hit_ratio.encode", "share"),
    ("store.resume_get_ms", "ms"),
    ("store.resume_bytes_read", "B"),
    ("store.resume_hit_ratio", "share"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead", "ratio"),
)

STORE_STAGES = ("mine", "denoise", "build_q", "train", "encode")


def _rows(x) -> int:
    return int(np.shape(x)[0])


def _arrays_bytes(artifact) -> int:
    if artifact is None:
        return 0
    return int(sum(np.asarray(a).nbytes for a in artifact.arrays.values()))


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every layer's entry points; spans record only while
    ``tracer.enabled``.  Call before building the program's objects, so
    bound methods captured at construction are the wrapped ones."""
    from repro.core import similarity as similarity_module
    from repro.core.hashing_network import HashingNetwork
    from repro.core.mining import ConceptMiner
    from repro.core.similarity_matrix import SparseTopKSimilarity
    from repro.core.trainer import UHSCMTrainer
    from repro.core.uhscm import UHSCM
    from repro.experiments import runner as runner_module
    from repro.pipeline.store import ArtifactStore
    from repro.retrieval.engine import HammingIndex
    from repro.retrieval.sharded import ShardedIndex
    from repro.serving.http import schemas
    from repro.serving.http.app import ServingApp
    from repro.serving.service import HashingService
    from repro.utils.parallel import WorkerPool

    wrap = patcher.wrap
    # serving.http
    wrap(ServingApp, "handle_raw", spanned(
        tracer, "http.handle_raw",
        trace_of=lambda self, method, path, body: tracer.request_ids.get(body)))
    wrap(schemas, "parse_query", spanned(tracer, "http.parse_query"))
    # serving.service
    for name in ("query", "add", "remove"):
        wrap(HashingService, name, spanned(tracer, f"service.{name}"))
    # core.hashing_network (the batcher's forwards and add() encodes)
    wrap(HashingNetwork, "encode", spanned(
        tracer, "encode.forward",
        before=lambda self, images, *a, **k: {"rows": _rows(images)}))
    # retrieval.sharded and its shard children
    for name in ("search", "add", "remove"):
        wrap(ShardedIndex, name, spanned(tracer, f"sharded.{name}"))
    wrap(HammingIndex, "search", spanned(
        tracer, "shard.search",
        before=lambda self, q, *a, **k: {
            "bytes": len(self) * ((self.n_bits + 7) // 8) * _rows(q)}))
    # utils.parallel: count tasks, keep the submitter's span as parent
    def make_submit(orig):
        def submit(self, fn, *args, **kwargs):
            if tracer.enabled:
                tracer.count("pool.tasks")
                if self.backend == "thread":
                    fn = tracer.bind(tracer.current(), fn)
            return orig(self, fn, *args, **kwargs)
        return submit

    closed = weakref.WeakSet()  # close() is idempotent; count each pool once

    def make_close(orig):
        def close(self):
            orig(self)
            if self not in closed:
                closed.add(self)
                pool = self.stats()
                tracer.count("pool.unbalanced",
                             pool["submitted"] - pool["completed"])
        return close

    wrap(WorkerPool, "submit", make_submit)
    wrap(WorkerPool, "close", make_close)
    # vlp / core.mining, core.denoising, core.similarity_matrix
    wrap(ConceptMiner, "mine", spanned(
        tracer, "mine",
        before=lambda self, images, concepts, *a, **k: {
            "scores": _rows(images) * len(concepts)}))
    wrap(similarity_module, "denoise_concepts", spanned(
        tracer, "denoise", after=lambda result: {"kept": result.n_kept}))
    wrap(SparseTopKSimilarity, "from_features", spanned(
        tracer, "build_q", after=lambda q: {"nnz": int(q.data.shape[0])}))
    # core.trainer, core.uhscm, retrieval evaluation
    wrap(UHSCMTrainer, "fit", spanned(
        tracer, "train", after=lambda history: {"steps": sum(history.batches)}))
    wrap(UHSCM, "encode", spanned(
        tracer, "encode_db",
        before=lambda self, images, *a, **k: {"rows": _rows(images)}))
    wrap(runner_module, "evaluate_codes", spanned(tracer, "evaluate"))
    # pipeline.store
    wrap(ArtifactStore, "put", spanned(
        tracer, "store.put", after=lambda art: {"bytes": _arrays_bytes(art)}))
    wrap(ArtifactStore, "get", spanned(
        tracer, "store.get",
        before=lambda self, key, stage=None: {"stage": stage},
        after=lambda art: {"hit": art is not None,
                           "bytes": _arrays_bytes(art)}))


def zero_layers() -> dict[str, Metric]:
    return {name: Metric(0.0, unit) for name, unit in PER_LAYER}


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _med_ms(values: list[float]) -> float:
    return _ms(stats.median(values)) if values else 0.0


def _set(layers: dict[str, Metric], name: str, value: float, note: str = "") -> None:
    layers[name] = Metric(float(value), layers[name].unit, note)


def serving_metrics(layers: dict[str, Metric], spans: list[Span], outcomes,
                    from_due: bool, batcher: dict, drifted: bool) -> None:
    """Fill the serving rows of ``layers`` from one traced phase.

    ``outcomes`` are the phase's client records; ``batcher`` holds the
    deltas of ``EncodeBatcher.stats()`` over the phase.
    """
    by_sid = {s.sid: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    roots = {s.trace: s for s in spans if s.name == "http.handle_raw"}

    def parent_name(s: Span) -> str | None:
        p = by_sid.get(s.parent) if s.parent is not None else None
        return p.name if p is not None else None

    forwards = [s for s in spans if s.name == "encode.forward"]
    query_forwards = [s for s in forwards if parent_name(s) == "service.query"]
    forward_iv = [(s.start, s.end) for s in query_forwards]

    transport, handle_self, parse, query, idmap, wait = [], [], [], [], [], []
    search, fan_self, shard_max, shard_sum, imbalance = [], [], [], [], []
    unattributed = []
    for o in outcomes:
        root = roots.get(o.rid)
        if o.kind != "query" or root is None or not o.ok:
            continue
        rt = o.done - o.sent
        transport.append(rt - root.duration)
        unattributed.append(o.latency(from_due) - root.duration)
        kids = children[root.sid]
        handle_self.append(self_time(root, kids))
        parse += [k.duration for k in kids if k.name == "http.parse_query"]
        for svc in (k for k in kids if k.name == "service.query"):
            query.append(svc.duration)
            for x in (c for c in children[svc.sid] if c.name == "sharded.search"):
                idmap.append(svc.end - x.end)
                stage = x.start - svc.start
                wait.append(stage - covered(svc.start, x.start, forward_iv))
                search.append(x.duration)
                shards = [c.duration for c in children[x.sid]
                          if c.name == "shard.search"]
                if shards:
                    fan_self.append(x.duration - max(shards))
                    shard_max.append(max(shards))
                    shard_sum.append(sum(shards))
                    imbalance.append(max(shards) / (sum(shards) / len(shards)))

    def durations(name: str) -> list[float]:
        return [s.duration for s in spans if s.name == name]

    _set(layers, "http.transport_ms", _med_ms(transport))
    _set(layers, "http.handle_self_ms", _med_ms(handle_self))
    _set(layers, "http.non200", sum(1 for o in outcomes if not o.ok))
    _set(layers, "http.parse_ms", _med_ms(parse))
    _set(layers, "service.query_ms", _med_ms(query))
    _set(layers, "service.idmap_ms", _med_ms(idmap))
    _set(layers, "service.add_ms", _med_ms(durations("service.add")))
    _set(layers, "service.remove_ms", _med_ms(durations("service.remove")))
    _set(layers, "batcher.wait_ms", _med_ms(wait))
    flushes = batcher["flushes"]
    _set(layers, "batcher.flushes", flushes)
    _set(layers, "batcher.rows_per_flush",
         batcher["requests"] / flushes if flushes else 0.0)
    _set(layers, "batcher.deadline_flush_share",
         batcher["deadline_flushes"] / flushes if flushes else 0.0)
    _set(layers, "encode.forward_ms", _med_ms([s.duration for s in query_forwards]))
    _set(layers, "encode.rows", sum(s.attrs["rows"] for s in query_forwards))
    _set(layers, "encode.overlaps", overlapping(forwards))
    _set(layers, "model.drifted", int(drifted))
    _set(layers, "sharded.search_ms", _med_ms(search))
    _set(layers, "sharded.fanout_self_ms", _med_ms(fan_self))
    _set(layers, "sharded.add_ms", _med_ms(durations("sharded.add")))
    _set(layers, "sharded.remove_ms", _med_ms(durations("sharded.remove")))
    _set(layers, "shard.search_max_ms", _med_ms(shard_max))
    _set(layers, "shard.search_sum_ms", _med_ms(shard_sum))
    _set(layers, "shard.imbalance", stats.median(imbalance) if imbalance else 0.0)
    _set(layers, "retrieval.bytes_scanned",
         sum(s.attrs["bytes"] for s in spans if s.name == "shard.search"),
         "computed from code sizes")
    _set(layers, "trace.unattributed_ms", _med_ms(unattributed))


def offline_metrics(layers: dict[str, Metric], sweep: list[Span],
                    cells: list[Span], resume: list[Span]) -> None:
    """Fill the offline rows from the traced cold sweep's spans (``cells``
    are its per-cell root spans) and the traced resume's spans."""

    def total(name: str, spans: list[Span] = sweep) -> float:
        return sum(s.duration for s in spans if s.name == name)

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in sweep if s.name == name)

    _set(layers, "mine.ms", _ms(total("mine")))
    _set(layers, "mine.scores", attr_sum("mine", "scores"))
    _set(layers, "denoise.ms", _ms(total("denoise")))
    kept = [s.attrs["kept"] for s in sweep if s.name == "denoise"]
    _set(layers, "denoise.kept", kept[-1] if kept else 0)
    _set(layers, "build_q.ms", _ms(total("build_q")))
    _set(layers, "build_q.nnz", attr_sum("build_q", "nnz"))
    train_s, steps = total("train"), attr_sum("train", "steps")
    _set(layers, "train.ms", _ms(train_s))
    _set(layers, "train.steps", steps)
    _set(layers, "train.step_ms", _ms(train_s / steps) if steps else 0.0)
    enc_s, rows = total("encode_db"), attr_sum("encode_db", "rows")
    _set(layers, "encode_db.ms", _ms(enc_s))
    _set(layers, "encode_db.rows_per_s", rows / enc_s if enc_s else 0.0)
    _set(layers, "evaluate.ms", _ms(total("evaluate")))
    _set(layers, "store.put_ms", _ms(total("store.put")))
    _set(layers, "store.get_ms", _ms(total("store.get")))
    _set(layers, "store.bytes_written", attr_sum("store.put", "bytes"))
    _set(layers, "store.bytes_read", attr_sum("store.get", "bytes"))
    for stage in STORE_STAGES:
        gets = [s for s in sweep if s.name == "store.get"
                and s.attrs.get("stage") == stage]
        hits = sum(1 for s in gets if s.attrs.get("hit"))
        _set(layers, f"store.hit_ratio.{stage}", hits / len(gets) if gets else 0.0)
    resume_gets = [s for s in resume if s.name == "store.get"]
    _set(layers, "store.resume_get_ms", _ms(total("store.get", resume)))
    _set(layers, "store.resume_bytes_read",
         sum(s.attrs.get("bytes", 0) for s in resume_gets))
    _set(layers, "store.resume_hit_ratio",
         sum(1 for s in resume_gets if s.attrs.get("hit")) / len(resume_gets)
         if resume_gets else 0.0)
    direct = defaultdict(list)
    for s in sweep:
        direct[s.parent].append(s)
    _set(layers, "trace.unattributed_ms",
         _ms(sum(self_time(cell, direct[cell.sid]) for cell in cells)))
