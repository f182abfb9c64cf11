"""The ``offline-sweep`` workload: Algorithm 1 through ``ExperimentContext``.

A cold sweep fits UHSCM at every width in :data:`BITS` on the ``cifar10``
world at :data:`SCALE` (sparse top-k Q, :data:`EPOCHS` epochs) with a
fresh context and ``ArtifactStore``, evaluating each cell.  Cold sweeps
repeat, one per :data:`SWEEP_SECONDS` of ``--seconds``; every repeat must
give bit-identical codes.  A new context and a new store object over the last
sweep's directory then resume the sweep from disk; a resumed cell whose
codes are not bit-identical to the cold codes counts as a failed
operation.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
from contextlib import nullcontext

import numpy as np

from perfbench import env, layers, stats
from perfbench.result import Digest, Metric, WorkloadResult
from perfbench.spans import Tracer

DATASET = "cifar10"
SCALE = 0.5
BITS = (32, 64)
SPARSE_TOPK = 256
EPOCHS = 3
METHOD = "UHSCM"
WORK_DIR = env.ROOT / ".perfbench_work"
#: One cold sweep per this many seconds of ``--seconds`` (at least one):
#: a sweep takes 8-10 s on a shared 2-vCPU host.  The count follows from
#: ``--seconds`` alone, not from measured speed, so every run of a seed
#: does the same work.
SWEEP_SECONDS = 10.0


class Sweep:
    """One context over one store directory; its set-up time is recorded."""

    def __init__(self, seed: int, store_dir: str, setups: list[float]) -> None:
        from repro.experiments.runner import ExperimentContext
        from repro.pipeline import ArtifactStore

        store = ArtifactStore(store_dir)
        t0 = time.perf_counter()
        self.ctx = ExperimentContext(DATASET, scale=SCALE, seed=seed,
                                     epochs=EPOCHS, store=store,
                                     sparse_topk=SPARSE_TOPK,
                                     workers=env.nproc())
        setups.append(time.perf_counter() - t0)

    def cold(self, tracer: Tracer | None):
        """Fit and evaluate every cell; returns ``(codes, maps, cell_s,
        sweep_s, cell_spans)``."""
        codes, maps, cell_s, cells = [], [], [], []
        t0 = time.perf_counter()
        for bits in BITS:
            scope = (tracer.span("offline.cell", bits=bits)
                     if tracer is not None else nullcontext())
            with scope as cell:
                c0 = time.perf_counter()
                fit = self.ctx.fit(METHOD, bits)
                maps.append(self.ctx.evaluate(fit).map)
                cell_s.append(time.perf_counter() - c0)
            if cell is not None:
                cells.append(cell)
            codes.append((fit.query_codes, fit.database_codes))
        return codes, maps, cell_s, time.perf_counter() - t0, cells

    def resume(self):
        """Replay every cell's codes; returns ``(codes, seconds)``."""
        t0 = time.perf_counter()
        fits = [self.ctx.fit(METHOD, bits) for bits in BITS]
        seconds = time.perf_counter() - t0
        return [(f.query_codes, f.database_codes) for f in fits], seconds


def _same(cell, other) -> bool:
    """Bit-identity of two cells' (query codes, database codes)."""
    return all(np.array_equal(x, y) for x, y in zip(cell, other))


def run_offline(seed: int, seconds: float, tracer: Tracer | None) -> WorkloadResult:
    """Cold sweeps for ``seconds``, then one resume.  A traced run spends
    half of ``seconds`` on untraced sweeps and then runs one traced sweep,
    for ``trace.overhead``."""
    result = WorkloadResult(layers=layers.zero_layers() if tracer else {})
    threads_before = env.live_threads()
    WORK_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR)
    setups: list[float] = []
    sweeps: list[tuple] = []  # (codes, maps, cell_s, sweep_s, cell spans)

    def cold_sweeps(budget: float, traced: bool) -> list[tuple]:
        """Run one cold sweep per :data:`SWEEP_SECONDS` of ``budget``
        (at least one)."""
        done: list[tuple] = []
        for _ in range(max(1, int(budget // SWEEP_SECONDS))):
            if sweeps:
                shutil.rmtree(f"{work}/cold{len(sweeps) - 1}", ignore_errors=True)
            sweep = Sweep(seed, f"{work}/cold{len(sweeps)}", setups)
            if traced:
                tracer.enabled = True
            done.append(sweep.cold(tracer if traced else None))
            if traced:
                tracer.enabled = False
            sweeps.append(done[-1])
            del sweep
            gc.collect()
        return done

    try:
        if tracer is None:
            untraced = cold_sweeps(seconds, False)
        else:
            untraced = cold_sweeps(seconds / 2, False)
            tracer.take()
            # One traced sweep: the per-layer totals are per sweep.
            traced = cold_sweeps(0.0, True)
            sweep_spans = tracer.take()
            cells = [cell for t in traced for cell in t[4]]
        codes, maps = sweeps[0][0], sweeps[0][1]
        for repeat in sweeps[1:]:
            result.attempted += len(BITS)
            for cell, other in zip(codes, repeat[0]):
                if not _same(cell, other):
                    result.failures["cold_not_deterministic"] += 1
                    result.wrong += 1
        warm = Sweep(seed, f"{work}/cold{len(sweeps) - 1}", setups)
        if tracer is not None:
            tracer.enabled = True
        warm_codes, resume_s = warm.resume()
        if tracer is not None:
            tracer.enabled = False
            resume_spans = tracer.take()
        del warm
        gc.collect()
        while len(setups) < 3:
            # setup_s is a median of at least three in every run.
            Sweep(seed, f"{work}/extra", setups)
            gc.collect()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result.attempted += 2 * len(BITS)
    for cold_cell, warm_cell in zip(codes, warm_codes):
        if not _same(cold_cell, warm_cell):
            result.failures["resume_not_bit_identical"] += 1
            result.wrong += 1
    # The teardown check is one operation; any leaked thread fails it.
    leaked = env.leaked_threads(threads_before)
    result.attempted += 1
    if leaked:
        result.failures["teardown_leak"] += 1
        result.notes.append(f"teardown: threads alive after the sweep: {leaked}")

    result.metrics["setup_s"] = Metric(stats.median(setups), "s",
                                       f"median of {len(setups)} set-ups")
    result.metrics["peak_rss_mb"] = Metric(env.peak_rss_mb(), "MB")
    # Per sweep, the mean cell: a median over cells of two widths would
    # jump between the two widths' clusters.
    sweep_times = [s[3] for s in untraced]
    result.metrics["p50_ms"] = Metric(
        stats.median([float(np.mean(s[2])) for s in untraced]) * 1e3, "ms",
        f"median over {len(untraced)} untraced cold sweeps of the mean cell "
        f"(fit and evaluate)")
    result.metrics["throughput_per_s"] = Metric(
        len(BITS) * len(untraced) / sum(sweep_times), "1/s",
        "cold cells per second")
    sweep_s = stats.median(sweep_times)
    result.named["sweep_s"] = Metric(
        sweep_s, "s", f"cold fit + evaluate, all cells; median of "
        f"{len(sweep_times)} sweeps")
    result.named["resume_s"] = Metric(resume_s, "s", "replay all cells' codes from disk")
    result.named["map"] = Metric(float(np.mean(maps)), "mAP",
                                 "mean over cells; higher is better")
    for bits, value in zip(BITS, maps):
        result.named[f"map_{bits}bit"] = Metric(value, "mAP")
    digest = Digest()
    for cell in codes:
        digest.add(*cell)
    result.digests.update(codes=digest.hexdigest(),
                          maps=",".join(repr(m) for m in maps))
    result.provenance.update(workers=env.nproc(), dataset=DATASET, scale=SCALE,
                             bits=list(BITS), sparse_topk=SPARSE_TOPK,
                             epochs=EPOCHS)
    if tracer is not None:
        layers.offline_metrics(result.layers, sweep_spans, cells, resume_spans)
        result.layers["pool.tasks"] = Metric(float(tracer.counts["pool.tasks"]), "count")
        result.layers["pool.unbalanced"] = Metric(
            float(tracer.counts["pool.unbalanced"]), "count")
        traced_s = stats.median([t[3] for t in traced])
        result.layers["trace.overhead"] = Metric(traced_s / sweep_s, "ratio")
    return result

