"""Micro-batching queue for online encode requests.

Online serving receives queries a few rows at a time, but the hashing
network is much cheaper per row when it runs one forward over many rows
(PR 2's vectorized engine).  :class:`EncodeBatcher` bridges the two with
**idle flushing**: ``submit_many()`` enqueues a request's rows under one
lock hold and returns one :class:`EncodeTicket` per row; a caller waiting
on a ticket runs the next forward itself whenever none is running, taking
the queue in FIFO order up to ``max_batch`` rows.  Rows that arrive while
a forward runs wait in the queue and ride the next one.  At low load a
request pays one forward; under load the batch grows by itself.  There is
no timer, no clock and no flusher thread.

The batcher follows the encoder's dtype policy: pending rows are stacked
directly in the network's training dtype (``float32`` engines never pay a
float64 round trip on the hot path).

Failure isolation (PR 7): a batch forward that raises must not take every
co-batched caller down with it, and above all must never leave a ticket
permanently unresolved.  When the batched forward fails, the flush re-runs
each row as its own one-row forward: rows that succeed resolve normally,
rows that keep failing resolve to a **typed error** (a
:class:`~repro.errors.ReproError`; foreign exceptions are wrapped in
:class:`~repro.errors.TransientError`) which :meth:`EncodeTicket.result`
raises to exactly that caller.  The forward consults the batcher's
:class:`~repro.utils.faults.FaultInjector` at the ``encode.forward`` point.

Concurrency: the batcher is **thread-safe**, and at most one forward runs
at a time, outside the lock.  Queue, tickets and counters live under one
:class:`threading.Condition`; the caller that finishes a forward resolves
its tickets under that lock and wakes every waiter, one of which claims
the next batch.
"""

from __future__ import annotations

import threading
from collections import Counter

import numpy as np

from repro.errors import (
    ConfigurationError,
    OverloadedError,
    ReproError,
    ShapeError,
    TransientError,
)
from repro.utils.faults import NULL_INJECTOR, FaultInjector


class EncodeTicket:
    """Handle to one submitted row; resolves when its batch is forwarded.

    A ticket resolves to either a code row or a typed error — never to
    nothing: ``result()`` runs forwards until this row's has run, so a
    caller can never hang on its own request.
    """

    __slots__ = ("_batcher", "_code", "_error", "_done")

    def __init__(self, batcher: "EncodeBatcher") -> None:
        self._batcher = batcher
        self._code: np.ndarray | None = None
        self._error: BaseException | None = None
        self._done = False

    @property
    def ready(self) -> bool:
        """Whether the batch holding this row has already been forwarded."""
        return self._done

    @property
    def failed(self) -> bool:
        """Whether this row resolved to an error."""
        return self._done and self._error is not None

    def result(self) -> np.ndarray:
        """The ±1 code row, running forwards until this row's has run.

        Raises the typed error this row resolved to, if its encode
        failed — only this caller sees it; co-batched rows that encoded
        fine resolve normally.
        """
        self._batcher._run_until(self)
        if self._error is not None:
            raise self._error
        assert self._code is not None
        return self._code


class EncodeBatcher:
    """Coalesce concurrent encode requests into batched forwards.

    Parameters
    ----------
    encoder:
        Anything with an ``encode(matrix) -> codes`` method (a
        :class:`~repro.core.hashing_network.HashingNetwork`, a fitted
        UHSCM, any baseline) or a bare callable with that signature.
    max_batch:
        Most rows one forward takes from the queue.
    max_pending:
        Bound on queued rows: a ``submit_many`` that would push the queue
        past it raises :class:`~repro.errors.OverloadedError` and enqueues
        nothing.  ``None`` (default) leaves the queue unbounded.
    faults:
        :class:`~repro.utils.faults.FaultInjector` consulted at the
        ``encode.forward`` point before every network forward.
    """

    def __init__(
        self,
        encoder,
        max_batch: int = 256,
        max_pending: int | None = None,
        faults: FaultInjector = NULL_INJECTOR,
    ) -> None:
        if max_batch <= 0:
            raise ConfigurationError(f"max_batch must be positive: {max_batch}")
        self._encode = encoder.encode if hasattr(encoder, "encode") else encoder
        #: Stack pending rows straight into the engine's training dtype.
        self._dtype = np.dtype(getattr(encoder, "dtype", np.float64))
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.faults = faults
        self._cond = threading.Condition()
        self._pending: list[tuple[np.ndarray, EncodeTicket]] = []
        self._running = False
        self.requests = 0
        self.flushes = 0
        self.flush_failures = 0
        self.isolation_flushes = 0
        self.poisoned = 0
        self.flush_sizes: Counter[int] = Counter()

    # -- queue ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._cond:
            return len(self._pending)

    def submit_many(self, items: np.ndarray) -> list[EncodeTicket]:
        """Enqueue a request's rows (first axis = items) under one lock hold.

        Returns one ticket per row.  The whole request is rejected up
        front — nothing enqueued — when its item shape does not match the
        pending rows' (one bad request must not poison every other
        caller's batch) or when it would exceed ``max_pending``.
        """
        items = np.asarray(items, dtype=self._dtype)
        if items.ndim < 2:
            raise ShapeError(
                f"submit_many takes a batch of query items (first axis = "
                f"items), got shape {items.shape}"
            )
        with self._cond:
            if self._pending and items.shape[1:] != self._pending[0][0].shape:
                raise ShapeError(
                    f"query item shape {items.shape[1:]} does not match the "
                    f"pending batch's {self._pending[0][0].shape}"
                )
            if (self.max_pending is not None
                    and len(self._pending) + len(items) > self.max_pending):
                raise OverloadedError(
                    f"query of {len(items)} row(s) would exceed the pending "
                    f"bound ({len(self._pending)} pending, "
                    f"max_pending={self.max_pending})"
                )
            tickets = [EncodeTicket(self) for _ in range(len(items))]
            self._pending.extend(zip(items, tickets))
            self.requests += len(items)
        return tickets

    def flush(self) -> int:
        """Forward every row queued so far; returns how many there were.

        Returns once each of those rows has resolved (rows are forwarded
        in FIFO order, so that is when the last one has).
        """
        with self._cond:
            if not self._pending:
                return 0
            queued, last = len(self._pending), self._pending[-1][1]
        self._run_until(last)
        return queued

    def _run_until(self, ticket: EncodeTicket) -> None:
        """Run forwards, one at a time, until ``ticket`` resolves.

        While another caller's forward runs, wait for it; otherwise claim
        the head of the queue and forward it outside the lock.  A ticket
        that is neither resolved nor in a running forward is still queued,
        so the claim is never empty.
        """
        while True:
            with self._cond:
                while self._running and not ticket._done:
                    self._cond.wait()
                if ticket._done:
                    return
                batch = self._pending[:self.max_batch]
                del self._pending[:self.max_batch]
                self._running = True
            try:
                outcomes, failed = self._encode_batch(batch)
            except BaseException as exc:  # e.g. KeyboardInterrupt mid-forward
                outcomes, failed = [(None, self._typed(exc))] * len(batch), True
                raise
            finally:
                with self._cond:
                    for (_, queued), (code, error) in zip(batch, outcomes):
                        queued._code, queued._error = code, error
                        queued._done = True
                    self.flushes += 1
                    self.flush_sizes[len(batch)] += 1
                    if failed:
                        self.flush_failures += 1
                        self.poisoned += sum(
                            error is not None for _, error in outcomes)
                        if len(batch) > 1:
                            self.isolation_flushes += 1
                    self._running = False
                    self._cond.notify_all()

    def _forward(self, matrix: np.ndarray) -> np.ndarray:
        """One guarded network forward (the ``encode.forward`` fault point)."""
        self.faults.check("encode.forward")
        return self._encode(matrix)

    @staticmethod
    def _typed(exc: BaseException) -> BaseException:
        """The error a poisoned ticket resolves to: always a ReproError."""
        if isinstance(exc, ReproError):
            return exc
        typed = TransientError(f"encode failed: {exc!r}")
        typed.__cause__ = exc
        return typed

    def _encode_batch(self, batch) -> tuple[list, bool]:
        """Forward one claimed batch: ``(code, error)`` per row, plus
        whether the batched forward failed.

        A failing batched forward falls back to one-row forwards so a
        poisoned row fails alone: healthy co-batched rows resolve
        normally, each failing row resolves to a typed error.
        """
        try:
            codes = self._forward(np.stack([item for item, _ in batch]))
            if np.asarray(codes).shape[0] != len(batch):
                raise ShapeError(
                    f"encoder returned {np.asarray(codes).shape[0]} rows "
                    f"for a {len(batch)}-row batch"
                )
            return [(code, None) for code in codes], False
        except Exception as exc:
            if len(batch) == 1:
                return [(None, self._typed(exc))], True
        return [self._encode_row(item) for item, _ in batch], True

    def _encode_row(self, item: np.ndarray) -> tuple:
        """One isolated one-row forward: ``(code, None)`` or ``(None, error)``."""
        try:
            return self._forward(item[None])[0], None
        except Exception as exc:
            return None, self._typed(exc)

    # -- reporting --------------------------------------------------------------

    def stats(self) -> dict:
        """Counters for ``HashingService.stats()`` / the serve CLI.

        ``deadline_flushes`` is always 0: the batcher has no deadline, and
        the key stays for readers of the older stats layout.
        """
        with self._cond:
            return {
                "requests": self.requests,
                "flushes": self.flushes,
                "deadline_flushes": 0,
                "flush_failures": self.flush_failures,
                "isolation_flushes": self.isolation_flushes,
                "poisoned": self.poisoned,
                "pending": len(self._pending),
                "max_batch": self.max_batch,
                "flush_sizes": {
                    int(size): int(count)
                    for size, count in sorted(self.flush_sizes.items())
                },
            }
