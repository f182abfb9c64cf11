"""Keep-alive HTTP clients and the open- and closed-loop load generators.

All load comes from this process: at most two client threads, each owning
one keep-alive connection.  Response bodies are kept as raw bytes and
decoded only after the measured window closes.
"""

from __future__ import annotations

import http.client
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

#: A request without a response after this long counts as failed.
TIMEOUT_S = 30.0

HEADERS = {"Content-Type": "application/json"}


@dataclass
class Outcome:
    """One request as the client saw it (times from ``perf_counter``)."""

    rid: int
    kind: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int | None = None
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status == 200

    def latency(self, from_due: bool) -> float:
        """Seconds from due time (open loop) or send time to the response."""
        return self.done - (self.due if from_due else self.sent)


class Connection:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=TIMEOUT_S)

    def post(self, outcome: Outcome, path: str, body: bytes) -> Outcome:
        outcome.sent = time.perf_counter()
        try:
            self._conn.request("POST", path, body=body, headers=HEADERS)
            response = self._conn.getresponse()
            outcome.body = response.read()
            outcome.status = response.status
        except (OSError, http.client.HTTPException):
            # No response: status stays None and the request counts as failed.
            self._conn.close()
            self._conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                    timeout=TIMEOUT_S)
        outcome.done = time.perf_counter()
        return outcome

    def close(self) -> None:
        self._conn.close()


def open_loop(conns: Sequence[Connection], bodies: Sequence[bytes],
              due: Sequence[float], rid0: int = 0,
              on_send: Callable[[int, bytes], None] | None = None,
              lead_s: float = 0.05) -> list[Outcome]:
    """Send ``bodies[i]`` as ``POST /query`` at ``due[i]`` seconds after start.

    Each connection takes the next request in due order as soon as it is
    free and sleeps until that request is due.  When every connection is
    busy the request waits; its latency still counts from its due time,
    so a stall shows on every request queued behind it.
    """
    outcomes = [Outcome(rid0 + i, "query", 0.0) for i in range(len(bodies))]
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + lead_s

    def drive(conn: Connection) -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(bodies):
                return
            outcome = outcomes[i]
            outcome.due = start + due[i]
            wait = outcome.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            if on_send is not None:
                on_send(outcome.rid, bodies[i])
            conn.post(outcome, "/query", bodies[i])

    run_threads(drive, conns)
    return outcomes


def run_threads(target: Callable[[Connection], None],
                conns: Sequence[Connection]) -> None:
    """Run ``target(conn)`` on one thread per connection and join them."""
    errors: list[BaseException] = []

    def guarded(conn: Connection) -> None:
        try:
            target(conn)
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(conn,),
                                name=f"perfbench-client-{i}")
               for i, conn in enumerate(conns)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
