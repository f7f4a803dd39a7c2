"""Load generation over raw loopback sockets.

One connection per request, as the repo's ``ServiceClient`` does, with
the whole request written in one ``sendall``.  The open loop runs in
one thread over a selector with at most ``slots`` connections open; in
the closed loop each caller is a thread that sends its next request as
soon as its previous reply arrived.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field

#: a request still unanswered after this long counts as a timeout
REQUEST_TIMEOUT_S = 10.0

#: the open loop polls instead of sleeping this close to a due time:
#: waking from a sleep can be late by milliseconds on an idle host
SPIN_S = 0.002


@dataclass
class Exchange:
    """One HTTP request/response, timed on the generator's clock."""

    rid: str
    payload: bytes
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    #: generator lateness: sent - max(due, when a connection slot freed)
    lag: float = 0.0
    status: int = 0
    body: dict | None = None
    error: str | None = None
    chunks: list = field(default_factory=list)
    #: what was asked, for the answer check
    question: object = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def ok(self) -> bool:
        """200 only: 206 (degraded), 429, 5xx, timeouts and transport
        errors are failures."""
        return self.error is None and self.status == 200

    def finish(self, now: float) -> None:
        self.done = now
        raw = b"".join(self.chunks)
        self.chunks = []
        head, sep, payload = raw.partition(b"\r\n\r\n")
        try:
            self.status = int(head.split(b" ", 2)[1])
            self.body = json.loads(payload) if sep else None
        except (IndexError, ValueError):
            self.error = self.error or "malformed response"


def _connect(port: int, payload: bytes) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), REQUEST_TIMEOUT_S)
    sock.sendall(payload)
    return sock


def exchange(port: int, rid: str, payload: bytes,
             question: object = None) -> Exchange:
    """One blocking request; ``due`` is the send time."""
    ex = Exchange(rid, payload, question=question)
    ex.due = ex.sent = time.perf_counter()
    try:
        with _connect(port, payload) as sock:
            while True:
                data = sock.recv(1 << 16)
                if not data:
                    break
                ex.chunks.append(data)
    except socket.timeout:
        ex.error = "timeout"
    except OSError as exc:
        ex.error = f"{type(exc).__name__}: {exc}"
    ex.finish(time.perf_counter())
    return ex


def closed_loop(port: int, callers: list, seconds: float,
                on_reply=None) -> tuple[list[Exchange], float]:
    """Run each caller, an iterator of ``(request id, request bytes,
    question)``, until *seconds* have passed; ``on_reply`` sees every
    finished exchange (serialised).  Returns the exchanges and the wall
    time until the last reply.  An exception raised in a caller stops
    the other callers and is raised again here, so a run never ends
    early without failing."""
    end = time.perf_counter() + seconds
    started = time.perf_counter()
    replies: list[list[Exchange]] = [[] for _ in callers]
    lock = threading.Lock()
    errors: list[BaseException] = []

    def call(k: int) -> None:
        try:
            for rid, payload, question in callers[k]:
                if time.perf_counter() >= end or errors:
                    return
                ex = exchange(port, rid, payload, question)
                if on_reply is not None:
                    with lock:
                        on_reply(ex)
                replies[k].append(ex)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=call, args=(k,))
               for k in range(len(callers))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return ([ex for part in replies for ex in part],
            time.perf_counter() - started)


def open_loop(
    port: int, arrivals: list[Exchange], slots: int = 2
) -> list[Exchange]:
    """Send each exchange at its ``due`` time (absolute, perf_counter)
    over at most *slots* concurrent connections; returns them all,
    finished.  A request that finds every slot busy waits, and that
    wait counts in its latency because latency runs from ``due``."""
    selector = selectors.DefaultSelector()
    waiting: deque[Exchange] = deque()
    free_at = [time.perf_counter()] * slots
    active: dict[socket.socket, Exchange] = {}
    upcoming = deque(sorted(arrivals, key=lambda ex: ex.due))

    def release(sock: socket.socket, ex: Exchange, now: float) -> None:
        selector.unregister(sock)
        sock.close()
        del active[sock]
        ex.finish(now)
        free_at.append(now)

    while upcoming or waiting or active:
        now = time.perf_counter()
        while upcoming and upcoming[0].due <= now:
            waiting.append(upcoming.popleft())
        while waiting and free_at:
            ex = waiting.popleft()
            slot_free = free_at.pop(0)
            ex.sent = time.perf_counter()
            ex.lag = ex.sent - max(ex.due, slot_free)
            try:
                sock = _connect(port, ex.payload)
            except OSError as exc:
                ex.error = f"{type(exc).__name__}: {exc}"
                ex.finish(time.perf_counter())
                free_at.append(ex.done)
                continue
            sock.setblocking(False)
            selector.register(sock, selectors.EVENT_READ)
            active[sock] = ex
        now = time.perf_counter()
        timeout = None
        if upcoming and not (waiting and not free_at):
            timeout = upcoming[0].due - now
            timeout = 0.0 if timeout < SPIN_S else timeout - SPIN_S
        if active:
            oldest = min(ex.sent for ex in active.values())
            expiry = max(0.0, oldest + REQUEST_TIMEOUT_S - now)
            timeout = expiry if timeout is None else min(timeout, expiry)
        for key, _ in selector.select(timeout):
            sock = key.fileobj
            ex = active[sock]
            try:
                data = sock.recv(1 << 16)
            except BlockingIOError:
                continue
            except OSError as exc:
                ex.error = f"{type(exc).__name__}: {exc}"
                data = b""
            if data:
                ex.chunks.append(data)
            else:
                release(sock, ex, time.perf_counter())
        now = time.perf_counter()
        for sock, ex in list(active.items()):
            if now - ex.sent > REQUEST_TIMEOUT_S:
                ex.error = "timeout"
                release(sock, ex, now)
    selector.close()
    return arrivals
