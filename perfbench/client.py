"""The benchmark's own load generator: asyncio streams carrying v2 JSON lines.

Two load loops share one result shape:

* :func:`closed_loop` keeps a fixed number of queries outstanding on every
  connection and sends the next query only when a response arrives, so a
  slower daemon receives less load;
* :func:`open_loop` sends on a fixed schedule regardless of responses and
  times each query from when it was *due*, so a stall also charges the
  queries queued behind it.  It also records how late the generator ran.

Every served answer and expected error is kept, indexed by the query's
position in the stream, for the bit-identity check after the timed phase.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from .inputs import QueryStream

#: Outcome codes in :attr:`Served.status` (0: no response recorded).
OK, FAILED = 1, 2

#: How long the load loops wait for outstanding responses after the deadline.
DRAIN_TIMEOUT_S = 10.0

Address = Tuple[str, int]


class Served:
    """Per-position record of what the daemon answered for a query stream."""

    def __init__(self, size: int):
        self.status = np.zeros(size, dtype=np.int8)
        self.answers = np.zeros(size)
        self.errors = np.zeros(size)
        self.sent = np.zeros(size)
        self.received = np.zeros(size)

    def record(self, position: int, payload: Dict[str, Any], now: float) -> None:
        self.received[position] = now
        if payload.get("status") == "ok":
            self.status[position] = OK
            self.answers[position] = payload["answer"]
            self.errors[position] = payload["expected_error"]
        else:
            self.status[position] = FAILED


@dataclass
class Phase:
    """One timed stretch of load: positions ``[first, last)`` of the stream."""

    first: int
    last: int
    started: float
    finished: float
    latencies_ms: np.ndarray
    completed_at: np.ndarray
    failed: int
    late_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    client_cpu_s: float = 0.0

    @property
    def attempted(self) -> int:
        return self.last - self.first

    @property
    def answered(self) -> int:
        return self.attempted - self.failed

    @property
    def qps(self) -> float:
        return self.answered / max(self.finished - self.started, 1e-9)

    @property
    def client_cpu_frac(self) -> float:
        return self.client_cpu_s / max(self.finished - self.started, 1e-9)


async def _connect(address: Address):
    return await asyncio.open_connection(address[0], address[1], limit=1 << 20)


async def control(address: Address, op: str) -> Dict[str, Any]:
    """One control op (``stats``, ``metrics``, ``ping``, ``shutdown``) on its own connection."""
    reader, writer = await _connect(address)
    try:
        writer.write(json.dumps({"op": op, "version": 2}).encode() + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), DRAIN_TIMEOUT_S)
        if not line:
            raise ConnectionError(f"daemon closed the connection during {op!r}")
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def ping_round_trips(address: Address, count: int) -> np.ndarray:
    """``count`` sequential ping round trips on one connection, in ms."""
    reader, writer = await _connect(address)
    line = json.dumps({"op": "ping", "version": 2}).encode() + b"\n"
    times = np.zeros(count)
    try:
        for k in range(count):
            started = time.perf_counter()
            writer.write(line)
            reply = await asyncio.wait_for(reader.readline(), DRAIN_TIMEOUT_S)
            times[k] = (time.perf_counter() - started) * 1000.0
            if json.loads(reply).get("op") != "pong":
                raise ConnectionError(f"unexpected ping reply {reply!r}")
    finally:
        writer.close()
        await writer.wait_closed()
    return times


def _finish(served: Served, first: int, last: int, started: float, origin: np.ndarray,
            client_cpu_s: float) -> Phase:
    window = slice(first, last)
    ok = served.status[window] == OK
    latencies = (served.received[window][ok] - origin[ok]) * 1000.0
    finished = float(served.received[window].max()) if last > first else started
    return Phase(
        first=first,
        last=last,
        started=started,
        finished=max(finished, started),
        latencies_ms=latencies,
        completed_at=served.received[window][ok],
        failed=int((~ok).sum()),
        client_cpu_s=client_cpu_s,
    )


async def closed_loop(
    address: Address,
    stream: QueryStream,
    served: Served,
    first: int,
    *,
    connections: int,
    depth: int,
    seconds: float,
) -> Phase:
    """Keep ``depth`` queries outstanding per connection for ``seconds``.

    Positions are handed out from ``first`` upwards across all connections;
    queries still outstanding at the deadline are drained (not counted as
    late) and any that never answer count as failed timeouts.
    """
    state = {"next": first}
    deadline = time.perf_counter() + seconds

    async def drive() -> None:
        reader, writer = await _connect(address)
        inflight = 0

        def send() -> None:
            nonlocal inflight
            position = state["next"]
            if position >= len(stream):
                return
            state["next"] = position + 1
            served.sent[position] = time.perf_counter()
            writer.write(stream.line(position, position))
            inflight += 1

        try:
            for _ in range(depth):
                send()
            while inflight:
                line = await asyncio.wait_for(reader.readline(), DRAIN_TIMEOUT_S)
                now = time.perf_counter()
                if not line:
                    break
                payload = json.loads(line)
                served.record(int(payload["id"]), payload, now)
                inflight -= 1
                if now < deadline:
                    send()
                    if writer.transport.get_write_buffer_size() > 1 << 16:
                        await writer.drain()
        except (asyncio.TimeoutError, ConnectionError, ValueError):
            pass  # unanswered positions stay unrecorded and count as failed
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    cpu_before = time.process_time()
    started = time.perf_counter()
    await asyncio.gather(*(drive() for _ in range(connections)))
    cpu = time.process_time() - cpu_before
    last = state["next"]
    return _finish(served, first, last, started, served.sent[first:last], cpu)


def open_loop(
    address: Address,
    stream: QueryStream,
    served: Served,
    first: int,
    *,
    rate: float,
    seconds: float,
) -> Phase:
    """Send ``rate`` queries per second on one connection for ``seconds``.

    Latency runs from each query's due time; ``late_ms`` is how far behind
    its schedule the generator sent each query.  The sender and the receiver
    are two threads over one blocking socket: ``time.sleep`` wakes within
    microseconds of the due time, where an event-loop timer rounds every
    wait up to the next millisecond.
    """
    count = min(int(round(rate * seconds)), len(stream) - first)
    sock = socket.create_connection(address)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(seconds + DRAIN_TIMEOUT_S)
    due = np.zeros(count)

    def receive() -> None:
        pending, answered = b"", 0
        try:
            while answered < count:
                chunk = sock.recv(1 << 16)
                now = time.perf_counter()
                if not chunk:
                    return
                *lines, pending = (pending + chunk).split(b"\n")
                for line in lines:
                    payload = json.loads(line)
                    served.record(int(payload["id"]), payload, now)
                answered += len(lines)
        except (OSError, ValueError):
            pass  # unanswered positions count as failed

    cpu_before = time.process_time()
    receiver = threading.Thread(target=receive, daemon=True)
    receiver.start()
    started = time.perf_counter() + 0.005
    try:
        for k in range(count):
            due[k] = started + k / rate
            delay = due[k] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            position = first + k
            served.sent[position] = time.perf_counter()
            sock.sendall(stream.line(position, position))
        receiver.join(DRAIN_TIMEOUT_S)
    finally:
        try:
            sock.shutdown(socket.SHUT_RDWR)  # wakes a receiver still waiting
        except OSError:
            pass
        receiver.join()
        sock.close()
    cpu = time.process_time() - cpu_before
    phase = _finish(served, first, first + count, started, due, cpu)
    phase.late_ms = (served.sent[first:first + count] - due) * 1000.0
    return phase


def counter_values(exposition: str, names: List[str]) -> Dict[str, float]:
    """Sum of every sample of each named family in a Prometheus text body."""
    totals = {name: 0.0 for name in names}
    for line in exposition.splitlines():
        if not line or line.startswith("#"):
            continue
        metric, _, value = line.rpartition(" ")
        family = metric.split("{", 1)[0]
        if family in totals:
            totals[family] += float(value)
    return totals
