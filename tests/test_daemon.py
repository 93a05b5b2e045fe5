"""Asyncio integration tests for the serving daemon.

Every test runs a real :class:`ServingDaemon` on an ephemeral port inside its
own event loop and talks to it over actual sockets — coalescing, admission
control, the degradation ladder and graceful shutdown are exercised as a
client would see them, not via private state.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core.spec import SynopsisSpec
from repro.datasets import generate_sensor_readings
from repro.exceptions import SynopsisError
from repro.service import (
    PROTOCOL_VERSION,
    BatchQueryEngine,
    DaemonConfig,
    LoadgenClient,
    QueryRequest,
    ServingDaemon,
    SynopsisStore,
    generate_query_mix,
    run_loadgen,
    stream_rng,
)
from repro.service.loadgen import requests_from_batch

DOMAIN = 64


@pytest.fixture(scope="module")
def model():
    return generate_sensor_readings(DOMAIN, seed=11)


@pytest.fixture
def spec():
    return SynopsisSpec(kind="histogram", budget=8, metric="sse")


@pytest.fixture
def daemon_factory(model, spec, tmp_path):
    """Build a daemon over a fresh store; targets default + a wavelet sibling."""

    def make(config=None, targets=None):
        store = SynopsisStore(tmp_path / "store")
        targets = targets or {
            "default": spec,
            "wave": SynopsisSpec(kind="wavelet", budget=6, metric="sse"),
        }
        daemon = ServingDaemon(model, store, targets, config=config,
                               default_target="default")
        return daemon, store

    return make


def run(coroutine):
    return asyncio.run(coroutine)


async def _with_daemon(daemon, body):
    host, port = await daemon.start(port=0)
    try:
        return await body(host, port)
    finally:
        await daemon.stop()


class TestLifecycleAndOps:
    def test_binds_ephemeral_port_and_answers_ping(self, daemon_factory):
        daemon, _ = daemon_factory()

        async def body(host, port):
            assert daemon.address == (host, port)
            assert port != 0
            client = await LoadgenClient.connect(host, port)
            try:
                pong = await client.round_trip({"op": "ping"})
            finally:
                await client.close()
            assert pong == {"op": "pong", "version": PROTOCOL_VERSION}

        run(_with_daemon(daemon, body))

    def test_info_lists_targets_and_limits(self, daemon_factory):
        daemon, _ = daemon_factory()

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                info = await client.round_trip({"op": "info"})
            finally:
                await client.close()
            assert info["version"] == PROTOCOL_VERSION
            assert info["default_target"] == "default"
            assert set(info["targets"]) == {"default", "wave"}
            assert info["targets"]["default"]["domain_size"] == DOMAIN
            assert info["targets"]["wave"]["kind"] == "wavelet"
            assert info["max_pending"] == daemon.config.max_pending

        run(_with_daemon(daemon, body))

    def test_stats_op_reports_server_and_store_counters(self, daemon_factory):
        daemon, _ = daemon_factory()

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                await client.query(QueryRequest.point("q", 3))
                stats = await client.round_trip({"op": "stats"})
            finally:
                await client.close()
            assert stats["stats"]["queries_answered"] == 1
            assert stats["stats"]["engine_batches"] == 1
            assert stats["store"]["builds"] == 2  # both targets warmed

        run(_with_daemon(daemon, body))

    def test_sweep_targets_are_rejected_at_construction(self, daemon_factory, spec):
        with pytest.raises(SynopsisError, match="sweep"):
            daemon_factory(targets={"sweep": spec.with_budget((4, 8))})

    def test_answers_are_bit_identical_to_the_direct_engine(self, daemon_factory,
                                                            model, spec):
        daemon, store = daemon_factory()

        async def body(host, port):
            batch = generate_query_mix(DOMAIN, 60, seed=5)
            requests = requests_from_batch(batch, prefix="t")
            client = await LoadgenClient.connect(host, port)
            try:
                got = [await client.query(request) for request in requests]
            finally:
                await client.close()
            return batch, got

        batch, got = run(_with_daemon(daemon, body))
        synopsis = store.get_or_build(model, spec)
        engine = BatchQueryEngine.from_model(synopsis, model, spec.metric)
        expected = engine.answer(batch)
        expected_errors = engine.attribute_errors(batch)
        assert all(response.ok for response in got)
        assert np.array_equal([r.answer for r in got], expected)
        assert np.array_equal([r.expected_error for r in got], expected_errors)


class TestCoalescing:
    def test_concurrent_queries_share_engine_calls(self, daemon_factory):
        daemon, _ = daemon_factory(config=DaemonConfig(window_ms=20.0))

        async def body(host, port):
            async def one(item):
                client = await LoadgenClient.connect(host, port)
                try:
                    return await client.query(QueryRequest.point(f"q{item}", item))
                finally:
                    await client.close()

            responses = await asyncio.gather(*(one(item % DOMAIN) for item in range(40)))
            assert all(response.ok for response in responses)

        run(_with_daemon(daemon, body))
        # Strictly fewer engine calls than queries is the whole point of the
        # micro-batching window.
        assert daemon.stats()["queries_answered"] == 40
        assert daemon.stats()["engine_batches"] < 40
        assert daemon.stats()["coalesced_queries"] > 0
        assert daemon.stats()["largest_batch"] > 1

    def test_full_window_flushes_early_at_max_batch(self, daemon_factory):
        daemon, _ = daemon_factory(
            config=DaemonConfig(window_ms=10_000.0, max_batch=4)
        )

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                for i in range(4):
                    await client.send(QueryRequest.point(i, i).to_dict())
                replies = [await client.recv() for _ in range(4)]
            finally:
                await client.close()
            # The 10-second window never fired; four queries hit max_batch
            # and flushed immediately as one engine call.
            assert {reply["status"] for reply in replies} == {"ok"}

        run(_with_daemon(daemon, body))
        assert daemon.stats()["engine_batches"] == 1
        assert daemon.stats()["largest_batch"] == 4

    def test_shutdown_drains_an_armed_window(self, daemon_factory):
        daemon, _ = daemon_factory(config=DaemonConfig(window_ms=10_000.0))

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                await client.send(QueryRequest.point("pending", 1).to_dict())
                # Give the dispatcher a beat to admit and arm the window,
                # then stop: the drain must answer the parked query rather
                # than wait out the 10-second timer.
                await asyncio.sleep(0.05)
                await daemon.stop()
                reply = await client.recv()
            finally:
                await client.close()
            assert reply["status"] == "ok"
            assert reply["id"] == "pending"

        run(_with_daemon(daemon, body))
        assert daemon.stats()["drained_queries"] == 1
        assert daemon.stats()["queries_answered"] == 1


class TestAdaptiveWindow:
    """A lone query flushes on the next loop turn once waiting stops paying."""

    WINDOW_S = 0.2

    def test_sequential_queries_skip_the_window_and_concurrent_ones_coalesce(
        self, daemon_factory
    ):
        daemon, _ = daemon_factory(config=DaemonConfig(window_ms=self.WINDOW_S * 1000))

        async def body(host, port):
            loop = asyncio.get_running_loop()
            waits = []
            client = await LoadgenClient.connect(host, port)
            try:
                for item in range(10):
                    started = loop.time()
                    response = await client.query(QueryRequest.point(f"s{item}", item))
                    waits.append(loop.time() - started)
                    assert response.ok
            finally:
                await client.close()
            sequential = daemon.stats()

            async def one(item):
                concurrent = await LoadgenClient.connect(host, port)
                try:
                    return await concurrent.query(QueryRequest.point(f"c{item}", item))
                finally:
                    await concurrent.close()

            responses = await asyncio.gather(*(one(item) for item in range(40)))
            assert all(response.ok for response in responses)
            return waits, sequential, daemon.stats()

        waits, sequential, final = run(_with_daemon(daemon, body))
        # The target's first window arms the timer; every later lone query
        # follows a singleton flush and leaves on the next loop turn.
        assert waits[0] >= self.WINDOW_S * 0.9
        assert max(waits[1:]) < self.WINDOW_S / 4, waits
        assert sequential["engine_batches"] == 10
        assert sequential["largest_batch"] == 1
        # Forty clients at once still share flushes: the first flush of two
        # or more puts the target back on the window_ms timer.
        assert final["queries_answered"] - sequential["queries_answered"] == 40
        assert final["engine_batches"] - sequential["engine_batches"] < 40
        assert final["largest_batch"] > 1

    def test_shutdown_answers_a_query_parked_in_a_next_turn_window(
        self, daemon_factory, monkeypatch
    ):
        daemon, _ = daemon_factory(config=DaemonConfig(window_ms=50.0))
        enqueue = daemon._enqueue

        async def body(host, port):
            parked = asyncio.get_running_loop().create_future()

            def wake_the_test_then_enqueue(target, request, connection):
                # Waking the test before the window is scheduled puts its
                # stop() ahead of the next-turn flush in the loop's queue.
                if request.id == "parked":
                    parked.set_result(None)
                enqueue(target, request, connection)

            monkeypatch.setattr(daemon, "_enqueue", wake_the_test_then_enqueue)
            client = await LoadgenClient.connect(host, port)
            try:
                # A singleton flush first, so the next window is a next-turn one.
                assert (await client.query(QueryRequest.point("first", 1))).ok
                await client.send(QueryRequest.point("parked", 2).to_dict())
                await parked  # awaited directly: a wait_for would add loop turns
                window = daemon._flush_handles["default"]
                await daemon.stop()
                reply = await asyncio.wait_for(client.recv(), timeout=5.0)
            finally:
                await client.close()
            return window, reply

        window, reply = run(_with_daemon(daemon, body))
        assert not isinstance(window, asyncio.TimerHandle)
        assert window.cancelled()  # the drain answered it, not the callback
        assert reply["status"] == "ok" and reply["id"] == "parked"
        assert daemon.stats()["drained_queries"] == 1
        assert daemon.stats()["engine_batches"] == 2


class TestWritePath:
    """Answers leave from the flush: no per-query task, bounded buffers."""

    def test_parked_queries_add_no_tasks(self, daemon_factory):
        from repro.telemetry import parse_prometheus_text

        daemon, _ = daemon_factory(config=DaemonConfig(window_ms=10_000.0))

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                await client.round_trip({"op": "ping"})  # its handler is running
                before = len(asyncio.all_tasks())
                for item in range(32):
                    await client.send(QueryRequest.point(f"p{item}", item).to_dict())
                # Lines are dispatched in order, so the scrape's reply comes
                # after all 32 queries were admitted into the open window.
                scrape = await client.round_trip({"op": "metrics"})
                during = len(asyncio.all_tasks())
                await daemon.stop()
                replies = [await asyncio.wait_for(client.recv(), 5.0) for _ in range(32)]
            finally:
                await client.close()
            families = parse_prometheus_text(scrape["body"])
            pending = families["repro_daemon_pending_queries"].samples[0][2]
            return before, during, pending, replies

        before, during, pending, replies = run(_with_daemon(daemon, body))
        assert pending == 32
        assert during == before
        assert sorted(reply["id"] for reply in replies) == sorted(f"p{i}" for i in range(32))
        assert {reply["status"] for reply in replies} == {"ok"}
        assert daemon.stats()["engine_batches"] == 1

    def test_a_client_that_never_reads_is_throttled_and_others_are_served(
        self, daemon_factory, model, spec
    ):
        import socket

        daemon, store = daemon_factory()
        sent = 5000
        # Backpressure starts at the transport's 64 KiB high-water mark; on
        # top of it sit at most one line and one flush of the in-flight cap.
        bound = 64 * 1024 + 2 * 1024 * daemon.config.max_inflight_per_client

        async def body(host, port):
            loop = asyncio.get_running_loop()
            # Small socket buffers on both ends, so the kernel cannot absorb
            # the unread answers and the daemon's own buffer has to hold them.
            raw = socket.socket()
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            raw.setblocking(False)
            await loop.sock_connect(raw, (host, port))
            _, silent = await asyncio.open_connection(sock=raw)
            try:
                while not daemon._connections:
                    await asyncio.sleep(0.001)
                (connection,) = daemon._connections
                connection.writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                )
                silent.write(b"".join(
                    (QueryRequest.point(f"x{i}", i % DOMAIN).to_json() + "\n").encode()
                    for i in range(sent)
                ))
                buffered = []

                def sample():
                    buffered.append(connection.writer.transport.get_write_buffer_size())

                await asyncio.sleep(0.2)
                batch = generate_query_mix(DOMAIN, 100, seed=8)
                client = await LoadgenClient.connect(host, port)
                try:
                    got = []
                    for request in requests_from_batch(batch, prefix="b"):
                        got.append(await client.query(request))
                        sample()
                finally:
                    await client.close()
                await asyncio.sleep(0.2)
                sample()
                read = daemon.stats()["requests"]
            finally:
                silent.transport.abort()
            return batch, got, buffered, read

        batch, got, buffered, read = run(_with_daemon(daemon, body))
        assert max(buffered) <= bound, (max(buffered), bound)
        assert buffered[-1] > 0  # the silent client's answers are waiting
        assert read < sent + len(got), "the daemon kept reading a client that never reads"
        synopsis = store.get_or_build(model, spec)
        engine = BatchQueryEngine.from_model(synopsis, model, spec.metric)
        assert all(response.ok for response in got)
        assert np.array_equal([r.answer for r in got], engine.answer(batch))
        assert np.array_equal([r.expected_error for r in got], engine.attribute_errors(batch))
        assert daemon.stats()["internal_errors"] == 0

    def test_an_answer_for_a_departed_client_is_dropped_quietly(
        self, daemon_factory, caplog
    ):
        daemon, _ = daemon_factory(config=DaemonConfig(window_ms=100.0))

        async def body(host, port):
            departed = await LoadgenClient.connect(host, port)
            await departed.send(QueryRequest.point("gone", 1).to_dict())
            await departed.close()
            await asyncio.sleep(0.3)  # the window flushes after the close
            client = await LoadgenClient.connect(host, port)
            try:
                return await client.query(QueryRequest.point("here", 2))
            finally:
                await client.close()

        with caplog.at_level("WARNING"):
            response = run(_with_daemon(daemon, body))
        assert response.ok
        stats = daemon.stats()
        assert stats["queries_answered"] == 2
        assert stats["engine_batches"] == 2
        assert stats["internal_errors"] == 0
        assert not [record for record in caplog.records if record.levelname in ("WARNING", "ERROR")
                    and record.name == "asyncio"]


class TestAdmissionControl:
    def test_pending_cap_returns_overloaded_not_a_hang(self, daemon_factory):
        daemon, _ = daemon_factory(
            config=DaemonConfig(window_ms=200.0, max_pending=5,
                                max_inflight_per_client=1000)
        )

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                for i in range(20):
                    await client.send(QueryRequest.point(i, i % DOMAIN).to_dict())
                replies = [
                    await asyncio.wait_for(client.recv(), timeout=5.0)
                    for _ in range(20)
                ]
            finally:
                await client.close()
            return replies

        replies = run(_with_daemon(daemon, body))
        statuses = [reply["status"] for reply in replies]
        assert statuses.count("overloaded") == 15
        assert statuses.count("ok") == 5
        for reply in replies:
            if reply["status"] == "overloaded":
                assert "pending" in reply["detail"]
        assert daemon.stats()["overloaded"] == 15

    def test_per_client_inflight_cap(self, daemon_factory):
        daemon, _ = daemon_factory(
            config=DaemonConfig(window_ms=200.0, max_inflight_per_client=3,
                                max_pending=1000)
        )

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                for i in range(10):
                    await client.send(QueryRequest.point(i, i % DOMAIN).to_dict())
                replies = [
                    await asyncio.wait_for(client.recv(), timeout=5.0)
                    for _ in range(10)
                ]
            finally:
                await client.close()
            return replies

        replies = run(_with_daemon(daemon, body))
        statuses = [reply["status"] for reply in replies]
        assert statuses.count("ok") == 3
        assert statuses.count("overloaded") == 7
        assert daemon.stats()["overloaded"] == 7


class TestProtocolRejections:
    def test_malformed_and_mismatched_lines_get_typed_errors(self, daemon_factory):
        daemon, _ = daemon_factory()

        async def body(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            replies = []
            lines = [
                b"{broken json\n",
                b'{"id": "v", "kind": "point", "start": 0, "end": 0, "version": 99}\n',
                b'{"id": "k", "kind": "median", "start": 0, "end": 0, "version": 1}\n',
                b'{"id": "f", "kind": "point", "start": 0, "end": 0, "version": 1, "extra": 1}\n',
                b'{"op": "teleport", "id": "o"}\n',
            ]
            for line in lines:
                writer.write(line)
                await writer.drain()
                replies.append(json.loads(await reader.readline()))
            # The daemon survived every malformed line on the same connection.
            writer.write((QueryRequest.point("fine", 2).to_json() + "\n").encode())
            await writer.drain()
            replies.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            return replies

        replies = run(_with_daemon(daemon, body))
        broken, mismatch, kind, extra, op, fine = replies
        assert broken["status"] == "error" and broken["id"] == "?"
        assert mismatch["status"] == "error" and "version" in mismatch["detail"]
        assert mismatch["id"] == "v"
        assert kind["status"] == "error" and "kind" in kind["detail"]
        assert extra["status"] == "error" and "unknown request field" in extra["detail"]
        assert op["status"] == "error" and "unknown op" in op["detail"]
        assert fine["status"] == "ok"
        assert daemon.stats()["version_rejections"] == 1
        assert daemon.stats()["protocol_errors"] >= 3

    def test_unknown_target_and_out_of_domain_are_rejected_per_query(
        self, daemon_factory
    ):
        daemon, _ = daemon_factory()

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                missing = await client.query(
                    QueryRequest.point("m", 1, target="nope")
                )
                beyond = await client.query(
                    QueryRequest.range_sum("b", 0, DOMAIN + 5)
                )
                fine = await client.query(QueryRequest.point("ok", 1))
            finally:
                await client.close()
            assert missing.status == "error" and "unknown target" in missing.detail
            assert beyond.status == "error" and "covers" in beyond.detail
            assert fine.ok

        run(_with_daemon(daemon, body))
        assert daemon.stats()["invalid_queries"] == 2

    def test_remote_shutdown_is_gated(self, daemon_factory):
        daemon, _ = daemon_factory()

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                refusal = await client.round_trip({"op": "shutdown"})
            finally:
                await client.close()
            assert refusal["status"] == "error"
            assert "disabled" in refusal["detail"]

        run(_with_daemon(daemon, body))

    def test_remote_shutdown_drains_when_allowed(self, daemon_factory):
        daemon, _ = daemon_factory(
            config=DaemonConfig(allow_remote_shutdown=True)
        )

        async def body():
            host, port = await daemon.start(port=0)
            client = await LoadgenClient.connect(host, port)
            try:
                await client.query(QueryRequest.point("q", 1))
                ack = await client.round_trip({"op": "shutdown"})
            finally:
                await client.close()
            assert ack == {"op": "shutdown", "version": PROTOCOL_VERSION,
                           "status": "draining"}
            await asyncio.wait_for(daemon.serve_until_stopped(), timeout=10.0)
            with pytest.raises(ConnectionRefusedError):
                await asyncio.open_connection(host, port)

        run(body())
        assert daemon.stats()["queries_answered"] == 1


class TestDegradationLadder:
    def test_evicted_engine_is_rebuilt_from_the_store(self, daemon_factory):
        daemon, store = daemon_factory(config=DaemonConfig(max_engines=1))

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                # Warm-up cached "wave" last; querying "default" evicts it,
                # then querying "wave" again must re-resolve via the store.
                first = await client.query(QueryRequest.point("a", 1))
                second = await client.query(QueryRequest.point("b", 1, target="wave"))
            finally:
                await client.close()
            assert first.ok and second.ok

        run(_with_daemon(daemon, body))
        assert daemon.stats()["engine_evictions"] >= 2
        assert daemon.stats()["engine_store_resolutions"] >= 1

    def test_store_miss_without_build_on_miss_is_unavailable(self, daemon_factory):
        daemon, store = daemon_factory(config=DaemonConfig(max_engines=1))

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                # Evict "wave" from the engine cache and erase every copy of
                # it: the bottom of the ladder is an explicit rejection, not
                # a blocking rebuild.
                await client.query(QueryRequest.point("a", 1))
                store.clear_memory()
                store.clear_disk()
                rejected = await client.query(QueryRequest.point("b", 1, target="wave"))
                alive = await client.query(QueryRequest.point("c", 1))
            finally:
                await client.close()
            assert rejected.status == "unavailable"
            assert "build_on_miss" in rejected.detail
            assert alive.ok

        run(_with_daemon(daemon, body))
        assert daemon.stats()["unavailable"] == 1

    def test_build_on_miss_rebuilds_instead(self, daemon_factory):
        daemon, store = daemon_factory(
            config=DaemonConfig(max_engines=1, build_on_miss=True)
        )

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                await client.query(QueryRequest.point("a", 1))
                store.clear_memory()
                store.clear_disk()
                rebuilt = await client.query(QueryRequest.point("b", 1, target="wave"))
            finally:
                await client.close()
            assert rebuilt.ok

        run(_with_daemon(daemon, body))
        assert daemon.stats()["engine_builds"] == 1
        assert daemon.stats()["unavailable"] == 0


class TestDeterminism:
    def test_stream_rng_is_reproducible_and_streams_are_independent(self):
        a = stream_rng(7, 3).random(8)
        b = stream_rng(7, 3).random(8)
        other = stream_rng(7, 4).random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, other)

    def test_generate_query_mix_streams_reproduce_bit_identically(self):
        one = generate_query_mix(DOMAIN, 50, seed=9, stream=2)
        two = generate_query_mix(DOMAIN, 50, seed=9, stream=2)
        sibling = generate_query_mix(DOMAIN, 50, seed=9, stream=3)
        assert one.as_tuples() == two.as_tuples()
        assert one.as_tuples() != sibling.as_tuples()

    def test_stream_none_matches_the_legacy_single_stream(self):
        legacy = generate_query_mix(DOMAIN, 50, seed=9)
        again = generate_query_mix(DOMAIN, 50, seed=9, stream=None)
        assert legacy.as_tuples() == again.as_tuples()


class TestLoadgenHarness:
    def test_report_structure_coalescing_and_bit_identity(self, daemon_factory,
                                                          model, spec):
        daemon, store = daemon_factory(
            config=DaemonConfig(allow_remote_shutdown=True, max_pending=16)
        )

        async def body():
            host, port = await daemon.start(port=0)
            synopsis = store.get_or_build(model, spec)
            engine = BatchQueryEngine.from_model(synopsis, model, spec.metric)
            report = await run_loadgen(
                host,
                port,
                levels=(1, 4),
                queries_per_level=80,
                seed=3,
                burst=120,
                burst_concurrency=4,
                burst_rate=4000.0,
                verify_engine=engine,
                verify_queries=40,
                shutdown=True,
            )
            await asyncio.wait_for(daemon.serve_until_stopped(), timeout=10.0)
            return report

        report = run(body())
        assert report["protocol_version"] == PROTOCOL_VERSION
        assert [level["concurrency"] for level in report["levels"]] == [1, 4]
        for level in report["levels"]:
            assert level["statuses"].get("ok") == level["queries"]
            assert set(level["latency_ms"]) == {"p50", "p95", "p99", "max"}
            assert level["qps"] > 0
        # The c=4 closed loop coalesces: fewer engine calls than queries.
        concurrent = report["levels"][1]
        assert 0 < concurrent["engine_batches"] < concurrent["queries"]
        overload = report["overload"]
        assert overload["statuses"].get("overloaded", 0) > 0
        assert overload["responsive_after"] is True
        verification = report["verification"]
        assert verification["bit_identical"] is True
        assert verification["expected_errors_bit_identical"] is True
        assert verification["max_abs_diff"] == 0.0
        assert report["shutdown"] == "draining"
        assert report["server_stats"]["queries_answered"] > 0


class TestTelemetryIntegration:
    """The wire ``metrics`` op, the loadgen latency histogram, and the
    structured slow-query log."""

    REQUIRED_FAMILIES = (
        "repro_daemon_connections_total",
        "repro_daemon_requests_total",
        "repro_daemon_queries_answered_total",
        "repro_daemon_engine_batches_total",
        "repro_daemon_batch_size",
        "repro_daemon_flush_latency_ms",
        "repro_daemon_admission_rejections_total",
        "repro_daemon_ladder_total",
        "repro_daemon_engine_evictions_total",
        "repro_daemon_pending_queries",
        "repro_daemon_slow_queries_total",
        "repro_daemon_errors_total",
        "repro_daemon_unavailable_total",
        "repro_daemon_drained_queries_total",
        "repro_daemon_largest_batch",
        "repro_engine_batches_total",
        "repro_engine_batch_latency_ms",
        "repro_store_builds_total",
        "repro_store_memory_hits_total",
        "repro_span_total",
        "repro_span_wall_seconds_total",
    )

    def test_metrics_op_exposes_parseable_families(self, daemon_factory):
        from repro.service import OP_METRICS
        from repro.telemetry import CONTENT_TYPE, parse_prometheus_text

        daemon, _ = daemon_factory()

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                for position in range(6):
                    await client.query(QueryRequest.point(f"q{position}", position))
                return await client.round_trip({"op": OP_METRICS})
            finally:
                await client.close()

        reply = run(_with_daemon(daemon, body))
        assert reply["op"] == OP_METRICS
        assert reply["version"] == PROTOCOL_VERSION
        assert reply["content_type"] == CONTENT_TYPE
        families = parse_prometheus_text(reply["body"])
        # The acceptance bar: at least 12 families, strictly parseable.
        assert len(families) >= 12
        for name in self.REQUIRED_FAMILIES:
            assert name in families, f"family {name} missing from the scrape"
        # The repro_daemon_* families live in the daemon's own registry, so
        # their values are this daemon's; the exact cross-check against the
        # stats op is TestSingleSourceAccounting's.
        ladder = families["repro_daemon_ladder_total"]
        rungs = {labels["rung"] for _, labels, _ in ladder.samples}
        assert "hot" in rungs  # the warmed engines answered from cache

    def test_build_spans_reach_the_metric_families(self, daemon_factory):
        """Warming the daemon's targets runs real builds under the global
        telemetry flag, so per-stage span families carry build stages."""
        from repro.service import OP_METRICS
        from repro.telemetry import parse_prometheus_text

        daemon, _ = daemon_factory()

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                return await client.round_trip({"op": OP_METRICS})
            finally:
                await client.close()

        reply = run(_with_daemon(daemon, body))
        families = parse_prometheus_text(reply["body"])
        spans = {
            labels["span"]
            for _, labels, _ in families["repro_span_total"].samples
        }
        assert {"build.synopsis", "store.get_or_build", "store.build"} <= spans

    def test_loadgen_reports_per_bucket_latency_histograms(self, daemon_factory):
        from repro.telemetry import LATENCY_BUCKETS_MS

        daemon, _ = daemon_factory()

        async def body(host, port):
            return await run_loadgen(
                host, port, levels=[2], queries_per_level=40, seed=9,
            )

        report = run(_with_daemon(daemon, body))
        histogram = report["levels"][0]["latency_histogram"]
        assert histogram["upper_bounds"] == list(LATENCY_BUCKETS_MS)
        assert len(histogram["counts"]) == len(LATENCY_BUCKETS_MS) + 1
        assert histogram["count"] == sum(histogram["counts"]) == 40
        assert histogram["p50"] <= histogram["p95"] <= histogram["p99"]
        json.dumps(report)  # the whole report stays JSON-serialisable

    def test_slow_query_log_carries_the_span_tree(self, daemon_factory, caplog):
        daemon, _ = daemon_factory(
            config=DaemonConfig(window_ms=1.0, slow_query_ms=0.0)
        )

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                response = await client.query(QueryRequest.point("slow", 5))
                assert response.ok
            finally:
                await client.close()

        with caplog.at_level("WARNING", logger="repro.daemon.slow_query"):
            run(_with_daemon(daemon, body))
        records = [
            record for record in caplog.records
            if record.getMessage() == "daemon.slow_query"
        ]
        assert records, "a 0ms threshold must flag every flush"
        fields = records[0].event_fields
        assert fields["target"] == "default"
        assert fields["batch"] >= 1
        assert fields["rung"] == "hot"
        assert fields["wall_ms"] >= 0.0
        assert fields["threshold_ms"] == 0.0
        assert fields["queries"][0]["id"] == "slow"
        trees = fields["spans"]
        assert [tree["name"] for tree in trees] == ["daemon.flush"]
        children = {child["name"] for child in trees[0]["children"]}
        assert {"daemon.resolve_engine", "daemon.answer"} <= children
        json.dumps(fields)  # the record is one JSON-safe object

    def test_no_slow_query_log_without_a_threshold(self, daemon_factory, caplog):
        daemon, _ = daemon_factory(config=DaemonConfig(window_ms=1.0))

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                await client.query(QueryRequest.point("fast", 5))
            finally:
                await client.close()

        with caplog.at_level("WARNING", logger="repro.daemon.slow_query"):
            run(_with_daemon(daemon, body))
        assert not [
            record for record in caplog.records
            if record.getMessage() == "daemon.slow_query"
        ]

    def test_lifecycle_events_are_logged(self, daemon_factory, caplog):
        daemon, _ = daemon_factory()

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                await client.query(QueryRequest.point("q", 1))
            finally:
                await client.close()

        with caplog.at_level("INFO", logger="repro.daemon"):
            run(_with_daemon(daemon, body))
        events = [record.getMessage() for record in caplog.records]
        assert "daemon.listen" in events
        assert "daemon.drain" in events
        assert "daemon.shutdown" in events
        listen = next(
            record for record in caplog.records
            if record.getMessage() == "daemon.listen"
        )
        assert listen.event_fields["targets"] == ["default", "wave"]


def _stats_from_scrape(families):
    """The ``stats`` payload recomputed from the scrape's repro_daemon_* samples."""

    def values(name, suffix=""):
        return {
            tuple(labels.values()): value
            for sample, labels, value in families[name].samples
            if sample == name + suffix
        }

    def total(name):
        return int(sum(values(name).values()))

    def labelled(name, label):
        return int(values(name).get((label,), 0))

    batch_le_1 = values("repro_daemon_batch_size", "_bucket")[("1",)]
    answered = total("repro_daemon_queries_answered_total")
    batches = total("repro_daemon_engine_batches_total")
    return {
        "connections": total("repro_daemon_connections_total"),
        "requests": total("repro_daemon_requests_total"),
        "queries_answered": answered,
        "engine_batches": batches,
        "coalesced_queries": int(values("repro_daemon_batch_size", "_sum")[()] - batch_le_1),
        "largest_batch": total("repro_daemon_largest_batch"),
        "overloaded": total("repro_daemon_admission_rejections_total"),
        "unavailable": total("repro_daemon_unavailable_total"),
        "protocol_errors": labelled("repro_daemon_errors_total", "protocol"),
        "version_rejections": labelled("repro_daemon_errors_total", "version"),
        "invalid_queries": labelled("repro_daemon_errors_total", "invalid"),
        "internal_errors": labelled("repro_daemon_errors_total", "internal"),
        "engine_cache_hits": labelled("repro_daemon_ladder_total", "hot"),
        "engine_store_resolutions": labelled("repro_daemon_ladder_total", "store"),
        "engine_builds": labelled("repro_daemon_ladder_total", "build"),
        "engine_evictions": total("repro_daemon_engine_evictions_total"),
        "drained_queries": total("repro_daemon_drained_queries_total"),
        "coalescing_factor": answered / batches if batches else None,
    }


class TestSingleSourceAccounting:
    """The ``stats`` op and the scrape are two views of one set of instruments."""

    def test_scripted_session_stats_are_exact_and_match_the_scrape(
        self, daemon_factory
    ):
        from repro.telemetry import parse_prometheus_text

        daemon, store = daemon_factory(
            config=DaemonConfig(window_ms=50.0, max_pending=1, max_engines=1)
        )

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                # Warm-up cached "wave" last, evicting "default" (eviction 1).
                # "a" resolves "default" through the store (evicting "wave",
                # eviction 2); "b" arrives while "a" is pending: overloaded.
                await client.send(QueryRequest.point("a", 1).to_dict())
                await client.send(QueryRequest.point("b", 2).to_dict())
                replies = {}
                for _ in range(2):
                    reply = await asyncio.wait_for(client.recv(), timeout=5.0)
                    replies[reply["id"]] = reply["status"]
                assert replies == {"a": "ok", "b": "overloaded"}
                unknown = await client.round_trip({"op": "teleport", "id": "t"})
                assert unknown["status"] == "error"
                store.clear_memory()
                store.clear_disk()
                gone = await client.query(QueryRequest.point("c", 1, target="wave"))
                assert gone.status == "unavailable"
                stats = await client.round_trip({"op": "stats"})
                scrape = await client.round_trip({"op": "metrics"})
            finally:
                await client.close()
            return stats["stats"], parse_prometheus_text(scrape["body"])

        stats, families = run(_with_daemon(daemon, body))
        expected = {
            "connections": 1,
            "requests": 5,  # a, b, the unknown op, c and the stats op itself
            "queries_answered": 1,
            "engine_batches": 1,
            "coalesced_queries": 0,
            "largest_batch": 1,
            "overloaded": 1,
            "unavailable": 1,
            "protocol_errors": 1,
            "version_rejections": 0,
            "invalid_queries": 0,
            "internal_errors": 0,
            "engine_cache_hits": 0,
            "engine_store_resolutions": 1,
            "engine_builds": 0,
            "engine_evictions": 2,
            "drained_queries": 0,
            "coalescing_factor": 1.0,
        }
        assert stats == expected
        assert all(
            type(value) is int for key, value in stats.items() if key != "coalescing_factor"
        )
        # The scrape carries the same numbers (plus its own request).
        assert _stats_from_scrape(families) == {**expected, "requests": 6}
        assert daemon.stats() == {**expected, "requests": 6}

    def test_each_daemon_scrapes_its_own_counts(self, daemon_factory):
        from repro.telemetry import parse_prometheus_text

        first, _ = daemon_factory()
        second, _ = daemon_factory()

        async def scrape(daemon):
            client = await LoadgenClient.connect(*daemon.address)
            try:
                reply = await client.round_trip({"op": "metrics"})
            finally:
                await client.close()
            families = parse_prometheus_text(reply["body"])

            def total(name, **labels):
                return sum(
                    value for _, sample_labels, value in families[name].samples
                    if labels.items() <= sample_labels.items()
                )

            return {
                "queries_answered": total("repro_daemon_queries_answered_total"),
                "engine_batches": total("repro_daemon_engine_batches_total"),
                "engine_cache_hits": total("repro_daemon_ladder_total", rung="hot"),
                "connections": total("repro_daemon_connections_total"),
            }

        async def body():
            await first.start(port=0)
            await second.start(port=0)
            try:
                before = [await scrape(first), await scrape(second)]
                client = await LoadgenClient.connect(*first.address)
                try:
                    assert (await client.query(QueryRequest.point("q", 1))).ok
                finally:
                    await client.close()
                after = [await scrape(first), await scrape(second)]
            finally:
                await first.stop()
                await second.stop()
            return before, after

        before, after = run(body())
        for scraped in before:
            assert scraped["queries_answered"] == 0
            assert scraped["engine_batches"] == 0
            assert scraped["engine_cache_hits"] == 0
            assert scraped["connections"] == 1  # the scrape's own connection
        assert after[0]["queries_answered"] == 1
        assert after[0]["engine_cache_hits"] == 1
        assert after[1]["queries_answered"] == 0
        assert after[1]["engine_cache_hits"] == 0


class TestOversizedLines:
    def test_a_line_past_the_stream_limit_is_answered_counted_and_closed(
        self, daemon_factory
    ):
        daemon, _ = daemon_factory()

        async def body(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b'{"id": "' + b"x" * 100_000 + b'"}\n')
                await writer.drain()
                reply = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                closed = await asyncio.wait_for(reader.readline(), 5.0)
            finally:
                writer.close()
                await writer.wait_closed()
            return reply, closed

        reply, closed = run(_with_daemon(daemon, body))
        assert reply["status"] == "error"
        assert reply["id"] == "?"  # the request id is unknown
        assert "64 KiB" in reply["detail"]
        assert closed == b""
        stats = daemon.stats()
        assert stats["protocol_errors"] == 1
        assert stats["requests"] == 1


class TestTelemetryState:
    """A daemon leaves the process-wide telemetry flag as it found it."""

    @pytest.mark.parametrize("initially", [False, True])
    def test_stop_restores_the_flag(self, daemon_factory, initially):
        from repro import telemetry

        daemon, _ = daemon_factory()
        (telemetry.enable if initially else telemetry.disable)()
        try:

            async def body(host, port):
                assert telemetry.enabled()

            run(_with_daemon(daemon, body))
            assert telemetry.enabled() is initially
        finally:
            telemetry.disable()

    def test_a_failed_start_restores_the_flag(self, daemon_factory, monkeypatch):
        from repro import telemetry

        daemon, store = daemon_factory()

        def fail(*args, **kwargs):
            raise SynopsisError("warm-up failed")

        monkeypatch.setattr(store, "get_or_build", fail)
        telemetry.disable()
        with pytest.raises(SynopsisError, match="warm-up failed"):
            run(daemon.start(port=0))
        assert telemetry.enabled() is False

    def test_stopping_one_daemon_leaves_the_flag_on_for_another(self, daemon_factory):
        from repro import telemetry

        first, _ = daemon_factory()
        second, _ = daemon_factory()
        telemetry.disable()

        async def body():
            await first.start(port=0)
            await second.start(port=0)
            try:
                await first.stop()
                still_on = telemetry.enabled()
                client = await LoadgenClient.connect(*second.address)
                try:
                    response = await client.query(QueryRequest.point("q", 1))
                finally:
                    await client.close()
            finally:
                await first.stop()
                await second.stop()
            return still_on, response

        try:
            still_on, response = run(body())
        finally:
            after = telemetry.enabled()
            telemetry.disable()
        assert still_on, "the running daemon lost its telemetry"
        assert response.ok
        assert after is False


class TestVectorData:
    def test_a_daemon_over_a_frequency_vector_serves_its_deterministic_answers(
        self, spec, tmp_path
    ):
        from repro.models import FrequencyDistributions

        frequencies = np.random.default_rng(4).integers(0, 40, size=DOMAIN).astype(float)
        store = SynopsisStore(tmp_path / "store")
        # A key written by the store for the plain vector is the one the
        # daemon looks up: warm-up is a cache hit, not a second build.
        store.get_or_build(frequencies, spec)
        daemon = ServingDaemon(frequencies, store, {"default": spec})
        batch = generate_query_mix(DOMAIN, 40, seed=8)

        async def body(host, port):
            client = await LoadgenClient.connect(host, port)
            try:
                return [
                    await client.query(request)
                    for request in requests_from_batch(batch, prefix="v")
                ]
            finally:
                await client.close()

        got = run(_with_daemon(daemon, body))
        assert store.stats.builds == 1
        distributions = FrequencyDistributions.deterministic(frequencies)
        engine = BatchQueryEngine.from_model(
            store.get_or_build(distributions, spec), distributions, spec.metric
        )
        assert all(response.ok for response in got)
        assert np.array_equal([r.answer for r in got], engine.answer(batch))
        assert np.array_equal(
            [r.expected_error for r in got], engine.attribute_errors(batch)
        )
