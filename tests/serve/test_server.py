"""The asyncio session server end to end, through the synchronous client."""

from __future__ import annotations

import base64
import json
import socket

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import ServeClient, ServeConfig, serve_in_thread
from repro.streams.codec import decode_tuple_batch, decode_view_frame
from repro.serve.protocol import encode_message, unpack_payloads, ws_encode_frame

from scaffolding import frame_message
from serve_harness import QUERY, VIEW, RawWire, make_engine

SECOND_QUERY = "ACQUIRE temp FROM RECT(1, 1, 3, 3) AT RATE 6 PER KM2 PER MIN AS Heat"


@pytest.fixture
def served():
    """A live server over a fresh Storm+Rain engine, plus one client."""
    engine = make_engine()
    server, (host, port), stop = serve_in_thread(engine, ServeConfig())
    client = ServeClient(host, port)
    yield server, client, (host, port)
    client.close()
    stop()


class TestHandshake:
    def test_hello_identifies_server_and_engine(self, served):
        _, client, _ = served
        hello = client.hello()
        assert hello["server"] == "craqr-serve"
        assert hello["protocol"] == "craqr/1"
        assert hello["queries"] == ["Storm"]
        assert hello["views"] == ["Rain"]
        assert hello["batches_run"] == 0
        assert hello["batch_interval"] is None

    def test_ping_echoes_nonce(self, served):
        _, client, _ = served
        reply = client.request({"op": "ping", "nonce": "n-42"})[0]
        assert reply["pong"] == "n-42"

    def test_bad_magic_is_refused(self, served):
        _, _, (host, port) = served
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"BOGUS/9\n")
            sock.settimeout(10)
            assert sock.recv(64) == b"craqr: bad magic\n"
            assert sock.recv(64) == b""  # closed

    def test_unknown_op_is_a_structured_error(self, served):
        _, client, _ = served
        with pytest.raises(ServeError, match="unknown operation") as err:
            client.request({"op": "frobnicate"})
        assert err.value.error_type == "ServeError"


class TestExecute:
    def test_statements_return_structured_rows(self, served):
        _, client, _ = served
        rows = client.execute(f"{SECOND_QUERY}; SHOW QUERIES; SHOW VIEWS")
        acquire, queries, views = rows
        assert acquire["ok"] and acquire["kind"] == "query"
        assert acquire["query"]["label"] == "Heat"
        assert acquire["query"]["attribute"] == "temp"
        assert acquire["query"]["active"] and not acquire["query"]["paused"]

        assert queries["kind"] == "sessions"
        assert [r["label"] for r in queries["rows"]] == ["Storm", "Heat"]
        storm = queries["rows"][0]
        assert storm["attribute"] == "rain"
        assert storm["views"] == 1
        assert storm["paused"] is False

        assert views["kind"] == "views"
        (rain,) = views["rows"]
        assert rain["name"] == "Rain"
        assert rain["query_label"] == "Storm"
        assert rain["aggregate"] == "AVG"
        assert rain["active"] is True

    def test_create_view_and_explain_rows(self, served):
        server, client, _ = served
        rows = client.execute(
            "CREATE VIEW Rain2 ON Storm AS MAX(value) GROUP BY CELL WINDOW 3; "
            "EXPLAIN Storm"
        )
        view, explain = rows
        assert view["kind"] == "view"
        assert view["view"]["name"] == "Rain2"
        assert view["view"]["on"] == "Storm"
        assert explain["kind"] == "explain"
        assert explain["text"].startswith("EXPLAIN query 'Storm'")
        # The wire, text mode and the Python API render the same plan.
        (text_row,) = client.execute("EXPLAIN Storm", mode="text")
        assert text_row["text"] == explain["text"] == server.engine.explain("Storm")

    def test_mid_script_error_recovers_and_reports(self, served):
        _, client, _ = served
        rows = client.execute(f"{VIEW}; SHOW QUERIES")  # duplicate view name
        failed, shown = rows
        assert failed["ok"] is False
        assert "Rain" in failed["error"]
        assert shown["ok"] is True  # the script continued past the failure
        assert shown["kind"] == "sessions"

    def test_parse_error_is_a_structured_reply(self, served):
        _, client, _ = served
        with pytest.raises(ServeError) as err:
            client.execute("FROB the stream")
        assert err.value.error_type == "QueryParseError"

    def test_text_mode_carries_the_shared_render(self, served):
        _, client, _ = served
        rows = client.execute("SHOW QUERIES; SHOW VIEWS", mode="text")
        assert rows[0]["text"].startswith("== query sessions ==")
        assert "Storm" in rows[0]["text"]
        assert rows[1]["text"].startswith("== continuous views ==")
        assert "Rain" in rows[1]["text"]

    def test_json_mode_has_no_text(self, served):
        _, client, _ = served
        rows = client.execute("SHOW QUERIES")
        assert "text" not in rows[0]


class TestRunAndFetch:
    def test_run_advances_and_counts(self, served):
        server, client, _ = served
        reply = client.run(3)
        assert reply["batches"] == 3
        assert reply["batches_run"] == 3
        assert reply["tuples_delivered"] > 0
        assert server.batches_served == 3

    def test_fetch_query_round_trips_the_stream(self, served):
        server, client, _ = served
        client.run(4)
        reply, payload = client.fetch(query="Storm")
        batch = decode_tuple_batch(payload)
        assert reply["kind"] == "batch"
        assert reply["count"] == len(batch) > 0
        reference = server.engine.query("Storm").buffer.cursor().fetch_batch()
        np.testing.assert_array_equal(batch.tuple_id, reference.tuple_id)
        np.testing.assert_array_equal(batch.value, reference.value)

        # The reply token resumes exactly: nothing new -> empty fetch.
        reply2, payload2 = client.fetch(query="Storm", token=reply["token"])
        assert reply2["count"] == 0 and payload2 == b""

        # After more batches the same token returns only the delta.
        client.run(2)
        reply3, payload3 = client.fetch(query="Storm", token=reply["token"])
        delta = decode_tuple_batch(payload3)
        assert reply3["count"] == len(delta) > 0
        total = server.engine.query("Storm").buffer.cursor().fetch_batch()
        np.testing.assert_array_equal(
            delta.tuple_id, total.tuple_id[len(batch):]
        )

    def test_fetch_view_frames_round_trip(self, served):
        server, client, _ = served
        client.run(6)  # window 2 -> three closed frames
        reply, payload = client.fetch(view="Rain")
        assert reply["kind"] == "frames"
        assert reply["count"] == 3
        frames = [decode_view_frame(p) for p in unpack_payloads(payload)]
        reference = server.engine.view("Rain").frames()
        assert [f.frame_index for f in frames] == [0, 1, 2]
        for got, ref in zip(frames, reference):
            np.testing.assert_array_equal(got.values, ref.values)
            np.testing.assert_array_equal(got.counts, ref.counts)
            assert list(got.keys) == list(ref.keys)
        # Incremental: the token sees only what closes afterwards.
        reply2, _ = client.fetch(view="Rain", token=reply["token"])
        assert reply2["count"] == 0
        client.run(2)
        reply3, _ = client.fetch(view="Rain", token=reply["token"])
        assert reply3["count"] == 1

    def test_fetch_tail_skips_history(self, served):
        _, client, _ = served
        client.run(4)
        reply, _ = client.fetch(query="Storm", tail=True)
        assert reply["count"] == 0

    def test_fetch_unknown_target_is_structured(self, served):
        _, client, _ = served
        with pytest.raises(ServeError) as err:
            client.fetch(query="Nope")
        assert err.value.error_type == "QueryError"
        with pytest.raises(ServeError) as err:
            client.fetch(view="Nope")
        assert err.value.error_type == "ViewError"

    def test_run_validates_batches(self, served):
        _, client, _ = served
        with pytest.raises(ServeError, match="positive integer"):
            client.run(0)
        with pytest.raises(ServeError, match="capped"):
            client.run(20_000)


class TestLaggingFetch:
    def test_token_past_retention_is_an_error_not_a_hang(self):
        engine = make_engine(retention_batches=2, view=False)
        server, (host, port), stop = serve_in_thread(engine, ServeConfig())
        try:
            with ServeClient(host, port, timeout=30) as client:
                client.run(1)
                reply, _ = client.fetch(query="Storm")
                stale = reply["token"]
                client.run(8)  # evicts the batches the token points into
                with pytest.raises(ServeError, match="retention") as err:
                    client.fetch(query="Storm", token=stale)
                assert err.value.error_type == "StorageError"
                assert "fresh cursor" in str(err.value)
                # The connection survives the structured error.
                assert client.hello()["batches_run"] == 9
        finally:
            stop()


class TestForgedResultTokens:
    """A result token is outside input: only its position is read.

    Reads consume whole chunks, so a token is a chunk sequence and a
    lifetime count.  A row field — tokens used to carry ``"r"``, and one
    naming a row other than 0 used to skip the chunks it overshot
    silently — is ignored.  A malformed or out-of-range token fails that
    one request with a structured error and leaves the connection, the
    subscriptions and the engine loop serving.
    """

    @staticmethod
    def forge(**fields):
        raw = json.dumps({"k": "results", **fields}, separators=(",", ":"))
        return base64.urlsafe_b64encode(raw.encode()).decode()

    def test_forged_token_on_fetch_is_a_structured_error(self, served):
        server, client, _ = served
        client.run(3)
        total = server.engine.query("Storm").buffer.total_tuples
        with pytest.raises(ServeError, match="negative") as err:
            client.fetch(query="Storm", token=self.forge(c=-1, g=0))
        assert err.value.error_type == "ServeError"
        # A chunk sequence past the frontier is the storage layer's error.
        with pytest.raises(ServeError, match="ahead of the buffer") as err:
            client.fetch(query="Storm", token=self.forge(c=10_000, g=0))
        assert err.value.error_type == "StorageError"
        # Same connection, same engine: a token with a forged row reads
        # everything from its chunk boundary, skipping nothing.
        reply, payload = client.fetch(
            query="Storm", token=self.forge(c=0, r=1_000_000, g=0)
        )
        assert reply["count"] == len(decode_tuple_batch(payload)) == total
        assert client.run(1)["batches_run"] == 4

    def test_forged_token_on_subscribe_is_a_structured_error(self, served):
        server, client, _ = served
        client.run(2)
        with pytest.raises(ServeError, match="malformed") as err:
            client.subscribe(query="Storm", token=self.forge(c=0))
        assert err.value.error_type == "ServeError"
        # No half-made subscription is left behind, and a resume on the
        # same connection — its forged row ignored — gets its whole backlog
        # and live events.
        sub = client.subscribe(query="Storm", token=self.forge(c=0, r=7, g=0))
        backlog, payload = client.next_event(timeout=30)
        assert backlog["sub"] == sub["sub"]
        assert backlog["count"] == len(decode_tuple_batch(payload))
        assert backlog["count"] == server.engine.query("Storm").buffer.total_tuples
        client.run(1)
        live, _ = client.next_event(timeout=30)
        assert live["event"] == "batch" and live["sub"] == sub["sub"]
        assert server.batches_served == 3


class TestSubscriptions:
    def test_view_events_are_pushed_and_decodable(self, served):
        _, client, _ = served
        sub = client.subscribe(view="Rain")
        assert sub["view"] == "Rain"
        assert sub["policy"] == "skip"
        client.run(6)
        frames = []
        for _ in range(3):
            header, payload = client.next_event(timeout=30)
            assert header["event"] == "frame"
            assert header["view"] == "Rain"
            assert header["sub"] == sub["sub"]
            frames.append(decode_view_frame(payload))
        assert [f.frame_index for f in frames] == [0, 1, 2]

    def test_query_events_are_pushed(self, served):
        _, client, _ = served
        sub = client.subscribe(query="Storm")
        client.run(1)
        header, payload = client.next_event(timeout=30)
        assert header["event"] == "batch"
        assert header["query"] == "Storm"
        assert header["count"] == len(decode_tuple_batch(payload)) > 0

    def test_unsubscribe_stops_the_stream(self, served):
        _, client, _ = served
        sub = client.subscribe(view="Rain")
        reply = client.unsubscribe(sub["sub"])
        assert reply["unsubscribed"] is True
        client.run(4)
        with pytest.raises(ServeError, match="no event"):
            client.next_event(timeout=1.0)

    def test_unsubscribe_unknown_sub_rejected(self, served):
        _, client, _ = served
        with pytest.raises(ServeError, match="no subscription"):
            client.unsubscribe(99)

    def test_subscribe_needs_a_target(self, served):
        _, client, _ = served
        with pytest.raises(ServeError, match="needs a 'query' label"):
            client.request({"op": "subscribe"})


class TestHealthAndCheckpoint:
    def test_health_renders_the_shared_table(self, served):
        _, client, _ = served
        client.run(2)
        text = client.health("Storm")
        assert text.startswith("== health of Storm (rain), last batch ==")
        assert "cell" in text and "rate ewma" in text

    def test_checkpoint_writes_where_asked(self, served, tmp_path):
        _, client, _ = served
        client.run(2)
        path = client.checkpoint(str(tmp_path / "served.ckpt"))
        assert (tmp_path / "served.ckpt").exists()
        assert path.endswith("served.ckpt")


class TestWebsocketTransport:
    def test_full_parity_over_websocket(self, served):
        _, _, (host, port) = served
        with ServeClient(host, port, transport="ws") as ws:
            hello = ws.hello()
            assert hello["protocol"] == "craqr/1"
            rows = ws.execute("SHOW QUERIES", mode="text")
            assert rows[0]["text"].startswith("== query sessions ==")
            sub = ws.subscribe(view="Rain")
            ws.run(2)
            header, payload = ws.next_event(timeout=30)
            assert header["event"] == "frame"
            assert decode_view_frame(payload).frame_index == 0

    def test_tcp_and_ws_clients_share_one_engine(self, served):
        _, tcp, (host, port) = served
        with ServeClient(host, port, transport="ws") as ws:
            tcp.run(2)
            assert ws.hello()["batches_run"] == 2


class TestShutdown:
    def test_shutdown_op_acknowledges_then_stops(self):
        engine = make_engine()
        server, (host, port), stop = serve_in_thread(engine, ServeConfig())
        try:
            with ServeClient(host, port) as client:
                assert client.shutdown()["stopping"] is True
        finally:
            stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2).close()


class TestWireIdentity:
    """The burst writer's bytes are the per-message encoding, exactly."""

    @staticmethod
    def expected_bytes(wire: RawWire, header: dict, payload: bytes) -> bytes:
        """The pre-burst encoding of one event, header keys in wire order."""
        kind = ("view", "frame_index") if header["event"] == "frame" else ("query", "count")
        keys = ["event", *kind, "token"] + ["skipped"] * ("skipped" in header) + ["sub"]
        body = encode_message({key: header[key] for key in keys}, payload)
        return ws_encode_frame(body) if wire.websocket else frame_message(body)

    @pytest.mark.parametrize("transport", ["tcp", "ws"])
    @pytest.mark.parametrize("capacity, skipped", [(64, {}), (1, {"batch": 5, "frame": 2})])
    def test_push_events_match_the_reference_encoding(
        self, served, transport, capacity, skipped
    ):
        _, _, (host, port) = served
        wire = RawWire(host, port, transport)
        try:
            wire.send(
                {"op": "subscribe", "query": "Storm", "queue_events": capacity, "id": 1},
                {"op": "subscribe", "view": "Rain", "queue_events": capacity, "id": 2},
                # Six batches inside one op: the writer cannot run in
                # between, so a one-event queue skips all but the last.
                {"op": "run", "batches": 6, "id": 3},
            )
            subs = {
                header["sub"]: "batch" if "query" in header else "frame"
                for _, header, _ in wire.read_until_reply(2)
            }
            expected = 2 if skipped else 6 + 3
            events = [m for m in wire.read_until_reply(3) if "event" in m[1]]
            while len(events) < expected:
                events.append(wire.read())
            assert sorted(h["event"] for _, h, _ in events) == sorted(
                ["batch", "frame"] if skipped else ["batch"] * 6 + ["frame"] * 3
            )
            for raw, header, payload in events:
                assert subs[header["sub"]] == header["event"]
                assert header.get("skipped") == skipped.get(header["event"])
                assert raw == self.expected_bytes(wire, header, payload)
        finally:
            wire.close()
