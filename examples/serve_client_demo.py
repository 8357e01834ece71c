"""The serving layer, end to end: DDL over the wire, frames, reconnect.

One :class:`~repro.serve.Server` owns a live engine over the simulated
city; this script plays a dashboard client against it:

* open a TCP connection, say hello, register a rain query plus a
  per-cell AVG view with one ``execute`` script, and ``EXPLAIN`` the
  query's plan,
* subscribe to the view and consume closed-window frames as push events
  while asking the server to advance batches,
* "crash" — drop the socket mid-stream, keeping only the resume token
  from the last frame that was safely processed,
* reconnect and resume from the token: the stream continues exactly
  once, no frame lost, no frame repeated,
* pull the raw tuple stream once with a cursor fetch, then resume the
  cursor from its token to read only what arrived since.

Run with::

    PYTHONPATH=src python examples/serve_client_demo.py
"""

from repro.core import CraqrEngine
from repro.serve import ServeClient, ServeConfig, serve_in_thread
from repro.streams.codec import decode_tuple_batch, decode_view_frame
from repro.workloads import build_rain_temperature_world, default_engine_config


def frame_line(frame) -> str:
    cells = ", ".join(
        f"{key}={value:.2f}" for key, value in zip(frame.keys, frame.values)
    )
    return (
        f"  frame {frame.frame_index}  [{frame.window_start:3.0f}, "
        f"{frame.window_end:3.0f})  {cells if cells else '(empty window)'}"
    )


def read_frames(client: ServeClient, count: int):
    """Read exactly ``count`` frame push events; return (frames, last token)."""
    frames, token = [], None
    while len(frames) < count:
        header, payload = client.next_event(timeout=30)
        if header.get("event") != "frame":
            continue
        frames.append(decode_view_frame(payload))
        token = header["token"]  # resumes *after* this frame
    return frames, token


def main() -> None:
    engine = CraqrEngine(
        default_engine_config(seed=21), build_rain_temperature_world(seed=19)
    )
    server, (host, port), stop = serve_in_thread(engine, ServeConfig())
    print(f"server up on {host}:{port}")

    try:
        client = ServeClient(host, port)
        hello = client.hello()
        print(f"hello: protocol {hello['protocol']}, {hello['batches_run']} batches run")

        print("\n== DDL over the wire ==")
        for result in client.execute(
            "ACQUIRE rain FROM RECT(0, 0, 2, 2) AT RATE 12 PER KM2 PER MIN AS Storm; "
            "CREATE VIEW Tiles ON Storm AS AVG(value) GROUP BY CELL WINDOW 2; "
            "SHOW QUERIES; "
            "EXPLAIN Storm",
            mode="text",
        ):
            if "text" in result:  # SHOW/EXPLAIN render as the repl's tables
                print(result["text"])
            elif result["kind"] == "query":
                q = result["query"]
                print(f"registered {q['label']}: {q['attribute']} at rate {q['rate']}")
            elif result["kind"] == "view":
                v = result["view"]
                print(f"created view {v['name']} on {v['on']}: {v['spec']}")

        print("\n== subscribe and stream frames ==")
        client.subscribe(view="Tiles", policy="skip")
        client.run(6)  # window 2 -> frames 0, 1, 2
        frames, token = read_frames(client, 3)
        for frame in frames:
            print(frame_line(frame))

        print("\n== simulated crash: dropping the socket ==")
        client.close()  # no unsubscribe, no goodbye — just gone

        print("== reconnect, resume from the saved token ==")
        client = ServeClient(host, port)
        client.subscribe(view="Tiles", token=token)
        client.run(4)  # frames 3, 4 — the token already covers 0..2
        frames, token = read_frames(client, 2)
        for frame in frames:
            print(frame_line(frame))
        print("  (exactly once: resumed at frame 3, nothing lost or repeated)")

        print("\n== pull the raw tuple stream ==")
        header, payload = client.fetch(query="Storm")
        batch = decode_tuple_batch(payload)
        print(f"  full history: {len(batch)} tuples; cursor token saved")
        client.run(2)
        header, payload = client.fetch(query="Storm", token=header["token"])
        print(f"  resumed fetch: {len(decode_tuple_batch(payload))} new tuples only")

        print(f"\nserver totals: {server.batches_served} batches served over the wire")
        client.shutdown()
        client.close()
    finally:
        stop()
    print("server stopped")


if __name__ == "__main__":
    main()
