"""CRQ5xx — wire-schema consistency fixtures."""

from __future__ import annotations

from lint_harness import codes

SERVER_OK = """\
class Server:
    def _op_status(self, conn, header):
        detail = header.get("detail")
        return {"detail": detail}

    def _op_read(self, conn, header):
        return {"rows": header["limit"]}
"""


def test_unknown_op_flagged(lint):
    report = lint(
        {
            "serve/client.py": """\
            def request_shutdown(conn):
                conn.send({"op": "shutdown", "id": 1})
            """,
            "serve/server.py": SERVER_OK,
        }
    )
    assert codes(report) == ["CRQ501"]


def test_unread_header_key_flagged(lint):
    report = lint(
        {
            "serve/client.py": """\
            def request_status(conn):
                conn.send({"op": "status", "id": 1, "verbose": True})
            """,
            "serve/server.py": SERVER_OK,
        }
    )
    assert codes(report) == ["CRQ502"]
    assert "'verbose'" in report.findings[0].message


def test_matching_schema_is_clean(lint):
    report = lint(
        {
            "serve/client.py": """\
            def request_status(conn):
                conn.send({"op": "status", "id": 1, "detail": "full"})

            def request_read(conn, limit):
                header = {"op": "read", "id": 2}
                header["limit"] = limit
                conn.send(header)
            """,
            "serve/server.py": SERVER_OK,
        }
    )
    assert codes(report) == []


def test_grown_header_dict_keys_are_tracked(lint):
    report = lint(
        {
            "serve/client.py": """\
            def request_read(conn, limit):
                header = {"op": "read", "id": 2}
                header["offset"] = 0
                conn.send(header)
            """,
            "serve/server.py": SERVER_OK,
        }
    )
    assert codes(report) == ["CRQ502"]


def test_magic_literal_outside_protocol_module_flagged(lint):
    report = lint(
        {
            "serve/client.py": "MAGIC = b\"CRAQR/1\\n\"\n",
            "serve/server.py": SERVER_OK,
        }
    )
    assert codes(report) == ["CRQ503"]


def test_protocol_literal_inside_a_larger_string_flagged(lint):
    report = lint(
        {
            "cli.py": """\
            def banner(out, host, port):
                \"\"\"Print that this serves craqr/1 (a docstring is prose).\"\"\"
                out(f"serving craqr/1 on {host}:{port}; ctrl-c stops")
                out("a greeting: CRAQR/1 spoken here")
            """,
            "serve/server.py": SERVER_OK,
        }
    )
    assert codes(report) == ["CRQ503", "CRQ503"]


def test_magic_literal_inside_protocol_module_is_clean(lint):
    report = lint(
        {
            "serve/protocol.py": "MAGIC = b\"CRAQR/1\\n\"\nPROTOCOL = \"craqr/1\"\n",
        }
    )
    assert codes(report) == []


def test_inline_suppression_waives_wire_finding(lint):
    report = lint(
        {
            "serve/client.py": """\
            def request_shutdown(conn):
                conn.send({"op": "shutdown", "id": 1})  # craqr: ignore[CRQ501] - server-side handler pending
            """,
            "serve/server.py": SERVER_OK,
        }
    )
    assert codes(report) == []
    assert report.suppressed == 1


def test_no_pair_check_without_both_modules(lint):
    report = lint(
        {
            "serve/client.py": """\
            def request_shutdown(conn):
                conn.send({"op": "shutdown", "id": 1})
            """,
        }
    )
    assert codes(report) == []
