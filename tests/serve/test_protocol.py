"""Wire framing: message bodies, payload packing, websocket frames."""

from __future__ import annotations

import random

import pytest

from repro.errors import ServeError
from repro.serve.protocol import (
    MAGIC,
    _apply_mask,
    MAX_MESSAGE_BYTES,
    decode_message,
    encode_message,
    frame_head,
    pack_payloads,
    unpack_payloads,
    ws_accept_key,
    ws_decode_frame,
    ws_encode_frame,
)


class TestMessages:
    def test_round_trip(self):
        header = {"op": "fetch", "query": "Storm", "id": 7, "tail": True}
        payload = bytes(range(256)) * 3
        got_header, got_payload = decode_message(encode_message(header, payload))
        assert got_header == header
        assert got_payload == payload

    def test_empty_payload(self):
        header, payload = decode_message(encode_message({"op": "ping"}))
        assert header == {"op": "ping"}
        assert payload == b""

    def test_unicode_header(self):
        header = {"error": "tuvalé — ünïcode ☂"}
        assert decode_message(encode_message(header))[0] == header

    def test_frame_message_prefixes_length(self):
        body = encode_message({"op": "hello"})
        framed = frame_head(len(body)) + body
        assert framed[:4] == len(body).to_bytes(4, "big")
        assert framed[4:] == body

    def test_too_short_rejected(self):
        with pytest.raises(ServeError, match="too short"):
            decode_message(b"\x00\x00")

    def test_truncated_header_rejected(self):
        with pytest.raises(ServeError, match="truncated"):
            decode_message(b"\x00\x00\x00\xff{}")

    def test_non_json_header_rejected(self):
        body = b"\x00\x00\x00\x04abcd"
        with pytest.raises(ServeError, match="not valid JSON"):
            decode_message(body)

    def test_non_object_header_rejected(self):
        body = b"\x00\x00\x00\x02[]"
        with pytest.raises(ServeError, match="JSON object"):
            decode_message(body)

    def test_magic_is_eight_bytes(self):
        assert MAGIC == b"CRAQR/2\n"
        assert len(MAGIC) == 8


class TestPackedPayloads:
    def test_round_trip(self):
        items = [b"", b"a", b"frame-two", bytes(1000)]
        assert unpack_payloads(pack_payloads(items)) == items

    def test_empty_list(self):
        assert unpack_payloads(pack_payloads([])) == []

    def test_truncated_count_rejected(self):
        with pytest.raises(ServeError, match="count prefix"):
            unpack_payloads(b"\x00")

    def test_truncated_item_rejected(self):
        packed = pack_payloads([b"hello"])
        with pytest.raises(ServeError, match="truncated"):
            unpack_payloads(packed[:-2])

    def test_missing_item_length_rejected(self):
        packed = pack_payloads([b"a", b"b"])
        with pytest.raises(ServeError, match="truncated"):
            unpack_payloads(packed[:6])


class TestWebsocket:
    def test_accept_key_matches_rfc6455_example(self):
        # The worked example from RFC 6455 section 1.3.
        assert (
            ws_accept_key("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    @pytest.mark.parametrize("size", [0, 1, 125, 126, 127, 65535, 65536, 70000])
    def test_frame_round_trip_all_length_encodings(self, size):
        payload = bytes(i % 251 for i in range(size))
        opcode, got, consumed = ws_decode_frame(ws_encode_frame(payload))
        assert opcode == 0x2
        assert got == payload
        assert consumed == len(ws_encode_frame(payload))

    def test_masked_frame_round_trip(self):
        payload = b"masked but with the zero key XOR is the identity"
        frame = ws_encode_frame(payload, mask=True)
        assert frame[1] & 0x80  # mask bit set
        opcode, got, consumed = ws_decode_frame(frame)
        assert got == payload
        assert consumed == len(frame)

    def test_nonzero_mask_key_applied(self):
        # Hand-build a masked frame with a real key; the decoder must XOR.
        payload = b"abcd" * 3
        key = b"\x01\x02\x03\x04"
        masked = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
        frame = bytes([0x82, 0x80 | len(payload)]) + key + masked
        opcode, got, consumed = ws_decode_frame(frame)
        assert got == payload

    @pytest.mark.parametrize(
        "size", [0, 1, 2, 3, 125, 126, 65535, 65536, 2**20]
    )
    def test_mask_equals_the_per_byte_xor(self, size):
        rng = random.Random(size)
        payload = rng.randbytes(size)
        for key in (rng.randbytes(4), b"\x00\x00\x00\x01", b"\xff\xff\xff\xff"):
            masked = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
            assert _apply_mask(payload, key) == masked
            # The client unmasks a view into its buffer, at any offset.
            view = memoryview(b"x" + payload)[1:]
            assert _apply_mask(view, key) == masked

    def test_incomplete_buffer_consumes_nothing(self):
        frame = ws_encode_frame(b"0123456789")
        for cut in range(len(frame)):
            opcode, payload, consumed = ws_decode_frame(frame[:cut])
            assert consumed == 0

    def test_opcode_passthrough(self):
        for opcode in (0x1, 0x8, 0x9, 0xA):
            got, _, _ = ws_decode_frame(ws_encode_frame(b"x", opcode=opcode))
            assert got == opcode

    def test_message_size_cap_documented(self):
        assert MAX_MESSAGE_BYTES == 64 * 1024 * 1024
