import socket
import threading

import pytest
from hypothesis import given, strategies as st

from conftest import free_port
from softverbs.oob import (
    Destination,
    DestinationFormatError,
    ExchangeError,
    _read_line,
    decode_destination,
    encode_destination,
    exchange_as_client,
    exchange_as_server,
)

# the values shown on the wire in a real run: lid 0x0008, qpn 0x580048,
# psn 0x2a166f, zero gid
KNOWN_LINE = "0008:580048:2a166f:" + "0" * 32 + "\n"
KNOWN_DEST = Destination(lid=0x0008, qpn=0x580048, psn=0x2A166F)


class TestDestinationCodec:
    def test_known_line_encodes(self):
        assert encode_destination(KNOWN_DEST) == KNOWN_LINE

    def test_known_line_decodes(self):
        assert decode_destination(KNOWN_LINE) == KNOWN_DEST

    def test_all_zero_destination(self):
        line = encode_destination(Destination(0, 0, 0))
        assert line == "0000:000000:000000:" + "0" * 32 + "\n"

    def test_uppercase_accepted(self):
        assert decode_destination(KNOWN_LINE.upper()) == KNOWN_DEST

    def test_emission_is_lowercase(self):
        line = encode_destination(Destination(0xABC, 0xDEF012, 0xFEDCBA))
        assert line == line.lower()

    def test_missing_fields_rejected(self):
        with pytest.raises(DestinationFormatError):
            decode_destination("0008:580048")

    def test_wrong_width_rejected(self):
        with pytest.raises(DestinationFormatError):
            decode_destination("8:580048:2a166f:" + "0" * 32)

    def test_non_hex_rejected(self):
        with pytest.raises(DestinationFormatError):
            decode_destination("zzzz:580048:2a166f:" + "0" * 32)

    def test_out_of_range_values_rejected_at_build(self):
        with pytest.raises(ValueError):
            Destination(1 << 16, 0, 0)
        with pytest.raises(ValueError):
            Destination(0, 1 << 24, 0)
        with pytest.raises(ValueError):
            Destination(0, 0, 1 << 24)
        with pytest.raises(ValueError):
            Destination(0, 0, 0, gid=b"short")

    @given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 24) - 1),
           st.integers(0, (1 << 24) - 1), st.binary(min_size=16, max_size=16))
    def test_roundtrip_property(self, lid, qpn, psn, gid):
        dest = Destination(lid, qpn, psn, gid)
        assert decode_destination(encode_destination(dest)) == dest


class _Peer:
    """A socket's ``recv`` over the chunks a peer wrote, then EOF."""

    def __init__(self, *chunks):
        self.chunks = list(chunks)
        self.calls = 0

    def recv(self, bufsize):
        self.calls += 1
        if not self.chunks:
            return b""
        chunk = self.chunks.pop(0)
        if len(chunk) > bufsize:
            self.chunks.insert(0, chunk[bufsize:])
        return chunk[:bufsize]


class TestReadLine:
    def test_a_record_written_at_once_is_one_recv(self):
        peer = _Peer(KNOWN_LINE.encode())
        assert _read_line(peer) == KNOWN_LINE
        assert peer.calls == 1

    def test_a_record_written_bytewise_is_read_whole(self):
        peer = _Peer(*(bytes([b]) for b in KNOWN_LINE.encode()))
        assert _read_line(peer) == KNOWN_LINE

    def test_the_longest_record_fits(self):
        line = "0" * 256 + "\n"
        assert _read_line(_Peer(line.encode())) == line

    def test_an_oversized_record_is_refused_after_257_bytes(self):
        peer = _Peer(b"0" * 300)
        with pytest.raises(DestinationFormatError):
            _read_line(peer)
        assert peer.chunks == [b"0" * 43]  # read no further than the bound

    def test_a_peer_closing_mid_record_is_an_exchange_error(self):
        with pytest.raises(ExchangeError, match="peer closed") as err:
            _read_line(_Peer(KNOWN_LINE[:10].encode()))
        assert not isinstance(err.value, DestinationFormatError)


def _serve(port, mine, box, ready):
    try:
        box["theirs"] = exchange_as_server(port, mine, ready=ready)
    except Exception as exc:  # propagated by the caller
        box["error"] = exc


class TestExchange:
    def test_both_sides_learn_each_other(self):
        port = free_port()
        server_dest = Destination(8, 0x580048, 0x2A166F)
        client_dest = Destination(3, 0x580048, 0x5C3F21)
        box = {}
        ready = threading.Event()
        t = threading.Thread(target=_serve,
                             args=(port, server_dest, box, ready), daemon=True)
        t.start()
        assert ready.wait(5)
        got_server = exchange_as_client("127.0.0.1", port, client_dest)
        t.join(timeout=5)
        assert got_server == server_dest
        assert box["theirs"] == client_dest

    def test_no_server_is_connect_error(self):
        with pytest.raises(ExchangeError):
            exchange_as_client("127.0.0.1", free_port(), KNOWN_DEST)

    def test_garbage_from_peer_is_parse_error(self):
        port = free_port()
        ready = threading.Event()

        def fake_server():
            lsock = socket.socket()
            lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            lsock.bind(("", port))
            lsock.listen(1)
            ready.set()
            conn, _ = lsock.accept()
            conn.recv(4096)
            conn.sendall(b"not a destination at all\n")
            conn.close()
            lsock.close()

        t = threading.Thread(target=fake_server, daemon=True)
        t.start()
        assert ready.wait(5)
        with pytest.raises(DestinationFormatError):
            exchange_as_client("127.0.0.1", port, KNOWN_DEST)

    def test_server_rejects_garbage(self):
        port = free_port()
        box = {}
        ready = threading.Event()
        t = threading.Thread(target=_serve,
                             args=(port, KNOWN_DEST, box, ready), daemon=True)
        t.start()
        assert ready.wait(5)
        with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
            s.sendall(b"garbage!\n")
        t.join(timeout=5)
        assert isinstance(box.get("error"), DestinationFormatError)

    def test_bind_conflict_is_an_error(self):
        port = free_port()
        blocker = socket.socket()
        blocker.bind(("", port))
        blocker.listen(1)
        try:
            with pytest.raises(ExchangeError):
                exchange_as_server(port, KNOWN_DEST)
        finally:
            blocker.close()

    def test_client_writes_first_server_replies(self):
        # transcript order: silence until our line goes out, reply after
        port = free_port()
        box = {}
        ready = threading.Event()
        t = threading.Thread(target=_serve,
                             args=(port, KNOWN_DEST, box, ready), daemon=True)
        t.start()
        assert ready.wait(5)
        with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
            s.settimeout(0.2)
            with pytest.raises(TimeoutError):
                s.recv(1)  # server must not speak first
            s.settimeout(5)
            s.sendall(encode_destination(KNOWN_DEST).encode())
            reply = s.recv(4096)
        assert decode_destination(reply.decode()) == KNOWN_DEST
        t.join(timeout=5)
