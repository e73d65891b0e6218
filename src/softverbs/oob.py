"""Out-of-band destination exchange over a plain TCP socket.

Before two queue pairs can be pointed at each other, each side must learn
the peer's LID, QPN, initial PSN, and GID. The exchange is one newline
terminated text record each way: the client writes first, the server
reads the whole line and then replies.

A server given ``on_peer`` calls it with the client's destination
before it replies. The pingpong server connects its QP there, as
rdma-core's ``rc_pingpong.c`` does in ``pp_server_exch_dest``: the
client may post as soon as it has the reply, and its first frames must
find a QP already in RTR.

Record layout (all lowercase hex, fixed widths, colon separated):

    LLLL:QQQQQQ:PPPPPP:GGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGG\n

lid is 4 digits, qpn and psn 6 each, gid 32. Parsing accepts uppercase.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Callable

DEFAULT_PORT = 18515
_WIDTHS = (4, 6, 6, 32)


class ExchangeError(Exception):
    pass


class DestinationFormatError(ExchangeError):
    pass


@dataclass(frozen=True)
class Destination:
    lid: int
    qpn: int
    psn: int
    gid: bytes = bytes(16)

    def __post_init__(self):
        if not 0 <= self.lid < (1 << 16):
            raise ValueError(f"lid {self.lid:#x} out of 16-bit range")
        if not 0 <= self.qpn < (1 << 24):
            raise ValueError(f"qpn {self.qpn:#x} out of 24-bit range")
        if not 0 <= self.psn < (1 << 24):
            raise ValueError(f"psn {self.psn:#x} out of 24-bit range")
        if len(self.gid) != 16:
            raise ValueError("gid must be exactly 16 bytes")


def encode_destination(dest: Destination) -> str:
    return f"{dest.lid:04x}:{dest.qpn:06x}:{dest.psn:06x}:{dest.gid.hex()}\n"


def decode_destination(line: str) -> Destination:
    """Strict inverse of encode_destination; case-insensitive hex."""
    body = line[:-1] if line.endswith("\n") else line
    fields = body.split(":")
    if len(fields) != 4:
        raise DestinationFormatError(
            f"expected 4 colon-separated fields, got {len(fields)}")
    values = []
    for text, width in zip(fields, _WIDTHS):
        if len(text) != width:
            raise DestinationFormatError(
                f"field {text!r} is not {width} hex digits")
        try:
            values.append(int(text, 16))
        except ValueError:
            raise DestinationFormatError(f"non-hex field {text!r}") from None
    return Destination(values[0], values[1], values[2],
                       values[3].to_bytes(16, "big"))


def _read_line(sock: socket.socket) -> str:
    chunks = []
    while True:
        b = sock.recv(1)
        if not b:
            raise ExchangeError("peer closed before sending a full record")
        if b == b"\n":
            return b"".join(chunks).decode("ascii", errors="replace") + "\n"
        chunks.append(b)
        if len(chunks) > 256:
            raise DestinationFormatError("oversized destination record")


def exchange_as_client(host: str, port: int,
                       mine: Destination) -> Destination:
    """Connect to the listening peer, send ours, read theirs."""
    try:
        sock = socket.create_connection((host, port), timeout=30.0)
    except OSError as exc:
        raise ExchangeError(f"connect to {host}:{port} failed: {exc}") from exc
    with sock:
        sock.sendall(encode_destination(mine).encode("ascii"))
        return decode_destination(_read_line(sock))


def exchange_as_server(port: int, mine: Destination,
                       ready: "threading.Event | None" = None,
                       on_peer: "Callable[[Destination], None] | None" = None
                       ) -> Destination:
    """Accept one client, read its destination, pass it to ``on_peer``,
    reply with ours. If ``on_peer`` raises, the client gets no reply."""
    lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        lsock.bind(("", port))
    except OSError as exc:
        lsock.close()
        raise ExchangeError(f"bind on port {port} failed: {exc}") from exc
    with lsock:
        lsock.listen(1)
        if ready is not None:
            ready.set()
        lsock.settimeout(60.0)
        try:
            conn, _ = lsock.accept()
        except OSError as exc:
            raise ExchangeError(f"accept failed: {exc}") from exc
        with conn:
            theirs = decode_destination(_read_line(conn))
            if on_peer is not None:
                on_peer(theirs)
            conn.sendall(encode_destination(mine).encode("ascii"))
            return theirs
