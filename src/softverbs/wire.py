"""Frame model and wire codec for the emulated fabric.

Every unit on the wire is one frame, encoded big-endian:

    offset  size  field
    0       2     magic 0x5642
    2       1     kind (DATA=0, ACK=1, RNR_NAK=2, NAK=3)
    3       1     segment marker (ONLY=0, FIRST=1, MIDDLE=2, LAST=3)
    4       3     destination QPN
    7       3     PSN
    10      4     length field: what it means depends on the kind
    14      ...   payload (DATA), or gap list (NAK)

The kind decides what the length field holds, as an IBTA opcode decides
which extended header follows the BTH: a DATA frame's payload length
(at most ``MAX_PAYLOAD``); a NAK's gap list's length in bytes (whole
records); an RNR NAK's 5-bit RNR delay code (the receiver's
min_rnr_timer, 0-31), which sets the sender's pause, with no body; and
0 for an ACK, which has no body either: an ACK whose field is not 0 is
refused. One private helper, ``_body_length``, holds that rule:
``encode_frame``, ``decode_frame`` and ``frame_body_length`` all ask it
how many bytes follow a header, and it alone refuses a length field the
kind does not allow, or an unknown kind.

A NAK is the PSN sequence error: its PSN is the one the receiver still
waits for while it holds later frames. Its gap list names the PSNs the
receiver misses, as ``GAP_LEN``-byte records, each a gap's first PSN (3
bytes) and its length in PSNs (2 bytes), so that the sender can resend
every reported frame at once, as IRN's selective NACK and TCP's SACK
blocks (RFC 2018) allow. The gap list is an extension of this emulator:
an IBTA RC NAK (an AETH syndrome) has no such field and names one PSN.

On the socket transport each frame is one record, and the header is
self-delimiting because it carries the body's length. Records are
written back to back, a batch of them per UDP datagram, and
``split_records`` cuts a datagram into its records by the length field
alone.

The codec packs and unpacks the whole header with one precomputed
``struct.Struct``, each 24-bit field as a 16-bit and an 8-bit half, and
a gap list with another, one record at a time.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from typing import Iterator, NamedTuple

FRAME_MAGIC = 0x5642
HEADER_LEN = 14
MAX_PAYLOAD = 4096
PSN_BITS = 24
PSN_MASK = (1 << PSN_BITS) - 1
QPN_MASK = (1 << 24) - 1

# the whole header in one call: magic, kind, segment, then each 24-bit
# field (QPN, PSN) as a 16-bit and an 8-bit half, then the length field
_HEADER = struct.Struct(">HBBHBHBI")
# one gap record of a NAK: the first PSN as a 16-bit and an 8-bit half,
# then the gap's length in PSNs
_GAP = struct.Struct(">HBH")
GAP_LEN = _GAP.size


class FrameKind(IntEnum):
    DATA = 0
    ACK = 1
    RNR_NAK = 2
    NAK = 3


class SegMark(IntEnum):
    ONLY = 0
    FIRST = 1
    MIDDLE = 2
    LAST = 3


# each member at the index of its wire code
_KINDS = tuple(FrameKind)
_SEGS = tuple(SegMark)
_DATA = FrameKind.DATA
_ACK = FrameKind.ACK
_RNR_NAK = FrameKind.RNR_NAK
_NAK = FrameKind.NAK


class FrameError(ValueError):
    """Raised for invalid frames at encode or decode time."""


class FrameEncodeError(FrameError):
    pass


class FrameDecodeError(FrameError):
    pass


class Frame(NamedTuple):
    """One unit on the wire; a tuple, so cheap per frame."""

    kind: FrameKind
    dest_qpn: int
    psn: int
    seg: SegMark = SegMark.ONLY
    payload: bytes = b""
    rnr_delay_hint: int = 0


def pack_gaps(gaps) -> bytes:
    """A NAK's gap list: one record per ``(first PSN, count)`` pair."""
    pack = _GAP.pack
    return b"".join([pack(psn >> 8, psn & 0xFF, count)
                     for psn, count in gaps])


def unpack_gaps(payload: bytes) -> list[tuple[int, int]]:
    """The ``(first PSN, count)`` pairs of a NAK's gap list."""
    return [(hi << 8 | lo, count)
            for hi, lo, count in _GAP.iter_unpack(payload)]


def _body_length(kind: int, length_field: int, error: type) -> int:
    """How many bytes follow the header of a frame of wire code ``kind``
    whose length field holds ``length_field``: the one place that says
    what that field may hold. Raises ``error`` for a field the kind does
    not allow, or for an unknown kind."""
    if kind == _DATA:
        if length_field > MAX_PAYLOAD:
            raise error(f"payload length {length_field} over limit "
                        f"{MAX_PAYLOAD}")
        return length_field
    if kind == _ACK:
        if length_field:
            raise error(f"an ACK carries no body (length field "
                        f"{length_field})")
        return 0
    if kind == _NAK:
        if length_field % GAP_LEN or length_field > MAX_PAYLOAD:
            raise error(
                f"gap list of {length_field} bytes is not whole records")
        return length_field
    if kind == _RNR_NAK:
        if not 0 <= length_field < 32:
            raise error(f"rnr delay code {length_field} not a 5-bit code")
        return 0
    raise error(f"unknown frame kind {kind!r}")


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame; refuses what ``decode_frame`` would: a payload
    beyond ``MAX_PAYLOAD`` bytes, a NAK's gap list that is not a whole
    number of records, and a payload on an ACK or an RNR NAK. The engine
    has segmented a message at its QP's MTU before this."""
    kind, qpn, psn, seg, payload, hint = frame
    length_field = hint if kind == _RNR_NAK else len(payload)
    if _body_length(kind, length_field, FrameEncodeError) != len(payload):
        raise FrameEncodeError(f"{_KINDS[kind].name} frames carry no payload")
    if not 0 <= qpn <= QPN_MASK:
        raise FrameEncodeError(f"qpn {qpn:#x} out of 24-bit range")
    if not 0 <= psn <= PSN_MASK:
        raise FrameEncodeError(f"psn {psn:#x} out of 24-bit range")
    return _HEADER.pack(FRAME_MAGIC, kind, seg, qpn >> 8, qpn & 0xFF,
                        psn >> 8, psn & 0xFF, length_field) + payload


def decode_frame(data: bytes) -> Frame:
    """Inverse of encode_frame; strict about magic, lengths, and kinds."""
    if len(data) < HEADER_LEN:
        raise FrameDecodeError(f"truncated header: {len(data)} bytes")
    (magic, kind, seg, qpn_hi, qpn_lo, psn_hi, psn_lo,
     length_field) = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise FrameDecodeError(f"bad magic {magic:#06x}")
    body_len = _body_length(kind, length_field, FrameDecodeError)
    if seg >= len(_SEGS):
        raise FrameDecodeError(f"unknown segment marker {seg}")
    got = len(data) - HEADER_LEN
    if got < body_len:
        raise FrameDecodeError(f"truncated body: {got} of {body_len} bytes")
    if got > body_len:
        raise FrameDecodeError(f"trailing garbage: {got - body_len} bytes")
    return Frame(_KINDS[kind], qpn_hi << 8 | qpn_lo, psn_hi << 8 | psn_lo,
                 _SEGS[seg], bytes(data[HEADER_LEN:]),
                 length_field if kind == _RNR_NAK else 0)


def frame_body_length(header: bytes) -> int:
    """Byte count that follows a 14-byte record header: a DATA frame's
    payload or a NAK's gap list, 0 for the other kinds. Refuses a header
    that ``decode_frame`` would refuse for its magic, kind or length
    field."""
    if len(header) != HEADER_LEN:
        raise FrameDecodeError("header must be exactly 14 bytes")
    magic, kind, _, _, _, _, _, length_field = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise FrameDecodeError("bad magic in record header")
    return _body_length(kind, length_field, FrameDecodeError)


def split_records(datagram: bytes) -> Iterator[bytes]:
    """Yield each record of a datagram, whose records are written back to
    back, as bytes; each is cut at the length its header gives. A record
    whose header is refused, or that the datagram cuts short, raises
    ``FrameDecodeError`` after the records before it were yielded."""
    pos, size = 0, len(datagram)
    while pos < size:
        end = pos + HEADER_LEN + frame_body_length(
            datagram[pos:pos + HEADER_LEN])
        if end > size:
            raise FrameDecodeError(
                f"record cut short: {size - pos} of {end - pos} bytes")
        yield datagram[pos:end]
        pos = end
