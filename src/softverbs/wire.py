"""Frame model and wire codec for the emulated fabric.

Every unit on the wire is one frame, encoded big-endian:

    offset  size  field
    0       2     magic 0x5642
    2       1     kind (DATA=0, ACK=1, RNR_NAK=2, NAK=3)
    3       1     segment marker (ONLY=0, FIRST=1, MIDDLE=2, LAST=3)
    4       3     destination QPN
    7       3     PSN
    10      4     payload length; for RNR_NAK the low byte carries the
                  receiver's retry-delay hint and no payload follows;
                  0 for ACK and NAK
    14      ...   payload (DATA only)

A NAK is the PSN sequence error: its PSN is the one the receiver still
waits for while it holds later frames.

On the stream transport each frame is one record, and the header is
self-delimiting because it carries the payload length. Records are
written back to back, a batch of them per ``send``, so a reader splits
the stream by the length field alone.

The codec packs and unpacks the whole header with one precomputed
``struct.Struct``, each 24-bit field as a 16-bit and an 8-bit half.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from typing import NamedTuple

FRAME_MAGIC = 0x5642
HEADER_LEN = 14
MAX_PAYLOAD = 4096
PSN_BITS = 24
PSN_MASK = (1 << PSN_BITS) - 1
QPN_MASK = (1 << 24) - 1

# the whole header in one call: magic, kind, segment, then each 24-bit
# field (QPN, PSN) as a 16-bit and an 8-bit half, then the length field
_HEADER = struct.Struct(">HBBHBHBI")


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
_RNR_NAK = FrameKind.RNR_NAK


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


def encode_frame(frame: Frame, mtu: int = MAX_PAYLOAD) -> bytes:
    """Serialize a frame; rejects payloads beyond the negotiated MTU."""
    kind, qpn, psn, seg, payload, hint = frame
    if kind not in _KINDS:
        raise FrameEncodeError(f"unknown frame kind {kind!r}")
    if not 0 <= qpn <= QPN_MASK:
        raise FrameEncodeError(f"qpn {qpn:#x} out of 24-bit range")
    if not 0 <= psn <= PSN_MASK:
        raise FrameEncodeError(f"psn {psn:#x} out of 24-bit range")
    if kind == _DATA:
        limit = min(mtu, MAX_PAYLOAD)
        if len(payload) > limit:
            raise FrameEncodeError(
                f"payload of {len(payload)} bytes exceeds mtu {limit}")
        length_field = len(payload)
    elif payload:
        raise FrameEncodeError(f"{_KINDS[kind].name} frames carry no payload")
    elif kind == _RNR_NAK:
        if not 0 <= hint < 32:
            raise FrameEncodeError(f"rnr delay hint {hint} not a 5-bit code")
        length_field = hint
    else:
        length_field = 0
    return _HEADER.pack(FRAME_MAGIC, kind, seg, qpn >> 8, qpn & 0xFF,
                        psn >> 8, psn & 0xFF, length_field) + payload


def decode_frame(data: bytes) -> Frame:
    """Inverse of encode_frame; strict about magic, lengths, and kinds."""
    if len(data) < HEADER_LEN:
        raise FrameDecodeError(f"truncated header: {len(data)} bytes")
    (magic, kind_raw, seg_raw, qpn_hi, qpn_lo, psn_hi, psn_lo,
     length_field) = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise FrameDecodeError(f"bad magic {magic:#06x}")
    if kind_raw >= len(_KINDS):
        raise FrameDecodeError(f"unknown frame kind {kind_raw}")
    if seg_raw >= len(_SEGS):
        raise FrameDecodeError(f"unknown segment marker {seg_raw}")
    kind = _KINDS[kind_raw]
    seg = _SEGS[seg_raw]
    dest_qpn = qpn_hi << 8 | qpn_lo
    psn = psn_hi << 8 | psn_lo
    if kind is _DATA:
        if length_field > MAX_PAYLOAD:
            raise FrameDecodeError(f"payload length {length_field} over limit")
        body_len = len(data) - HEADER_LEN
        if body_len < length_field:
            raise FrameDecodeError(
                f"truncated payload: {body_len} of {length_field} bytes")
        if body_len > length_field:
            raise FrameDecodeError(
                f"trailing garbage: {body_len - length_field} bytes")
        return Frame(kind, dest_qpn, psn, seg, bytes(data[HEADER_LEN:]))
    if len(data) != HEADER_LEN:
        raise FrameDecodeError(f"{kind.name} frame with trailing bytes")
    if kind is _RNR_NAK:
        return Frame(kind, dest_qpn, psn, seg, b"", length_field & 0xFF)
    return Frame(kind, dest_qpn, psn, seg)


def frame_body_length(header: bytes) -> int:
    """Payload byte count that follows a 14-byte header on a stream."""
    if len(header) != HEADER_LEN:
        raise FrameDecodeError("header must be exactly 14 bytes")
    magic, kind, _, _, _, _, _, length = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise FrameDecodeError("bad magic in stream header")
    if kind != _DATA:
        return 0
    if length > MAX_PAYLOAD:
        raise FrameDecodeError(f"payload length {length} over limit")
    return length
