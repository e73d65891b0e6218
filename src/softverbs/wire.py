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

The stream transport sends one frame per record; the header is
self-delimiting because it carries the payload length.
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

_HEADER = struct.Struct(">HBB")


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
    if frame.kind not in (FrameKind.DATA, FrameKind.ACK, FrameKind.RNR_NAK,
                          FrameKind.NAK):
        raise FrameEncodeError(f"unknown frame kind {frame.kind!r}")
    if not 0 <= frame.dest_qpn <= QPN_MASK:
        raise FrameEncodeError(f"qpn {frame.dest_qpn:#x} out of 24-bit range")
    if not 0 <= frame.psn <= PSN_MASK:
        raise FrameEncodeError(f"psn {frame.psn:#x} out of 24-bit range")
    if frame.kind == FrameKind.DATA:
        limit = min(mtu, MAX_PAYLOAD)
        if len(frame.payload) > limit:
            raise FrameEncodeError(
                f"payload of {len(frame.payload)} bytes exceeds mtu {limit}")
        length_field = len(frame.payload)
    else:
        if frame.payload:
            raise FrameEncodeError(f"{frame.kind.name} frames carry no payload")
        if frame.kind == FrameKind.RNR_NAK:
            if not 0 <= frame.rnr_delay_hint < 32:
                raise FrameEncodeError(
                    f"rnr delay hint {frame.rnr_delay_hint} not a 5-bit code")
            length_field = frame.rnr_delay_hint
        else:
            length_field = 0
    return b"".join((
        _HEADER.pack(FRAME_MAGIC, frame.kind, frame.seg),
        frame.dest_qpn.to_bytes(3, "big"),
        frame.psn.to_bytes(3, "big"),
        length_field.to_bytes(4, "big"),
        frame.payload,
    ))


def decode_frame(data: bytes) -> Frame:
    """Inverse of encode_frame; strict about magic, lengths, and kinds."""
    if len(data) < HEADER_LEN:
        raise FrameDecodeError(f"truncated header: {len(data)} bytes")
    magic, kind_raw, seg_raw = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise FrameDecodeError(f"bad magic {magic:#06x}")
    try:
        kind = FrameKind(kind_raw)
    except ValueError:
        raise FrameDecodeError(f"unknown frame kind {kind_raw}") from None
    try:
        seg = SegMark(seg_raw)
    except ValueError:
        raise FrameDecodeError(f"unknown segment marker {seg_raw}") from None
    dest_qpn = int.from_bytes(data[4:7], "big")
    psn = int.from_bytes(data[7:10], "big")
    length_field = int.from_bytes(data[10:14], "big")
    if kind == FrameKind.DATA:
        if length_field > MAX_PAYLOAD:
            raise FrameDecodeError(f"payload length {length_field} over limit")
        body = data[HEADER_LEN:]
        if len(body) < length_field:
            raise FrameDecodeError(
                f"truncated payload: {len(body)} of {length_field} bytes")
        if len(body) > length_field:
            raise FrameDecodeError(
                f"trailing garbage: {len(body) - length_field} bytes")
        return Frame(kind, dest_qpn, psn, seg, bytes(body))
    if len(data) != HEADER_LEN:
        raise FrameDecodeError(f"{kind.name} frame with trailing bytes")
    if kind == FrameKind.RNR_NAK:
        return Frame(kind, dest_qpn, psn, seg, b"", length_field & 0xFF)
    return Frame(kind, dest_qpn, psn, seg)


def frame_body_length(header: bytes) -> int:
    """Payload byte count that follows a 14-byte header on a stream."""
    if len(header) != HEADER_LEN:
        raise FrameDecodeError("header must be exactly 14 bytes")
    if int.from_bytes(header[:2], "big") != FRAME_MAGIC:
        raise FrameDecodeError("bad magic in stream header")
    if header[2] != FrameKind.DATA:
        return 0
    length = int.from_bytes(header[10:14], "big")
    if length > MAX_PAYLOAD:
        raise FrameDecodeError(f"payload length {length} over limit")
    return length
