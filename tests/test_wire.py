import pytest
from hypothesis import given, strategies as st

from softverbs.wire import (
    Frame,
    FrameDecodeError,
    FrameEncodeError,
    FrameKind,
    HEADER_LEN,
    MAX_PAYLOAD,
    SegMark,
    decode_frame,
    encode_frame,
    frame_body_length,
)

# the worked 14-byte ACK record: magic, kind=1, seg=0, qpn=1, psn=0, len=0
ACK_HEX = "5642010000000100000000000000"


def test_ack_frame_worked_example():
    frame = Frame(FrameKind.ACK, dest_qpn=0x000001, psn=0)
    assert encode_frame(frame).hex() == ACK_HEX
    assert len(encode_frame(frame)) == 14


def test_ack_frame_decodes_exactly():
    frame = decode_frame(bytes.fromhex(ACK_HEX))
    assert frame == Frame(FrameKind.ACK, 1, 0, SegMark.ONLY)


def test_data_frame_layout():
    frame = Frame(FrameKind.DATA, 0xABCDEF, 0x123456, SegMark.LAST, b"xyz")
    data = encode_frame(frame)
    assert data[:2] == b"\x56\x42"
    assert data[2] == 0
    assert data[3] == 3
    assert data[4:7] == b"\xab\xcd\xef"
    assert data[7:10] == b"\x12\x34\x56"
    assert data[10:14] == b"\x00\x00\x00\x03"
    assert data[14:] == b"xyz"


def test_frame_is_an_immutable_tuple_with_defaults():
    frame = Frame(FrameKind.ACK, 1, 0)
    assert frame == Frame(FrameKind.ACK, 1, 0, SegMark.ONLY, b"", 0)
    assert (frame.seg, frame.payload, frame.rnr_delay_hint) == \
        (SegMark.ONLY, b"", 0)
    with pytest.raises(AttributeError):
        frame.psn = 5


def test_rnr_nak_hint_rides_in_length_field():
    frame = Frame(FrameKind.RNR_NAK, 5, 9, rnr_delay_hint=12)
    data = encode_frame(frame)
    assert len(data) == HEADER_LEN
    assert data[13] == 12
    assert decode_frame(data) == frame


def test_oversized_payload_rejected_at_encode():
    frame = Frame(FrameKind.DATA, 1, 0, SegMark.ONLY, bytes(4096))
    with pytest.raises(FrameEncodeError):
        encode_frame(frame, mtu=1024)
    # at or under the mtu is fine
    encode_frame(Frame(FrameKind.DATA, 1, 0, SegMark.ONLY, bytes(1024)),
                 mtu=1024)


def test_bad_magic_rejected():
    data = bytearray(encode_frame(Frame(FrameKind.ACK, 1, 0)))
    data[0] ^= 0xFF
    with pytest.raises(FrameDecodeError):
        decode_frame(bytes(data))


def test_truncated_payload_rejected():
    data = encode_frame(Frame(FrameKind.DATA, 1, 0, SegMark.ONLY, b"abcdef"))
    with pytest.raises(FrameDecodeError):
        decode_frame(data[:-2])
    with pytest.raises(FrameDecodeError):
        decode_frame(data[:7])


def test_trailing_garbage_rejected():
    data = encode_frame(Frame(FrameKind.ACK, 1, 0))
    with pytest.raises(FrameDecodeError):
        decode_frame(data + b"!")


def test_unknown_kind_rejected():
    data = bytearray(encode_frame(Frame(FrameKind.ACK, 1, 0)))
    data[2] = 9
    with pytest.raises(FrameDecodeError):
        decode_frame(bytes(data))


def test_out_of_range_fields_rejected_at_encode():
    with pytest.raises(FrameEncodeError):
        encode_frame(Frame(FrameKind.ACK, 1 << 24, 0))
    with pytest.raises(FrameEncodeError):
        encode_frame(Frame(FrameKind.ACK, 1, 1 << 24))
    with pytest.raises(FrameEncodeError):
        encode_frame(Frame(FrameKind.RNR_NAK, 1, 0, rnr_delay_hint=32))
    with pytest.raises(FrameEncodeError):
        encode_frame(Frame(FrameKind.ACK, 1, 0, payload=b"no"))


def test_stream_body_length():
    data = encode_frame(Frame(FrameKind.DATA, 1, 2, SegMark.ONLY, b"hello"))
    assert frame_body_length(data[:HEADER_LEN]) == 5
    ack = encode_frame(Frame(FrameKind.ACK, 1, 2))
    assert frame_body_length(ack) == 0
    # RNR delay hint must not be mistaken for a body length
    nak = encode_frame(Frame(FrameKind.RNR_NAK, 1, 2, rnr_delay_hint=20))
    assert frame_body_length(nak) == 0
    # a stream reader buffers up to the length, so an overlong one is bad
    big = data[:10] + (MAX_PAYLOAD + 1).to_bytes(4, "big")
    with pytest.raises(FrameDecodeError):
        frame_body_length(big)


frames = st.one_of(
    st.builds(Frame,
              kind=st.just(FrameKind.DATA),
              dest_qpn=st.integers(0, (1 << 24) - 1),
              psn=st.integers(0, (1 << 24) - 1),
              seg=st.sampled_from(list(SegMark)),
              payload=st.binary(max_size=512),
              rnr_delay_hint=st.just(0)),
    st.builds(Frame,
              kind=st.just(FrameKind.ACK),
              dest_qpn=st.integers(0, (1 << 24) - 1),
              psn=st.integers(0, (1 << 24) - 1),
              seg=st.sampled_from(list(SegMark)),
              payload=st.just(b""),
              rnr_delay_hint=st.just(0)),
    st.builds(Frame,
              kind=st.just(FrameKind.RNR_NAK),
              dest_qpn=st.integers(0, (1 << 24) - 1),
              psn=st.integers(0, (1 << 24) - 1),
              seg=st.sampled_from(list(SegMark)),
              payload=st.just(b""),
              rnr_delay_hint=st.integers(0, 31)),
)


@given(frames)
def test_roundtrip_property(frame):
    assert decode_frame(encode_frame(frame)) == frame


# -- oracle: the layout written out field by field ---------------------------

MAX_24 = (1 << 24) - 1


def reference_encode(frame: Frame) -> bytes:
    """The frame layout, byte by byte: magic, kind, segment, then QPN, PSN
    and the length field as 3, 3 and 4 big-endian bytes, then the
    payload."""
    if frame.kind is FrameKind.DATA:
        length_field = len(frame.payload)
    elif frame.kind is FrameKind.RNR_NAK:
        length_field = frame.rnr_delay_hint
    else:
        length_field = 0
    return (bytes([0x56, 0x42, frame.kind, frame.seg])
            + frame.dest_qpn.to_bytes(3, "big")
            + frame.psn.to_bytes(3, "big")
            + length_field.to_bytes(4, "big")
            + frame.payload)


def test_encode_matches_the_reference_on_every_edge():
    """Every kind and segment, QPN and PSN at both ends of their range,
    and DATA payloads of 0, 1 and MTU bytes."""
    for kind in FrameKind:
        for seg in SegMark:
            for qpn in (0, MAX_24):
                for psn in (0, MAX_24):
                    if kind is FrameKind.DATA:
                        variants = [dict(payload=bytes([n % 251]) * n)
                                    for n in (0, 1, MAX_PAYLOAD)]
                    elif kind is FrameKind.RNR_NAK:
                        variants = [dict(rnr_delay_hint=h) for h in (0, 31)]
                    else:
                        variants = [{}]
                    for extra in variants:
                        frame = Frame(kind, qpn, psn, seg, **extra)
                        data = encode_frame(frame)
                        assert data == reference_encode(frame), frame
                        assert decode_frame(data) == frame


edge_24 = st.one_of(st.sampled_from([0, MAX_24]), st.integers(0, MAX_24))


@st.composite
def any_frame(draw):
    kind = draw(st.sampled_from(list(FrameKind)))
    payload, hint = b"", 0
    if kind is FrameKind.DATA:
        size = draw(st.one_of(st.sampled_from([0, 1, MAX_PAYLOAD]),
                              st.integers(0, MAX_PAYLOAD)))
        payload = draw(st.binary(min_size=size, max_size=size))
    elif kind is FrameKind.RNR_NAK:
        hint = draw(st.integers(0, 31))
    return Frame(kind, draw(edge_24), draw(edge_24),
                 draw(st.sampled_from(list(SegMark))), payload, hint)


@given(any_frame())
def test_encode_matches_the_reference_byte_for_byte(frame):
    assert encode_frame(frame) == reference_encode(frame)


@pytest.mark.parametrize("field", [2, 3], ids=["kind", "segment"])
def test_every_unknown_kind_and_segment_code_is_rejected(field):
    valid = bytearray(reference_encode(Frame(FrameKind.ACK, 1, 2)))
    for code in range(4, 256):
        data = bytearray(valid)
        data[field] = code
        with pytest.raises(FrameDecodeError):
            decode_frame(bytes(data))
