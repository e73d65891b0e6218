import pytest
from hypothesis import given, strategies as st

from softverbs.wire import (
    GAP_LEN,
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
    pack_gaps,
    split_records,
    unpack_gaps,
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


@pytest.mark.parametrize("length_field", [32, 0xFF, 0x100, 1 << 31])
def test_an_rnr_nak_code_beyond_5_bits_is_rejected_at_decode(length_field):
    # the engine indexes the RNR timer table with the code, so a bad one
    # must fail here, as bad magic does
    data = encode_frame(Frame(FrameKind.RNR_NAK, 5, 9, rnr_delay_hint=31))
    assert decode_frame(data).rnr_delay_hint == 31
    with pytest.raises(FrameDecodeError, match="5-bit"):
        decode_frame(data[:10] + length_field.to_bytes(4, "big"))


def test_nak_gap_list_layout():
    # two records: first PSN in 3 bytes, gap length in 2
    gaps = [(0x123456, 3), (0xFFFFFF, 0xFFFF)]
    frame = Frame(FrameKind.NAK, 5, 0x123456, payload=pack_gaps(gaps))
    data = encode_frame(frame)
    assert GAP_LEN == 5
    assert data[10:14] == (2 * GAP_LEN).to_bytes(4, "big")
    assert data[14:] == bytes.fromhex("1234560003" "ffffffffff")
    assert decode_frame(data) == frame
    assert unpack_gaps(decode_frame(data).payload) == gaps
    assert frame_body_length(data[:HEADER_LEN]) == 2 * GAP_LEN


@pytest.mark.parametrize("extra", [1, 2, 3, 4, 6])
def test_a_gap_list_of_part_records_is_rejected(extra):
    whole = encode_frame(Frame(FrameKind.NAK, 5, 9,
                               payload=pack_gaps([(9, 1)])))
    body = whole[HEADER_LEN:] + bytes(extra)
    data = whole[:10] + len(body).to_bytes(4, "big") + body
    with pytest.raises(FrameDecodeError, match="whole records"):
        decode_frame(data)
    with pytest.raises(FrameEncodeError, match="whole records"):
        encode_frame(Frame(FrameKind.NAK, 5, 9, payload=body))


def test_a_gap_list_shorter_or_longer_than_its_length_is_rejected():
    data = encode_frame(Frame(FrameKind.NAK, 5, 9,
                              payload=pack_gaps([(9, 1), (12, 2)])))
    with pytest.raises(FrameDecodeError):
        decode_frame(data[:-GAP_LEN])
    with pytest.raises(FrameDecodeError):
        decode_frame(data + bytes(GAP_LEN))


def test_oversized_payload_rejected_at_encode():
    frame = Frame(FrameKind.DATA, 1, 0, SegMark.ONLY, bytes(MAX_PAYLOAD + 1))
    with pytest.raises(FrameEncodeError):
        encode_frame(frame)
    # exactly MAX_PAYLOAD bytes is fine
    encode_frame(Frame(FrameKind.DATA, 1, 0, SegMark.ONLY, bytes(MAX_PAYLOAD)))


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
    # a DATA frame longer than its length field
    data = encode_frame(Frame(FrameKind.DATA, 1, 0, SegMark.ONLY, b"abc"))
    with pytest.raises(FrameDecodeError, match="trailing garbage"):
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
    with pytest.raises(FrameEncodeError,
                       match="^RNR_NAK frames carry no payload$"):
        encode_frame(Frame(FrameKind.RNR_NAK, 1, 0, payload=b"no",
                           rnr_delay_hint=1))
    with pytest.raises(FrameEncodeError, match="unknown frame kind"):
        encode_frame(Frame(4, 1, 0))


def test_stream_body_length():
    data = encode_frame(Frame(FrameKind.DATA, 1, 2, SegMark.ONLY, b"hello"))
    assert frame_body_length(data[:HEADER_LEN]) == 5
    ack = encode_frame(Frame(FrameKind.ACK, 1, 2))
    assert frame_body_length(ack) == 0
    # RNR delay hint must not be mistaken for a body length
    nak = encode_frame(Frame(FrameKind.RNR_NAK, 1, 2, rnr_delay_hint=20))
    assert frame_body_length(nak) == 0
    # a NAK's gap list is its body
    nak = encode_frame(Frame(FrameKind.NAK, 1, 2,
                             payload=pack_gaps([(2, 1), (5, 3)])))
    assert frame_body_length(nak[:HEADER_LEN]) == 2 * GAP_LEN
    # a stream reader buffers up to the length, so an overlong one is bad
    big = data[:10] + (MAX_PAYLOAD + 1).to_bytes(4, "big")
    with pytest.raises(FrameDecodeError):
        frame_body_length(big)
    # and so is a whole record that carries one
    with pytest.raises(FrameDecodeError, match="over limit"):
        decode_frame(big + bytes(MAX_PAYLOAD + 1))
    # a record header is exactly 14 bytes
    for header in (data[:HEADER_LEN - 1], data[:HEADER_LEN + 1]):
        with pytest.raises(FrameDecodeError, match="exactly 14 bytes"):
            frame_body_length(header)


# -- the body rule: what may follow a header, by kind -------------------------


def record(kind: int, length_field: int, body: bytes = b"") -> bytes:
    """A record written field by field: kind code ``kind``, segment ONLY,
    QPN 5, PSN 9, then ``length_field`` and ``body`` as given."""
    return (bytes([0x56, 0x42, kind, 0]) + (5).to_bytes(3, "big")
            + (9).to_bytes(3, "big") + length_field.to_bytes(4, "big") + body)


GAP = pack_gaps([(9, 1)])

# (kind code, length field, body, accepted, frame): an accepted record
# decodes to the frame and the frame encodes to it; a refused one is
# refused by every entry point, and so is the frame, which would have to
# write that length field
BODY_RULE = [
    pytest.param(0, 3, b"xyz", True, Frame(FrameKind.DATA, 5, 9,
                                             payload=b"xyz"), id="DATA"),
    pytest.param(1, 0, b"", True, Frame(FrameKind.ACK, 5, 9), id="ACK"),
    # the parent codec decoded this one, ignoring the field
    pytest.param(1, 1, b"", False, Frame(FrameKind.ACK, 5, 9, payload=b"!"),
                 id="ACK-with-length"),
    pytest.param(2, 31, b"", True,
                 Frame(FrameKind.RNR_NAK, 5, 9, rnr_delay_hint=31),
                 id="RNR_NAK"),
    pytest.param(3, GAP_LEN, GAP, True, Frame(FrameKind.NAK, 5, 9,
                                              payload=GAP), id="NAK"),
    pytest.param(3, GAP_LEN + 1, GAP + b"!", False,
                 Frame(FrameKind.NAK, 5, 9, payload=GAP + b"!"),
                 id="NAK-part-record"),
    pytest.param(4, 0, b"", False, Frame(4, 5, 9), id="unknown-kind"),
]


@pytest.mark.parametrize("kind, length_field, body, accepted, frame",
                         BODY_RULE)
def test_every_entry_point_agrees_on_what_follows_the_header(
        kind, length_field, body, accepted, frame):
    data = record(kind, length_field, body)
    ack = record(1, 0)
    if accepted:
        assert frame_body_length(data[:HEADER_LEN]) == len(body)
        assert list(split_records(data + ack + data)) == [data, ack, data]
        assert decode_frame(data) == frame
        assert encode_frame(frame) == data
        return
    with pytest.raises(FrameDecodeError):
        frame_body_length(data[:HEADER_LEN])
    records = split_records(ack + data + ack)
    assert next(records) == ack
    with pytest.raises(FrameDecodeError):
        next(records)
    with pytest.raises(FrameDecodeError):
        decode_frame(data)
    with pytest.raises(FrameEncodeError):
        encode_frame(frame)


def test_a_record_the_datagram_cuts_short_is_refused_by_the_splitter():
    ack, data = record(1, 0), record(0, 3, b"xyz")
    assert list(split_records(b"")) == []
    records = split_records(ack + data[:-1])
    assert next(records) == ack
    with pytest.raises(FrameDecodeError, match="cut short: 16 of 17"):
        next(records)
    # a header the datagram cuts short
    records = split_records(ack + data[:HEADER_LEN - 1])
    assert next(records) == ack
    with pytest.raises(FrameDecodeError, match="exactly 14 bytes"):
        next(records)


# a NAK's gap list: (first PSN, count) records
gap_lists = st.lists(st.tuples(st.integers(0, (1 << 24) - 1),
                               st.integers(0, (1 << 16) - 1)), max_size=8)

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
    st.builds(Frame,
              kind=st.just(FrameKind.NAK),
              dest_qpn=st.integers(0, (1 << 24) - 1),
              psn=st.integers(0, (1 << 24) - 1),
              seg=st.sampled_from(list(SegMark)),
              payload=gap_lists.map(pack_gaps),
              rnr_delay_hint=st.just(0)),
)


@given(frames)
def test_roundtrip_property(frame):
    assert decode_frame(encode_frame(frame)) == frame


@given(gap_lists)
def test_gap_list_roundtrip_property(gaps):
    frame = Frame(FrameKind.NAK, 1, 2, payload=pack_gaps(gaps))
    assert unpack_gaps(decode_frame(encode_frame(frame)).payload) == gaps


# -- oracle: the layout written out field by field ---------------------------

MAX_24 = (1 << 24) - 1


def reference_encode(frame: Frame) -> bytes:
    """The frame layout, byte by byte: magic, kind, segment, then QPN, PSN
    and the length field as 3, 3 and 4 big-endian bytes, then the
    payload (a NAK's gap list: 3-byte PSN and 2-byte count records)."""
    if frame.kind in (FrameKind.DATA, FrameKind.NAK):
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
                    elif kind is FrameKind.NAK:
                        variants = [dict(payload=pack_gaps(g)) for g in (
                            [], [(psn, 1)], [(0, 0xFFFF), (MAX_24, 1)])]
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
    elif kind is FrameKind.NAK:
        gaps = draw(st.lists(st.tuples(edge_24, st.integers(0, 0xFFFF)),
                             max_size=4))
        payload = b"".join(g[0].to_bytes(3, "big") + g[1].to_bytes(2, "big")
                           for g in gaps)
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
