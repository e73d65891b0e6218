"""What the frame trace keeps, and what a long run holds for it.

A trace row keeps the frame's header, its status and its payload length,
and the payload bytes only up to ``SNAP_LEN``, as a capture with a small
snapshot length does; a NAK's gap list is kept whole. So a stream of
large messages holds a few hundred bytes per DATA frame, not the frame.
"""

import tracemalloc

import pytest

from conftest import Node, connect_pair
from softverbs.fabric import SNAP_LEN, FaultProfile, LoopbackFabric
from softverbs.verbs import DeviceRegistry, WcStatus
from softverbs.wire import Frame, FrameKind, SegMark, pack_gaps


def data_rows(fabric):
    return [e for e in fabric.trace if e.frame.kind is FrameKind.DATA]


@pytest.mark.parametrize("size, kept", [(SNAP_LEN, True),
                                        (SNAP_LEN + 1, False)])
def test_a_data_payload_is_traced_whole_up_to_snap_len(pair, fabric, size,
                                                       kept):
    a, b = pair
    payload = bytes(range(size))
    b.post_recv(1)
    a.post_send(2, payload)
    fabric.run_until_idle()
    row, = data_rows(fabric)
    assert row.length == size
    assert row.frame == Frame(FrameKind.DATA, b.qp.qpn, 100, SegMark.ONLY,
                              payload if kept else b"")
    # the wire carried every byte either way
    wc, = b.cq.poll(2)
    assert wc.status is WcStatus.SUCCESS and b.read(0, size) == payload


def test_a_nak_gap_list_longer_than_snap_len_is_traced_whole(pair, fabric):
    a, b = pair
    gaps = pack_gaps([(100 + 2 * i, 1) for i in range(13)])
    assert len(gaps) > SNAP_LEN
    fabric._reply(b.qp, FrameKind.NAK, 100, 0, gaps)
    row, = fabric.trace
    assert (row.frame.payload, row.length) == (gaps, len(gaps))


@pytest.mark.parametrize("size, kept", [(SNAP_LEN, True),
                                        (SNAP_LEN + 1, False)])
def test_an_injected_frame_is_traced_by_the_same_rule(pair, fabric, size,
                                                      kept):
    a, b = pair
    frame = Frame(FrameKind.DATA, b.qp.qpn, 5, SegMark.ONLY, bytes(size))
    fabric.inject(b.lid, frame)
    row, = fabric.trace
    assert (row.status, row.length) == ("injected", size)
    assert row.frame == (frame if kept else frame._replace(payload=b""))


SIZE = 64 * 1024
MESSAGES = 64
WINDOW = 4  # sends in flight


def held_per_data_frame(profile):
    """Stream MESSAGES x 64 KiB at MTU 4096, WINDOW sends in flight,
    stepping the clock; every message must arrive whole and in order.
    Returns the bytes the run left allocated (``tracemalloc``, after
    ``run_until_idle``) per DATA frame in the trace."""
    registry = DeviceRegistry()
    registry.add_device("hca0")
    fabric = LoopbackFabric(faults=profile, registry=registry)
    a, b = (Node(registry, fabric, size=WINDOW * SIZE, max_send_wr=WINDOW,
                 max_recv_wr=WINDOW, cq_capacity=2 * WINDOW + 1)
            for _ in range(2))
    connect_pair(a, b, mtu=4096)
    bodies = [bytes([i]) * SIZE for i in range(WINDOW)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(WINDOW):
            b.post_recv(i, off=i * SIZE, length=SIZE)
            a.post_send(i, bodies[i], off=i * SIZE)
        sent = received = 0
        while received < MESSAGES and fabric.step():
            for wc in a.cq.poll(WINDOW):
                assert (wc.wr_id, wc.status) == (sent, WcStatus.SUCCESS)
                sent += 1
                if sent + WINDOW - 1 < MESSAGES:
                    i = sent + WINDOW - 1
                    a.post_send(i, bodies[i % WINDOW],
                                off=i % WINDOW * SIZE)
            for wc in b.cq.poll(WINDOW):
                assert (wc.wr_id, wc.status) == (received, WcStatus.SUCCESS)
                slot = received % WINDOW
                assert b.read(slot * SIZE, SIZE) == bodies[slot]
                received += 1
                if received + WINDOW - 1 < MESSAGES:
                    i = received + WINDOW - 1
                    b.post_recv(i, off=i % WINDOW * SIZE, length=SIZE)
        fabric.run_until_idle()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert received == MESSAGES
    assert sent + len(a.cq.poll(WINDOW)) == MESSAGES
    frames = len(data_rows(fabric))
    assert frames >= MESSAGES * SIZE // 4096
    return held / frames


@pytest.mark.parametrize("profile", [
    FaultProfile(),
    FaultProfile(0.1, 0.1, 0.1, seed=5),
], ids=["lossless", "drop-dup-reorder"])
def test_a_long_stream_holds_headers_not_payloads(profile):
    # a 4096-byte payload per DATA frame would be over 4 KiB a frame
    assert held_per_data_frame(profile) < 512
