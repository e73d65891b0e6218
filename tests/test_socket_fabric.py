import errno
import math
import random
import socket
import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from conftest import Node, connect_pair, free_port, to_init, to_rtr, to_rts
from softverbs.fabric import (
    MAX_DATAGRAM,
    PROBE_MS,
    FabricConfig,
    FabricConfigEntry,
    FaultProfile,
    SocketFabric,
    ack_timeout_ms,
)
from softverbs import fabric as fabric_module, pingpong, testbed
from softverbs.pingpong import PingpongConfig, cleanup_node, run_node
from softverbs.verbs import (
    AttrMask,
    DeviceRegistry,
    ModifyAttributes,
    QpState,
    VerbsError,
    WcStatus,
)
from softverbs.wire import (
    GAP_LEN,
    HEADER_LEN,
    Frame,
    FrameKind,
    SegMark,
    decode_frame,
    encode_frame,
    frame_body_length,
    pack_gaps,
    unpack_gaps,
)

@pytest.fixture
def make_fabrics():
    """Build two SocketFabrics on one config; all are closed at teardown."""
    made = []

    def make(**kwargs):
        config = FabricConfig(entries=[
            FabricConfigEntry(1, "127.0.0.1", free_port()),
            FabricConfigEntry(2, "127.0.0.1", free_port()),
        ])
        regs = DeviceRegistry(), DeviceRegistry()
        fabrics = []
        for reg in regs:
            reg.add_device("hca0")
            fabrics.append(SocketFabric(config, registry=reg, **kwargs))
        made.extend(fabrics)
        return regs, fabrics

    yield make
    for fabric in made:
        fabric.close()


@pytest.fixture
def two_fabrics(make_fabrics):
    return make_fabrics()


def wait_for(cq, n, timeout=10.0):
    got = []
    deadline = time.monotonic() + timeout
    while len(got) < n and time.monotonic() < deadline:
        cq.wait_for_completion(timeout=0.2)
        got.extend(cq.poll(n - len(got)))
    return got


def test_lids_come_from_the_config(two_fabrics):
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    assert (a.lid, b.lid) == (1, 2)


def test_message_crosses_real_sockets(two_fabrics):
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    connect_pair(a, b)
    b.post_recv(7)
    payload = bytes(range(256)) * 8  # 2048 bytes, two frames at mtu 1024
    a.post_send(8, payload)
    recv = wait_for(b.cq, 1)
    assert recv and recv[0].wr_id == 7
    assert recv[0].status is WcStatus.SUCCESS
    assert b.read(0, len(payload)) == payload
    send = wait_for(a.cq, 1)
    assert send and send[0].status is WcStatus.SUCCESS


def test_no_bindable_entry_is_an_error():
    taken = free_port()
    blocker = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    blocker.bind(("127.0.0.1", taken))
    try:
        config = FabricConfig(entries=[FabricConfigEntry(1, "127.0.0.1",
                                                         taken)])
        reg = DeviceRegistry()
        reg.add_device("hca0")
        fabric = SocketFabric(config, registry=reg)
        ctx = reg.open_device(reg.get_device_list()[0])
        with pytest.raises(VerbsError):
            fabric.attach(ctx, 1)
        fabric.close()
    finally:
        blocker.close()


def one_entry_fabric():
    """A SocketFabric whose config has a single entry, LID 1, and the
    registry it serves."""
    config = FabricConfig(entries=[FabricConfigEntry(1, "127.0.0.1",
                                                     free_port())])
    reg = DeviceRegistry()
    reg.add_device("hca0")
    return reg, SocketFabric(config, registry=reg)


def test_a_detach_frees_the_ports_address_for_the_next_attach():
    """The one entry's address is bound again after a detach, and after
    the close of the context that held it."""
    reg, fabric = one_entry_fabric()
    device = reg.get_device_list()[0]
    try:
        ctx = reg.open_device(device)
        assert fabric.attach(ctx, 1) == 1
        fabric.detach(ctx, 1)
        assert fabric.attach(ctx, 1) == 1
        ctx.close()
        assert fabric.attach(reg.open_device(device), 1) == 1
    finally:
        fabric.close()


def test_a_closed_fabric_refuses_an_attach():
    reg, fabric = one_entry_fabric()
    ctx = reg.open_device(reg.get_device_list()[0])
    fabric.close()
    with pytest.raises(VerbsError, match="fabric is closed"):
        fabric.attach(ctx, 1)
    assert not fabric._socks and not ctx._attachments


def test_free_port_skips_a_port_a_udp_socket_holds(monkeypatch):
    held, free = free_port(), free_port()
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as holder:
        holder.bind(("127.0.0.1", held))
        monkeypatch.setattr(testbed, "_PORTS", iter([held, free]))
        assert free_port() == free


def test_free_port_with_no_port_left_is_an_error(monkeypatch):
    monkeypatch.setattr(testbed, "_PORTS", iter(()))
    with pytest.raises(OSError, match="^no free port left"):
        free_port()


def test_close_stops_every_fabric_thread(two_fabrics):
    before = set(threading.enumerate())
    (reg_a, reg_b), fabrics = two_fabrics
    a = Node(reg_a, fabrics[0])
    b = Node(reg_b, fabrics[1])
    connect_pair(a, b)
    b.post_recv(1)
    a.post_send(2, b"bye")
    assert len(wait_for(b.cq, 1)) == 1
    assert len(wait_for(a.cq, 1)) == 1
    for fabric in fabrics:
        fabric.close()

    def left():
        return [t.name for t in set(threading.enumerate()) - before
                if t.name.startswith("fabric-") and t.is_alive()]

    deadline = time.monotonic() + 1.0
    while left() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert left() == []


def test_exactly_once_in_order_under_faults(make_fabrics):
    n_msgs, size = 40, 2048
    (reg_a, reg_b), fabrics = make_fabrics(
        faults=FaultProfile(0.1, 0.1, 0.1, seed=3))
    a, b = (Node(reg, fabric, size=n_msgs * size, max_send_wr=n_msgs,
                 max_recv_wr=n_msgs, cq_capacity=n_msgs + 1)
            for reg, fabric in ((reg_a, fabrics[0]), (reg_b, fabrics[1])))
    connect_pair(a, b)
    rng = random.Random(3)
    payloads = [rng.randbytes(size) for _ in range(n_msgs)]
    for i in range(n_msgs):
        b.post_recv(i, off=i * size, length=size)
    for i, payload in enumerate(payloads):
        a.post_send(1000 + i, payload, off=i * size)
    recv = wait_for(b.cq, n_msgs, timeout=30.0)
    send = wait_for(a.cq, n_msgs, timeout=30.0)
    assert [wc.wr_id for wc in recv] == list(range(n_msgs))
    assert [wc.wr_id for wc in send] == [1000 + i for i in range(n_msgs)]
    assert all(wc.status is WcStatus.SUCCESS for wc in recv + send)
    for i, payload in enumerate(payloads):
        assert b.read(i * size, size) == payload
    statuses = {e.status for fabric in fabrics for e in fabric.trace}
    assert {"sent", "dropped", "dup"} <= statuses


def test_single_drop_recovers_on_the_probe_deadline(make_fabrics):
    (reg_a, reg_b), fabrics = make_fabrics()
    a = Node(reg_a, fabrics[0])
    b = Node(reg_b, fabrics[1])
    connect_pair(a, b)
    b.post_recv(1)
    dropped = []

    def drop_once(frame):
        if frame.kind is FrameKind.DATA and not dropped:
            dropped.append(frame)
            return True
        return False

    fabrics[0].drop_filter = drop_once
    posted_at = fabrics[0].now_ms()
    a.post_send(2, b"retry me" * 64)
    assert [wc.status for wc in wait_for(b.cq, 1)] == [WcStatus.SUCCESS]
    assert [wc.status for wc in wait_for(a.cq, 1)] == [WcStatus.SUCCESS]
    copies = [e for e in fabrics[0].trace if e.frame.kind is FrameKind.DATA]
    # a slow ack may draw more copies, each after a further deadline
    assert [e.status for e in copies[:2]] == ["dropped", "sent"]
    assert all(e.status == "sent" for e in copies[1:])
    # the first copy is the tail-loss probe, once the head's probe
    # deadline passed; the QP's 67 ms timeout comes only after it
    assert copies[1].t - posted_at >= PROBE_MS


def test_nak_frame_round_trips_through_the_stream_codec():
    frame = Frame(FrameKind.NAK, 0x12345, 0xFFFFFE)
    data = encode_frame(frame)
    assert len(data) == HEADER_LEN
    assert frame_body_length(data[:HEADER_LEN]) == 0
    assert decode_frame(data) == frame
    # a gap list follows the header, as a payload does
    listed = frame._replace(payload=pack_gaps([(0xFFFFFE, 3), (4, 2)]))
    data = encode_frame(listed)
    assert frame_body_length(data[:HEADER_LEN]) == 2 * GAP_LEN
    assert decode_frame(data) == listed


def test_lost_frame_recovers_by_nak_before_the_deadline(make_fabrics):
    (reg_a, reg_b), fabrics = make_fabrics()  # 67 ms retransmit timeout
    a = Node(reg_a, fabrics[0])
    b = Node(reg_b, fabrics[1])
    connect_pair(a, b)
    b.post_recv(1)
    dropped = []

    def drop_first(frame):
        if frame.kind is FrameKind.DATA and not dropped:
            dropped.append(frame)
            return True
        return False

    fabrics[0].drop_filter = drop_first
    payload = bytes(range(256)) * 8  # PSNs 100 and 101 at mtu 1024
    posted_at = fabrics[0].now_ms()
    a.post_send(2, payload)
    assert [wc.status for wc in wait_for(b.cq, 1)] == [WcStatus.SUCCESS]
    assert [wc.status for wc in wait_for(a.cq, 1)] == [WcStatus.SUCCESS]
    assert b.read(0, len(payload)) == payload
    naks = [e for e in fabrics[1].trace if e.frame.kind is FrameKind.NAK]
    assert [e.frame.psn for e in naks] == [100]
    assert unpack_gaps(naks[0].frame.payload) == [(100, 1)]
    resend = [e for e in fabrics[0].trace if e.frame.kind is FrameKind.DATA
              and e.frame.psn == 100 and e.status == "sent"][0]
    assert resend.t - posted_at < 250.0


def test_close_stops_its_readers_while_the_peer_stays_open(two_fabrics):
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    connect_pair(a, b)
    b.post_recv(1)
    a.post_send(2, b"hello")
    assert len(wait_for(b.cq, 1)) == 1
    assert len(wait_for(a.cq, 1)) == 1
    # fab_b's one socket, that of its one port
    socks = list(fab_b._socks.values())
    assert len(socks) == 1
    fab_b.close()
    assert [s.fileno() for s in socks] == [-1]
    # fab_a stays open, and its wait raises nothing
    assert a.cq.wait_for_completion(timeout=0.2) is False


class EngineFault(Exception):
    pass


def test_a_timer_callback_error_reaches_the_waiting_caller(two_fabrics):
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    connect_pair(a, b)

    def fail():
        raise EngineFault("timer")

    fab_a.schedule_at(fab_a.now_ms(), fail)
    with pytest.raises(EngineFault):
        a.cq.wait_for_completion(1.0)


def test_a_dispatch_error_reaches_the_waiting_caller(two_fabrics,
                                                     monkeypatch):
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    connect_pair(a, b)
    b.post_recv(1)

    def fail(qp, frame):
        raise EngineFault("on_data")

    monkeypatch.setattr(fab_b, "on_data", fail)
    a.post_send(2, b"hello")
    with pytest.raises(EngineFault):
        wait_for(b.cq, 1)


def test_the_mover_never_wakes_its_own_poll(two_fabrics, monkeypatch):
    """A timer that a timer arms (the probe's tick re-arming for the
    timeout) is in the heaps the mover reads before it polls again, so
    it writes nothing to the wake pair."""
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    connect_pair(a, b)
    manual = fabric_module._MANUAL
    wakes = []

    class CountingWake:
        def __init__(self, sock):
            self._sock = sock

        def send(self, data, flags=0):
            wakes.append(threading.get_ident())
            return self._sock.send(data, flags)

    reader, writer = manual.wake_pair
    monkeypatch.setattr(manual, "wake_pair", (reader, CountingWake(writer)))
    lost = []
    fab_a.drop_filter = lambda frame: (frame.kind is FrameKind.DATA
                                       and not lost and not lost.append(1))
    b.post_recv(1)
    a.post_send(2, b"probed")  # the first copy is lost; the probe is not
    assert [wc.status for wc in wait_for(b.cq, 1)] == [WcStatus.SUCCESS]
    assert [wc.status for wc in wait_for(a.cq, 1)] == [WcStatus.SUCCESS]
    assert len([e for e in fab_a.trace if e.frame.kind is FrameKind.DATA
                and e.status == "sent"]) >= 1
    assert threading.get_ident() not in wakes


def test_a_flush_on_another_thread_ends_a_socket_wait_at_once(two_fabrics):
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    connect_pair(a, b)
    a.post_recv(1)
    waited = []

    def wait():
        start = time.monotonic()
        ok = a.cq.wait_for_completion(timeout=5.0)
        waited.append((ok, time.monotonic() - start))

    waiter = threading.Thread(target=wait)
    waiter.start()
    time.sleep(0.2)  # the waiter now moves both fabrics, in its poll
    a.qp.modify(ModifyAttributes(state=QpState.ERR), AttrMask.STATE)
    waiter.join(timeout=5.0)
    assert not waiter.is_alive()
    [(ok, took)] = waited
    assert ok and took < 2.0
    assert [wc.status for wc in a.cq.poll(1)] == [WcStatus.WR_FLUSHED]


def test_unreachable_peer_is_traced_unrouted_and_fails_the_send(
        make_fabrics):
    """A frame to a LID with no config entry is unrouted; one to a LID
    whose port nobody binds is sent and lost. Either way the send runs
    out of retries."""
    (reg_a, _), (fab_a, _) = make_fabrics()
    a = Node(reg_a, fab_a)  # LID 1; nothing binds LID 2's port
    for dlid, status in ((2, "sent"), (9, "unrouted")):
        to_init(a.qp)
        to_rtr(a.qp, dlid, 0x123, 0)
        to_rts(a.qp, 100, retry_cnt=1)
        a.post_send(1, b"nobody home")
        assert [wc.status for wc in wait_for(a.cq, 1)] == \
            [WcStatus.RETRY_EXCEEDED]
        data = [e.status for e in fab_a.trace
                if e.frame.kind is FrameKind.DATA and e.dst_lid == dlid]
        assert data == [status] * 2  # the first copy and its one retry
        a.qp.modify(ModifyAttributes(state=QpState.RESET), AttrMask.STATE)


@pytest.mark.parametrize("retry_cnt", [0, 3])
def test_a_silent_peer_fails_the_send_when_the_budget_runs_out(two_fabrics,
                                                               retry_cnt):
    """As on loopback: the first copy and ``retry_cnt`` resends, then
    ``RETRY_EXCEEDED``, one PTO (here the timeout, below PROBE_MS) and
    ``retry_cnt`` timeouts after the send. Sockets run on wall time, which
    a wait can only overrun, so only that lower bound is checked."""
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    connect_pair(a, b, timeout=10, retry_cnt=retry_cnt)
    b.post_recv(1)
    fab_a.drop_filter = lambda frame: True
    posted = time.monotonic()
    a.post_send(2, b"lost")
    assert [wc.status for wc in wait_for(a.cq, 1)] == \
        [WcStatus.RETRY_EXCEEDED]
    took_ms = (time.monotonic() - posted) * 1e3
    timeout = ack_timeout_ms(10)  # 4.19 ms
    assert took_ms >= min(PROBE_MS, timeout) + retry_cnt * timeout
    with fab_a._lock:
        data = [e for e in fab_a.trace if e.frame.kind is FrameKind.DATA]
    assert len(data) == 1 + retry_cnt


def test_socket_fabrics_start_no_thread(make_fabrics, monkeypatch):
    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    (reg_a, reg_b), (fab_a, fab_b) = make_fabrics()
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    connect_pair(a, b)
    payload = bytes(range(256)) * 8  # 2 KiB, two frames at mtu 1024
    a.post_recv(1, length=len(payload))
    b.post_recv(1, length=len(payload))
    a.post_send(2, payload[::-1], off=len(payload))
    b.post_send(2, payload, off=len(payload))
    for node in (a, b):
        wcs = wait_for(node.cq, 2)
        assert sorted(wc.wr_id for wc in wcs) == [1, 2]
        assert all(wc.status is WcStatus.SUCCESS for wc in wcs)
    assert a.read(0, len(payload)) == payload
    assert b.read(0, len(payload)) == payload[::-1]
    fab_a.close()
    fab_b.close()


@pytest.mark.parametrize("use_event", [False, True])
def test_pingpong_roles_on_many_threads_take_turns_moving(make_fabrics,
                                                          use_event):
    """Three pingpong pairs, one thread per role, move each other's
    fabrics: one thread moves them all while the others sleep on their CQ
    or channel. A lost hand-over would leave a role asleep for its whole
    wait timeout (0.25 s polling, 10 s with events) on every iteration."""
    iters, pairs = 200, 3
    roles, results, errors = [], [], []
    for _ in range(pairs):
        regs, fabrics = make_fabrics()
        base = PingpongConfig(oob_port=free_port(), size=4096, iters=iters,
                              use_event=use_event)
        cfgs = (base, replace(base, server_host="127.0.0.1"))
        roles.append([(cfgs[i], regs[i], fabrics[i]) for i in range(2)])

    def role(cfg, registry, fabric, oob_ready):
        try:
            results.append(run_node(cfg, registry, fabric,
                                    oob_ready=oob_ready))
        except Exception as exc:
            errors.append(exc)

    threads = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        start = time.monotonic()
        for server, client in roles:
            oob_ready = threading.Event()
            threads.append(threading.Thread(target=role,
                                            args=(*server, oob_ready),
                                            daemon=True))
            threads[-1].start()
            assert oob_ready.wait(5.0)
            threads.append(threading.Thread(target=role, args=(*client, None),
                                            daemon=True))
            threads[-1].start()
        for thread in threads:
            thread.join(timeout=max(0.0, start + 10.0 - time.monotonic()))
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 2 * pairs
    for result in results:
        assert result.ctx.rcnt == result.ctx.scnt == iters
        cleanup_node(result)


@pytest.mark.parametrize("use_event", [False, True])
def test_abort_ends_a_waiting_role_within_a_second(make_fabrics, use_event):
    """The server connects but never runs its loop, so the client waits
    for a reply that never comes. Setting ``abort`` ends that wait
    within a second in both modes: no verbs wait outlasts the driver's
    0.25 s turn."""
    regs, fabrics = make_fabrics()
    base = PingpongConfig(oob_port=free_port(), size=64, iters=5,
                          use_event=use_event)
    cfgs = (base, replace(base, server_host="127.0.0.1"))
    ctx, me = pingpong.open_node(cfgs[0], regs[0], fabrics[0],
                                 random.Random(1))
    oob_ready, abort = threading.Event(), threading.Event()
    raised = []

    def serve():
        pingpong.exchange_as_server(
            base.oob_port, me, ready=oob_ready,
            on_peer=lambda peer: pingpong.connect_ctx(ctx, me.psn, peer,
                                                      cfgs[0]))

    def client():
        try:
            run_node(cfgs[1], regs[1], fabrics[1], abort=abort)
        except Exception as exc:
            raised.append((exc, time.monotonic()))

    threads = [threading.Thread(target=serve, daemon=True),
               threading.Thread(target=client, daemon=True)]
    threads[0].start()
    assert oob_ready.wait(5.0)
    threads[1].start()
    # the client's first message lands once the client is in its loop
    deadline = time.monotonic() + 5.0
    while not ctx.cq.entries and time.monotonic() < deadline:
        time.sleep(0.01)
    assert ctx.cq.entries
    abort.set()
    aborted_at = time.monotonic()
    for thread in threads:
        thread.join(timeout=15.0)
    assert not any(thread.is_alive() for thread in threads)
    (exc, raised_at), = raised
    assert "aborted while" in str(exc)
    assert raised_at - aborted_at < 1.0


class CountingSocket:
    """Stands in for a port's socket and records the bytes of each
    ``sendto`` call; everything else goes to the real socket."""

    def __init__(self, sock):
        self._sock = sock
        self.sends: list[bytes] = []

    def sendto(self, data, addr):
        sent = self._sock.sendto(data, addr)
        self.sends.append(bytes(data))
        return sent

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_a_four_frame_message_leaves_in_one_send(two_fabrics, monkeypatch):
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    connect_pair(a, b)
    counting = fab_a._socks[a.lid] = CountingSocket(fab_a._socks[a.lid])
    decoded = []

    def record(data):
        decoded.append(decode_frame(data))
        return decoded[-1]

    monkeypatch.setattr(fabric_module, "decode_frame", record)
    payload = bytes(range(256)) * 16  # 4 KiB, four frames at mtu 1024
    b.post_recv(1, length=len(payload))
    a.post_send(2, payload, off=len(payload))
    assert [wc.status for wc in wait_for(b.cq, 1)] == [WcStatus.SUCCESS]
    assert [wc.status for wc in wait_for(a.cq, 1)] == [WcStatus.SUCCESS]
    assert b.read(0, len(payload)) == payload
    frames = [Frame(FrameKind.DATA, b.qp.qpn, 100 + i, seg,
                    payload[i * 1024:(i + 1) * 1024])
              for i, seg in enumerate((SegMark.FIRST, SegMark.MIDDLE,
                                       SegMark.MIDDLE, SegMark.LAST))]
    # a round trip slower than the probe timeout, as on a loaded host,
    # adds the head's probe: a lone copy of PSN 100, in a datagram of its
    # own
    first, *later = counting.sends
    assert first == b"".join(map(encode_frame, frames))
    assert all(sent == encode_frame(frames[0]) for sent in later)
    data = [f for f in decoded if f.kind is FrameKind.DATA]
    assert data[:4] == frames and all(f == frames[0] for f in data[4:])


def test_a_64k_message_at_mtu_4096_leaves_in_two_datagrams(two_fabrics):
    """Sixteen records of 4110 bytes do not fit one datagram: the first
    fifteen fill one, split at a record boundary, and the last goes in a
    second."""
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    connect_pair(a, b, mtu=4096)
    counting = fab_a._socks[a.lid] = CountingSocket(fab_a._socks[a.lid])
    payload = random.Random(7).randbytes(65536)
    b.post_recv(1)
    a.post_send(2, payload)
    record = HEADER_LEN + 4096
    assert [len(d) for d in counting.sends] == [15 * record, record]
    assert [wc.status for wc in wait_for(b.cq, 1)] == [WcStatus.SUCCESS]
    assert [wc.status for wc in wait_for(a.cq, 1)] == [WcStatus.SUCCESS]
    assert b.read(0, len(payload)) == payload


def test_two_messages_posted_while_no_thread_waits_land_as_one_burst(
        two_fabrics, monkeypatch):
    """Each message leaves in a datagram of its own; the read that the
    next wait makes drains both, and the receiver acks the burst once."""
    # no probe before the QP's timeout: its duplicate would draw an ACK
    # of its own
    monkeypatch.setattr(fabric_module, "PROBE_MS", 10_000.0)
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    connect_pair(a, b, timeout=17)  # 537 ms
    payload = bytes(range(256)) * 8  # PSNs 100..101, then 102..103
    b.post_recv(1, length=len(payload))
    b.post_recv(2, off=len(payload), length=len(payload))
    a.post_send(3, payload, off=2 * len(payload))
    a.post_send(4, payload[::-1], off=3 * len(payload))
    recv = wait_for(b.cq, 2)
    assert [(wc.wr_id, wc.status) for wc in recv] == \
        [(1, WcStatus.SUCCESS), (2, WcStatus.SUCCESS)]
    assert b.read(len(payload), len(payload)) == payload[::-1]
    assert [wc.wr_id for wc in wait_for(a.cq, 2)] == [3, 4]
    acks = [e.frame.psn for e in fab_b.trace
            if e.frame.kind is FrameKind.ACK]
    assert acks == [103]


def test_a_window_of_messages_draws_fewer_acks_than_frames(two_fabrics,
                                                         monkeypatch):
    """The frames one read holds are one burst, acked once: ACKs never
    go back, and the last names the last DATA frame."""
    # no probe before the QP's timeout, with or without an RTT sample:
    # its duplicate would draw an ACK of its own
    monkeypatch.setattr(fabric_module, "PROBE_MS", 10_000.0)
    monkeypatch.setattr(SocketFabric, "_probe_allowance_ms", 10_000.0)
    n_msgs, size = 8, 4096  # four frames each at mtu 1024
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a, b = (Node(reg, fabric, size=n_msgs * size, max_send_wr=n_msgs,
                 max_recv_wr=n_msgs, cq_capacity=n_msgs + 1)
            for reg, fabric in ((reg_a, fab_a), (reg_b, fab_b)))
    connect_pair(a, b)
    for i in range(n_msgs):
        b.post_recv(i, off=i * size, length=size)
    for i in range(n_msgs):
        a.post_send(1000 + i, bytes([i]) * size, off=i * size)
    assert len(wait_for(b.cq, n_msgs)) == n_msgs
    send = wait_for(a.cq, n_msgs)
    assert [wc.wr_id for wc in send] == [1000 + i for i in range(n_msgs)]
    assert all(wc.status is WcStatus.SUCCESS for wc in send)
    data = [e.frame.psn for e in fab_a.trace
            if e.frame.kind is FrameKind.DATA]
    acks = [e.frame.psn for e in fab_b.trace
            if e.frame.kind is FrameKind.ACK]
    assert data == list(range(100, 100 + 4 * n_msgs))
    assert len(acks) < len(data)
    assert acks == sorted(acks) and acks[-1] == data[-1]


def test_a_small_receive_buffer_delivers_a_window_exactly_once_in_order(
        two_fabrics):
    """A window of 64 KiB sends posted at once overruns the receiver's
    shrunken socket buffer: the kernel drops what does not fit, and RC
    resends it until every message has landed once, in order."""
    n_msgs, size = 16, 65536
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a, b = (Node(reg, fabric, size=n_msgs * size, max_send_wr=n_msgs,
                 max_recv_wr=n_msgs, cq_capacity=n_msgs + 1)
            for reg, fabric in ((reg_a, fab_a), (reg_b, fab_b)))
    connect_pair(a, b)
    fab_b._socks[b.lid].setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    rng = random.Random(9)
    payloads = [rng.randbytes(size) for _ in range(n_msgs)]
    for i in range(n_msgs):
        b.post_recv(i, off=i * size, length=size)
    for i, payload in enumerate(payloads):
        a.post_send(1000 + i, payload, off=i * size)
    recv = wait_for(b.cq, n_msgs, timeout=30.0)
    send = wait_for(a.cq, n_msgs, timeout=30.0)
    assert [wc.wr_id for wc in recv] == list(range(n_msgs))
    assert [wc.wr_id for wc in send] == [1000 + i for i in range(n_msgs)]
    assert all(wc.status is WcStatus.SUCCESS for wc in recv + send)
    for i, payload in enumerate(payloads):
        assert b.read(i * size, size) == payload
    data = [e for e in fab_a.trace if e.frame.kind is FrameKind.DATA]
    assert len(data) > n_msgs * size // 1024  # some were lost and resent


class FailingSocket:
    """Stands in for a port's socket whose first ``sendto`` fails, as
    when the kernel has no buffer for it; everything else goes to the
    real socket."""

    def __init__(self, sock):
        self._sock = sock
        self.failed = False

    def sendto(self, data, addr):
        if not self.failed:
            self.failed = True
            raise OSError(errno.ENOBUFS, "no buffer space")
        return self._sock.sendto(data, addr)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_a_send_error_loses_the_datagram_and_the_probe_carries_it(
        two_fabrics):
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    connect_pair(a, b)
    failing = fab_a._socks[a.lid] = FailingSocket(fab_a._socks[a.lid])
    payload = bytes(range(256)) * 4
    b.post_recv(1)
    a.post_send(2, payload)
    assert failing.failed and not fab_a._unsent
    recv = wait_for(b.cq, 1)
    assert [(wc.wr_id, wc.status) for wc in recv] == [(1, WcStatus.SUCCESS)]
    assert [wc.status for wc in wait_for(a.cq, 1)] == [WcStatus.SUCCESS]
    assert b.read(0, len(payload)) == payload
    data = [e.frame.psn for e in fab_a.trace
            if e.frame.kind is FrameKind.DATA]
    assert data == [100, 100]  # the lost frame, then its probe
    assert b.cq.poll(1) == []


def dropping_data(records):
    """A drop filter that keeps every DATA frame off the wire and appends
    its record to ``records``, in the order they were sent."""

    def drop(frame):
        if frame.kind is FrameKind.DATA:
            records.append(encode_frame(frame))
            return True
        return False

    return drop


def test_a_bad_record_drops_the_rest_of_its_datagram(two_fabrics):
    """A datagram with a whole record, one that does not decode and a
    whole record behind it: the first lands and the last is dropped with
    the bad one; the next datagram lands."""
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    # a 537 ms timeout (code 17): PSN 101 must not run out of retries on
    # a loaded host before the test sends it
    connect_pair(a, b, timeout=17)
    b.post_recv(1, length=100)
    b.post_recv(2, off=100, length=100)
    # the engine's DATA never reaches the wire: the test sends it
    records = []
    fab_a.drop_filter = dropping_data(records)
    a.post_send(3, b"first")  # PSN 100
    a.post_send(4, b"second", off=100)  # PSN 101
    first, second = records[:2]
    bad = b"\xde\xad" + bytes(HEADER_LEN - 2)
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as peer:
        peer.sendto(first + bad + second, fab_b._addrs[b.lid])
        recv = wait_for(b.cq, 1)
        assert [(wc.wr_id, wc.status) for wc in recv] == \
            [(1, WcStatus.SUCCESS)]
        # the whole datagram went in one read: PSN 101 was dropped
        assert b.qp.receiver.expected_psn == 101 and b.cq.poll(1) == []
        peer.sendto(second, fab_b._addrs[b.lid])
        recv = wait_for(b.cq, 1)
    assert [(wc.wr_id, wc.status) for wc in recv] == [(2, WcStatus.SUCCESS)]
    assert (b.read(0, 5), b.read(100, 6)) == (b"first", b"second")
    assert [wc.wr_id for wc in wait_for(a.cq, 2)] == [3, 4]


def test_an_rnr_nak_code_beyond_5_bits_drops_the_rest_of_its_datagram(
        two_fabrics):
    """A peer's RNR NAK whose delay code does not fit 5 bits is a bad
    record: the ACK before it lands, the ACK behind it is dropped with
    it, and the wait that reads them raises nothing."""
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    # a 537 ms timeout (code 17): the unacked head must not run out of
    # retries on a loaded host before the test acks it
    connect_pair(a, b, timeout=17)
    fab_a.drop_filter = lambda frame: frame.kind is FrameKind.DATA
    a.post_send(1, b"acked")  # PSN 100
    a.post_send(2, b"refused?", off=100)  # PSN 101
    ack = [encode_frame(Frame(FrameKind.ACK, a.qp.qpn, psn))
           for psn in (100, 101)]
    rnr = encode_frame(Frame(FrameKind.RNR_NAK, a.qp.qpn, 101))
    rnr = rnr[:10] + (32).to_bytes(4, "big")
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as peer:
        peer.sendto(ack[0] + rnr + ack[1], fab_a._addrs[a.lid])
        send = wait_for(a.cq, 1)
        assert [(wc.wr_id, wc.status) for wc in send] == \
            [(1, WcStatus.SUCCESS)]
        assert [f.psn for f, _ in a.qp.sender.unacked] == [101]
        assert a.qp.state is QpState.RTS and a.cq.poll(1) == []
        peer.sendto(ack[1], fab_a._addrs[a.lid])
        send = wait_for(a.cq, 1)
    assert [(wc.wr_id, wc.status) for wc in send] == [(2, WcStatus.SUCCESS)]
    assert not a.qp.sender.unacked and a.qp.state is QpState.RTS


def test_the_server_connects_before_it_replies(make_fabrics, monkeypatch):
    """As in rc_pingpong.c: when the client reads the server's reply, the
    server QP is in RTR or RTS already, so the client's first message
    finds it. The server is held after its exchange until the client
    has looked."""
    regs, fabrics = make_fabrics()
    base = PingpongConfig(oob_port=free_port(), size=4096, iters=5)
    cfgs = (base, replace(base, server_host="127.0.0.1"))
    server_ctx, seen, looked = [], [], threading.Event()
    open_node, as_server, as_client = (pingpong.open_node,
                                       pingpong.exchange_as_server,
                                       pingpong.exchange_as_client)

    def opening(cfg, *args):
        ctx, dest = open_node(cfg, *args)
        if cfg.is_server:
            server_ctx.append(ctx)
        return ctx, dest

    def serving(*args, **kwargs):
        theirs = as_server(*args, **kwargs)
        looked.wait(5.0)
        return theirs

    def dialling(*args, **kwargs):
        theirs = as_client(*args, **kwargs)
        seen.append(server_ctx[0].qp.state)
        looked.set()
        return theirs

    monkeypatch.setattr(pingpong, "open_node", opening)
    monkeypatch.setattr(pingpong, "exchange_as_server", serving)
    monkeypatch.setattr(pingpong, "exchange_as_client", dialling)
    results, errors = [], []

    def role(i, oob_ready):
        try:
            results.append(run_node(cfgs[i], regs[i], fabrics[i],
                                    oob_ready=oob_ready))
        except Exception as exc:
            errors.append(exc)

    oob_ready = threading.Event()
    threads = [threading.Thread(target=role, args=(0, oob_ready),
                                daemon=True),
               threading.Thread(target=role, args=(1, None), daemon=True)]
    threads[0].start()
    assert oob_ready.wait(5.0)
    threads[1].start()
    for thread in threads:
        thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(seen) == 1 and seen[0] in (QpState.RTR, QpState.RTS)
    for result in results:
        assert result.ctx.rcnt == result.ctx.scnt == 5
        cleanup_node(result)


def test_a_lossless_exchange_leaves_no_timer_pending(two_fabrics):
    # the window empties when the ACK retires the send, and its tick goes
    # with it, as on loopback: a lossless run fires no tick
    (reg_a, reg_b), fabrics = two_fabrics
    a = Node(reg_a, fabrics[0])
    b = Node(reg_b, fabrics[1])
    connect_pair(a, b)
    b.post_recv(1)
    a.post_send(2, b"tick")
    assert len(wait_for(a.cq, 1)) == 1
    assert len(wait_for(b.cq, 1)) == 1
    for fabric in fabrics:
        with fabric._lock:
            assert fabric._timers == []


@pytest.mark.parametrize("connect_first", [True, False],
                         ids=["connected", "connected-after-close"])
def test_a_send_posted_after_close_is_refused(two_fabrics, connect_first):
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    if connect_first:
        connect_pair(a, b)
    fab_a.close()
    if not connect_first:
        connect_pair(a, b)
    b.post_recv(1)
    with pytest.raises(VerbsError, match="not attached to a fabric"):
        a.post_send(2, b"late")
    # close completes nothing, and the refused send left no WQE behind
    assert a.cq.poll(1) == [] and not a.qp.send_queue


# each way a QP leaves RTS, as ``TestLeavingRts.LEAVE`` has them on loopback
LEAVE = {
    "err": lambda node, fabric: node.qp.modify(
        ModifyAttributes(state=QpState.ERR), AttrMask.STATE),
    "reset": lambda node, fabric: node.qp.modify(
        ModifyAttributes(state=QpState.RESET), AttrMask.STATE),
    "destroy": lambda node, fabric: node.qp.destroy(),
    "detach": lambda node, fabric: fabric.detach(node.context, node.port),
}


@pytest.mark.parametrize("leave", list(LEAVE))
def test_a_qp_that_leaves_rts_leaves_no_tick_and_sends_nothing(two_fabrics,
                                                               leave):
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    connect_pair(a, b)
    b.post_recv(1)
    fab_a.drop_filter = lambda frame: True
    a.post_send(2, b"in flight")
    with fab_a._lock:
        assert len(fab_a._timers) == 1  # the send's tick, due at PROBE_MS
    LEAVE[leave](a, fab_a)
    with fab_a._lock:
        assert a.qp.sender is None and fab_a._timers == []
        traced = len(fab_a.trace)
    # three probe timeouts: a tick left behind would have resent by then
    assert not b.cq.wait_for_completion(timeout=3 * PROBE_MS / 1e3)
    with fab_a._lock:
        assert fab_a.trace[traced:] == [] and fab_a._timers == []
    assert [wc.status for wc in a.cq.poll(2)] == \
        ([WcStatus.WR_FLUSHED] if leave == "err" else [])


@pytest.mark.parametrize("leave", list(LEAVE))
def test_a_qp_may_leave_rts_after_its_fabric_closed(two_fabrics, leave):
    # close detaches the port, which stops the sender before the heap is
    # cleared, so the leave finds no tick to cancel
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    connect_pair(a, b)
    b.post_recv(1)
    fab_a.drop_filter = lambda frame: True
    a.post_send(2, b"in flight")
    fab_a.close()
    assert a.qp.sender is None
    LEAVE[leave](a, fab_a)
    assert [wc.status for wc in a.cq.poll(2)] == \
        ([WcStatus.WR_FLUSHED] if leave == "err" else [])


def test_a_sleeping_waiter_times_out_while_another_thread_moves(two_fabrics):
    """A waiter that sleeps on its CQ while another thread moves the
    fabrics ends its wait when its own timeout runs out, not when the
    mover hands over."""
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    to_init(a.qp)
    a.post_recv(1)
    manual = fabric_module._MANUAL
    moved = []
    mover = threading.Thread(
        target=lambda: moved.append(a.cq.wait_for_completion(timeout=3.0)))
    mover.start()
    deadline = time.monotonic() + 2.0
    while manual.moving != mover.ident and time.monotonic() < deadline:
        time.sleep(0.005)
    assert manual.moving == mover.ident
    start = time.monotonic()
    assert not b.cq.wait_for_completion(timeout=0.2)
    took = time.monotonic() - start
    # the flush pushes the mover's CQE and cuts its poll short
    a.qp.modify(ModifyAttributes(state=QpState.ERR), AttrMask.STATE)
    mover.join(timeout=5.0)
    assert not mover.is_alive() and moved == [True]
    assert 0.2 <= took < 1.5


def test_a_zero_timeout_wait_never_moves_the_fabrics(two_fabrics,
                                                     monkeypatch):
    """On a frozen clock a zero timeout has no time left at all: both
    waits only look, and neither takes the mover's place or fires a
    timer."""
    (reg_a, _), (fab_a, _) = two_fabrics
    a = Node(reg_a, fab_a, channel=True)
    a.cq.req_notify()
    fired = []
    monkeypatch.setattr(SocketFabric, "_fire_due",
                        lambda self: fired.append(self) or math.inf)
    monkeypatch.setattr(fabric_module, "time",
                        SimpleNamespace(monotonic=lambda: 1000.0))
    assert a.cq.wait_for_completion(timeout=0) is False
    assert a.channel.get_event(timeout=0) is None
    assert fired == [] and fabric_module._MANUAL.moving is None


def test_a_record_that_fills_a_datagram_exactly_stays_in_it(two_fabrics):
    _, (fabric, _) = two_fabrics
    full, over = ("sock", ("127.0.0.1", 1)), ("sock", ("127.0.0.1", 2))
    for to, second in ((full, MAX_DATAGRAM - 100), (over, MAX_DATAGRAM - 99)):
        fabric._write(to, bytes(100))
        fabric._write(to, bytes(second))
    assert [len(d) for d in fabric._unsent[full]] == [MAX_DATAGRAM]
    assert [len(d) for d in fabric._unsent[over]] == [100, MAX_DATAGRAM - 99]
    fabric._write(full, bytes(1))
    assert [len(d) for d in fabric._unsent[full]] == [MAX_DATAGRAM, 1]
    fabric._unsent.clear()  # the keys name no socket
