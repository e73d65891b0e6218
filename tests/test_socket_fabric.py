import random
import socket
import sys
import threading
import time
from dataclasses import replace

import pytest

from conftest import Node, connect_pair, free_port, to_init, to_rtr, to_rts
from softverbs.fabric import (
    PROBE_MS,
    FabricConfig,
    FabricConfigEntry,
    FaultProfile,
    SocketFabric,
    TimingTables,
)
from softverbs import fabric as fabric_module, pingpong
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
    HEADER_LEN,
    Frame,
    FrameKind,
    SegMark,
    decode_frame,
    encode_frame,
    frame_body_length,
)

FAST_TIMEOUT = TimingTables({14: 50.0})  # retransmit after 50 ms, not 500


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
    import socket as socketlib
    blocker = socketlib.socket()
    blocker.bind(("127.0.0.1", taken))
    blocker.listen(1)
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


def test_faults_from_config_are_adopted():
    config = FabricConfig(entries=[], faults=None)
    from softverbs.fabric import parse_fabric_config
    cfg = parse_fabric_config("lid 1 host h port 1\nfaults drop=0.3 seed=5\n")
    fabric = SocketFabric(cfg)
    assert fabric.faults.drop_probability == 0.3
    fabric.close()


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
        faults=FaultProfile(0.1, 0.1, 0.1, seed=3), timing=FAST_TIMEOUT)
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
    (reg_a, reg_b), fabrics = make_fabrics(timing=FAST_TIMEOUT)
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
    # deadline passed; the 50 ms timeout comes only after it
    assert copies[1].t - posted_at >= PROBE_MS


def test_nak_frame_round_trips_through_the_stream_codec():
    frame = Frame(FrameKind.NAK, 0x12345, 0xFFFFFE)
    data = encode_frame(frame)
    assert len(data) == HEADER_LEN
    assert frame_body_length(data[:HEADER_LEN]) == 0
    assert decode_frame(data) == frame


def test_lost_frame_recovers_by_nak_before_the_deadline(make_fabrics):
    (reg_a, reg_b), fabrics = make_fabrics()  # 500 ms retransmit timeout
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
    # fab_b's listener, the connection it accepted from fab_a and the one
    # it dialled to fab_a
    socks = [*fab_b._listeners, *fab_b._conns, *fab_b._peers.values()]
    assert len(socks) == 3
    fab_b.close()
    assert [s.fileno() for s in socks] == [-1] * 3
    # fab_a stays open: its wait sees fab_b's end of stream, no error
    assert a.cq.wait_for_completion(timeout=0.2) is False
    assert not fab_a._conns


def test_writer_to_the_peer_starts_when_the_qp_is_connected(two_fabrics):
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    assert not fab_a._peers
    connect_pair(a, b)
    assert set(fab_a._peers) == {b.lid}
    assert set(fab_b._peers) == {a.lid}
    [listener] = fab_b._listeners
    assert fab_a._peers[b.lid].getpeername() == listener.getsockname()


class EngineFault(Exception):
    pass


def test_a_timer_callback_error_reaches_the_waiting_caller(two_fabrics):
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    connect_pair(a, b)

    def fail():
        raise EngineFault("timer")

    fab_a.schedule(0, fail)
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
    (reg_a, _), (fab_a, _) = make_fabrics(timing=FAST_TIMEOUT)
    a = Node(reg_a, fab_a)  # LID 1; nothing listens on LID 2's port
    to_init(a.qp)
    to_rtr(a.qp, 2, 0x123, 0)
    to_rts(a.qp, 100, retry_cnt=1)
    a.post_send(1, b"nobody home")
    assert [wc.status for wc in wait_for(a.cq, 1)] == \
        [WcStatus.RETRY_EXCEEDED]
    data = [e.status for e in fab_a.trace if e.frame.kind is FrameKind.DATA]
    assert data == ["unrouted"] * 2  # the first copy and its one retry


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


class CountingSocket:
    """Stands in for a dialled socket and records the bytes of each
    ``send`` call; everything else goes to the real socket."""

    def __init__(self, sock):
        self._sock = sock
        self.sends: list[bytes] = []

    def send(self, data):
        sent = self._sock.send(data)
        self.sends.append(bytes(data[:sent]))
        return sent

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_a_four_frame_message_leaves_in_one_send(two_fabrics, monkeypatch):
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    connect_pair(a, b)
    counting = CountingSocket(fab_a._peers[b.lid])
    fab_a._peers[b.lid] = counting
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
    assert counting.sends == [b"".join(map(encode_frame, frames))]
    assert [f for f in decoded if f.kind is FrameKind.DATA] == frames


def test_a_window_of_messages_draws_fewer_acks_than_frames(two_fabrics,
                                                         monkeypatch):
    """The frames one read holds are one burst, acked once: ACKs never
    go back, and the last names the last DATA frame."""
    # no probe: its duplicate would draw a stale re-ACK of an older PSN
    monkeypatch.setattr(fabric_module, "PROBE_MS", 10_000.0)
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


def test_a_small_send_buffer_delivers_a_window_exactly_once_in_order(
        two_fabrics):
    """A window of 64 KiB sends posted at once overruns the dialled
    socket's shrunken send buffer: the rest stays queued, the socket is
    polled for writing, and the waiting thread writes it out."""
    n_msgs, size = 16, 65536
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a, b = (Node(reg, fabric, size=n_msgs * size, max_send_wr=n_msgs,
                 max_recv_wr=n_msgs, cq_capacity=n_msgs + 1)
            for reg, fabric in ((reg_a, fab_a), (reg_b, fab_b)))
    connect_pair(a, b)
    sock = fab_a._peers[b.lid]
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    rng = random.Random(9)
    payloads = [rng.randbytes(size) for _ in range(n_msgs)]
    for i in range(n_msgs):
        b.post_recv(i, off=i * size, length=size)
    for i, payload in enumerate(payloads):
        a.post_send(1000 + i, payload, off=i * size)
    assert sock in fab_a._unsent
    assert sock.fileno() in fabric_module._MANUAL.handlers
    recv = wait_for(b.cq, n_msgs, timeout=30.0)
    send = wait_for(a.cq, n_msgs, timeout=30.0)
    assert [wc.wr_id for wc in recv] == list(range(n_msgs))
    assert [wc.wr_id for wc in send] == [1000 + i for i in range(n_msgs)]
    assert all(wc.status is WcStatus.SUCCESS for wc in recv + send)
    for i, payload in enumerate(payloads):
        assert b.read(i * size, size) == payload
    assert not fab_a._unsent
    assert sock.fileno() not in fabric_module._MANUAL.handlers


class StalledSocket:
    """Stands in for a dialled socket whose send buffer is full while
    ``stalled`` holds; everything else goes to the real socket."""

    def __init__(self, sock):
        self._sock = sock
        self.stalled = True

    def send(self, data):
        if self.stalled:
            raise BlockingIOError
        return self._sock.send(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_no_probe_while_the_head_is_still_queued(two_fabrics):
    """A head whose bytes the socket has not taken has not left yet: its
    probe deadline restarts instead of resending it behind itself."""
    (reg_a, reg_b), (fab_a, fab_b) = two_fabrics
    a = Node(reg_a, fab_a)
    b = Node(reg_b, fab_b)
    connect_pair(a, b)
    stalled = StalledSocket(fab_a._peers[b.lid])
    fab_a._peers[b.lid] = stalled
    b.post_recv(1)
    a.post_send(2, b"queued" * 100)
    assert stalled in fab_a._unsent
    # several probe deadlines pass while the waiting thread moves both
    # fabrics and fires their ticks
    assert not a.cq.wait_for_completion(timeout=5 * PROBE_MS / 1e3)
    data = [e for e in fab_a.trace if e.frame.kind is FrameKind.DATA]
    assert len(data) == 1
    head, = a.qp.sender.unacked
    assert not head.probed and head.retries_used == 0
    stalled.stalled = False
    fabric_module._MANUAL.wake()
    assert [wc.status for wc in wait_for(b.cq, 1)] == [WcStatus.SUCCESS]
    assert [wc.status for wc in wait_for(a.cq, 1)] == [WcStatus.SUCCESS]


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
