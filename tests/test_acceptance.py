"""Acceptance suite: one test per release criterion.

Each test prints a PASS line once its assertions hold; run with ``-s`` to
see them (``pytest tests/test_acceptance.py -v -s``). Throughput and
latency figures are wall-clock measurements and are never asserted, only
the transfer totals and protocol behavior are.
"""

import random
import re
import socket
import subprocess
import sys
import time

import pytest

from conftest import Node, connect_pair, free_port, run_until
from softverbs.cli import main as cli_main
from softverbs.fabric import FaultProfile, LoopbackFabric
from softverbs.oob import Destination, decode_destination, encode_destination
from softverbs.pingpong import PingpongConfig, run_loopback_pair
from softverbs.verbs import (
    CqState,
    CompletionQueueError,
    DeviceRegistry,
    QpState,
    SendWorkRequest,
    VerbsError,
    WcStatus,
)
from softverbs.wire import Frame, FrameKind, SegMark, decode_frame, encode_frame

from test_state_machine import FULL, LEGAL, attempt, qp_in_state

ADDR_LINE = re.compile(
    r"^  (?:local address: |remote address:) LID 0x[0-9a-f]{4}, "
    r"QPN 0x[0-9a-f]{6}, PSN 0x[0-9a-f]{6}, GID ::$")


def _announce(n, text):
    print(f"\nACCEPTANCE {n:02d} PASS - {text}")


def test_criterion_01_loopback_pingpong_defaults(capsys):
    wall_start = time.monotonic()
    server, client, _ = run_loopback_pair(
        PingpongConfig(oob_port=free_port()), seed=20260808)
    wall = time.monotonic() - wall_start
    for side in (server, client):
        assert side.ctx.rcnt == 1000 and side.ctx.scnt == 1000
        assert side.stats.bytes_total == 8192000
        assert "8192000 bytes" in side.report
    assert wall < 10.0
    # the CLI path reports success exit status for the same run
    rc = cli_main(["--port", str(free_port())])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("8192000 bytes") == 2
    _announce(1, f"loopback pingpong: rcnt=scnt=1000 both sides, "
                 f"8192000 bytes, {wall:.2f}s")


def _wait_port(port, timeout=15.0):
    """Wait until the server's fabric holds its UDP port: a bind to it
    fails."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
            try:
                probe.bind(("127.0.0.1", port))
            except OSError:
                return True
        time.sleep(0.05)
    return False


def test_criterion_02_two_process_socket_pingpong(tmp_path):
    fport1, fport2, oob = free_port(), free_port(), free_port()
    conf = tmp_path / "fabric.conf"
    conf.write_text(f"lid 1 host 127.0.0.1 port {fport1}\n"
                    f"lid 2 host 127.0.0.1 port {fport2}\n")
    base = [sys.executable, "-m", "softverbs", "--fabric", "socket",
            "--fabric-config", str(conf), "-p", str(oob)]
    server = subprocess.Popen(base, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
    try:
        assert _wait_port(fport1), "server never opened its fabric port"
        time.sleep(0.3)
        for attempt in range(3):
            client = subprocess.run(base + ["127.0.0.1"],
                                    capture_output=True, text=True,
                                    timeout=120)
            racing_the_listener = (client.returncode == 1
                                   and "connect" in client.stderr
                                   and server.poll() is None)
            if not racing_the_listener:
                break
            time.sleep(0.5)
        sout, serr = server.communicate(timeout=120)
    finally:
        if server.poll() is None:
            server.kill()
    assert server.returncode == 0, serr
    assert client.returncode == 0, client.stderr
    for out in (sout, client.stdout):
        assert "8192000 bytes" in out
        lines = out.splitlines()
        assert ADDR_LINE.match(lines[0]), lines[0]
        assert ADDR_LINE.match(lines[1]), lines[1]
    _announce(2, "two-process socket pingpong: exit 0 both sides, "
                 "8192000 bytes, address lines exact")


def test_criterion_03_state_machine_table(registry, fabric):
    checked = 0
    for source in QpState:
        for target in QpState:
            mask, _ = FULL[target]
            node = qp_in_state(registry, fabric, source)
            if (source, target) in LEGAL:
                attempt(node.qp, target, mask)
                assert node.qp.state is target
            else:
                with pytest.raises(VerbsError):
                    attempt(node.qp, target, mask)
                assert node.qp.state is source
            # drop each required non-STATE field in turn: must fail whole
            for bit in type(mask):
                if not (mask & bit) or bit.name == "STATE":
                    continue
                node2 = qp_in_state(registry, fabric, source)
                with pytest.raises(VerbsError):
                    attempt(node2.qp, target, mask & ~bit)
                assert node2.qp.state is source
            checked += 1
    assert checked == 25

    # sends are postable from RTS only
    for state in (QpState.RESET, QpState.INIT, QpState.RTR, QpState.ERR):
        node = qp_in_state(registry, fabric, state)
        with pytest.raises(VerbsError):
            node.qp.post_send(SendWorkRequest(1, [node.sge(0, 8)]))
    node = qp_in_state(registry, fabric, QpState.RTS)
    node.qp.post_send(SendWorkRequest(1, [node.sge(0, 8)]))

    # frames aimed at RESET/INIT QPs never complete anything
    for state in (QpState.RESET, QpState.INIT):
        node = qp_in_state(registry, fabric, state)
        frame = Frame(FrameKind.DATA, node.qp.qpn, 0, SegMark.ONLY, b"x")
        fabric.on_data(node.qp, frame)
        fabric.inject(node.lid, frame)
        fabric.run_until_idle()
        assert node.cq.poll(4) == []
    _announce(3, "25 state pairs x {complete, missing-one} masks, "
                 "RTS-only sends, silent drops in RESET/INIT")


def test_criterion_04_reliability_exactly_once():
    seed = 20260808
    n, size, mtu = 1000, 4096, 1024
    registry = DeviceRegistry()
    registry.add_device("hca0")
    fabric = LoopbackFabric(
        faults=FaultProfile(drop_probability=0.2, duplicate_probability=0.1,
                            reorder_probability=0.1, seed=seed),
        registry=registry)
    a = Node(registry, fabric, size=n * size, max_send_wr=n, max_recv_wr=n,
             cq_capacity=n + 1)
    b = Node(registry, fabric, size=n * size, max_send_wr=n, max_recv_wr=n,
             cq_capacity=n + 1)
    connect_pair(a, b, mtu=mtu)
    rng = random.Random(seed)
    payloads = [rng.randbytes(size) for _ in range(n)]
    for i in range(n):
        b.post_recv(i, off=i * size, length=size)
    for i, payload in enumerate(payloads):
        a.post_send(10_000 + i, payload, off=i * size)
    fabric.run_until_idle(max_events=5_000_000)

    recv = b.cq.poll(n + 10)
    assert len(recv) == n                                   # zero loss, zero dup
    assert [wc.wr_id for wc in recv] == list(range(n))      # zero reordering
    assert all(wc.status is WcStatus.SUCCESS for wc in recv)
    assert all(wc.byte_len == size for wc in recv)
    for i, payload in enumerate(payloads):
        assert b.read(i * size, size) == payload            # bit-identical
    send = a.cq.poll(n + 10)
    assert [wc.wr_id for wc in send] == [10_000 + i for i in range(n)]
    assert all(wc.status is WcStatus.SUCCESS for wc in send)
    dropped = sum(1 for e in fabric.trace if e.status == "dropped")
    assert dropped > 0  # the profile really was active
    _announce(4, f"1000 x 4096B under drop/dup/reorder: exactly once, "
                 f"in order, bit-identical ({dropped} frames dropped)")


def test_criterion_05_retry_exhaustion(registry, fabric):
    a = Node(registry, fabric)
    b = Node(registry, fabric)
    connect_pair(a, b)
    b.post_recv(1)
    target_psn = 101
    fabric.drop_filter = (lambda f: f.kind is FrameKind.DATA
                          and f.psn == target_psn)
    a.post_send(55, bytes(2048))
    fabric.run_until_idle()
    copies = [e for e in fabric.trace
              if e.frame.kind is FrameKind.DATA and e.frame.psn == target_psn]
    assert len(copies) - 1 == 7  # exactly retry_cnt retransmissions
    wc, = a.cq.poll(2)
    assert wc.wr_id == 55 and wc.status is WcStatus.RETRY_EXCEEDED
    assert a.qp.state is QpState.ERR
    _announce(5, "100% targeted drop: 7 retransmissions, RetryExceeded, "
                 "QP in ERR")


def test_criterion_06_rnr_paths(registry, fabric):
    # sends before any receives draw RNR NAKs; posting within the budget
    # lets everything complete
    a = Node(registry, fabric)
    b = Node(registry, fabric)
    connect_pair(a, b)
    a.post_send(1, b"no buffer yet")
    naks = lambda: [e for e in fabric.trace
                    if e.frame.kind is FrameKind.RNR_NAK]
    run_until(fabric, lambda: len(naks()) >= 1)
    assert naks()[0].frame.rnr_delay_hint == 12
    b.post_recv(2)
    fabric.run_until_idle()
    assert [wc.status for wc in a.cq.poll(2)] == [WcStatus.SUCCESS]
    assert [wc.status for wc in b.cq.poll(2)] == [WcStatus.SUCCESS]

    # budget zero and no receives: RnrRetryExceeded
    registry2 = DeviceRegistry()
    registry2.add_device("hca0")
    fabric2 = LoopbackFabric(registry=registry2)
    c = Node(registry2, fabric2)
    d = Node(registry2, fabric2)
    connect_pair(c, d, rnr_retry=0)
    c.post_send(9, b"doomed")
    fabric2.run_until_idle()
    wc, = c.cq.poll(2)
    assert wc.status is WcStatus.RNR_RETRY_EXCEEDED
    assert c.qp.state is QpState.ERR
    _announce(6, "RNR NAKs before receives; Success within budget; "
                 "RnrRetryExceeded at budget 0")


def test_criterion_07_cq_overflow_latches(registry, fabric):
    a = Node(registry, fabric)
    b = Node(registry, fabric, cq_capacity=4)
    connect_pair(a, b)
    for i in range(5):
        b.post_recv(i)
    for i in range(5):
        a.post_send(100 + i, bytes([i]) * 32)
    fabric.run_until_idle()
    assert b.cq.state is CqState.ERROR
    with pytest.raises(CompletionQueueError):
        b.cq.poll(1)
    with pytest.raises(CompletionQueueError):
        b.cq.poll(1)  # still latched; it never comes back
    _announce(7, "capacity+1 completions latch the CQ error state; "
                 "polls keep failing")


def test_criterion_08_codec_oracles():
    rng = random.Random(0xC0DEC)
    for _ in range(10_000):
        kind = rng.choice(list(FrameKind))
        frame = Frame(
            kind=kind,
            dest_qpn=rng.getrandbits(24),
            psn=rng.getrandbits(24),
            seg=rng.choice(list(SegMark)),
            payload=rng.randbytes(rng.randrange(0, 257))
            if kind is FrameKind.DATA else b"",
            rnr_delay_hint=rng.randrange(32)
            if kind is FrameKind.RNR_NAK else 0)
        assert decode_frame(encode_frame(frame)) == frame
    for _ in range(10_000):
        dest = Destination(rng.getrandbits(16), rng.getrandbits(24),
                           rng.getrandbits(24), rng.randbytes(16))
        assert decode_destination(encode_destination(dest)) == dest
    # the frozen worked examples
    assert encode_frame(Frame(FrameKind.ACK, 0x000001, 0)).hex() == \
        "5642010000000100000000000000"
    line = "0008:580048:2a166f:" + "0" * 32 + "\n"
    assert decode_destination(line) == Destination(0x0008, 0x580048, 0x2A166F)
    assert encode_destination(Destination(0x0008, 0x580048, 0x2A166F)) == line
    _announce(8, "10k frame and 10k destination round-trips; worked "
                 "examples decode exactly")


def test_criterion_09_flow_control_accounting():
    rx_depth, iters = 5, 23
    server, client, _ = run_loopback_pair(
        PingpongConfig(oob_port=free_port(), iters=iters, rx_depth=rx_depth,
                       size=256), seed=17)
    # oracle: replay the credit arithmetic the loop is supposed to follow
    expected_reposts = 0
    routs = rx_depth
    for _ in range(iters):
        routs -= 1
        if routs <= 1:
            expected_reposts += 1
            routs = rx_depth
    for side in (server, client):
        assert len(side.ctx.reposts) == expected_reposts
        assert all(before == 1 for before, _ in side.ctx.reposts)
        assert all(after == rx_depth for _, after in side.ctx.reposts)
        assert side.ctx.min_routs >= 1
    _announce(9, f"repost fires exactly at routs=1 and restores "
                 f"rx_depth={rx_depth}; routs never reaches 0")


def test_criterion_10_stale_replay_rejected(registry, fabric):
    a = Node(registry, fabric)
    b = Node(registry, fabric)
    connect_pair(a, b, psn_a=0x100000, psn_b=0x180000)
    for i in range(5):
        b.post_recv(i, off=i * 2048, length=2048)
    for i in range(5):
        a.post_send(20 + i, bytes([0x30 + i]) * 2048, off=i * 2048)
    fabric.run_until_idle()
    assert len(b.cq.poll(10)) == 5
    assert len(a.cq.poll(10)) == 5
    recorded = [(e.dst_lid, e.frame) for e in fabric.trace
                if e.status in ("sent", "dup")]
    assert recorded

    from softverbs.verbs import AttrMask, ModifyAttributes
    for qp in (a.qp, b.qp):
        qp.modify(ModifyAttributes(state=QpState.RESET), AttrMask.STATE)
    connect_pair(a, b, psn_a=0x500000, psn_b=0x580000)
    for i in range(5):
        b.post_recv(100 + i, off=i * 2048, length=2048)

    for dst_lid, frame in recorded:
        fabric.inject(dst_lid, frame)
    fabric.run_until_idle()
    assert b.cq.poll(10) == []
    assert a.cq.poll(10) == []
    assert b.qp.receiver.expected_psn == 0x500000
    _announce(10, f"replaying {len(recorded)} recorded frames into the "
                  f"fresh connection produced zero completions")
