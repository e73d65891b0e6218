import random
import re
import socket
import threading
from collections import Counter
from pathlib import Path

import pytest

from softverbs import pingpong
from softverbs.fabric import FaultProfile, LoopbackFabric
from softverbs.oob import Destination
from softverbs.pingpong import (
    PingpongConfig,
    PingpongError,
    RunStats,
    connect_ctx,
    format_gid,
    init_context,
    open_node,
    post_receives,
    report,
    run_loop,
    run_loopback_pair,
    to_rtr,
)
from softverbs.verbs import (
    AttrMask,
    CompletionEntry,
    CompletionQueue,
    CompletionQueueError,
    DeviceRegistry,
    ModifyAttributes,
    QpState,
    QueuePair,
    VerbsError,
    WcOpcode,
    WcStatus,
)
from softverbs.wire import FrameKind, SegMark

ADDR_RE = re.compile(
    r"^  (local|remote) address: ?\s?LID 0x[0-9a-f]{4}, "
    r"QPN 0x[0-9a-f]{6}, PSN 0x[0-9a-f]{6}, GID .+$")


@pytest.fixture
def world():
    registry = DeviceRegistry()
    registry.add_device("hca0")
    fabric = LoopbackFabric(registry=registry)
    return registry, fabric


class TestInitContext:
    def test_defaults_match_the_program(self, world):
        registry, fabric = world
        ctx = init_context(registry, PingpongConfig())
        assert ctx.qp.state is QpState.INIT
        assert ctx.cq.capacity == 501
        assert ctx.mr.length == 4096
        assert ctx.qp.caps.max_send_wr == 1
        assert ctx.qp.caps.max_recv_wr == 500
        assert len(ctx.buf) == 4096
        assert ctx.buf.base % 4096 == 0  # page aligned

    def test_no_devices_is_startup_error(self):
        with pytest.raises(PingpongError):
            init_context(DeviceRegistry(), PingpongConfig())

    def test_a_failed_step_raises_its_message_from_the_verbs_error(
            self, world):
        registry, _ = world
        with pytest.raises(PingpongError) as failed:
            init_context(registry, PingpongConfig(ib_port=2))
        assert str(failed.value) == "Failed to modify QP to INIT"
        assert isinstance(failed.value.__cause__, VerbsError)

    def test_server_buffer_fill(self, world):
        registry, _ = world
        ctx = init_context(registry, PingpongConfig(server_host=None))
        assert bytes(ctx.buf.data) == b"\x7c" * 4096

    def test_client_buffer_fill(self, world):
        registry, _ = world
        ctx = init_context(registry, PingpongConfig(server_host="peer"))
        assert bytes(ctx.buf.data) == b"\x7b" * 4096

    def test_event_mode_creates_channel(self, world):
        registry, _ = world
        ctx = init_context(registry, PingpongConfig(use_event=True))
        assert ctx.channel is not None and ctx.cq.channel is ctx.channel


@pytest.mark.parametrize("name", ["size", "iters", "rx_depth"])
def test_a_config_count_below_one_is_refused(name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
        PingpongConfig(**{name: 0})


@pytest.mark.parametrize("port", [0, 65536])
def test_an_oob_port_out_of_range_is_refused(port):
    with pytest.raises(ValueError,
                       match=f"^oob_port must be within 1-65535, got {port}$"):
        PingpongConfig(oob_port=port)


@pytest.mark.parametrize("name, value", [
    ("size", 1), ("iters", 1), ("rx_depth", 1),
    ("oob_port", 1), ("oob_port", 65535)])
def test_a_value_at_the_edge_of_its_range_is_accepted(name, value):
    assert getattr(PingpongConfig(**{name: value}), name) == value


class TestValidateFirstRecv:
    """The first message a role receives must be the client's fill, at
    the configured size, on both roles."""

    @pytest.fixture
    def ctx(self, world):
        registry, _ = world
        return init_context(registry, PingpongConfig(server_host="peer"))

    def test_a_short_first_message_is_refused(self, ctx):
        with pytest.raises(PingpongError,
                           match="^first message was 4095 bytes, "
                                 "expected 4096$"):
            pingpong._validate_first_recv(ctx, ctx.size - 1)

    def test_a_first_message_of_another_fill_is_refused(self, ctx):
        ctx.buf.data[100] ^= 1
        with pytest.raises(PingpongError,
                           match="^first message payload is corrupt$"):
            pingpong._validate_first_recv(ctx, ctx.size)


class TestPostReceives:
    def test_full_depth_on_fresh_qp(self, world):
        registry, fabric = world
        ctx = init_context(registry, PingpongConfig())
        assert post_receives(ctx, 500) == 500

    def test_zero_posts_zero(self, world):
        registry, _ = world
        ctx = init_context(registry, PingpongConfig())
        assert post_receives(ctx, 0) == 0

    def test_overshoot_returns_free_capacity(self, world):
        registry, _ = world
        ctx = init_context(registry, PingpongConfig(rx_depth=10))
        assert post_receives(ctx, 4) == 4
        # 6 slots remain; asking for 10 more posts only those 6
        assert post_receives(ctx, 10) == 6

    def test_a_post_refused_as_a_whole_posts_none(self, world):
        registry, _ = world
        ctx = init_context(registry, PingpongConfig())
        ctx.qp.modify(ModifyAttributes(state=QpState.RESET), AttrMask.STATE)
        assert post_receives(ctx, 5) == 0
        assert not ctx.qp.recv_queue


class TestReceiveWindowBatching:
    """The receive window goes in as one chained post_recv, where
    rc_pingpong.c makes one ibv_post_recv call per WR."""

    @pytest.fixture
    def post_calls(self, monkeypatch):
        calls = Counter()
        post_recv = QueuePair.post_recv

        def counting(qp, wr):
            calls[qp] += 1
            return post_recv(qp, wr)

        monkeypatch.setattr(QueuePair, "post_recv", counting)
        return calls

    def test_open_node_posts_its_window_in_one_call(self, world, post_calls):
        registry, fabric = world
        ctx, _ = open_node(PingpongConfig(), registry, fabric,
                           random.Random(1))
        assert len(ctx.qp.recv_queue) == ctx.routs == 500
        assert post_calls == {ctx.qp: 1}

    def test_each_repost_is_one_call(self, post_calls):
        server, client, _ = run_loopback_pair(
            PingpongConfig(iters=1000, size=64), seed=3)
        for result in (server, client):
            assert result.ctx.reposts == [(1, 500), (1, 500)]
            assert post_calls[result.ctx.qp] == 1 + len(result.ctx.reposts)


class TestConnectCtx:
    def test_walks_to_rts_with_program_attrs(self, world):
        registry, fabric = world
        cfg = PingpongConfig()
        ctx = init_context(registry, cfg)
        fabric.attach(ctx.context, 1)
        dest = Destination(lid=7, qpn=0x123456, psn=0x00AB12)
        connect_ctx(ctx, my_psn=0x00CD34, dest=dest, cfg=cfg)
        qp = ctx.qp
        assert qp.state is QpState.RTS
        assert qp.attrs.path_mtu == 1024
        assert qp.attrs.dest_qp_num == 0x123456
        assert qp.attrs.rq_psn == 0x00AB12
        assert qp.attrs.sq_psn == 0x00CD34
        assert qp.attrs.min_rnr_timer == 12
        assert qp.attrs.timeout == 14
        assert qp.attrs.retry_cnt == 7
        assert qp.attrs.rnr_retry == 7
        assert qp.attrs.max_rd_atomic == 1
        assert qp.attrs.max_dest_rd_atomic == 1
        assert qp.attrs.ah.dlid == 7

    def test_from_reset_fails(self, world):
        registry, fabric = world
        cfg = PingpongConfig()
        ctx = init_context(registry, cfg)
        fabric.attach(ctx.context, 1)
        from softverbs.verbs import AttrMask, ModifyAttributes
        ctx.qp.modify(ModifyAttributes(state=QpState.RESET), AttrMask.STATE)
        with pytest.raises(PingpongError):
            connect_ctx(ctx, 1, Destination(1, 1, 1), cfg)

    def test_masked_psn_is_24_bit(self, world):
        registry, fabric = world
        cfg = PingpongConfig()
        ctx = init_context(registry, cfg)
        fabric.attach(ctx.context, 1)
        my_psn = 0xDEADBEEF & 0xFFFFFF
        connect_ctx(ctx, my_psn, Destination(lid=9, qpn=1, psn=5), cfg)
        assert ctx.qp.attrs.sq_psn == my_psn < (1 << 24)

    def test_the_sl_reaches_both_roles_with_a_local_address(self):
        server, client, _ = run_loopback_pair(
            PingpongConfig(iters=2, rx_depth=2, size=64, sl=3), seed=43)
        for result in (server, client):
            ah = result.ctx.qp.attrs.ah
            assert (ah.sl, ah.is_global) == (3, False)

    def test_a_non_zero_gid_makes_the_address_global(self, world):
        registry, fabric = world
        ctx = init_context(registry, PingpongConfig())
        fabric.attach(ctx.context, 1)
        gid = bytes.fromhex("fe80000000000000000000000000002a")
        to_rtr(ctx.qp, 7, 0x123456, 0, dgid=gid)
        ah = ctx.qp.attrs.ah
        assert (ah.dlid, ah.is_global, ah.dgid) == (7, True, gid)


def test_the_readme_library_example_runs():
    """README's "Using the library" block as written: one QP connected to
    itself takes its own 64-byte send into the first of two receives."""
    readme = (Path(__file__).resolve().parents[1] /
              "README.md").read_text(encoding="utf-8")
    code = re.search(r"^## Using the library\n\n```python\n(.*?)^```$",
                     readme, re.M | re.S).group(1)
    printed = []
    exec(code, {"print": printed.append})
    [(recv, send)] = printed
    assert (recv.wr_id, recv.opcode, recv.status, recv.byte_len) == \
        (1, WcOpcode.RECV, WcStatus.SUCCESS, 64)
    assert (send.wr_id, send.opcode, send.status) == \
        (3, WcOpcode.SEND, WcStatus.SUCCESS)


class TestRunLoop:
    def test_minimal_single_iteration(self):
        server, client, fabric = run_loopback_pair(
            PingpongConfig(iters=1, rx_depth=4, size=64), seed=3)
        for result in (server, client):
            assert result.ctx.rcnt == 1
            assert result.ctx.scnt == 1
            assert result.stats.bytes_total == 2 * 64 * 1
        # single shared buffer: the client's fill pattern dominates; the
        # server's first (and only) receive is the client's 0x7b bytes,
        # and what bounces back to the client is that same pattern
        assert bytes(server.ctx.buf.data) == b"\x7b" * 64
        assert bytes(client.ctx.buf.data) == b"\x7b" * 64

    def test_counters_and_bytes_at_modest_scale(self):
        cfg = PingpongConfig(iters=40, rx_depth=8, size=512)
        server, client, fabric = run_loopback_pair(cfg, seed=5)
        for result in (server, client):
            assert result.ctx.rcnt == 40 and result.ctx.scnt == 40
            assert result.stats.bytes_total == 2 * 512 * 40
        # strict alternation: no receiver-not-ready events on a clean run
        assert not [e for e in fabric.trace
                    if e.frame.kind is FrameKind.RNR_NAK]
        # and message starts alternate sides, client first
        starts = []
        seen = set()
        for e in fabric.trace:
            if e.frame.kind is FrameKind.DATA and \
                    e.frame.seg in (SegMark.ONLY, SegMark.FIRST) and \
                    (e.src_lid, e.frame.psn) not in seen:
                seen.add((e.src_lid, e.frame.psn))
                starts.append(e.src_lid)
        assert starts == [starts[0], starts[1]] * 40
        assert starts[0] != starts[1]

    def test_fault_profile_same_counters_more_frames(self):
        cfg = PingpongConfig(iters=30, rx_depth=8, size=2048)
        clean_server, _, clean_fabric = run_loopback_pair(cfg, seed=11)
        cfg2 = PingpongConfig(iters=30, rx_depth=8, size=2048)
        faulty_server, faulty_client, faulty_fabric = run_loopback_pair(
            cfg2, faults=FaultProfile(drop_probability=0.2, seed=1234),
            seed=11)
        assert faulty_server.ctx.rcnt == clean_server.ctx.rcnt == 30
        assert faulty_server.ctx.scnt == 30 and faulty_client.ctx.scnt == 30
        clean_frames = len(clean_fabric.trace)
        faulty_frames = len(faulty_fabric.trace)
        assert faulty_frames > clean_frames

    def test_event_mode_matches_polling_mode(self, monkeypatch):
        acks = []
        ack_events = CompletionQueue.ack_events

        def recording(cq, n):
            acks.append(n)
            return ack_events(cq, n)

        monkeypatch.setattr(CompletionQueue, "ack_events", recording)
        polling = PingpongConfig(iters=25, rx_depth=6, size=256)
        events = PingpongConfig(iters=25, rx_depth=6, size=256, use_event=True)
        ps, pc, pf = run_loopback_pair(polling, seed=21)
        es, ec, ef = run_loopback_pair(events, seed=21)
        # identical final counters, hence identical Success-CQE multisets
        assert (ps.ctx.rcnt, ps.ctx.scnt) == (es.ctx.rcnt, es.ctx.scnt) == \
            (25, 25)
        assert (pc.ctx.rcnt, pc.ctx.scnt) == (ec.ctx.rcnt, ec.ctx.scnt) == \
            (25, 25)
        # both modes move the same messages, none of them twice
        count_data = lambda f: len([e for e in f.trace
                                    if e.frame.kind is FrameKind.DATA])
        assert count_data(pf) == count_data(ef) == 2 * 25
        # all events acknowledged before teardown, rx_depth at a time
        assert es.ctx.cq.unacked_events == 0
        assert ec.ctx.cq.unacked_events == 0
        assert max(acks) == events.rx_depth


class TestLoopbackPair:
    def test_starts_no_thread_and_opens_no_socket(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the loopback pair must stay in-thread")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(socket, "socket", refuse)
        monkeypatch.setattr(socket, "create_connection", refuse)
        server, client, _ = run_loopback_pair(
            PingpongConfig(iters=20, rx_depth=8, size=256), seed=9)
        assert server.ctx.rcnt == client.ctx.rcnt == 20

    def test_seeded_faulty_run_is_deterministic(self):
        def trace():
            cfg = PingpongConfig(iters=50, rx_depth=8, size=2048)
            _, _, fabric = run_loopback_pair(
                cfg, faults=FaultProfile(0.1, 0.05, 0.05, seed=7), seed=3)
            return [(e.t, e.src_lid, e.frame.kind, e.frame.psn, e.status)
                    for e in fabric.trace]
        first = trace()
        assert {"dropped", "dup"} <= {status for *_, status in first}
        assert trace() == first

    @pytest.mark.parametrize("use_event", [False, True])
    @pytest.mark.parametrize("size", [64, 4096, 65536])
    def test_lossless_round_trip_costs_two_hops(self, size, use_event):
        iters = 200
        server, client, fabric = run_loopback_pair(
            PingpongConfig(iters=iters, size=size, use_event=use_event),
            seed=1)
        kinds = Counter(e.frame.kind for e in fabric.trace)
        frames = 2 * iters * -(-size // 1024)  # both ways, at MTU 1024
        assert kinds[FrameKind.DATA] == frames
        # a message's frames land in one burst, under one ACK
        assert kinds[FrameKind.ACK] == 2 * iters
        assert kinds[FrameKind.NAK] == kinds[FrameKind.RNR_NAK] == 0
        # one round trip per iteration: a message out, the reply back
        starts = [e.t for e in fabric.trace
                  if e.src_lid == client.my_dest.lid and
                  e.frame.kind is FrameKind.DATA and
                  e.frame.seg in (SegMark.ONLY, SegMark.FIRST)]
        assert len(starts) == iters
        gaps = {b - a for a, b in zip(starts, starts[1:])}
        assert gaps == {2 * fabric.hop_latency_ms}

    def test_both_roles_run_in_the_one_driver(self, monkeypatch):
        calls = []
        run_loop = pingpong.run_loop

        def counting(roles, fabric, abort=None):
            calls.append([cfg.is_server for _, cfg in roles])
            return run_loop(roles, fabric, abort)

        monkeypatch.setattr(pingpong, "run_loop", counting)
        server, client, _ = run_loopback_pair(
            PingpongConfig(iters=5, rx_depth=4, size=64), seed=2)
        assert calls == [[True, False]]
        assert server.ctx.rcnt == client.ctx.rcnt == 5

    def test_stalled_pair_fails_at_once(self, monkeypatch):
        # frames vanish and no retransmit timer is armed: nothing can
        # ever complete, and nothing is left on the virtual clock
        monkeypatch.setattr(LoopbackFabric, "_deliver",
                            lambda self, src, dlid, frame: None)
        monkeypatch.setattr(LoopbackFabric, "_arm_tick",
                            lambda self, qp: None)
        with pytest.raises(PingpongError, match="nothing is scheduled"):
            run_loopback_pair(PingpongConfig(iters=3, rx_depth=4, size=64),
                              seed=1)

    def test_a_pair_that_loses_every_frame_fails_with_its_status(self):
        # the first send's retry budget runs out
        with pytest.raises(PingpongError, match="^Failed status "
                           "RetryExceeded for wr_id 2$"):
            run_loopback_pair(PingpongConfig(), faults=FaultProfile(1.0))


class TestFlowControl:
    def test_repost_fires_at_one_and_restores_depth(self):
        rx_depth, iters = 5, 23
        cfg = PingpongConfig(iters=iters,
                             rx_depth=rx_depth, size=128)
        server, client, _ = run_loopback_pair(cfg, seed=31)
        # oracle: replay the counter arithmetic
        expected_events = 0
        routs = rx_depth
        for _ in range(iters):
            routs -= 1
            if routs <= 1:
                expected_events += 1
                routs = rx_depth
        for result in (server, client):
            assert len(result.ctx.reposts) == expected_events
            assert all(before == 1 and after == rx_depth
                       for before, after in result.ctx.reposts)
            assert result.ctx.min_routs >= 1

    def test_rx_depth_one_still_alternates(self):
        cfg = PingpongConfig(iters=10, rx_depth=1, size=64)
        server, client, _ = run_loopback_pair(cfg, seed=41)
        assert server.ctx.rcnt == client.ctx.rcnt == 10
        assert server.ctx.min_routs >= 1

    def test_gid_index_goes_on_the_wire(self):
        cfg = PingpongConfig(iters=2, rx_depth=2, size=64, gid_index=0)
        server, client, _ = run_loopback_pair(cfg, seed=43)
        assert server.my_dest.gid[:2] == b"\xfe\x80"
        assert server.rem_dest.gid == client.my_dest.gid
        assert client.ctx.qp.attrs.ah.is_global
        assert "GID fe80::" in server.report


class TestReport:
    def test_report_matches_expected_shape(self):
        mine = Destination(lid=0x0008, qpn=0x580048, psn=0x2A166F)
        theirs = Destination(lid=0x0003, qpn=0x580048, psn=0x5C3F21)
        stats = RunStats(bytes_total=8192000, elapsed=0.01268, iters=1000)
        text = report(stats, mine, theirs)
        lines = text.splitlines()
        assert lines[0] == ("  local address:  LID 0x0008, QPN 0x580048, "
                            "PSN 0x2a166f, GID ::")
        assert lines[1] == ("  remote address: LID 0x0003, QPN 0x580048, "
                            "PSN 0x5c3f21, GID ::")
        assert lines[2].startswith("8192000 bytes in 0.01 seconds = ")
        assert lines[2].endswith(" Mbit/sec")
        assert lines[3] == "1000 iters in 0.01 seconds = 12.68 usec/iter"

    def test_rate_arithmetic(self):
        stats = RunStats(bytes_total=8192000, elapsed=0.012683, iters=1000)
        text = report(stats, Destination(1, 1, 1), Destination(2, 2, 2))
        # bytes * 8 / (secs * 1e6), two decimals
        assert f"{8192000 * 8 / (0.012683 * 1e6):.2f} Mbit/sec" in text
        assert f"{0.012683 * 1e6 / 1000:.2f} usec/iter" in text
        # a run too short for the clock reads an infinite rate
        stats = RunStats(bytes_total=128, elapsed=0.0, iters=1)
        text = report(stats, Destination(1, 1, 1), Destination(2, 2, 2))
        assert "128 bytes in 0.00 seconds = inf Mbit/sec" in text

    def test_zero_gid_renders_as_double_colon(self):
        assert format_gid(bytes(16)) == "::"

    def test_nonzero_gid_renders_compressed(self):
        gid = bytes((0xFE, 0x80, 0, 0, 0, 0, 0, 0)) + bytes(7) + b"\x01"
        assert format_gid(gid) == "fe80::1"

    def test_address_lines_match_wire_regex(self):
        mine = Destination(lid=1, qpn=0x580048, psn=0x0F0F0F)
        text = report(RunStats(128, 0.5, 1), mine, mine)
        for line in text.splitlines()[:2]:
            assert ADDR_RE.match(line), line


def refuse_receives_after(monkeypatch, n):
    """Let the first ``n`` post_recv calls through; refuse every later
    one as a whole, as a QP out of the receive states does."""
    calls = []
    post_recv = QueuePair.post_recv

    def refusing(qp, wr):
        calls.append(qp)
        if len(calls) > n:
            raise VerbsError("cannot post receives")
        return post_recv(qp, wr)

    monkeypatch.setattr(QueuePair, "post_recv", refusing)


class TestFailedSteps:
    """Each verbs failure inside a run ends it with rc_pingpong's
    message."""

    @pytest.fixture
    def server(self, world):
        registry, fabric = world
        cfg = PingpongConfig(rx_depth=4, size=64)
        ctx, _ = open_node(cfg, registry, fabric, random.Random(1))
        return ctx, cfg, fabric

    def test_a_send_on_an_unconnected_qp_is_a_send_failure(self, world):
        registry, fabric = world
        cfg = PingpongConfig(server_host="peer", rx_depth=4, size=64)
        ctx, _ = open_node(cfg, registry, fabric, random.Random(1))
        with pytest.raises(PingpongError, match="^Couldn't post send$") as e:
            run_loop([(ctx, cfg)], fabric)
        assert isinstance(e.value.__cause__, VerbsError)

    def test_a_latched_cq_fails_the_poll(self, server):
        ctx, cfg, fabric = server
        entry = CompletionEntry(pingpong.RECV_WRID, WcStatus.SUCCESS,
                                WcOpcode.RECV, cfg.size)
        for _ in range(ctx.cq.capacity + 1):
            ctx.cq._push(entry)
        with pytest.raises(PingpongError, match="^poll CQ failed: ") as e:
            run_loop([(ctx, cfg)], fabric)
        assert isinstance(e.value.__cause__, CompletionQueueError)

    def test_a_completion_for_an_unknown_wr_id_is_refused(self, server):
        ctx, cfg, fabric = server
        ctx.cq._push(CompletionEntry(99, WcStatus.SUCCESS, WcOpcode.RECV))
        with pytest.raises(PingpongError,
                           match="^Completion for unknown wr_id 99$"):
            run_loop([(ctx, cfg)], fabric)

    def test_a_refused_repost_fails_the_run(self, monkeypatch):
        # both roles post their windows, then the first repost is refused:
        # one receive is left of two
        refuse_receives_after(monkeypatch, 2)
        with pytest.raises(PingpongError,
                           match=r"^Couldn't post receive \(1\)$"):
            run_loopback_pair(PingpongConfig(iters=3, rx_depth=2, size=64),
                              seed=1)

    def test_a_refused_window_fails_open_node(self, world, monkeypatch):
        registry, fabric = world
        refuse_receives_after(monkeypatch, 0)
        with pytest.raises(PingpongError,
                           match=r"^Couldn't post receive \(0\)$"):
            open_node(PingpongConfig(), registry, fabric, random.Random(1))

    def test_a_port_left_without_a_lid_fails_open_node(self, world):
        registry, _ = world

        class NoLidFabric:
            """Attaches nothing: the port keeps LID 0."""

            def attach(self, context, port):
                return 0

        with pytest.raises(PingpongError, match="^Couldn't get local LID$"):
            open_node(PingpongConfig(), registry, NoLidFabric(),
                      random.Random(1))
