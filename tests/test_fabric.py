import collections
import hashlib
import math
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Node, connect_pair, run_until, to_init, to_rtr, to_rts
from softverbs.fabric import (
    DUP_EXTRA_MS,
    HOLD_PSNS,
    PROBE_ALLOWANCE_MS,
    PROBE_MS,
    RNR_TIMER_MS,
    FabricConfigEntry,
    FabricConfigError,
    FaultProfile,
    LoopbackFabric,
    SenderState,
    ack_timeout_ms,
    parse_fabric_config,
    parse_faults_spec,
    psn_add,
    psn_before,
    psn_le,
)
from softverbs.pingpong import PingpongConfig, run_loopback_pair
from softverbs.verbs import (
    AttrMask,
    DeviceRegistry,
    ModifyAttributes,
    QpState,
    VerbsError,
    WcStatus,
)
from softverbs.wire import Frame, FrameKind, SegMark, pack_gaps

PSN_MOD = 1 << 24


def drop_first_copy(*psns):
    """A drop filter that loses the first DATA copy of each given PSN."""
    pending = set(psns)

    def drop(frame):
        if frame.kind is FrameKind.DATA and frame.psn in pending:
            pending.discard(frame.psn)
            return True
        return False

    return drop


def recording(frames):
    """A drop filter that drops nothing and appends each frame it sees to
    ``frames``, whole: the trace keeps no DATA payload over SNAP_LEN."""

    def record(frame):
        frames.append(frame)
        return False

    return record


def trace_digest(fabric):
    """SHA-256 over every trace row: time, LIDs, every frame field, the
    status and the payload length."""
    h = hashlib.sha256()
    for e in fabric.trace:
        f = e.frame
        h.update(repr((e.t, e.src_lid, e.dst_lid, int(f.kind), f.psn,
                       int(f.seg), f.payload, f.rnr_delay_hint,
                       e.status, e.length)).encode())
    return h.hexdigest()


def nak(qpn, psn, *gaps):
    """A NAK for ``psn`` whose gap list holds ``gaps``, ``(first PSN,
    count)`` pairs; with none, it lists ``psn`` alone."""
    return Frame(FrameKind.NAK, qpn, psn,
                 payload=pack_gaps(gaps or ((psn, 1),)))


def frames_of(fabric, kind, status="sent"):
    return [e.frame for e in fabric.trace
            if e.frame.kind is kind and e.status == status]


class TestPsnArithmetic:
    def test_basics(self):
        assert psn_before(1, 2)
        assert not psn_before(2, 1)
        assert not psn_before(5, 5)
        assert psn_le(5, 5)

    def test_wraparound(self):
        assert psn_before(0xFFFFFF, 0x000000)
        assert psn_before(0xFFFFF0, 0x000010)
        assert not psn_before(0x000010, 0xFFFFF0)

    @given(st.integers(0, PSN_MOD - 1), st.integers(1, (1 << 23) - 1))
    def test_half_range_window(self, a, d):
        b = psn_add(a, d)
        assert psn_before(a, b)
        assert not psn_before(b, a)

    @given(st.integers(0, PSN_MOD - 1),
           st.integers(1, PSN_MOD - 1).filter(lambda d: d != 1 << 23))
    def test_antisymmetric(self, a, d):
        # exactly one direction holds whenever the distance is not 2^23
        b = psn_add(a, d)
        assert psn_before(a, b) != psn_before(b, a)

    def test_half_range_pair_is_unordered(self):
        # at a distance of exactly 2^23 neither PSN is before the other
        half = 1 << 23
        for a, b in ((0, half), (0xFFFFFF, half - 1)):
            assert not psn_before(a, b) and not psn_before(b, a)
            assert not psn_le(a, b) and not psn_le(b, a)


class TestAttach:
    def test_first_attach_gets_lid_one(self, registry, fabric):
        ctx = registry.open_device(registry.get_device_list()[0])
        assert fabric.attach(ctx, 1) == 1

    def test_two_attaches_distinct_lids(self, registry, fabric):
        dev = registry.get_device_list()[0]
        lids = {fabric.attach(registry.open_device(dev), 1) for _ in range(2)}
        assert len(lids) == 2

    def test_double_attach_same_port_fails(self, registry, fabric):
        ctx = registry.open_device(registry.get_device_list()[0])
        fabric.attach(ctx, 1)
        with pytest.raises(VerbsError):
            fabric.attach(ctx, 1)

    @pytest.mark.parametrize("foreign, port, message", [
        (True, 1, "fabric already serves a different registry"),
        (False, 2, "no such port 2")])
    def test_an_attach_the_fabric_cannot_serve_fails(self, registry, fabric,
                                                     foreign, port, message):
        if foreign:
            registry = DeviceRegistry()
            registry.add_device("hca0")
        ctx = registry.open_device(registry.get_device_list()[0])
        with pytest.raises(VerbsError, match=f"^{message}$"):
            fabric.attach(ctx, port)
        assert not fabric.routing

    def test_a_detached_port_unbinds_its_qps(self, pair, fabric):
        a, b = pair
        fabric.detach(a.context, a.port)
        assert a.qp._endpoint is None and a.lid not in fabric.routing
        # detaching it again, or a port never attached, is a no-op
        fabric.detach(a.context, a.port)
        fabric.detach(b.context, 2)
        assert list(fabric.routing) == [b.lid]
        with pytest.raises(VerbsError,
                           match="^QP port is not attached to a fabric$"):
            a.post_send(1, b"x")

    def test_a_detach_leaves_a_port_of_another_fabric_attached(
            self, registry, pair, fabric):
        a, _ = pair
        other = LoopbackFabric(registry=registry)
        ctx = registry.open_device(registry.get_device_list()[0])
        lid = other.attach(ctx, 1)
        assert lid == a.lid  # each fabric hands out LID 1 first
        assert other.detach(a.context, a.port) is None
        assert a.context._attachments[a.port].fabric is fabric
        assert a.lid in fabric.routing and a.qp._endpoint is not None
        assert other.routing[lid].context is ctx


class TestClock:
    def test_jump_runs_one_timestamp_and_hands_back(self, fabric):
        ran = []

        def fire(name, then=None):
            ran.append((name, fabric.now_ms()))
            if then is not None:
                fabric.schedule_at(fabric.now_ms(), partial(fire, then))

        fabric.schedule_at(1.0, partial(fire, "a", "c"))
        fabric.schedule_at(1.0, partial(fire, "b"))
        fabric.schedule_at(2.0, partial(fire, "d"))
        assert ran == [] and fabric.now_ms() == 0.0
        assert fabric.jump()
        assert fabric.now_ms() == 1.0
        assert ran == [("a", 1.0), ("b", 1.0), ("c", 1.0)]
        assert [t for t, *_ in fabric._timers] == [2.0]
        assert fabric.jump()
        assert ran[-1] == ("d", 2.0)
        assert not fabric.jump()
        assert fabric.now_ms() == 2.0

    def test_an_event_that_reschedules_itself_at_once_is_a_livelock(
            self, fabric):
        fired = []

        def again():
            fired.append(fabric.now_ms())
            if len(fired) < 1000:  # a drain without the guard still ends
                fabric.schedule_at(fabric.now_ms(), again)

        fabric.schedule_at(1.0, again)
        with pytest.raises(RuntimeError, match="livelock"):
            fabric.run_until_idle(max_events=100)
        assert fired == [1.0] * 101


class TestSegmentation:
    def _one_way(self, registry, payload, mtu, psn_a=100, drop_filter=None):
        fabric = LoopbackFabric(registry=registry)
        fabric.drop_filter = drop_filter
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, mtu=mtu, psn_a=psn_a)
        b.post_recv(1)
        a.post_send(2, payload)
        return fabric, a, b

    def test_4096_at_mtu_1024_makes_four_frames(self, registry):
        payload = bytes(range(256)) * 16
        sent = []
        fabric, a, b = self._one_way(registry, payload, 1024,
                                     drop_filter=recording(sent))
        fabric.run_until_idle()
        data = [f for f in sent if f.kind is FrameKind.DATA]
        # oracle: independent slicing of the payload
        expected_chunks = [payload[i:i + 1024]
                           for i in range(0, len(payload), 1024)]
        assert [f.payload for f in data] == expected_chunks
        assert [f.psn for f in data] == [100, 101, 102, 103]
        assert [f.seg for f in data] == [
            SegMark.FIRST, SegMark.MIDDLE, SegMark.MIDDLE, SegMark.LAST]

    def test_transmit_requires_a_qp_in_rts(self, registry, fabric):
        node = Node(registry, fabric)
        to_init(node.qp)
        with pytest.raises(VerbsError,
                           match="^transmit requires a QP in RTS$"):
            fabric.transmit_message(node.qp, b"x")
        assert fabric.trace == []

    def test_small_payload_is_one_only_frame(self, registry):
        fabric, a, b = self._one_way(registry, b"x" * 100, 1024)
        fabric.run_until_idle()
        data = [e for e in fabric.trace if e.frame.kind is FrameKind.DATA]
        assert len(data) == 1
        assert data[0].frame.seg is SegMark.ONLY

    def test_psn_wraps_mod_2_24(self, registry):
        fabric, a, b = self._one_way(registry, b"y" * 2048, 1024,
                                     psn_a=0xFFFFFF)
        fabric.run_until_idle()
        data = [e for e in fabric.trace if e.frame.kind is FrameKind.DATA]
        assert [e.frame.psn for e in data] == [0xFFFFFF, 0x000000]
        wc, = b.cq.poll(1)
        assert wc.status is WcStatus.SUCCESS and wc.byte_len == 2048

    @settings(max_examples=40, deadline=None)
    @given(length=st.integers(1, 4 * 256), mtu=st.sampled_from([256, 512]))
    def test_reassembly_inverts_segmentation(self, length, mtu):
        registry = DeviceRegistry()
        registry.add_device("hca0")
        payload = random.Random(length * mtu).randbytes(length)
        fabric, a, b = self._one_way(registry, payload, mtu)
        fabric.run_until_idle()
        wc, = b.cq.poll(1)
        assert wc.byte_len == length
        assert b.read(0, length) == payload


class TestAcks:
    def test_partial_ack_retires_prefix_without_cqe(self, registry, fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b)
        b.post_recv(1)
        a.post_send(2, bytes(4096))
        # 4 frames sit in the window before any delivery
        assert len(a.qp.sender.unacked) == 4
        fabric.on_ack(a.qp, Frame(FrameKind.ACK, a.qp.qpn, 101))
        assert [f.psn for f, _ in a.qp.sender.unacked] == [102, 103]
        assert a.cq.poll(1) == []  # no CQE until the final frame retires

    def test_full_ack_emits_send_cqe(self, registry, fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b)
        b.post_recv(1)
        a.post_send(2, bytes(4096))
        fabric.on_ack(a.qp, Frame(FrameKind.ACK, a.qp.qpn, 103))
        assert not a.qp.sender.unacked
        wc, = a.cq.poll(1)
        assert wc.wr_id == 2 and wc.status is WcStatus.SUCCESS

    def test_an_ack_to_a_qp_without_a_sender_is_ignored(self, registry,
                                                        fabric):
        # a QP in RTR receives but has no send window yet
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        to_init(a.qp)
        to_rtr(a.qp, b.lid, b.qp.qpn, 200)
        assert a.qp.sender is None
        fabric._land(a.qp._endpoint, [Frame(FrameKind.ACK, a.qp.qpn, 100)])
        assert a.qp.sender is None and not fabric.trace
        assert a.cq.poll(1) == []

    def test_duplicate_ack_is_idempotent(self, registry, fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b)
        b.post_recv(1)
        a.post_send(2, bytes(4096))
        for _ in range(3):
            fabric.on_ack(a.qp, Frame(FrameKind.ACK, a.qp.qpn, 103))
        assert len(a.cq.poll(4)) == 1

    def test_window_stays_contiguous(self, registry, fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b)
        for i in range(4):
            b.post_recv(i)
        for i in range(4):
            a.post_send(i, bytes(2048))
        def contiguous():
            psns = [f.psn for f, _ in a.qp.sender.unacked]
            return all(psn_add(x, 1) == y for x, y in zip(psns, psns[1:]))
        assert contiguous()
        while fabric.step():
            assert contiguous()


class TestDataPath:
    def test_in_order_only_frame_completes_receive(self, pair, fabric):
        a, b = pair
        b.post_recv(5)
        a.post_send(6, b"ping" * 10)
        fabric.run_until_idle()
        wc, = b.cq.poll(1)
        assert wc.wr_id == 5 and wc.byte_len == 40

    def test_frame_to_init_qp_silently_dropped(self, registry, fabric):
        sender = Node(registry, fabric)
        target = Node(registry, fabric)
        to_init(target.qp)
        frame = Frame(FrameKind.DATA, target.qp.qpn, 0, SegMark.ONLY, b"zz")
        fabric.on_data(target.qp, frame)
        fabric.run_until_idle()
        assert target.cq.poll(1) == []
        # no ACK went out either
        assert not [e for e in fabric.trace if e.frame.kind is FrameKind.ACK]

    def test_frame_to_reset_qp_produces_nothing(self, registry, fabric):
        target = Node(registry, fabric)
        frame = Frame(FrameKind.DATA, target.qp.qpn, 0, SegMark.ONLY, b"zz")
        fabric.on_data(target.qp, frame)
        fabric.inject(target.lid, frame)
        fabric.run_until_idle()
        assert target.cq.poll(1) == []

    def test_future_psn_discarded(self, pair, fabric):
        a, b = pair
        b.post_recv(1)
        fabric.inject(b.lid, Frame(FrameKind.DATA, b.qp.qpn, 150,
                                   SegMark.ONLY, b"early"))
        fabric.run_until_idle()
        assert b.cq.poll(1) == []
        assert b.qp.receiver.expected_psn == 100

    def test_a_stray_continuation_is_ignored(self, pair, fabric):
        # an in-order MIDDLE frame with no message start before it
        a, b = pair
        b.post_recv(1)
        fabric.inject(b.lid, Frame(FrameKind.DATA, b.qp.qpn, 100,
                                   SegMark.MIDDLE, b"stray"))
        fabric.run_until_idle()
        assert b.cq.poll(1) == []
        assert b.qp.receiver.expected_psn == 100
        # the posted receive still takes the real message
        a.post_send(2, b"real")
        fabric.run_until_idle()
        assert [(wc.wr_id, wc.status, wc.byte_len)
                for wc in b.cq.poll(2)] == [(1, WcStatus.SUCCESS, 4)]
        assert b.read(0, 4) == b"real"
        assert [wc.status for wc in a.cq.poll(2)] == [WcStatus.SUCCESS]

    def test_stale_psn_reacked_and_discarded(self, pair, fabric):
        a, b = pair
        b.post_recv(1)
        b.post_recv(2)
        a.post_send(3, b"first")   # PSN 100
        a.post_send(4, b"second")  # PSN 101
        fabric.run_until_idle()
        b.cq.poll(2)
        acks_before = len(frames_of(fabric, FrameKind.ACK))
        fabric.inject(b.lid, Frame(FrameKind.DATA, b.qp.qpn, 100,
                                   SegMark.ONLY, b"first"))
        fabric.run_until_idle()
        acks = frames_of(fabric, FrameKind.ACK)
        # re-acked with the last in-order PSN, as Linux rxe's responder
        # answers a duplicate SEND, not with the duplicate's own
        assert len(acks) == acks_before + 1 and acks[-1].psn == 101
        assert b.cq.poll(1) == []  # but no second completion


class TestRnr:
    # a receiver whose min_rnr_timer is 20 pauses a refused head 10.24 ms
    PAUSE_CODE = 20
    PAUSE = RNR_TIMER_MS[PAUSE_CODE]

    def test_send_before_receive_draws_rnr_nak(self, registry, fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b)
        a.post_send(1, b"early bird")
        naks = lambda: [e for e in fabric.trace
                        if e.frame.kind is FrameKind.RNR_NAK]
        run_until(fabric, lambda: len(naks()) >= 1)
        assert naks()[0].frame.rnr_delay_hint == 12
        assert b.qp.receiver.expected_psn == 100  # not advanced
        # receiver catches up within the retry budget
        b.post_recv(9)
        fabric.run_until_idle()
        assert [wc.wr_id for wc in b.cq.poll(2)] == [9]
        wc, = a.cq.poll(2)
        assert wc.status is WcStatus.SUCCESS

    def test_rnr_budget_zero_fails_immediately(self, registry, fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, rnr_retry=0)
        a.post_send(4, b"doomed")
        fabric.run_until_idle()
        wc, = a.cq.poll(2)
        assert wc.wr_id == 4
        assert wc.status is WcStatus.RNR_RETRY_EXCEEDED
        assert a.qp.state is QpState.ERR

    def test_rnr_exhaustion_after_budget(self):
        # an rnr_retry of 0 to 6 is a budget; 7 is no limit
        for budget in range(1, 7):
            registry = DeviceRegistry()
            registry.add_device("hca0")
            fabric = LoopbackFabric(registry=registry)
            a = Node(registry, fabric)
            b = Node(registry, fabric)
            connect_pair(a, b, rnr_retry=budget)
            a.post_send(4, b"doomed")
            fabric.run_until_idle()
            wc, = a.cq.poll(2)
            assert wc.status is WcStatus.RNR_RETRY_EXCEEDED
            retransmits = [e for e in fabric.trace
                           if e.frame.kind is FrameKind.DATA]
            # original plus one per budget unit
            assert len(retransmits) == 1 + budget

    def test_rnr_nak_during_drain_acks_what_precedes_it(self, registry,
                                                        fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b)
        fabric.drop_filter = drop_first_copy(100)
        b.post_recv(1)
        for i in range(3):
            a.post_send(10 + i, bytes([i]) * 100, off=i * 100)  # 100..102
        fabric.advance(20)
        b.post_recv(2, off=100)
        b.post_recv(3, off=200)
        got = []
        run_until(fabric, lambda: got.extend(a.cq.poll(4)) or len(got) == 3)
        # the drain refuses PSN 101 with an RNR NAK ahead of the ACK for
        # 100; the sender must still pause, not wait out a timeout
        assert fabric.now_ms() < 100
        assert [(wc.wr_id, wc.status) for wc in got] == \
            [(i, WcStatus.SUCCESS) for i in (10, 11, 12)]
        assert [wc.wr_id for wc in b.cq.poll(4)] == [1, 2, 3]

    def test_a_copy_of_an_rnr_nak_charges_the_budget_once(self, registry):
        # every frame is duplicated: one refusal of the first copy draws
        # four RNR NAKs (two refused copies, each NAK duplicated)
        fabric = LoopbackFabric(FaultProfile(0.0, 1.0, 0.0, seed=1),
                                registry=registry)
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, rnr_retry=3, min_rnr_timer=self.PAUSE_CODE)
        a.post_send(1, b"r" * 100)
        fabric.advance(25)  # refused twice, paused 2..12.24 and 14.24..24.48
        b.post_recv(2)
        fabric.run_until_idle()
        first_resend = [e.t for e in fabric.trace
                        if e.frame.kind is FrameKind.DATA][2]
        assert len([e for e in fabric.trace
                    if e.frame.kind is FrameKind.RNR_NAK
                    and e.t < first_resend]) == 4
        assert [(wc.wr_id, wc.status) for wc in a.cq.poll(2)] == \
            [(1, WcStatus.SUCCESS)]
        assert [wc.wr_id for wc in b.cq.poll(2)] == [2]
        assert b.read(0, 100) == b"r" * 100

    def test_rnr_on_a_probed_head_ends_with_its_pause(self, registry,
                                                      fabric):
        # the probe of a lost head is refused; the tick ends the pause,
        # not the probed head's 67 ms timeout
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, min_rnr_timer=self.PAUSE_CODE)
        fabric.drop_filter = drop_first_copy(100)
        a.post_send(1, b"p" * 100)
        fabric.advance(15)
        assert len(frames_of(fabric, FrameKind.RNR_NAK)) == 1
        b.post_recv(2)
        got = []
        run_until(fabric, lambda: got.extend(a.cq.poll(2)) or got)
        # probed at 10, refused, paused 12..22.24, resent, acked
        assert fabric.now_ms() == pytest.approx(
            PROBE_MS + 2 + self.PAUSE + 2)
        assert [(wc.wr_id, wc.status) for wc in got] == \
            [(1, WcStatus.SUCCESS)]
        assert [f.psn for f in frames_of(fabric, FrameKind.DATA)] == \
            [100, 100]

    def test_a_pause_leaves_with_its_head(self, registry, fabric):
        # the refused head is accepted and acked mid-pause; the end of
        # its pause must not resend the send posted after it
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, min_rnr_timer=self.PAUSE_CODE)
        a.post_send(1, b"h" * 100)
        fabric.advance(2)  # the RNR NAK has paused the head until 12.24 ms
        assert len(frames_of(fabric, FrameKind.RNR_NAK)) == 1
        b.post_recv(1)
        b.post_recv(2, off=100)
        head, = frames_of(fabric, FrameKind.DATA)
        fabric.inject(b.lid, head)
        fabric.advance(9.5)
        assert [wc.wr_id for wc in a.cq.poll(2)] == [1]
        a.post_send(2, b"n" * 100, off=100)  # PSN 101, at 11.5 ms
        fabric.run_until_idle()
        assert [f.psn for f in frames_of(fabric, FrameKind.DATA)] == \
            [100, 101]
        assert [(wc.wr_id, wc.status) for wc in a.cq.poll(2)] == \
            [(2, WcStatus.SUCCESS)]
        assert [wc.wr_id for wc in b.cq.poll(3)] == [1, 2]
        assert b.read(100, 100) == b"n" * 100

    def test_a_pause_does_not_carry_over_to_the_next_head(self, registry,
                                                         fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, rnr_retry=1)
        a.post_send(1, bytes(2048))  # PSNs 100..101 at mtu 1024
        fabric.on_rnr_nak(a.qp, Frame(FrameKind.RNR_NAK, a.qp.qpn, 100,
                                      rnr_delay_hint=self.PAUSE_CODE))
        snd = a.qp.sender
        assert snd.paused_until == self.PAUSE and snd.rnr_retries_used == 1
        fabric.on_ack(a.qp, Frame(FrameKind.ACK, a.qp.qpn, 100))
        assert [f.psn for f, _ in snd.unacked] == [101]
        assert snd.paused_until == 0.0 and snd.rnr_retries_used == 0
        # the new head is not paused: a NAK for it resends it at once
        sent = len(fabric.trace)
        fabric.on_nak(a.qp, nak(a.qp.qpn, 101))
        assert [e.frame.psn for e in fabric.trace[sent:]] == [101]
        # and its RNR budget is whole: one refusal spends it, no failure
        fabric.on_rnr_nak(a.qp, Frame(FrameKind.RNR_NAK, a.qp.qpn, 101))
        assert snd.rnr_retries_used == 1 and snd.paused_until
        assert a.cq.poll(1) == [] and a.qp.state is QpState.RTS

    def test_each_rnr_nak_costs_one_resend_of_the_head(self, registry,
                                                       fabric):
        # 8 x 4 KiB at MTU 1024 before any receive: the receiver holds
        # PSNs 101..131 behind the refused head, so each end of a pause
        # resends the head alone and the last one drains the rest
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, min_rnr_timer=self.PAUSE_CODE)
        size = 4096
        for i in range(8):
            a.post_send(i, bytes([i]) * size, off=i * size)
        fabric.advance(15)
        for i in range(8):
            b.post_recv(i, off=i * size, length=size)
        got = []
        while len(got) < 8 and fabric.jump():
            got.extend(a.cq.poll(8))
        # resent at 12.24 and 24.48, acked at 26.48
        assert fabric.now_ms() == pytest.approx(2 * (2 + self.PAUSE) + 2)
        assert [(wc.wr_id, wc.status) for wc in got] == \
            [(i, WcStatus.SUCCESS) for i in range(8)]
        data = [f.psn for f in frames_of(fabric, FrameKind.DATA)]
        # a go-back-N replay of the window at each pause's end would send
        # 96 DATA frames and draw 32 ACKs
        assert data == list(range(100, 132)) + [100, 100]
        assert len(frames_of(fabric, FrameKind.RNR_NAK)) == 2
        assert len(frames_of(fabric, FrameKind.ACK)) == 1
        assert [wc.wr_id for wc in b.cq.poll(9)] == list(range(8))
        for i in range(8):
            assert b.read(i * size, size) == bytes([i]) * size


class TestRetryCodes:
    """Every retry setting comes from the QP's codes, as ibv_modify_qp(3)
    defines them: the timeout is 4.096 us x 2^timeout (0: none), an RNR
    NAK pauses its head for the time its min_rnr_timer code names, and
    an rnr_retry of 7 retries without limit."""

    def _copies(self, fabric, psn):
        return [e.t for e in fabric.trace
                if e.frame.kind is FrameKind.DATA and e.frame.psn == psn]

    def test_timeout_14_fires_67_ms_after_the_probe(self, registry, fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, timeout=14)
        snd = a.qp.sender  # the failure into ERR drops it
        b.post_recv(1)
        fabric.drop_filter = lambda f: f.kind is FrameKind.DATA
        a.post_send(2, b"lost")
        fabric.run_until_idle()
        assert snd.timeout_ms == ack_timeout_ms(14) == 67.108864
        t = self._copies(fabric, 100)
        assert len(t) == 1 + 7  # the first copy, the probe, six timeouts
        assert t[1] == PROBE_MS
        # each timeout fires at the deadline its code names
        assert [round(later - t0, 9) for t0, later in zip(t[1:], t[2:])] == \
            [67.108864] * 6
        assert [wc.status for wc in a.cq.poll(2)] == \
            [WcStatus.RETRY_EXCEEDED]

    @pytest.mark.parametrize("retry_cnt, fails_at", [
        (7, 482.762), (3, 214.327), (0, 13.0)])
    def test_a_silent_peer_fails_the_send_when_the_budget_runs_out(
            self, registry, fabric, retry_cnt, fails_at):
        # the probe is charged as one retry and takes one timeout's place,
        # so the budget runs out PROBE_MS + retry_cnt timeouts after the
        # send: IBTA counts (retry_cnt + 1) timeouts, about 537 ms at 7
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, timeout=14, retry_cnt=retry_cnt)
        b.post_recv(1)
        fabric.drop_filter = lambda f: True
        fabric.advance(3.0)
        a.post_send(2, b"lost")
        while not a.cq.entries:
            assert fabric.step()
        assert [wc.status for wc in a.cq.poll(2)] == \
            [WcStatus.RETRY_EXCEEDED]
        assert fabric.now_ms() == pytest.approx(
            3.0 + PROBE_MS + retry_cnt * ack_timeout_ms(14), abs=1e-9)
        assert round(fabric.now_ms(), 3) == fails_at
        assert len(self._copies(fabric, 100)) == 1 + retry_cnt

    def test_a_timeout_at_its_exact_deadline_resends_the_head(self, pair,
                                                               fabric):
        # the probe resends the head at 12.96 ms, a send time at which
        # (sent + timeout) - sent rounds below the timeout; the tick due at
        # sent + timeout still resends it
        a, b = pair
        timeout = a.qp.sender.timeout_ms
        probed = 2.96 + PROBE_MS
        assert (probed + timeout) - probed < timeout
        b.post_recv(1)
        fabric.drop_filter = lambda f: f.kind is FrameKind.DATA
        fabric.advance(2.96)
        a.post_send(2, b"lost")
        fabric.advance(PROBE_MS + timeout + 1)
        assert self._copies(fabric, 100) == [2.96, probed, probed + timeout]
        assert a.qp.sender.retries_used == 2

    def test_timeout_0_probes_once_and_never_times_out(self, registry,
                                                       fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, timeout=0)
        b.post_recv(1)
        fabric.drop_filter = lambda f: f.kind is FrameKind.DATA
        a.post_send(2, b"lost")
        assert fabric.run_until_idle() > 0
        assert a.qp.sender.timeout_ms == math.inf
        assert self._copies(fabric, 100) == [0.0, PROBE_MS]
        assert not fabric._timers  # no tick is pending
        assert a.cq.poll(2) == [] and a.qp.state is QpState.RTS
        # the head still waits for the receiver: a NAK resends it
        fabric.drop_filter = None
        fabric.on_nak(a.qp, nak(a.qp.qpn, 100))
        fabric.run_until_idle()
        assert [wc.status for wc in a.cq.poll(2)] == [WcStatus.SUCCESS]

    @pytest.mark.parametrize("code, pause_ms", [
        (0, 655.36), (1, 0.01), (12, 0.64), (31, 491.52)])
    def test_an_rnr_nak_pauses_for_the_time_its_code_names(
            self, registry, fabric, code, pause_ms):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, min_rnr_timer=code, rnr_retry=1)
        a.post_send(1, b"early")  # no receive is ever posted
        fabric.run_until_idle()
        assert frames_of(fabric, FrameKind.RNR_NAK)[0].rnr_delay_hint == code
        # refused at 1 ms; the RNR NAK lands at 2, and the head is resent
        # when its pause ends
        _, resent = self._copies(fabric, 100)
        assert resent - 2.0 == pytest.approx(pause_ms)
        assert [wc.status for wc in a.cq.poll(2)] == \
            [WcStatus.RNR_RETRY_EXCEEDED]

    def test_rnr_retry_7_never_runs_out(self, registry, fabric):
        # 8 x 4 KiB whose receives come 100 virtual ms late: with code
        # 12 the head is refused every 2.64 ms, far past 7 times
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, rnr_retry=7)
        size = 4096
        for i in range(8):
            a.post_send(i, bytes([i]) * size, off=i * size)
        fabric.advance(100)
        for i in range(8):
            b.post_recv(i, off=i * size, length=size)
        got = []
        while len(got) < 8 and fabric.jump():
            got.extend(a.cq.poll(8))
        assert [(wc.wr_id, wc.status) for wc in got] == \
            [(i, WcStatus.SUCCESS) for i in range(8)]
        assert len(frames_of(fabric, FrameKind.RNR_NAK)) > 7
        assert fabric.now_ms() == pytest.approx(102.32)
        for i in range(8):
            assert b.read(i * size, size) == bytes([i]) * size


class TestLeavingRts:
    """A QP that leaves RTS stops its send engine, whatever the cause: ERR,
    RESET, destroy() or its port's detach. With one send in flight and
    every frame dropped, nothing is left to run once it leaves: no tick
    and no frame from its LID, and the peer gets no CQE even when frames
    pass again. ERR flushes the send; the others complete nothing."""

    LEAVE = {
        "err": lambda node, fabric: node.qp.modify(
            ModifyAttributes(state=QpState.ERR), AttrMask.STATE),
        "reset": lambda node, fabric: node.qp.modify(
            ModifyAttributes(state=QpState.RESET), AttrMask.STATE),
        "destroy": lambda node, fabric: node.qp.destroy(),
        "detach": lambda node, fabric: fabric.detach(node.context, node.port),
    }

    @pytest.mark.parametrize("leave", list(LEAVE))
    def test_a_qp_that_leaves_rts_leaves_nothing_running(self, pair, fabric,
                                                         leave):
        a, b = pair
        b.post_recv(1)
        fabric.drop_filter = lambda f: True
        a.post_send(2, bytes(100))
        fabric.advance(3.0)
        assert len(fabric._timers) == 1  # the send's tick, due at PROBE_MS
        self.LEAVE[leave](a, fabric)
        assert a.qp.sender is None and fabric._timers == []
        fabric.drop_filter = None
        traced = len(fabric.trace)
        assert fabric.run_until_idle() == 0
        assert fabric.now_ms() == 3.0
        assert [e for e in fabric.trace if e.src_lid == a.lid] == \
            fabric.trace[:1]  # the dropped first copy, and nothing since
        assert len(fabric.trace) == traced
        assert b.cq.poll(2) == []
        assert [(wc.wr_id, wc.status) for wc in a.cq.poll(2)] == \
            ([(2, WcStatus.WR_FLUSHED)] if leave == "err" else [])

    def test_a_reset_qp_reconnects_with_a_fresh_engine(self, pair, fabric):
        # RESET drops the sender and receiver with the binding; the way
        # back to RTS makes new ones from the PSNs it sets
        a, b = pair
        b.post_recv(1)
        fabric.drop_filter = lambda f: True
        a.post_send(1, b"lost")
        TestLeavingRts.LEAVE["reset"](a, fabric)
        assert (a.qp.sender, a.qp.receiver, a.qp._endpoint) == \
            (None, None, None)
        fabric.drop_filter = None
        to_init(a.qp)
        to_rtr(a.qp, b.lid, b.qp.qpn, 200)
        assert a.qp.receiver.expected_psn == 200 and a.qp.sender is None
        to_rts(a.qp, 100)  # the PSN the peer still expects
        a.post_send(2, b"again")
        # the send's frame and its ACK land, and nothing of the old
        # engine runs
        assert fabric.run_until_idle() == 2 and fabric.now_ms() == 2.0
        assert [(wc.wr_id, wc.status) for wc in a.cq.poll(2)] == \
            [(2, WcStatus.SUCCESS)]
        assert [wc.byte_len for wc in b.cq.poll(2)] == [5]

    @pytest.mark.xfail(strict=True, reason=(
        "the peer's hold buffer keeps frames of the old connection, and "
        "takes the new one's first PSN for the start of the old message"))
    def test_a_reconnect_at_the_expected_psn_mixes_no_old_bytes(self, pair,
                                                                fabric):
        # the reconnect above is safe only because its peer holds nothing
        a, b = pair
        b.post_recv(1, length=4096)
        fabric.drop_filter = drop_first_copy(100)
        a.post_send(1, b"A" * 4096)  # PSNs 100..103 at mtu 1024
        fabric.advance(1.0)
        assert sorted(b.qp.receiver.held) == [101, 102, 103]
        TestLeavingRts.LEAVE["reset"](a, fabric)
        to_init(a.qp)
        to_rtr(a.qp, b.lid, b.qp.qpn, 200)
        to_rts(a.qp, 100)  # the PSN the peer still expects
        a.post_send(2, b"B" * 4096)
        fabric.run_until_idle()
        for wc in b.cq.poll(2):
            if wc.status is WcStatus.SUCCESS:
                assert b.read(0, wc.byte_len) in (b"A" * 4096, b"B" * 4096)


class TestNak:
    def test_reordered_frame_draws_one_nak_and_one_resend(self, pair,
                                                          fabric):
        a, b = pair
        b.post_recv(1)
        late = []

        def hold_back(frame):
            if frame.kind is FrameKind.DATA and frame.psn == 101 \
                    and not late:
                late.append(frame)
                return True
            return False

        fabric.drop_filter = hold_back
        payload = bytes(range(256)) * 16  # PSNs 100..103 at mtu 1024
        a.post_send(2, payload)
        # the held-back copy still arrives, after the rest of the message
        fabric.inject(b.lid, late[0], delay_ms=5.0)
        fabric.run_until_idle()
        naks = frames_of(fabric, FrameKind.NAK)
        assert [f.psn for f in naks] == [101]
        assert [f.psn for f in frames_of(fabric, FrameKind.DATA)] == \
            [100, 102, 103, 101]
        wc, = b.cq.poll(2)
        assert wc.status is WcStatus.SUCCESS and wc.byte_len == len(payload)
        assert b.read(0, len(payload)) == payload
        assert [wc.status for wc in a.cq.poll(2)] == [WcStatus.SUCCESS]
        assert not b.qp.receiver.held

    def test_held_frames_drain_in_order_across_psn_wrap(self, registry,
                                                       fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, psn_a=0xFFFFFE)
        b.post_recv(1)
        fabric.drop_filter = drop_first_copy(0xFFFFFE)
        payload = random.Random(5).randbytes(4096)  # 0xFFFFFE .. 0x000001
        a.post_send(2, payload)
        fabric.run_until_idle()
        assert [f.psn for f in frames_of(fabric, FrameKind.NAK)] == \
            [0xFFFFFE]
        # the three held frames and the resend go under one cumulative ACK
        ack, = [e for e in fabric.trace if e.frame.kind is FrameKind.ACK]
        assert ack.frame.psn == 1
        assert ack.t < 10  # no timeout was needed
        wc, = b.cq.poll(2)
        assert wc.status is WcStatus.SUCCESS
        assert b.read(0, len(payload)) == payload
        assert b.qp.receiver.expected_psn == 2
        assert [wc.status for wc in a.cq.poll(2)] == [WcStatus.SUCCESS]

    def test_frame_beyond_hold_bound_discarded_and_recovered(self, registry,
                                                             fabric):
        n_frames, mtu = HOLD_PSNS + 40, 256
        size = n_frames * mtu
        a = Node(registry, fabric, size=size)
        b = Node(registry, fabric, size=size)
        connect_pair(a, b, mtu=mtu)
        b.post_recv(1)
        fabric.drop_filter = drop_first_copy(100)
        payload = random.Random(6).randbytes(size)
        a.post_send(2, payload)
        fabric.run_until_idle()
        sent = collections.Counter(
            f.psn for f in frames_of(fabric, FrameKind.DATA))
        # PSN 100 + HOLD_PSNS - 1 was held; 100 + HOLD_PSNS was not
        assert sent[100 + HOLD_PSNS - 1] == 1
        assert sent[100 + HOLD_PSNS] == 2
        wc, = b.cq.poll(2)
        assert wc.status is WcStatus.SUCCESS and wc.byte_len == size
        assert b.read(0, size) == payload
        assert [wc.status for wc in a.cq.poll(2)] == [WcStatus.SUCCESS]

    def test_stale_nak_is_ignored(self, pair, fabric):
        a, b = pair
        b.post_recv(1)
        a.post_send(2, bytes(4096))  # PSNs 100..103
        fabric.on_ack(a.qp, Frame(FrameKind.ACK, b.qp.qpn, 101))
        sent_before = len(fabric.trace)
        for psn in (100, 101):
            # a stale NAK's gap list is ignored too
            fabric.on_nak(a.qp, nak(a.qp.qpn, psn, (psn, 4)))
        assert len(fabric.trace) == sent_before  # nothing resent
        assert [f.psn for f, _ in a.qp.sender.unacked] == [102, 103]
        assert a.qp.sender.retries_used == 0
        assert a.cq.poll(1) == []

    def test_nak_retires_what_comes_before_it(self, pair, fabric):
        a, b = pair
        b.post_recv(1)
        a.post_send(2, bytes(4096))  # PSNs 100..103
        fabric.on_nak(a.qp, nak(a.qp.qpn, 102))
        assert [f.psn for f, _ in a.qp.sender.unacked] == [102, 103]
        assert a.qp.sender.retries_used == 1
        assert fabric.trace[-1].frame.psn == 102  # resent at once

    def test_the_next_head_starts_with_fresh_retry_state(self, registry,
                                                         fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, retry_cnt=2)
        a.post_send(2, bytes(4096))  # PSNs 100..103
        snd = a.qp.sender
        fabric.on_nak(a.qp, nak(a.qp.qpn, 100))
        fabric.on_timeout_tick(a.qp, PROBE_MS)  # the probe of the head
        assert snd.retries_used == 2 and snd.probed
        fabric.on_ack(a.qp, Frame(FrameKind.ACK, a.qp.qpn, 100))
        assert [f.psn for f, _ in snd.unacked] == [101, 102, 103]
        assert (snd.retries_used, snd.probed, snd.paused_until) == \
            (0, False, 0.0)
        # the whole budget again: two NAKs are resent, the third fails
        for _ in range(2):
            fabric.on_nak(a.qp, nak(a.qp.qpn, 101))
        assert [f.psn for f in frames_of(fabric, FrameKind.DATA)] == \
            [100, 101, 102, 103, 100, 100, 101, 101]
        assert a.cq.poll(1) == []
        fabric.on_nak(a.qp, nak(a.qp.qpn, 101))
        wc, = a.cq.poll(2)
        assert wc.status is WcStatus.RETRY_EXCEEDED

    def test_a_drain_stops_at_a_refused_start(self, pair, fabric):
        # held: a two-frame message at 101..102 and one at 103; the gap
        # fills at 100, which takes the only receive, so the drain's run
        # is refused at its first frame
        a, b = pair
        b.post_recv(1)
        qpn = b.qp.qpn
        late = [Frame(FrameKind.DATA, qpn, 101, SegMark.FIRST, b"f"),
                Frame(FrameKind.DATA, qpn, 102, SegMark.LAST, b"l"),
                Frame(FrameKind.DATA, qpn, 103, SegMark.ONLY, b"o")]
        fabric.on_data(b.qp, *late)
        sent = len(fabric.trace)
        # one NAK, for the gap at 100
        assert [e.frame for e in fabric.trace] == [nak(a.qp.qpn, 100)]
        fabric.on_data(b.qp, Frame(FrameKind.DATA, qpn, 100,
                                   SegMark.ONLY, b"h"))
        fabric._end_burst()  # the burst's ACK
        assert b.qp.receiver.expected_psn == 101
        assert b.qp.receiver.held == {102: late[1], 103: late[2]}
        assert [e.frame for e in fabric.trace[sent:]] == [
            Frame(FrameKind.RNR_NAK, a.qp.qpn, 101, rnr_delay_hint=12),
            Frame(FrameKind.ACK, a.qp.qpn, 100)]
        assert [wc.wr_id for wc in b.cq.poll(2)] == [1]


class TestGapReports:
    """The receiver reports each gap in a NAK's gap list as it opens, and
    the sender resends every frame a list names at once."""

    HOP = LoopbackFabric.hop_latency_ms

    def _send(self, pair, fabric, frames, drop):
        a, b = pair
        b.post_recv(1)
        fabric.drop_filter = drop
        payload = random.Random(frames).randbytes(frames * 1024)
        a.post_send(2, payload)
        got = []
        run_until(fabric, lambda: got.extend(a.cq.poll(2)) or got)
        assert [wc.status for wc in got] == [WcStatus.SUCCESS]
        assert [wc.status for wc in b.cq.poll(2)] == [WcStatus.SUCCESS]
        assert b.read(0, len(payload)) == payload
        return fabric.now_ms()

    def _resends(self, fabric, psn):
        return [e.t for e in fabric.trace if e.frame.kind is FrameKind.DATA
                and e.frame.psn == psn][1:]

    def test_k_gaps_are_repaired_in_one_round_trip(self, pair, fabric):
        # three losses in one 16-frame message (PSNs 100..115): one NAK
        # per gap as it opens, all three resent on their arrival. A
        # lossless send completes at 2 hops; this one one round trip
        # later, where one NAK round trip per gap took three
        done = self._send(pair, fabric, 16, drop_first_copy(103, 107, 111))
        assert done == 2 * self.HOP + 2 * self.HOP
        a, _ = pair
        assert frames_of(fabric, FrameKind.NAK) == [
            nak(a.qp.qpn, 103, (103, 1)), nak(a.qp.qpn, 103, (107, 1)),
            nak(a.qp.qpn, 103, (111, 1))]
        for psn in (103, 107, 111):
            assert self._resends(fabric, psn) == [2 * self.HOP]
        assert not pair[1].qp.receiver.held

    def test_a_gap_of_several_frames_is_one_record(self, pair, fabric):
        # PSNs 102..104 of 100..107 are lost once: the first burst draws
        # the gap's NAK and the ACK of 101; the three resends land in one
        # burst and draw one ACK, for the whole message
        done = self._send(pair, fabric, 8, drop_first_copy(102, 103, 104))
        assert done == 4 * self.HOP
        a, _ = pair
        assert [(e.t, e.frame) for e in fabric.trace
                if e.frame.kind is not FrameKind.DATA] == [
            (self.HOP, nak(a.qp.qpn, 102, (102, 3))),
            (self.HOP, Frame(FrameKind.ACK, a.qp.qpn, 101)),
            (3 * self.HOP, Frame(FrameKind.ACK, a.qp.qpn, 107))]
        assert a.qp.sender.resent == 0  # all retired

    def test_a_duplicated_gap_report_resends_nothing_twice(self, pair,
                                                           fabric):
        a, b = pair
        # one round trip first, so that the QP has an SRTT (2 hops)
        assert self._send(pair, fabric, 1, None) == 2 * self.HOP
        assert a.qp.sender.srtt == 2 * self.HOP
        # each NAK lands twice, the copy DUP_EXTRA_MS after it, as the
        # fault plan duplicates a frame
        lose = drop_first_copy(101, 104)

        def lose_and_duplicate(frame):
            if frame.kind is FrameKind.NAK:
                fabric.inject(a.lid, frame, delay_ms=DUP_EXTRA_MS)
            return lose(frame)

        fabric.drop_filter = lose_and_duplicate
        reported = fabric.now_ms() + 2 * self.HOP  # PSNs 101..106
        spent = []
        fabric.schedule_at(reported + DUP_EXTRA_MS + 0.1,
                           lambda: spent.append(a.qp.sender.retries_used))
        b.post_recv(2)
        a.post_send(3, bytes(6 * 1024))
        got = []
        run_until(fabric, lambda: got.extend(a.cq.poll(2)) or got)
        assert [wc.status for wc in got] == [WcStatus.SUCCESS]
        assert [e.frame.payload for e in fabric.trace
                if e.status == "injected"] == [
            nak(a.qp.qpn, 101, (101, 1)).payload,
            nak(a.qp.qpn, 101, (104, 1)).payload]
        # one resend each, on the first copy of the report
        assert self._resends(fabric, 101) == [reported]
        assert self._resends(fabric, 104) == [reported]
        assert spent == [1]  # the head's budget, charged once

    def test_a_gap_whose_resend_was_lost_is_asked_for_again(self, pair,
                                                            fabric):
        # 107's resend is lost too. Both gaps were reported at 1 ms, so
        # when 103's resend fills its gap at 3 ms, 107's should have come
        # with it: the burst's end asks for it again, well before a probe
        lose_103 = drop_first_copy(103)
        lose_107 = drop_first(FrameKind.DATA, 107, copies=2)
        done = self._send(pair, fabric, 10,
                          lambda f: lose_103(f) or lose_107(f))
        a, _ = pair
        assert frames_of(fabric, FrameKind.NAK) == [
            nak(a.qp.qpn, 103, (103, 1)), nak(a.qp.qpn, 103, (107, 1)),
            nak(a.qp.qpn, 107, (107, 1))]
        assert self._resends(fabric, 107) == [2 * self.HOP, 4 * self.HOP]
        assert done == 6 * self.HOP

    def _two_messages(self, registry, fabric, drop):
        # 8 KiB (PSNs 100..107), then at 0.5 ms 4 KiB (108..111)
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b)
        b.post_recv(1)
        b.post_recv(2, off=8192)
        fabric.drop_filter = drop
        a.post_send(3, bytes(8192))
        fabric.advance(0.5)
        a.post_send(4, bytes(4096), off=8192)
        got = []
        run_until(fabric, lambda: got.extend(a.cq.poll(2)) or len(got) == 2)
        assert [wc.status for wc in got] == [WcStatus.SUCCESS] * 2
        return a

    def test_a_later_gap_whose_resend_was_lost_is_asked_for_again(
            self, registry, fabric):
        # 108's gap opens half a hop after 103's, and 108's resend is
        # lost too: when 103's resend fills its gap at 3 ms, the burst's
        # end asks for 108 again, and its 2.5 ms copy is SRTT/2 old by the
        # time that NAK lands, so it is resent at 4 ms, not by the probe
        lose_103 = drop_first_copy(103)
        lose_108 = drop_first(FrameKind.DATA, 108, copies=2)
        a = self._two_messages(registry, fabric,
                               lambda f: lose_103(f) or lose_108(f))
        assert [(e.t, e.frame) for e in fabric.trace
                if e.frame.kind is FrameKind.NAK] == [
            (1.0, nak(a.qp.qpn, 103, (103, 1))),
            (1.5, nak(a.qp.qpn, 103, (108, 1))),
            (3.0, nak(a.qp.qpn, 108, (108, 1)))]
        assert [e.t for e in fabric.trace if e.frame.kind is FrameKind.DATA
                and e.frame.psn == 108] == [0.5, 2.5, 4.0]
        assert fabric.now_ms() == 6.0

    def test_a_gap_whose_resend_is_on_the_way_is_asked_for_again(
            self, registry, fabric):
        # 108 is lost once. When 103's resend fills its gap at 3 ms, 108's
        # resend (sent at 2.5) is still on the way, due at 3.5; the
        # receiver asks again all the same, and the sender, whose copy is
        # SRTT/2 old when that NAK lands, resends 108 once more at 4 ms
        a = self._two_messages(registry, fabric, drop_first_copy(103, 108))
        assert frames_of(fabric, FrameKind.NAK) == [
            nak(a.qp.qpn, 103, (103, 1)), nak(a.qp.qpn, 103, (108, 1)),
            nak(a.qp.qpn, 108, (108, 1))]
        assert self._resends(fabric, 103) == [2.0]
        assert self._resends(fabric, 108) == [2.5, 4.0]
        assert fabric.now_ms() == 4.5

    def test_a_nak_grows_the_karn_count_to_its_furthest_resend(self, pair,
                                                               fabric):
        a, _ = pair
        snd = a.qp.sender
        a.post_send(1, bytes(4096))  # PSNs 100..103, no receive posted
        fabric.on_nak(a.qp, nak(a.qp.qpn, 100, (102, 1)))
        assert [e.frame.psn for e in fabric.trace[4:]] == [102]
        assert snd.resent == 3 and snd.retries_used == 0  # head not listed
        # frames past the window and before the head are not resent
        fabric.on_nak(a.qp, nak(a.qp.qpn, 100, (99, 1), (104, 9)))
        assert len(fabric.trace) == 5 and snd.resent == 3

    def test_the_report_state_empties_after_a_long_faulty_run(self):
        # 20 000 x 4 KiB at mtu 1024, 32 messages in flight, through
        # drop, duplicate and reorder: every message lands once and in
        # order, and once done the receiver holds nothing and owes no ACK
        n_msgs, window, size = 20_000, 32, 4096
        registry = DeviceRegistry()
        registry.add_device("hca0")
        fabric = LoopbackFabric(faults=FaultProfile(0.05, 0.05, 0.05, seed=4),
                                registry=registry)
        a, b = (Node(registry, fabric, size=window * size,
                     max_send_wr=window, max_recv_wr=window,
                     cq_capacity=window + 1) for _ in range(2))
        connect_pair(a, b)
        rcv = b.qp.receiver
        bodies = [random.Random(i).randbytes(size - 8) for i in range(8)]
        for i in range(window):
            b.post_recv(i, off=i * size, length=size)
        sent = sends_done = recvs_done = most = 0
        while recvs_done < n_msgs or sends_done < n_msgs:
            while sent < n_msgs and sent - sends_done < window:
                a.post_send(sent, sent.to_bytes(8, "big") + bodies[sent % 8],
                            off=sent % window * size)
                sent += 1
            assert fabric.step()
            most = max(most, len(rcv.held))
            for wc in a.cq.poll(window):
                assert (wc.wr_id, wc.status) == (sends_done, WcStatus.SUCCESS)
                sends_done += 1
            for wc in b.cq.poll(window):
                i = wc.wr_id
                assert (i, wc.status) == (recvs_done, WcStatus.SUCCESS)
                assert b.read(i % window * size, size) == \
                    i.to_bytes(8, "big") + bodies[i % 8]
                recvs_done += 1
                if i + window < n_msgs:
                    b.post_recv(i + window, off=i % window * size,
                                length=size)
        fabric.run_until_idle()
        assert most > 1  # frames stood held
        assert not rcv.held
        assert not fabric._owed


class TestRetry:
    def test_targeted_drop_exhausts_exactly_retry_cnt(self, registry, fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b)
        b.post_recv(1)
        target_psn = 101  # second frame of the message
        fabric.drop_filter = (lambda f: f.kind is FrameKind.DATA
                              and f.psn == target_psn)
        a.post_send(77, bytes(2048))
        fabric.run_until_idle()
        attempts = [e for e in fabric.trace if e.frame.kind is FrameKind.DATA
                    and e.frame.psn == target_psn]
        assert all(e.status == "dropped" for e in attempts)
        assert len(attempts) == 1 + 7  # original send plus retry_cnt
        wc, = a.cq.poll(2)
        assert wc.wr_id == 77 and wc.status is WcStatus.RETRY_EXCEEDED
        assert a.qp.state is QpState.ERR
        assert b.cq.poll(1) == []

    def test_retry_exhaustion_at_a_nak_fails_before_the_probe(
            self, registry, fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, retry_cnt=0)
        b.post_recv(1)
        fabric.drop_filter = drop_first_copy(101)
        a.post_send(2, bytes(3000))  # PSNs 100-102 at mtu 1024
        fabric.advance(5)  # the NAK is back, the probe not yet due
        assert fabric.now_ms() < PROBE_MS
        assert frames_of(fabric, FrameKind.NAK) == [nak(a.qp.qpn, 101)]
        assert list(b.qp.receiver.held) == [102]
        wc, = a.cq.poll(2)
        assert wc.wr_id == 2 and wc.status is WcStatus.RETRY_EXCEEDED
        assert a.qp.state is QpState.ERR
        assert [e.status for e in fabric.trace
                if e.frame.kind is FrameKind.DATA and e.frame.psn == 101] \
            == ["dropped"]
        assert b.cq.poll(1) == []

    def test_retry_exhaustion_at_a_nak_fails_before_any_listed_resend(
            self, registry, fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, retry_cnt=0)
        a.post_send(2, bytes(3000))  # PSNs 100-102 at mtu 1024
        sent_before = len(fabric.trace)
        # the head is listed after a later gap: the budget is checked
        # before anything is resent, so PSN 102 does not go out either
        fabric.on_nak(a.qp, nak(a.qp.qpn, 100, (102, 1), (100, 1)))
        assert len(fabric.trace) == sent_before  # nothing resent
        wc, = a.cq.poll(2)
        assert wc.wr_id == 2 and wc.status is WcStatus.RETRY_EXCEEDED
        assert a.qp.state is QpState.ERR

    def test_single_drop_recovers(self, registry, fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b)
        b.post_recv(1)
        dropped = []

        def drop_once(frame):
            if frame.kind is FrameKind.DATA and frame.psn == 100 \
                    and not dropped:
                dropped.append(frame)
                return True
            return False

        fabric.drop_filter = drop_once
        a.post_send(2, b"retry me" * 64)
        fabric.run_until_idle()
        assert [wc.status for wc in b.cq.poll(2)] == [WcStatus.SUCCESS]
        assert [wc.status for wc in a.cq.poll(2)] == [WcStatus.SUCCESS]

    def test_tick_without_traffic_is_noop(self, registry, fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b)
        fabric.advance(10_000)
        fabric.on_timeout_tick(a.qp, fabric.now_ms())
        assert a.qp.state is QpState.RTS
        assert a.cq.poll(1) == []
        assert fabric.trace == []

    def test_queued_sends_flush_when_retries_exhaust(self, registry, fabric):
        a = Node(registry, fabric, max_send_wr=2)
        b = Node(registry, fabric)
        connect_pair(a, b)
        b.post_recv(1)
        b.post_recv(2)
        fabric.drop_filter = lambda f: f.kind is FrameKind.DATA
        a.post_send(10, b"first")
        a.post_send(11, b"second")
        fabric.run_until_idle()
        wcs = a.cq.poll(4)
        assert [wc.wr_id for wc in wcs] == [10, 11]
        assert wcs[0].status is WcStatus.RETRY_EXCEEDED
        assert wcs[1].status is WcStatus.WR_FLUSHED


class TestGoBack:
    """A timeout, or an ACK that exposes a head as old as the QP's
    timeout, resends by age: of the window's first BURST_FRAMES, each
    frame whose last copy is as old as the timeout, the head first. A
    younger frame is skipped, not an end to the replay."""

    def test_a_timeout_resends_only_the_frames_as_old_as_the_timeout(
            self, pair, fabric):
        # every DATA copy is lost until the head's timeout, which fires
        # PROBE_MS + timeout in, after the probe: then the first message
        # (sent at 0) is as old as the timeout and the second (at 30) is not
        a, b = pair
        fires = PROBE_MS + a.qp.sender.timeout_ms
        b.post_recv(1, length=2048)
        b.post_recv(2, off=2048, length=100)
        fabric.drop_filter = (lambda f: f.kind is FrameKind.DATA
                              and fabric.now_ms() < fires)
        a.post_send(3, bytes(2048))  # PSNs 100..101
        fabric.advance(30)
        a.post_send(4, b"y" * 100, off=2048)  # PSN 102
        fabric.advance(fires - 30)
        assert [e.frame.psn for e in fabric.trace
                if e.frame.kind is FrameKind.DATA and e.t == fires] == \
            [100, 101]
        fabric.run_until_idle()
        assert [(wc.wr_id, wc.status) for wc in a.cq.poll(4)] == \
            [(3, WcStatus.SUCCESS), (4, WcStatus.SUCCESS)]
        assert b.read(2048, 100) == b"y" * 100

    def test_a_timeout_skips_a_young_frame_and_resends_those_behind_it(
            self, pair, fabric):
        # every DATA copy is lost until the head's timeout. PSNs 100..103
        # go out at 0, the probe resends 100 at PROBE_MS, and a NAK that
        # lists 102 alone resends it at 30: when the timeout fires, 102 is
        # younger than the timeout, and 103, sent at 0, is not
        a, b = pair
        fires = PROBE_MS + a.qp.sender.timeout_ms
        b.post_recv(1)
        fabric.drop_filter = (lambda f: f.kind is FrameKind.DATA
                              and fabric.now_ms() < fires)
        a.post_send(2, bytes(4096))  # PSNs 100..103
        fabric.advance(30)
        fabric.on_nak(a.qp, nak(a.qp.qpn, 100, (102, 1)))
        fabric.advance(fires - 30)
        assert [e.frame.psn for e in fabric.trace
                if e.frame.kind is FrameKind.DATA and e.t == fires] == \
            [100, 101, 103]
        assert a.qp.sender.resent == 4
        fabric.run_until_idle()
        assert [(wc.wr_id, wc.status) for wc in a.cq.poll(2)] == \
            [(2, WcStatus.SUCCESS)]
        assert [wc.status for wc in b.cq.poll(2)] == [WcStatus.SUCCESS]

    def test_an_ack_that_exposes_a_stale_head_resumes_the_burst(self, pair,
                                                                fabric):
        # every DATA copy is lost; at 70 ms the head (PSN 100) was probed
        # at 10, and PSN 101, sent at 0, is older than the 67.1 ms timeout
        a, b = pair
        fabric.drop_filter = lambda f: f.kind is FrameKind.DATA
        a.post_send(1, bytes(2048))  # PSNs 100..101, sent at 0
        snd = a.qp.sender
        fabric.advance(70)
        assert fabric.now_ms() - snd.unacked[1][1] >= snd.timeout_ms
        fabric.on_ack(a.qp, Frame(FrameKind.ACK, a.qp.qpn, 100))
        # the exposed head is resent at once, charged to no budget
        assert [(f.psn, t) for f, t in snd.unacked] == [(101, 70)]
        last = fabric.trace[-1]
        assert (last.frame.psn, last.t) == (101, 70)
        assert snd.retries_used == 0

    @pytest.mark.parametrize("younger", [False, True])
    def test_the_stale_head_resume_starts_at_exactly_the_timeout(
            self, pair, fabric, younger):
        # every DATA copy is lost; PSNs 100..101 go out at 0.5 and the
        # probe resends 100 at 10.5. The ACK of 100 lands when 101's copy
        # is exactly as old as the timeout, at the very sum ``_due`` arms
        # a tick at: 101 is resent at once. One float step sooner it is
        # not (its tick, due already, is left in the heap)
        a, b = pair
        fabric.drop_filter = lambda f: f.kind is FrameKind.DATA
        fabric.advance(0.5)
        a.post_send(1, bytes(2048))
        snd = a.qp.sender
        sent = snd.unacked[1][1]
        at = sent + snd.timeout_ms
        if younger:
            at = math.nextafter(at, 0.0)
        ack = Frame(FrameKind.ACK, a.qp.qpn, 100)
        fabric.schedule_at(at, partial(fabric._land, a.qp._endpoint, (ack,)))
        while fabric.now_ms() < at:
            fabric.step()  # the probe, then the ACK's landing
        resent = [e.frame.psn for e in fabric.trace
                  if e.frame.kind is FrameKind.DATA and e.t == at]
        assert resent == ([] if younger else [101])
        assert [(f.psn, t) for f, t in snd.unacked] == \
            [(101, sent if younger else at)]


def drop_first(kind, psn, copies=1):
    """A drop filter that loses the first ``copies`` frames of any
    ``kind`` with ``psn``."""
    left = [copies]

    def drop(frame):
        if frame.kind is kind and frame.psn == psn and left[0]:
            left[0] -= 1
            return True
        return False

    return drop


class TestTailLossProbe:
    """A head unacked for one PTO is resent once, alone; each loss that
    no later frame reveals then costs a PTO and a round trip, not a
    timeout. The PTO is PROBE_MS until an ACK gave an RTT sample, then
    2 x SRTT plus PROBE_ALLOWANCE_MS: on a lossless loopback path, whose
    round trip is HOPS, that is PTO."""

    HOPS = 2 * LoopbackFabric.hop_latency_ms
    PTO = 2 * HOPS + PROBE_ALLOWANCE_MS

    def _send(self, pair, fabric, size, drop):
        a, b = pair
        b.post_recv(1)
        fabric.drop_filter = drop
        a.post_send(2, bytes(range(256)) * (size // 256))
        got = []
        run_until(fabric, lambda: got.extend(a.cq.poll(2)) or got)
        assert [wc.status for wc in got] == [WcStatus.SUCCESS]
        assert [wc.status for wc in b.cq.poll(2)] == [WcStatus.SUCCESS]
        return fabric.now_ms()

    def _copies(self, fabric, kind, psn):
        return [e for e in fabric.trace
                if e.frame.kind is kind and e.frame.psn == psn]

    def test_lost_last_frame(self, pair, fabric):
        # the ACK of PSN 100 gives a sample of one round trip
        done = self._send(pair, fabric, 2048, drop_first_copy(101))
        assert done == self.PTO + self.HOPS
        assert [e.status for e in
                self._copies(fabric, FrameKind.DATA, 101)] == \
            ["dropped", "sent"]

    def test_lost_nak(self, pair, fabric):
        lose_data = drop_first_copy(100)
        lose_nak = drop_first(FrameKind.NAK, 100)
        done = self._send(pair, fabric, 4096,
                          lambda f: lose_data(f) or lose_nak(f))
        assert done == PROBE_MS + self.HOPS
        assert [e.status for e in
                self._copies(fabric, FrameKind.NAK, 100)] == ["dropped"]
        # the probe fills the gap: one cumulative ACK for the held frames
        ack, = frames_of(fabric, FrameKind.ACK)
        assert ack.psn == 103

    def test_lost_nakd_resend(self, pair, fabric):
        done = self._send(pair, fabric, 4096,
                          drop_first(FrameKind.DATA, 100, copies=2))
        copies = self._copies(fabric, FrameKind.DATA, 100)
        assert [e.status for e in copies] == ["dropped", "dropped", "sent"]
        resent = copies[1].t  # on the NAK, one round trip in
        assert resent == self.HOPS
        assert done == resent + PROBE_MS + self.HOPS

    def test_lost_final_ack_draws_one_dup_and_one_reack(self, pair, fabric):
        done = self._send(pair, fabric, 256,
                          drop_first(FrameKind.ACK, 100))
        assert done == PROBE_MS + self.HOPS
        assert [e.status for e in
                self._copies(fabric, FrameKind.DATA, 100)] == ["sent", "sent"]
        assert [e.status for e in
                self._copies(fabric, FrameKind.ACK, 100)] == \
            ["dropped", "sent"]

    def test_a_lost_burst_ack_costs_one_probe_and_one_round_trip(
            self, pair, fabric):
        # the only ACK of a 4-frame message (PSNs 100..103) is lost. The
        # probe's duplicate of the head draws the cumulative ACK again,
        # which retires the whole message; an ACK of the duplicate's own
        # PSN would expose one overdue frame per round trip
        done = self._send(pair, fabric, 4096,
                          drop_first(FrameKind.ACK, 103))
        assert done == PROBE_MS + self.HOPS
        assert len(frames_of(fabric, FrameKind.DATA)) == 5
        assert [(e.t, e.frame.psn, e.status) for e in fabric.trace
                if e.frame.kind is FrameKind.ACK] == [
            (self.HOPS / 2, 103, "dropped"),
            (PROBE_MS + self.HOPS / 2, 103, "sent")]

    def test_an_ack_and_a_nak_in_one_burst_resend_the_head_once(
            self, pair, fabric):
        # PSN 100 is lost twice (the first copy and the NAK'd resend) and
        # 102 once. Each gap is reported as it opens, so 102 is resent on
        # its report, one round trip in, and is held when the probe of
        # 100 fills the first gap: the drain answers with one ACK for the
        # whole message, and neither that ACK nor the tick it would pull
        # earlier resends 102 again
        lose_100 = drop_first(FrameKind.DATA, 100, copies=2)
        lose_102 = drop_first_copy(102)
        done = self._send(pair, fabric, 4096,
                          lambda f: lose_100(f) or lose_102(f))
        copies = self._copies(fabric, FrameKind.DATA, 102)
        assert [e.status for e in copies] == ["dropped", "sent"]
        assert copies[1].t == self.HOPS
        assert [e.frame.psn for e in self._copies(fabric, FrameKind.ACK, 103)
                ] == [103]
        assert done == self.HOPS + PROBE_MS + self.HOPS

    def test_lossless_pair_sends_no_frame_twice(self, monkeypatch):
        fired, rounds = [], []
        tick, progress = LoopbackFabric._tick_fired, LoopbackFabric.progress
        monkeypatch.setattr(LoopbackFabric, "_tick_fired",
                            lambda self, *args: fired.append(args) or
                            tick(self, *args))
        monkeypatch.setattr(LoopbackFabric, "progress",
                            lambda self, wait: rounds.append(wait) or
                            progress(self, wait))
        _, _, fabric = run_loopback_pair(
            PingpongConfig(iters=1000, size=64), seed=1)
        sent = collections.Counter(
            (e.src_lid, e.frame.psn) for e in fabric.trace
            if e.frame.kind is FrameKind.DATA)
        assert len(sent) == 2000 and set(sent.values()) == {1}
        assert {e.status for e in fabric.trace} == {"sent"}
        # one driver round per hop: a tick is dropped when its window
        # empties, so none fires and none is left
        assert fabric.now_ms() == 2001.0
        assert len(rounds) <= 2001
        assert fired == [] and fabric._timers == []

    def test_probe_then_timeout_spacing(self, registry, fabric):
        # criterion 05's set-up: PSN 101 is always lost
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b)
        snd = a.qp.sender  # the failure into ERR drops it
        b.post_recv(1)
        fabric.drop_filter = (lambda f: f.kind is FrameKind.DATA
                              and f.psn == 101)
        a.post_send(55, bytes(2048))
        fabric.run_until_idle()
        t = [e.t for e in self._copies(fabric, FrameKind.DATA, 101)]
        assert len(t) == 1 + 7
        # the probe; the ACK of PSN 100 gave the sample that sets the PTO
        assert self.PTO <= t[1] < self.PTO + 1
        timeout = snd.timeout_ms  # the QP's timeout code, 14
        assert timeout <= t[2] - t[1] < timeout + 1  # the first timeout
        wc, = a.cq.poll(2)
        assert wc.status is WcStatus.RETRY_EXCEEDED

    def test_ack_pulls_a_pending_timeout_tick_earlier(self, pair, fabric):
        # both frames are lost and the receiver sees nothing to NAK. After
        # the probe of PSN 100 the pending tick waits out the timeout; the
        # ACK that retires 100 exposes 101, whose probe is overdue already
        done = self._send(pair, fabric, 2048, drop_first_copy(100, 101))
        probes = [e.t for e in fabric.trace
                  if e.frame.kind is FrameKind.DATA and e.status == "sent"]
        assert probes == [PROBE_MS,
                          PROBE_MS + self.HOPS]
        assert done == PROBE_MS + 2 * self.HOPS


class TestRttEstimator:
    """Each QP keeps an SRTT after RFC 6298 from the ACKs of
    frames sent once (Karn's rule), and probes its head one PTO after
    its send: PROBE_MS before the first sample, then 2 x SRTT plus
    PROBE_ALLOWANCE_MS, never past the QP's timeout."""

    HOPS = 2 * LoopbackFabric.hop_latency_ms

    def _exchange(self, pair, fabric, wr_id, drop=None):
        """One 100-byte message, run until its send completes; returns
        the send times of its DATA copies."""
        a, b = pair
        b.post_recv(wr_id)
        fabric.drop_filter = drop
        sent_before = len(fabric.trace)
        a.post_send(wr_id, bytes([wr_id]) * 100)
        got = []
        run_until(fabric, lambda: got.extend(a.cq.poll(1)) or got)
        assert [wc.status for wc in got] == [WcStatus.SUCCESS]
        return [e.t for e in fabric.trace[sent_before:]
                if e.frame.kind is FrameKind.DATA and e.status != "dup"]

    def test_before_the_first_sample_the_probe_waits_probe_ms(self, pair,
                                                              fabric):
        a, _ = pair
        assert (a.qp.sender.srtt, a.qp.sender.pto_ms) == (0.0, PROBE_MS)
        copies = self._exchange(pair, fabric, 1, drop_first_copy(100))
        assert copies == [0.0, PROBE_MS]

    def test_lossless_round_trips_set_the_probe_one_pto_after_a_send(
            self, pair, fabric):
        a, _ = pair
        snd = a.qp.sender
        for wr_id in (1, 2, 3):
            self._exchange(pair, fabric, wr_id)
        # RFC 6298: the first sample R sets SRTT = R, and each equal
        # sample after it leaves SRTT as it is
        assert snd.srtt == self.HOPS
        pto = 2 * self.HOPS + PROBE_ALLOWANCE_MS
        assert snd.pto_ms == pto
        sent, probe = self._exchange(pair, fabric, 4, drop_first_copy(103))
        assert probe - sent == pto

    def test_the_first_sample_moves_the_pending_tick_earlier(self, pair,
                                                             fabric):
        # PSN 101 is lost; the ACK of 100 gives the first sample, and the
        # tick armed for PROBE_MS gives way to one a PTO after the send
        a, b = pair
        b.post_recv(1)
        fabric.drop_filter = drop_first_copy(101)
        a.post_send(2, bytes(2048))
        assert [t for t, *_ in fabric._timers if t != 1.0] == \
            [PROBE_MS]
        fabric.advance(self.HOPS)
        pto = 2 * self.HOPS + PROBE_ALLOWANCE_MS
        assert a.qp.sender.pto_ms == pto
        assert [t for t, *_ in fabric._timers] == [pto]

    def test_an_ack_of_a_resent_frame_gives_no_sample(self, pair, fabric):
        a, _ = pair
        snd = a.qp.sender
        # the probe resends the only frame; its ACK times nothing
        self._exchange(pair, fabric, 1, drop_first_copy(100))
        assert (snd.srtt, snd.resent) == (0.0, 0)
        # a NAK resends the head of four frames: the ACK that retires the
        # resend and the three held frames behind it times nothing either
        b = pair[1]
        b.post_recv(2)
        fabric.drop_filter = drop_first_copy(101)
        a.post_send(2, bytes(4096))  # PSNs 101..104
        got = []
        run_until(fabric, lambda: got.extend(a.cq.poll(1)) or got)
        assert [e.frame.psn for e in fabric.trace
                if e.frame.kind is FrameKind.DATA][-1] == 101
        assert (snd.srtt, snd.resent) == (0.0, 0)
        # the next frame sent once gives the first sample
        self._exchange(pair, fabric, 3)
        assert snd.srtt == self.HOPS

    def test_the_karn_count_covers_the_resent_prefix_only(self, pair,
                                                          fabric):
        a, _ = pair
        snd = a.qp.sender
        a.post_send(1, bytes(4096))  # PSNs 100..103, no receive posted
        fabric.on_nak(a.qp, nak(a.qp.qpn, 100))
        assert snd.resent == 1
        fabric.on_ack(a.qp, Frame(FrameKind.ACK, a.qp.qpn, 101))
        assert (snd.resent, snd.srtt) == (0, 0.0)
        # the frames left were sent once: their ACK is a sample
        fabric.advance(3.0)
        fabric.on_ack(a.qp, Frame(FrameKind.ACK, a.qp.qpn, 103))
        assert snd.srtt == 3.0 and not snd.unacked

    @given(code=st.integers(1, 31),
           samples=st.lists(st.floats(0.001, 1000.0), min_size=1,
                            max_size=20))
    def test_the_pto_never_exceeds_the_qps_timeout(self, code, samples):
        snd = SenderState(0, ack_timeout_ms(code))
        assert snd.pto_ms == min(PROBE_MS, ack_timeout_ms(code))
        for rtt in samples:
            snd.sample_rtt(rtt)
            assert snd.pto_ms == min(2 * snd.srtt + PROBE_ALLOWANCE_MS,
                                     ack_timeout_ms(code))

    def test_a_small_timeout_code_caps_the_probe(self, registry, fabric):
        # code 8 is 1.048576 ms: shorter than a round trip, so every
        # head is probed at the timeout and its ACK times nothing
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, timeout=8)
        snd = a.qp.sender
        for wr_id in (1, 2):
            copies = self._exchange((a, b), fabric, wr_id)
            assert copies[1] - copies[0] == \
                pytest.approx(ack_timeout_ms(8))
            assert snd.pto_ms == ack_timeout_ms(8) and snd.srtt == 0.0

    def test_a_lossless_stepped_run_leaves_no_timer(self, pair, fabric):
        a, b = pair
        for i in range(8):
            b.post_recv(i, off=i * 512, length=512)
            a.post_send(i, bytes([i]) * 512, off=i * 512)
        got = []
        while len(got) < 8 and fabric.step():
            got.extend(a.cq.poll(8))
        assert len(got) == 8 and a.qp.sender.srtt == self.HOPS
        # the last ACK emptied the window and took its tick along
        assert fabric._timers == []


class TestBursts:
    """Frames that land on one port at one virtual instant are one burst:
    one heap event, and one cumulative ACK per QP when it ends."""

    HOPS = 2 * LoopbackFabric.hop_latency_ms

    def _acks(self, fabric):
        return [(e.t, e.frame.psn) for e in fabric.trace
                if e.frame.kind is FrameKind.ACK]

    def test_a_64k_message_is_one_event_and_one_ack(self, registry, fabric,
                                                     monkeypatch):
        runs = []
        on_data = LoopbackFabric.on_data

        def record(self, qp, *frames):
            runs.append([frame.psn for frame in frames])
            on_data(self, qp, *frames)

        monkeypatch.setattr(LoopbackFabric, "on_data", record)
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, mtu=4096)
        b.post_recv(1)
        a.post_send(2, bytes(65536))  # PSNs 100..115
        # the burst's event and the sender's retransmit tick
        assert len(fabric._timers) == 2
        run_until(fabric, lambda: a.cq.entries)
        assert fabric.now_ms() == self.HOPS
        # the 16 frames land in one on_data call and draw one ACK
        assert runs == [list(range(100, 116))]
        assert self._acks(fabric) == [(self.HOPS / 2, 115)]
        assert [wc.status for wc in a.cq.poll(2)] == [WcStatus.SUCCESS]
        data = frames_of(fabric, FrameKind.DATA)
        assert len(data) == 16
        assert {e.t for e in fabric.trace
                if e.frame.kind is FrameKind.DATA} == {0.0}

    def test_two_messages_posted_at_one_instant_draw_one_ack(self, pair,
                                                              fabric):
        a, b = pair
        b.post_recv(1)
        b.post_recv(2)
        a.post_send(3, b"first")   # PSN 100
        a.post_send(4, b"second")  # PSN 101
        run_until(fabric, lambda: len(a.cq.entries) == 2)
        assert fabric.now_ms() == self.HOPS
        assert self._acks(fabric) == [(self.HOPS / 2, 101)]
        assert [wc.wr_id for wc in a.cq.poll(4)] == [3, 4]
        assert [wc.wr_id for wc in b.cq.poll(4)] == [1, 2]

    def test_a_stale_duplicate_in_a_burst_draws_only_the_bursts_ack(
            self, pair, fabric):
        a, b = pair
        for wr_id in (1, 2, 3):
            b.post_recv(wr_id)
        fabric.drop_filter = drop_first(FrameKind.ACK, 101)
        a.post_send(4, b"first")   # PSN 100
        a.post_send(5, b"second")  # PSN 101; the ACK of both is lost
        fabric.advance(PROBE_MS)  # the probe resends 100
        a.post_send(6, b"third")   # PSN 102, in the probe's burst
        fabric.run_until_idle()
        landed = PROBE_MS + self.HOPS / 2
        # the duplicate draws no ACK of its own: the burst's one
        # cumulative ACK, at its end, covers it and the new frame
        assert self._acks(fabric) == [(self.HOPS / 2, 101), (landed, 102)]
        assert [wc.wr_id for wc in b.cq.poll(4)] == [1, 2, 3]
        assert [wc.wr_id for wc in a.cq.poll(4)] == [4, 5, 6]


class TestReliability:
    def _blast(self, seed, n_msgs=30, size=2048, mtu=512,
               profile=None):
        registry = DeviceRegistry()
        registry.add_device("hca0")
        profile = profile or FaultProfile(0.25, 0.2, 0.2, seed=seed)
        fabric = LoopbackFabric(faults=profile, registry=registry)
        a = Node(registry, fabric, size=n_msgs * size, max_send_wr=n_msgs,
                 max_recv_wr=n_msgs, cq_capacity=n_msgs + 1)
        b = Node(registry, fabric, size=n_msgs * size, max_send_wr=n_msgs,
                 max_recv_wr=n_msgs, cq_capacity=n_msgs + 1)
        connect_pair(a, b, mtu=mtu)
        rng = random.Random(seed)
        payloads = [rng.randbytes(size) for _ in range(n_msgs)]
        for i in range(n_msgs):
            b.post_recv(i, off=i * size, length=size)
        for i, payload in enumerate(payloads):
            a.post_send(1000 + i, payload, off=i * size)
        fabric.run_until_idle()
        return fabric, a, b, payloads

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exactly_once_in_order_under_faults(self, seed):
        fabric, a, b, payloads = self._blast(seed)
        size = len(payloads[0])
        recv = b.cq.poll(len(payloads) + 5)
        assert [wc.wr_id for wc in recv] == list(range(len(payloads)))
        assert all(wc.status is WcStatus.SUCCESS for wc in recv)
        for i, payload in enumerate(payloads):
            assert b.read(i * size, size) == payload
        send = a.cq.poll(len(payloads) + 5)
        assert [wc.wr_id for wc in send] == \
            [1000 + i for i in range(len(payloads))]

    def test_dup_and_reorder_frame_count_is_pinned(self):
        # seeded loopback runs are deterministic down to the frame count
        profile = FaultProfile(0.0, 0.1, 0.1, seed=1)
        fabric, a, b, payloads = self._blast(1, n_msgs=200, size=4096,
                                             mtu=1024, profile=profile)
        recv = b.cq.poll(len(payloads) + 1)
        assert [wc.wr_id for wc in recv] == list(range(len(payloads)))
        data = sum(1 for e in fabric.trace if e.frame.kind is FrameKind.DATA)
        assert data == 969

    def test_identical_seed_identical_trace(self):
        def signature(fabric):
            return [(round(e.t, 9), e.src_lid, e.dst_lid, e.frame.kind,
                     e.frame.psn, e.frame.seg, e.length, e.status)
                    for e in fabric.trace]

        first, *_ = self._blast(99)
        second, *_ = self._blast(99)
        assert signature(first) == signature(second)

    def test_fault_sweep_row_emits_its_pinned_frames(self):
        # scripts/fault_sweep.py's drop 0.05, dup 0.1, reorder 0.1 row.
        # A change that means to alter the frames re-pins these digests.
        profile = FaultProfile(0.05, 0.1, 0.1, seed=1)
        fabric, *_ = self._blast(1, n_msgs=200, size=4096, mtu=1024,
                                 profile=profile)
        assert len(fabric.trace) == 1124
        assert sum(1 for e in fabric.trace
                   if e.frame.kind is FrameKind.DATA) == 985
        assert trace_digest(fabric) == (
            "8c0e25229595be33aa46ef0bc83eb92153560cdb075251f6f79a568dbc44df98")

    def test_seeded_faulty_pair_emits_its_pinned_frames(self):
        _, _, fabric = run_loopback_pair(
            PingpongConfig(iters=50, rx_depth=8, size=2048),
            faults=FaultProfile(0.1, 0.05, 0.05, seed=7), seed=3)
        assert len(fabric.trace) == 414
        assert fabric.now_ms() == 480.2080644425558
        assert trace_digest(fabric) == (
            "a9ef248453acea46b75bdb741dd23f5d23447401d46cdf5ed7d1e503152dd187")

    def test_different_seed_different_trace(self):
        first, *_ = self._blast(5)
        second, *_ = self._blast(6)
        sig = lambda f: [(e.frame.psn, e.status) for e in f.trace]
        assert sig(first) != sig(second)


class TestStaleReplay:
    def test_replayed_connection_trace_yields_no_cqes(self, registry, fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, psn_a=0x100000, psn_b=0x180000)
        sent = []
        fabric.drop_filter = recording(sent)
        for i in range(3):
            b.post_recv(i, off=i * 2048, length=2048)
        for i in range(3):
            a.post_send(10 + i, bytes([0x40 + i]) * 2048, off=i * 2048)
        fabric.run_until_idle()
        assert len(b.cq.poll(8)) == 3
        assert len(a.cq.poll(8)) == 3
        # each frame whole, byte for byte, to the LID of its QP
        lid_of = {a.qp.qpn: a.lid, b.qp.qpn: b.lid}
        recorded = [(lid_of[f.dest_qpn], f) for f in sent]

        # tear the connection down and bring it back with far-away PSNs
        from softverbs.verbs import AttrMask, ModifyAttributes
        for qp in (a.qp, b.qp):
            qp.modify(ModifyAttributes(state=QpState.RESET), AttrMask.STATE)
        connect_pair(a, b, psn_a=0x500000, psn_b=0x580000)
        for i in range(3):
            b.post_recv(100 + i, off=i * 2048, length=2048)

        for dst_lid, frame in recorded:
            fabric.inject(dst_lid, frame)
        fabric.run_until_idle()
        assert b.cq.poll(8) == []
        assert a.cq.poll(8) == []
        assert b.qp.receiver.expected_psn == 0x500000
        assert len(b.qp.recv_queue) == 3

        # the fresh connection still works
        a.post_send(50, b"fresh" * 100)
        fabric.run_until_idle()
        wc, = b.cq.poll(8)
        assert wc.wr_id == 100 and wc.status is WcStatus.SUCCESS


class TestFaultConfig:
    def test_parse_faults_spec(self):
        profile = parse_faults_spec("drop=0.2 dup=0.1 reorder=0.1 seed=42")
        assert profile == FaultProfile(0.2, 0.1, 0.1, 42)
        assert parse_faults_spec("drop=0.5,seed=7") == \
            FaultProfile(drop_probability=0.5, seed=7)

    def test_bad_spec_rejected(self):
        with pytest.raises(FabricConfigError):
            parse_faults_spec("drop=lots")
        with pytest.raises(FabricConfigError):
            parse_faults_spec("unknown=1")
        with pytest.raises(FabricConfigError):
            parse_faults_spec("drop=1.5")

    def test_parse_fabric_config(self):
        cfg = parse_fabric_config(
            "# comment\n"
            "lid 1 host 127.0.0.1 port 19001\n"
            "lid 2 host 127.0.0.1 port 19002\n")
        assert [e.lid for e in cfg.entries] == [1, 2]
        assert cfg.entries[0].port == 19001

    def test_config_errors(self):
        with pytest.raises(FabricConfigError):
            parse_fabric_config("lid 1 host x\n")
        with pytest.raises(FabricConfigError, match="non-numeric lid"):
            parse_fabric_config("lid one host x port 1\n")
        with pytest.raises(FabricConfigError):
            parse_fabric_config("lid 0 host x port 1\n")
        with pytest.raises(FabricConfigError):
            parse_fabric_config("lid 1 host x port 1\nlid 1 host y port 2\n")
        with pytest.raises(FabricConfigError):
            parse_fabric_config("switch 1\n")
        # faults are set by --faults or faults=, not by the fabric file
        with pytest.raises(FabricConfigError):
            parse_fabric_config("faults drop=0.1\n")

    @pytest.mark.parametrize("lid, port, message", [
        (0, 19001, "lid must be >= 1"),
        (1, 0, "port must be within 1-65535, got 0"),
        (1, 70000, "port must be within 1-65535, got 70000"),
    ])
    def test_an_entry_out_of_range_is_refused_with_its_line(self, lid, port,
                                                            message):
        with pytest.raises(FabricConfigError, match=f"^{message}$"):
            FabricConfigEntry(lid, "127.0.0.1", port)
        with pytest.raises(FabricConfigError, match=f"^line 2: {message}$"):
            parse_fabric_config("lid 9 host 127.0.0.1 port 19000\n"
                                f"lid {lid} host 127.0.0.1 port {port}\n")

    @pytest.mark.parametrize("port", [1, 65535])
    def test_an_entry_at_either_end_of_the_port_range_is_accepted(self, port):
        assert FabricConfigEntry(1, "127.0.0.1", port).port == port
        config = parse_fabric_config(f"lid 1 host 127.0.0.1 port {port}\n")
        assert [(e.lid, e.port) for e in config.entries] == [(1, port)]
