import collections
import hashlib
import math
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Node, connect_pair, run_until, to_init
from softverbs.fabric import (
    HOLD_PSNS,
    PROBE_MS,
    TICK_EPS_MS,
    FabricConfigError,
    FaultProfile,
    LoopbackFabric,
    TimingTables,
    parse_fabric_config,
    parse_faults_spec,
    psn_add,
    psn_before,
    psn_le,
)
from softverbs.pingpong import PingpongConfig, run_loopback_pair
from softverbs.verbs import (
    DeviceRegistry,
    QpState,
    VerbsError,
    WcStatus,
)
from softverbs.wire import Frame, FrameKind, SegMark

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


def trace_digest(fabric):
    """SHA-256 over every trace row: time, LIDs, every frame field and
    the status."""
    h = hashlib.sha256()
    for e in fabric.trace:
        f = e.frame
        h.update(repr((e.t, e.src_lid, e.dst_lid, int(f.kind), f.psn,
                       int(f.seg), f.payload, f.rnr_delay_hint,
                       e.status)).encode())
    return h.hexdigest()


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


class TestSegmentation:
    def _one_way(self, registry, payload, mtu, psn_a=100):
        fabric = LoopbackFabric(registry=registry)
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, mtu=mtu, psn_a=psn_a)
        b.post_recv(1)
        a.post_send(2, payload)
        return fabric, a, b

    def test_4096_at_mtu_1024_makes_four_frames(self, registry):
        payload = bytes(range(256)) * 16
        fabric, a, b = self._one_way(registry, payload, 1024)
        fabric.run_until_idle()
        data = [e for e in fabric.trace if e.frame.kind is FrameKind.DATA]
        # oracle: independent slicing of the payload
        expected_chunks = [payload[i:i + 1024]
                           for i in range(0, len(payload), 1024)]
        assert [e.frame.payload for e in data] == expected_chunks
        assert [e.frame.psn for e in data] == [100, 101, 102, 103]
        assert [e.frame.seg for e in data] == [
            SegMark.FIRST, SegMark.MIDDLE, SegMark.MIDDLE, SegMark.LAST]

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
        assert [e.psn for e in a.qp.sender.unacked] == [102, 103]
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
            psns = [e.psn for e in a.qp.sender.unacked]
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

    def test_stale_psn_reacked_and_discarded(self, pair, fabric):
        a, b = pair
        b.post_recv(1)
        a.post_send(2, b"first")
        fabric.run_until_idle()
        b.cq.poll(2)
        acks_before = len([e for e in fabric.trace
                           if e.frame.kind is FrameKind.ACK])
        fabric.inject(b.lid, Frame(FrameKind.DATA, b.qp.qpn, 100,
                                   SegMark.ONLY, b"first"))
        fabric.run_until_idle()
        acks_after = len([e for e in fabric.trace
                          if e.frame.kind is FrameKind.ACK])
        assert acks_after == acks_before + 1  # re-acked
        assert b.cq.poll(1) == []             # but no second completion


class TestRnr:
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

    def test_rnr_exhaustion_after_budget(self, registry, fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, rnr_retry=3)
        a.post_send(4, b"doomed")
        fabric.run_until_idle()
        wc, = a.cq.poll(2)
        assert wc.status is WcStatus.RNR_RETRY_EXCEEDED
        retransmits = [e for e in fabric.trace
                       if e.frame.kind is FrameKind.DATA]
        assert len(retransmits) == 1 + 3  # original plus one per budget unit

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
            fabric.on_nak(a.qp, Frame(FrameKind.NAK, a.qp.qpn, psn))
        assert len(fabric.trace) == sent_before  # nothing resent
        assert [e.psn for e in a.qp.sender.unacked] == [102, 103]
        assert all(e.retries_used == 0 for e in a.qp.sender.unacked)
        assert a.cq.poll(1) == []

    def test_nak_retires_what_comes_before_it(self, pair, fabric):
        a, b = pair
        b.post_recv(1)
        a.post_send(2, bytes(4096))  # PSNs 100..103
        fabric.on_nak(a.qp, Frame(FrameKind.NAK, a.qp.qpn, 102))
        head, *_ = a.qp.sender.unacked
        assert [e.psn for e in a.qp.sender.unacked] == [102, 103]
        assert head.retries_used == 1
        assert fabric.trace[-1].frame.psn == 102  # resent at once


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
    """A head unacked for PROBE_MS is resent once, alone; each loss that
    no later frame reveals then costs PROBE_MS and a round trip, not a
    500 ms timeout."""

    HOPS = 2 * LoopbackFabric.hop_latency_ms

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
        done = self._send(pair, fabric, 2048, drop_first_copy(101))
        assert done == PROBE_MS + TICK_EPS_MS + self.HOPS
        assert [e.status for e in
                self._copies(fabric, FrameKind.DATA, 101)] == \
            ["dropped", "sent"]

    def test_lost_nak(self, pair, fabric):
        lose_data = drop_first_copy(100)
        lose_nak = drop_first(FrameKind.NAK, 100)
        done = self._send(pair, fabric, 4096,
                          lambda f: lose_data(f) or lose_nak(f))
        assert done == PROBE_MS + TICK_EPS_MS + self.HOPS
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
        assert done == resent + PROBE_MS + TICK_EPS_MS + self.HOPS

    def test_lost_final_ack_draws_one_dup_and_one_reack(self, pair, fabric):
        done = self._send(pair, fabric, 256,
                          drop_first(FrameKind.ACK, 100))
        assert done == PROBE_MS + TICK_EPS_MS + self.HOPS
        assert [e.status for e in
                self._copies(fabric, FrameKind.DATA, 100)] == ["sent", "sent"]
        assert [e.status for e in
                self._copies(fabric, FrameKind.ACK, 100)] == \
            ["dropped", "sent"]

    def test_an_ack_and_a_nak_in_one_burst_resend_the_head_once(
            self, pair, fabric):
        # PSN 100 is lost twice (the first copy and the NAK'd resend) and
        # 102 once. The probe of 100 fills the first gap, and the drain
        # answers with ACK 101 and NAK 102 in one burst: the ACK exposes
        # 102, overdue for its probe, and the NAK resends it before the
        # tick that ACK pulled earlier can fire
        lose_100 = drop_first(FrameKind.DATA, 100, copies=2)
        lose_102 = drop_first_copy(102)
        done = self._send(pair, fabric, 4096,
                          lambda f: lose_100(f) or lose_102(f))
        copies = self._copies(fabric, FrameKind.DATA, 102)
        assert [e.status for e in copies] == ["dropped", "sent"]
        resent = self.HOPS + PROBE_MS + TICK_EPS_MS + self.HOPS
        assert copies[1].t == resent
        assert done == resent + self.HOPS

    def test_lossless_pair_sends_no_frame_twice(self, monkeypatch):
        fired = []
        tick = LoopbackFabric._tick_fired
        monkeypatch.setattr(LoopbackFabric, "_tick_fired",
                            lambda self, *args: fired.append(args) or
                            tick(self, *args))
        _, _, fabric = run_loopback_pair(
            PingpongConfig(iters=1000, size=64), seed=1)
        sent = collections.Counter(
            (e.src_lid, e.frame.psn) for e in fabric.trace
            if e.frame.kind is FrameKind.DATA)
        assert len(sent) == 2000 and set(sent.values()) == {1}
        assert {e.status for e in fabric.trace} == {"sent"}
        # one tick per QP per PROBE_MS of the run, at most
        assert fabric.now_ms() == 2001.0
        assert len(fired) <= 2 * math.ceil(fabric.now_ms() / PROBE_MS) + 2

    def test_probe_then_timeout_spacing(self, registry, fabric):
        # criterion 05's set-up: PSN 101 is always lost
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b)
        b.post_recv(1)
        fabric.drop_filter = (lambda f: f.kind is FrameKind.DATA
                              and f.psn == 101)
        a.post_send(55, bytes(2048))
        fabric.run_until_idle()
        t = [e.t for e in self._copies(fabric, FrameKind.DATA, 101)]
        timeout = fabric.timing.timeout(14)
        assert len(t) == 1 + 7
        assert PROBE_MS <= t[1] < PROBE_MS + 1  # the probe
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
        assert probes == [PROBE_MS + TICK_EPS_MS,
                          PROBE_MS + TICK_EPS_MS + self.HOPS]
        assert done == PROBE_MS + TICK_EPS_MS + 2 * self.HOPS


class TestBursts:
    """Frames that land on one port at one virtual instant are one burst:
    one heap event, and one cumulative ACK per QP when it ends."""

    HOPS = 2 * LoopbackFabric.hop_latency_ms

    def _acks(self, fabric):
        return [(e.t, e.frame.psn) for e in fabric.trace
                if e.frame.kind is FrameKind.ACK]

    def test_a_64k_message_is_one_event_and_one_ack(self, registry, fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b, mtu=4096)
        b.post_recv(1)
        a.post_send(2, bytes(65536))  # PSNs 100..115
        # the burst's event and the sender's retransmit tick
        assert len(fabric._timers) == 2
        run_until(fabric, lambda: a.cq.entries)
        assert fabric.now_ms() == self.HOPS
        assert self._acks(fabric) == [(self.HOPS / 2, 115)]
        assert [wc.status for wc in a.cq.poll(2)] == [WcStatus.SUCCESS]

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

    def test_a_stale_duplicate_in_a_burst_is_reacked_with_its_own_psn(
            self, pair, fabric):
        a, b = pair
        for wr_id in (1, 2, 3):
            b.post_recv(wr_id)
        fabric.drop_filter = drop_first(FrameKind.ACK, 101)
        a.post_send(4, b"first")   # PSN 100
        a.post_send(5, b"second")  # PSN 101; the ACK of both is lost
        fabric.advance(PROBE_MS + TICK_EPS_MS)  # the probe resends 100
        a.post_send(6, b"third")   # PSN 102, in the probe's burst
        fabric.run_until_idle()
        landed = PROBE_MS + TICK_EPS_MS + self.HOPS / 2
        # the duplicate's re-ACK names its own PSN and leaves at once; the
        # burst's cumulative ACK leaves at its end
        assert self._acks(fabric) == [(self.HOPS / 2, 101), (landed, 100),
                                      (landed, 102)]
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
        assert data == 976

    def test_identical_seed_identical_trace(self):
        def signature(fabric):
            return [(round(e.t, 9), e.src_lid, e.dst_lid, e.frame.kind,
                     e.frame.psn, e.frame.seg, len(e.frame.payload), e.status)
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
        assert len(fabric.trace) == 1009
        assert sum(1 for e in fabric.trace
                   if e.frame.kind is FrameKind.DATA) == 923
        assert trace_digest(fabric) == (
            "c08f58b6effad50de8338bb4692f0fc57996ce7770d1545e43bcf4c8d6e16fe2")

    def test_seeded_faulty_pair_emits_its_pinned_frames(self):
        _, _, fabric = run_loopback_pair(
            PingpongConfig(iters=50, rx_depth=8, size=2048),
            faults=FaultProfile(0.1, 0.05, 0.05, seed=7), seed=3)
        assert len(fabric.trace) == 444
        assert fabric.now_ms() == 1886.75
        assert trace_digest(fabric) == (
            "497548c212201077c79bbabf29dc42b4cc6e9399ff7d8d8f9becbd337a5893d4")

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
        for i in range(3):
            b.post_recv(i, off=i * 2048, length=2048)
        for i in range(3):
            a.post_send(10 + i, bytes([0x40 + i]) * 2048, off=i * 2048)
        fabric.run_until_idle()
        assert len(b.cq.poll(8)) == 3
        assert len(a.cq.poll(8)) == 3
        recorded = [(e.dst_lid, e.frame) for e in fabric.trace
                    if e.status in ("sent", "dup")]

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


class TestTimingTables:
    def test_default_codes_map_to_emulator_delays(self):
        tables = TimingTables()
        assert tables.timeout(14) == 500.0
        assert tables.rnr_delay(12) == 10.0

    def test_unknown_codes_use_defaults(self):
        tables = TimingTables()
        assert tables.timeout(20) == tables.default_timeout_ms
        assert tables.rnr_delay(1) == tables.default_rnr_delay_ms


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
            "lid 2 host 127.0.0.1 port 19002\n"
            "faults drop=0.1 seed=3\n")
        assert [e.lid for e in cfg.entries] == [1, 2]
        assert cfg.entries[0].port == 19001
        assert cfg.faults.drop_probability == 0.1

    def test_config_errors(self):
        with pytest.raises(FabricConfigError):
            parse_fabric_config("lid 1 host x\n")
        with pytest.raises(FabricConfigError):
            parse_fabric_config("lid 0 host x port 1\n")
        with pytest.raises(FabricConfigError):
            parse_fabric_config("lid 1 host x port 1\nlid 1 host y port 2\n")
        with pytest.raises(FabricConfigError):
            parse_fabric_config("switch 1\n")
