import threading
import time

import pytest

from conftest import Node, connect_pair, to_init
from softverbs.wire import FrameKind
from softverbs.verbs import (
    AccessFlags,
    AttrMask,
    BadWorkRequestError,
    CompletionEntry,
    CompletionQueueError,
    ModifyAttributes,
    QpState,
    ReceiveWorkRequest,
    ScatterGatherElement,
    SendFlags,
    SendWorkRequest,
    VerbsError,
    WcOpcode,
    WcStatus,
)


class TestPostRecv:
    def test_single_wr_on_init_qp(self, registry, fabric):
        node = Node(registry, fabric)
        to_init(node.qp)
        node.post_recv(1)
        assert len(node.qp.recv_queue) == 1

    def test_post_beyond_capacity_fails_at_that_element(self, registry, fabric):
        depth = 500
        node = Node(registry, fabric, max_recv_wr=depth)
        to_init(node.qp)
        posted = 0
        for _ in range(depth):
            node.post_recv(7)
            posted += 1
        assert posted == depth
        with pytest.raises(BadWorkRequestError) as err:
            node.post_recv(7)
        assert err.value.index == 0

    def test_chain_stops_at_first_bad_element(self, registry, fabric):
        node = Node(registry, fabric, max_recv_wr=2)
        to_init(node.qp)
        good = node.sge(0, 64)
        wr3 = ReceiveWorkRequest(3, [good])
        wr2 = ReceiveWorkRequest(2, [good], next=wr3)
        wr1 = ReceiveWorkRequest(1, [good], next=wr2)
        with pytest.raises(BadWorkRequestError) as err:
            node.qp.post_recv(wr1)
        assert err.value.index == 2  # queue holds 2, third is the bad one
        assert [w.wr_id for w in node.qp.recv_queue] == [1, 2]

    def test_sge_beyond_mr_end_rejected(self, registry, fabric):
        node = Node(registry, fabric, size=4096)
        to_init(node.qp)
        bad = ScatterGatherElement(node.buf.base + 4000, 200, node.mr.lkey)
        with pytest.raises(BadWorkRequestError) as err:
            node.qp.post_recv(ReceiveWorkRequest(9, [bad]))
        assert err.value.index == 0
        assert not node.qp.recv_queue

    def test_unknown_lkey_rejected(self, registry, fabric):
        node = Node(registry, fabric)
        to_init(node.qp)
        bad = ScatterGatherElement(node.buf.base, 64, lkey=0xDEAD)
        with pytest.raises(BadWorkRequestError):
            node.qp.post_recv(ReceiveWorkRequest(9, [bad]))

    def test_lkey_from_other_pd_rejected(self, registry, fabric):
        node = Node(registry, fabric)
        to_init(node.qp)
        other_pd = node.context.alloc_pd()
        from softverbs.verbs import AccessFlags
        other_mr = other_pd.reg_mr(node.buf, 64, AccessFlags.LOCAL_WRITE)
        bad = ScatterGatherElement(node.buf.base, 64, other_mr.lkey)
        with pytest.raises(BadWorkRequestError):
            node.qp.post_recv(ReceiveWorkRequest(9, [bad]))

    def test_deregistered_lkey_rejected(self, registry, fabric):
        node = Node(registry, fabric)
        to_init(node.qp)
        node.mr.dereg()
        with pytest.raises(BadWorkRequestError):
            node.post_recv(1)

    def test_rejected_in_reset_and_err(self, registry, fabric):
        node = Node(registry, fabric)
        with pytest.raises(VerbsError):
            node.post_recv(1)
        to_init(node.qp)
        node.qp.enter_error()
        with pytest.raises(VerbsError):
            node.post_recv(1)

    def test_sge_count_over_cap_rejected(self, registry, fabric):
        node = Node(registry, fabric, max_sge=1)
        to_init(node.qp)
        wr = ReceiveWorkRequest(1, [node.sge(0, 16), node.sge(16, 16)])
        with pytest.raises(BadWorkRequestError):
            node.qp.post_recv(wr)


class TestRecvChain:
    # one chain over four scatter lists: [A], [B] of another length, two
    # SGEs, and [A] again; (capacity, [(buffer offset, length)]) each
    LISTS = ((100, [(0, 100)]), (40, [(200, 40)]),
             (80, [(300, 30), (400, 50)]), (100, [(0, 100)]))

    def _post_chain(self, node):
        chain = None
        for wr_id, (_, sges) in reversed(list(enumerate(self.LISTS, 1))):
            chain = ReceiveWorkRequest(
                wr_id, [node.sge(off, length) for off, length in sges],
                next=chain)
        node.qp.post_recv(chain)

    def test_each_wqe_keeps_its_own_scatter_list(self, pair, fabric):
        a, b = pair
        self._post_chain(b)
        assert [w.capacity for w in b.qp.recv_queue] == [
            capacity for capacity, _ in self.LISTS]
        for i, (capacity, sges) in enumerate(self.LISTS):
            payload = bytes([i + 1]) * capacity
            a.post_send(10 + i, payload)
            fabric.run_until_idle()
            wc, = b.cq.poll(2)
            assert (wc.wr_id, wc.status, wc.byte_len) == (
                i + 1, WcStatus.SUCCESS, capacity)
            assert b"".join(b.read(off, length)
                            for off, length in sges) == payload
            a.cq.poll(2)

    @pytest.mark.parametrize("position", range(4))
    def test_a_message_over_its_own_wqe_capacity_fails(self, pair, fabric,
                                                       position):
        # the WQEs before it take messages that fit; a WQE that carried
        # its predecessor's slots would take one byte too many
        a, b = pair
        self._post_chain(b)
        for i in range(position):
            a.post_send(10 + i, b"x" * self.LISTS[i][0])
        a.post_send(20, b"y" * (self.LISTS[position][0] + 1))
        fabric.run_until_idle()
        wcs = b.cq.poll(8)
        assert [wc.status for wc in wcs[:position]] == [
            WcStatus.SUCCESS] * position
        assert wcs[position].wr_id == position + 1
        assert wcs[position].status is WcStatus.LOCAL_PROTECTION_ERROR
        assert b.qp.state is QpState.ERR

    def test_a_bad_third_element_leaves_two_posted(self, registry, fabric):
        node = Node(registry, fabric)
        to_init(node.qp)
        bad = ScatterGatherElement(node.buf.base, 64, lkey=0xDEAD)
        wr3 = ReceiveWorkRequest(3, [bad])
        wr2 = ReceiveWorkRequest(2, [node.sge(0, 64)], next=wr3)
        wr1 = ReceiveWorkRequest(1, [node.sge(0, 64)], next=wr2)
        with pytest.raises(BadWorkRequestError) as err:
            node.qp.post_recv(wr1)
        assert err.value.index == 2
        assert "unknown lkey" in err.value.reason
        assert [w.wr_id for w in node.qp.recv_queue] == [1, 2]


class TestPostSend:
    def test_signaled_send_completes_with_wr_id(self, pair, fabric):
        a, b = pair
        b.post_recv(42)
        a.post_send(0x5E4D, b"\x7b" * 4096)
        fabric.run_until_idle()
        send_wc, = a.cq.poll(2)
        assert send_wc.wr_id == 0x5E4D
        assert send_wc.status is WcStatus.SUCCESS
        assert send_wc.opcode is WcOpcode.SEND
        recv_wc, = b.cq.poll(2)
        assert recv_wc.wr_id == 42 and recv_wc.byte_len == 4096

    def _post_unsignaled(self, node, wr_id, data):
        node.buf.data[:len(data)] = data
        node.qp.post_send(SendWorkRequest(
            wr_id, [node.sge(0, len(data))], flags=SendFlags(0)))

    def test_unsignaled_send_succeeds_without_cqe(self, pair, fabric):
        a, b = pair
        b.post_recv(1)
        b.post_recv(2, off=4096, length=4096)
        self._post_unsignaled(a, 7, b"quiet" * 100)
        fabric.run_until_idle()
        assert a.cq.poll(2) == []
        assert not a.qp.send_queue
        recv_wc, = b.cq.poll(2)
        assert recv_wc.wr_id == 1 and recv_wc.status is WcStatus.SUCCESS
        a.post_send(8, b"loud")
        fabric.run_until_idle()
        send_wc, = a.cq.poll(2)
        assert send_wc.wr_id == 8 and send_wc.status is WcStatus.SUCCESS
        assert [wc.wr_id for wc in b.cq.poll(2)] == [2]

    def test_unsignaled_send_still_reports_failure(self, pair, fabric):
        a, b = pair
        b.post_recv(1)
        fabric.drop_filter = lambda f: f.kind is FrameKind.DATA
        self._post_unsignaled(a, 7, b"lost")
        fabric.run_until_idle()
        wc, = a.cq.poll(2)
        assert wc.wr_id == 7 and wc.status is WcStatus.RETRY_EXCEEDED

    def test_rejected_on_init_qp(self, registry, fabric):
        node = Node(registry, fabric)
        to_init(node.qp)
        with pytest.raises(VerbsError):
            node.post_send(1, b"data")

    def test_second_send_over_cap_rejected_while_in_flight(self, registry,
                                                           fabric):
        a = Node(registry, fabric, max_send_wr=1)
        b = Node(registry, fabric)
        connect_pair(a, b)
        b.post_recv(1)
        a.post_send(1, b"x" * 100)  # clock not pumped: stays in flight
        with pytest.raises(BadWorkRequestError) as err:
            a.post_send(2, b"y" * 100)
        assert err.value.index == 0

    def test_payload_snapshotted_at_post_time(self, pair, fabric):
        a, b = pair
        b.post_recv(5)
        a.post_send(6, b"A" * 256)
        a.buf.data[:256] = b"B" * 256  # mutate after post, before delivery
        fabric.run_until_idle()
        b.cq.poll(1)
        assert b.read(0, 256) == b"A" * 256

    def test_message_bigger_than_posted_sges_is_protection_error(
            self, registry, fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b)
        b.post_recv(77, length=100)
        a.post_send(1, b"z" * 200)
        fabric.run_until_idle()
        wcs = b.cq.poll(4)
        assert wcs[0].wr_id == 77
        assert wcs[0].status is WcStatus.LOCAL_PROTECTION_ERROR
        assert b.qp.state is QpState.ERR

    def test_received_data_scatters_across_sges(self, registry, fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b)
        wr = ReceiveWorkRequest(3, [b.sge(0, 100), b.sge(1000, 300)])
        b.qp.post_recv(wr)
        payload = bytes(range(256)) + b"tail" * 9  # 292 bytes
        a.post_send(4, payload)
        fabric.run_until_idle()
        wc, = b.cq.poll(1)
        assert wc.byte_len == len(payload)
        assert b.read(0, 100) == payload[:100]
        assert b.read(1000, 192) == payload[100:]


class TestPollCq:
    def test_empty_poll_returns_nothing(self, registry, fabric):
        node = Node(registry, fabric)
        assert node.cq.poll(2) == []

    def test_fifo_order_up_to_max(self, pair, fabric):
        a, b = pair
        b.post_recv(1)
        b.post_recv(2)
        a.post_send(10, b"one")
        a.post_send(11, b"two")
        fabric.run_until_idle()
        wcs = b.cq.poll(2)
        assert [wc.wr_id for wc in wcs] == [1, 2]

    def test_zero_max_rejected(self, registry, fabric):
        node = Node(registry, fabric)
        with pytest.raises(VerbsError):
            node.cq.poll(0)

    def test_poll_never_blocks(self, registry, fabric):
        node = Node(registry, fabric)
        t0 = time.monotonic()
        for _ in range(100):
            node.cq.poll(16)
        assert time.monotonic() - t0 < 1.0

    def test_a_waiter_wakes_when_another_thread_pumps_the_clock(self, pair,
                                                                 fabric):
        # a CQE wakes only a counted waiter; the count is what _push reads
        a, b = pair
        b.post_recv(1)
        woke = []
        waiter = threading.Thread(target=lambda: woke.append(
            (b.cq.wait_for_completion(timeout=5.0), time.monotonic())))
        waiter.start()
        deadline = time.monotonic() + 5.0
        while b.cq._waiters == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert b.cq._waiters == 1
        a.post_send(2, b"wake up")
        fabric.run_until_idle()
        landed = time.monotonic()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        (ready, at), = woke
        assert ready and at - landed < 1.0
        assert b.cq._waiters == 0
        assert [wc.wr_id for wc in b.cq.poll(2)] == [1]


class TestCompletionChannel:
    def _armed_node(self, registry, fabric):
        node = Node(registry, fabric, channel=True)
        to_init(node.qp)
        node.post_recv(1)
        return node

    def _push(self, node, wr_id=1):
        from softverbs.verbs import CompletionEntry
        node.cq._push(CompletionEntry(wr_id, WcStatus.SUCCESS, WcOpcode.RECV))

    def test_one_shot_notification(self, registry, fabric):
        node = self._armed_node(registry, fabric)
        node.cq.req_notify()
        self._push(node)
        cq = node.channel.get_event(timeout=1)
        assert cq is node.cq
        assert cq.unacked_events == 1
        # a second CQE without re-arming delivers nothing
        self._push(node)
        assert node.channel.get_event(timeout=0.05) is None

    def test_unarmed_insert_delivers_nothing(self, registry, fabric):
        node = self._armed_node(registry, fabric)
        self._push(node)
        assert node.channel.get_event(timeout=0.05) is None

    def test_arming_twice_is_one_delivery(self, registry, fabric):
        node = self._armed_node(registry, fabric)
        node.cq.req_notify()
        node.cq.req_notify()
        self._push(node)
        assert node.channel.get_event(timeout=1) is node.cq
        assert node.channel.get_event(timeout=0.05) is None

    def test_two_notifications_two_returns(self, registry, fabric):
        node = self._armed_node(registry, fabric)
        for _ in range(2):
            node.cq.req_notify()
            self._push(node)
        assert node.channel.get_event(timeout=1) is node.cq
        assert node.channel.get_event(timeout=1) is node.cq
        assert node.cq.unacked_events == 2

    def test_a_zero_timeout_wait_only_looks(self, registry, fabric,
                                            monkeypatch):
        # the event-mode pingpong asks for an event with a zero timeout
        # on every pass: Condition.wait_for would wait on the condition
        # once even then
        node = Node(registry, fabric, channel=True)
        waits = []
        wait = threading.Condition.wait
        monkeypatch.setattr(threading.Condition, "wait",
                            lambda cond, timeout=None: waits.append(timeout)
                            or wait(cond, timeout))
        assert node.channel.get_event(timeout=0) is None
        assert node.cq.wait_for_completion(timeout=0) is False
        node.cq.req_notify()
        self._push(node)
        assert node.channel.get_event(timeout=0) is node.cq
        assert node.cq.wait_for_completion(timeout=0) is True
        assert waits == []

    def test_req_notify_without_channel_fails(self, registry, fabric):
        node = Node(registry, fabric)
        with pytest.raises(VerbsError):
            node.cq.req_notify()

    def test_destroy_unblocks_waiter_with_error(self, registry, fabric):
        node = Node(registry, fabric, channel=True)
        caught = []

        def waiter():
            try:
                node.channel.get_event()
            except VerbsError as exc:
                caught.append(exc)

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        time.sleep(0.05)
        node.qp.destroy()
        node.cq.destroy()  # drop the CQ so the channel can go
        node.channel.destroy()
        t.join(timeout=2)
        assert not t.is_alive()
        assert caught


class TestAckEvents:
    def test_ack_all(self, registry, fabric):
        node = Node(registry, fabric, channel=True)
        node.cq.unacked_events = 3
        node.cq.ack_events(3)
        assert node.cq.unacked_events == 0

    def test_over_ack_is_an_error(self, registry, fabric):
        node = Node(registry, fabric, channel=True)
        node.cq.unacked_events = 1
        with pytest.raises(VerbsError):
            node.cq.ack_events(2)

    def test_destroy_blocks_until_acked(self, registry, fabric):
        node = Node(registry, fabric, channel=True)
        node.qp.destroy()
        node.cq.unacked_events = 1
        done = threading.Event()

        def destroyer():
            node.cq.destroy()
            done.set()

        t = threading.Thread(target=destroyer)
        t.start()
        time.sleep(0.05)
        assert not done.is_set()  # still waiting on the ack
        node.cq.ack_events(1)
        t.join(timeout=2)
        assert done.is_set()


class TestCqOverflow:
    def test_overflow_latches_error_through_real_traffic(self, registry,
                                                         fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric, cq_capacity=3)
        connect_pair(a, b)
        for i in range(4):
            b.post_recv(i)
        for i in range(4):
            a.post_send(100 + i, bytes([i]) * 64)
        fabric.run_until_idle()
        from softverbs.verbs import CqState
        assert b.cq.state is CqState.ERROR
        with pytest.raises(CompletionQueueError):
            b.cq.poll(1)

    def test_a_completion_after_the_latch_is_dropped(self, registry, fabric):
        # three signaled sends into a CQ of capacity 1: the first fills
        # it, the second latches it, and the third is dropped unseen
        a = Node(registry, fabric, cq_capacity=1)
        b = Node(registry, fabric)
        connect_pair(a, b)
        for i in range(3):
            b.post_recv(i)
        for i in range(3):
            a.post_send(100 + i, bytes([i]) * 64)
        fabric.run_until_idle()
        from softverbs.verbs import CqState
        assert a.cq.state is CqState.ERROR
        assert [wc.wr_id for wc in a.cq.entries] == [100]
        assert [wc.wr_id for wc in b.cq.poll(4)] == [0, 1, 2]


class TestConcurrentPollers:
    def test_two_pollers_receive_disjoint_entries(self, registry, fabric):
        n = 40
        a = Node(registry, fabric, max_send_wr=n)
        b = Node(registry, fabric, max_recv_wr=n)
        connect_pair(a, b)
        for i in range(n):
            b.post_recv(i, off=i * 64, length=64)
        for i in range(n):
            a.post_send(100 + i, bytes([i]) * 64, off=i * 64)
        fabric.run_until_idle()
        buckets = ([], [])
        import threading

        def drain(bucket):
            while True:
                got = b.cq.poll(3)
                if not got:
                    return
                bucket.extend(got)

        threads = [threading.Thread(target=drain, args=(bucket,))
                   for bucket in buckets]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        ids = [wc.wr_id for wc in buckets[0] + buckets[1]]
        assert sorted(ids) == list(range(n))  # disjoint, nothing lost


class TestSendChain:
    def test_chained_sends_post_in_order(self, registry, fabric):
        from conftest import Node, connect_pair
        a = Node(registry, fabric, max_send_wr=2)
        b = Node(registry, fabric)
        connect_pair(a, b)
        b.post_recv(1)
        b.post_recv(2)
        a.buf.data[0:4] = b"one!"
        a.buf.data[4:8] = b"two!"
        second = SendWorkRequest(12, [a.sge(4, 4)])
        first = SendWorkRequest(11, [a.sge(0, 4)], next=second)
        a.qp.post_send(first)
        fabric.run_until_idle()
        assert [wc.wr_id for wc in a.cq.poll(4)] == [11, 12]
        assert [wc.wr_id for wc in b.cq.poll(4)] == [1, 2]


class TestSendScatterReuse:
    """post_send resolves each WR's scatter list as it stands when the
    WR is posted: a list changed in place or an MR deregistered since
    the last post is seen."""

    def test_a_list_changed_in_place_is_resolved_again(self, pair, fabric):
        a, b = pair
        b.post_recv(1, length=8)
        b.post_recv(2, off=8, length=8)
        a.buf.data[0:4], a.buf.data[64:68] = b"head", b"tail"
        wr = SendWorkRequest(1, [a.sge(0, 4)])
        a.qp.post_send(wr)
        wr.sg_list[0] = a.sge(64, 4)
        a.qp.post_send(wr)
        fabric.run_until_idle()
        assert (b.read(0, 4), b.read(8, 4)) == (b"head", b"tail")

    def test_a_deregistered_mr_fails_at_its_chain_index(self, registry,
                                                        fabric):
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b)
        other = a.pd.reg_mr(a.context.alloc_buffer(64), 64,
                            AccessFlags.LOCAL_WRITE)
        sge = ScatterGatherElement(other.base, 64, other.lkey)
        b.post_recv(1)
        a.qp.post_send(SendWorkRequest(1, [sge]))  # keeps sge's slots
        other.dereg()
        with pytest.raises(BadWorkRequestError) as err:
            a.qp.post_send(SendWorkRequest(2, [sge]))
        assert err.value.index == 0
        assert "unknown lkey" in err.value.reason
        chain = SendWorkRequest(3, [a.sge(0, 8)],
                                next=SendWorkRequest(4, [sge]))
        with pytest.raises(BadWorkRequestError) as err:
            a.qp.post_send(chain)
        assert err.value.index == 1
        assert "unknown lkey" in err.value.reason
        assert [w.wr_id for w in a.qp.send_queue] == [1, 3]


class TestWqeCqeAccounting:
    def test_every_wqe_yields_exactly_one_cqe(self, registry, fabric):
        a = Node(registry, fabric, max_send_wr=16)
        b = Node(registry, fabric, max_recv_wr=16)
        connect_pair(a, b)
        for i in range(10):
            b.post_recv(1000 + i, off=i * 512, length=512)
        for i in range(10):
            a.post_send(2000 + i, bytes([i]) * 512, off=i * 512)
        fabric.run_until_idle()
        recv_ids = [wc.wr_id for wc in b.cq.poll(32)]
        send_ids = [wc.wr_id for wc in a.cq.poll(32)]
        assert recv_ids == [1000 + i for i in range(10)]
        assert send_ids == [2000 + i for i in range(10)]
        # nothing left over
        assert b.cq.poll(1) == [] and a.cq.poll(1) == []

    def test_every_cqe_is_a_whole_completion_entry(self, pair, fabric):
        # each path builds its CQE from all four fields
        a, b = pair
        b.post_recv(1)
        b.post_recv(2)
        a.post_send(3, b"abc")
        fabric.run_until_idle()
        fabric.drop_filter = lambda frame: True
        a.post_send(4, b"lost")  # still in flight when the QP fails
        for qp in (a.qp, b.qp):
            qp.modify(ModifyAttributes(state=QpState.ERR), AttrMask.STATE)
        wcs = a.cq.poll(4) + b.cq.poll(4)
        assert all(type(wc) is CompletionEntry for wc in wcs)
        assert [tuple(wc) for wc in wcs] == [
            (3, WcStatus.SUCCESS, WcOpcode.SEND, 0),
            (4, WcStatus.WR_FLUSHED, WcOpcode.SEND, 0),
            (1, WcStatus.SUCCESS, WcOpcode.RECV, 3),
            (2, WcStatus.WR_FLUSHED, WcOpcode.RECV, 0)]
