import threading
import time
from functools import partial

import pytest

from conftest import Node, connect_pair, to_init
from softverbs.verbs import (
    AccessFlags,
    BadWorkRequestError,
    CompletionEntry,
    CompletionQueueError,
    DeviceRegistry,
    LinkLayer,
    PortState,
    QpState,
    QpType,
    QueueCaps,
    SendWorkRequest,
    VerbsError,
    WcOpcode,
    WcStatus,
)


class TestDevices:
    def test_singleton_registry(self):
        reg = DeviceRegistry()
        dev = reg.add_device("hca0")
        assert reg.get_device_list() == [dev]

    def test_empty_registry(self):
        assert DeviceRegistry().get_device_list() == []

    def test_two_devices_enumerated(self):
        reg = DeviceRegistry()
        for name in ("hca0", "hca1"):
            reg.add_device(name)
        devs = reg.get_device_list()
        assert len(devs) == 2
        assert len({d.name for d in devs}) == 2

    def test_duplicate_name_rejected(self):
        reg = DeviceRegistry()
        reg.add_device("hca0")
        with pytest.raises(VerbsError):
            reg.add_device("hca0")

    def test_open_device(self):
        reg = DeviceRegistry()
        dev = reg.add_device("hca0")
        ctx = reg.open_device(dev)
        assert ctx.device is dev and ctx.open

    def test_open_unregistered_device_fails(self):
        reg = DeviceRegistry()
        stray = DeviceRegistry().add_device("other")
        with pytest.raises(VerbsError):
            reg.open_device(stray)

    def test_two_contexts_have_independent_pd_handles(self):
        reg = DeviceRegistry()
        dev = reg.add_device("hca0")
        ctx1, ctx2 = reg.open_device(dev), reg.open_device(dev)
        h1 = [ctx1.alloc_pd().handle for _ in range(3)]
        h2 = [ctx2.alloc_pd().handle for _ in range(3)]
        assert h1 == h2 == [1, 2, 3]


class TestProtectionDomain:
    def test_alloc_gives_fresh_handles(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        pd1, pd2 = ctx.alloc_pd(), ctx.alloc_pd()
        assert pd1.handle != pd2.handle

    def test_alloc_on_closed_context_fails(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        ctx.close()
        with pytest.raises(VerbsError):
            ctx.alloc_pd()


class TestMemoryRegion:
    def test_register_pins_and_assigns_lkey(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        pd = ctx.alloc_pd()
        buf = ctx.alloc_buffer(4096)
        mr = pd.reg_mr(buf, 4096, AccessFlags.LOCAL_WRITE)
        assert mr.pinned and mr.lkey > 0 and mr.length == 4096

    def test_zero_length_rejected(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        pd = ctx.alloc_pd()
        buf = ctx.alloc_buffer(4096)
        with pytest.raises(VerbsError):
            pd.reg_mr(buf, 0, AccessFlags.LOCAL_WRITE)

    def test_undefined_access_bits_rejected(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        pd = ctx.alloc_pd()
        buf = ctx.alloc_buffer(64)
        with pytest.raises(VerbsError):
            pd.reg_mr(buf, 64, 1 << 9)

    def test_overlapping_registrations_both_usable(self, registry, fabric):
        # both lkeys over the same buffer must each carry completions
        a = Node(registry, fabric)
        b = Node(registry, fabric)
        connect_pair(a, b)
        mr2 = b.pd.reg_mr(b.buf, len(b.buf), AccessFlags.LOCAL_WRITE)
        assert mr2.lkey != b.mr.lkey
        from softverbs.verbs import ReceiveWorkRequest, ScatterGatherElement
        b.qp.post_recv(ReceiveWorkRequest(
            1, [ScatterGatherElement(b.buf.base, 4096, b.mr.lkey)]))
        b.qp.post_recv(ReceiveWorkRequest(
            2, [ScatterGatherElement(b.buf.base, 4096, mr2.lkey)]))
        a.post_send(11, b"m1" * 100)
        a.post_send(12, b"m2" * 100)
        fabric.run_until_idle()
        wcs = b.cq.poll(4)
        assert [wc.wr_id for wc in wcs] == [1, 2]
        assert all(wc.status is WcStatus.SUCCESS for wc in wcs)

    def test_lkeys_unique_over_many_registrations(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        pd = ctx.alloc_pd()
        buf = ctx.alloc_buffer(64)
        keys = [pd.reg_mr(buf, 64, AccessFlags.LOCAL_WRITE).lkey
                for _ in range(100)]
        assert len(set(keys)) == 100


class TestCompletionQueueCreate:
    def test_benchmark_default_capacity(self, registry):
        # rx_depth 500 plus one slot for the send completion
        ctx = registry.open_device(registry.get_device_list()[0])
        cq = ctx.create_cq(501)
        assert cq.capacity == 501 and not cq.entries

    def test_minimum_capacity(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        assert ctx.create_cq(1).capacity == 1

    def test_zero_capacity_rejected(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        with pytest.raises(VerbsError):
            ctx.create_cq(0)

    def test_nonzero_comp_vector_rejected(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        with pytest.raises(VerbsError):
            ctx.create_cq(8, comp_vector=1)

    def test_user_context_round_trips(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        token = object()
        assert ctx.create_cq(8, user_context=token).user_context is token


class TestCreateQp:
    def _ctx_pd_cq(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        return ctx, ctx.alloc_pd(), ctx.create_cq(501)

    def test_benchmark_caps_start_in_reset(self, registry):
        _, pd, cq = self._ctx_pd_cq(registry)
        qp = pd.create_qp(cq, cq, QueueCaps(1, 500, 1, 1), QpType.RC)
        assert qp.state is QpState.RESET
        assert not qp.send_queue and not qp.recv_queue

    def test_qpn_stable_and_counter_start(self, registry):
        _, pd, cq = self._ctx_pd_cq(registry)
        qp = pd.create_qp(cq, cq, QueueCaps(1, 1))
        assert qp.qpn == 0x580048
        assert qp.qpn == qp.qpn

    def test_qpns_unique_per_context(self, registry):
        _, pd, cq = self._ctx_pd_cq(registry)
        qpns = {pd.create_qp(cq, cq, QueueCaps(1, 1)).qpn for _ in range(50)}
        assert len(qpns) == 50

    def test_only_rc_supported(self, registry):
        _, pd, cq = self._ctx_pd_cq(registry)
        with pytest.raises(VerbsError):
            pd.create_qp(cq, cq, QueueCaps(1, 1), qp_type="UD")

    def test_cross_context_cq_rejected(self, registry):
        ctx1 = registry.open_device(registry.get_device_list()[0])
        ctx2 = registry.open_device(registry.get_device_list()[0])
        pd, foreign_cq = ctx1.alloc_pd(), ctx2.create_cq(8)
        with pytest.raises(VerbsError):
            pd.create_qp(foreign_cq, foreign_cq, QueueCaps(1, 1))

    def test_missing_cq_rejected(self, registry):
        _, pd, cq = self._ctx_pd_cq(registry)
        with pytest.raises(VerbsError):
            pd.create_qp(None, cq, QueueCaps(1, 1))

    def test_zero_caps_rejected(self, registry):
        _, pd, cq = self._ctx_pd_cq(registry)
        with pytest.raises(VerbsError):
            pd.create_qp(cq, cq, QueueCaps(0, 1))


class TestPorts:
    def test_attached_port_reports_lid(self, registry, fabric):
        ctx = registry.open_device(registry.get_device_list()[0])
        fabric.attach(ctx, 1)
        pa = ctx.query_port(1)
        assert pa.lid > 0
        assert pa.state is PortState.ACTIVE
        assert pa.link_layer is LinkLayer.INFINIBAND

    def test_unattached_port_has_zero_lid(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        assert ctx.query_port(1).lid == 0

    def test_a_detached_port_reads_down_and_a_new_attach_up(self, registry,
                                                          fabric):
        """The attachment is the port's one record: what ``query_port``
        reads follows ``attach`` and ``detach``."""
        ctx = registry.open_device(registry.get_device_list()[0])
        first = fabric.attach(ctx, 1)
        fabric.detach(ctx, 1)
        pa = ctx.query_port(1)
        assert (pa.lid, pa.state) == (0, PortState.DOWN)
        second = fabric.attach(ctx, 1)
        pa = ctx.query_port(1)
        assert (pa.lid, pa.state) == (second, PortState.ACTIVE)
        assert second != first

    def test_port_zero_rejected(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        with pytest.raises(VerbsError):
            ctx.query_port(0)

    def test_gid_index_zero_stable(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        gid = ctx.query_gid(1, 0)
        assert len(gid) == 16
        assert gid == ctx.query_gid(1, 0)
        assert gid[:2] == b"\xfe\x80"

    def test_gid_index_out_of_range(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        with pytest.raises(VerbsError):
            ctx.query_gid(1, 999)


class TestResourceTree:
    def test_close_with_live_children_rejected(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        pd = ctx.alloc_pd()
        with pytest.raises(VerbsError):
            ctx.close()
        pd.dealloc()
        ctx.close()
        assert not ctx.open
        ctx.close()  # a second close is a no-op
        assert not ctx.open

    def test_pd_dealloc_with_live_mr_rejected(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        pd = ctx.alloc_pd()
        mr = pd.reg_mr(ctx.alloc_buffer(64), 64, AccessFlags.LOCAL_WRITE)
        with pytest.raises(VerbsError):
            pd.dealloc()
        mr.dereg()
        assert not mr.pinned
        mr.dereg()  # a second dereg is a no-op
        assert not mr.pinned
        pd.dealloc()

    def test_cq_destroy_with_attached_qp_rejected(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        pd, cq = ctx.alloc_pd(), ctx.create_cq(8)
        qp = pd.create_qp(cq, cq, QueueCaps(1, 1))
        with pytest.raises(VerbsError):
            cq.destroy()
        qp.destroy()
        cq.destroy()


class TestCqErrorLatch:
    def test_push_past_capacity_latches_error(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        cq = ctx.create_cq(2)
        entry = CompletionEntry(1, WcStatus.SUCCESS, WcOpcode.RECV)
        cq._push(entry)
        cq._push(entry)
        cq._push(entry)  # over capacity: latch, discard
        from softverbs.verbs import CqState, CompletionQueueError
        assert cq.state is CqState.ERROR
        with pytest.raises(CompletionQueueError):
            cq.poll(1)
        # the latch never clears
        with pytest.raises(CompletionQueueError):
            cq.poll(1)

    def test_posts_report_error_state(self, registry, fabric):
        node = Node(registry, fabric, cq_capacity=1)
        to_init(node.qp)
        node.post_recv(1)
        entry = CompletionEntry(9, WcStatus.SUCCESS, WcOpcode.RECV)
        node.cq._push(entry)
        node.cq._push(entry)
        from softverbs.verbs import CompletionQueueError
        with pytest.raises(CompletionQueueError):
            node.post_recv(2)


class TestPoll:
    def test_completion_entry_is_an_immutable_tuple(self):
        wc = CompletionEntry(1, WcStatus.SUCCESS, WcOpcode.RECV)
        assert wc.byte_len == 0
        assert wc == (1, WcStatus.SUCCESS, WcOpcode.RECV, 0)
        with pytest.raises(AttributeError):
            wc.status = WcStatus.WR_FLUSHED

    def test_empty_poll_takes_no_lock(self, registry):
        ctx = registry.open_device(registry.get_device_list()[0])
        cq = ctx.create_cq(1)
        held, release = threading.Event(), threading.Event()

        def hold_the_world_lock():
            with ctx.lock:
                held.set()
                release.wait(2.0)

        holder = threading.Thread(target=hold_the_world_lock)
        holder.start()
        try:
            assert held.wait(2.0)
            start = time.monotonic()
            result = cq.poll(1)
            elapsed = time.monotonic() - start
        finally:
            release.set()
            holder.join(5.0)
        assert not holder.is_alive()
        assert result == []
        assert elapsed < 0.5
        # a CQ latched by overflow still raises
        entry = CompletionEntry(1, WcStatus.SUCCESS, WcOpcode.RECV)
        cq._push(entry)
        cq._push(entry)
        with pytest.raises(CompletionQueueError):
            cq.poll(1)


def _ctx(registry):
    return registry.open_device(registry.get_device_list()[0])


def _foreign_channel(registry, fabric):
    channel = _ctx(registry).create_channel()
    return lambda: _ctx(registry).create_cq(8, channel=channel)


def _mr_past_its_buffer(registry, fabric):
    ctx = _ctx(registry)
    pd, buf = ctx.alloc_pd(), ctx.alloc_buffer(64)
    return lambda: pd.reg_mr(buf, 65, AccessFlags.LOCAL_WRITE)


def _channel_in_use(registry, fabric):
    ctx = _ctx(registry)
    channel = ctx.create_channel()
    ctx.create_cq(8, channel=channel)
    return channel.destroy


def _empty_sge(registry, fabric):
    node = Node(registry, fabric)
    to_init(node.qp)
    return lambda: node.post_recv(1, length=0)


def _connected(registry, fabric, **kwargs):
    a, b = Node(registry, fabric, **kwargs), Node(registry, fabric)
    connect_pair(a, b)
    return a


def _send_cq_latched(registry, fabric):
    a = _connected(registry, fabric, cq_capacity=1)
    entry = CompletionEntry(1, WcStatus.SUCCESS, WcOpcode.RECV)
    a.cq._push(entry)
    a.cq._push(entry)  # over capacity: latched
    return lambda: a.post_send(1, b"x")


def _unsupported_opcode(registry, fabric):
    a = _connected(registry, fabric)
    return lambda: a.qp.post_send(
        SendWorkRequest(1, [a.sge(0, 8)], opcode="RDMA_WRITE"))


# each call the verbs refuse: a set-up that returns the refused call, the
# error it raises and the start of its message
REFUSED = {
    "alloc_buffer_0": (
        lambda registry, fabric: partial(_ctx(registry).alloc_buffer, 0),
        VerbsError, "buffer size must be positive"),
    "create_cq_foreign_channel": (
        _foreign_channel, VerbsError, "channel belongs to a different"),
    "query_gid_missing_port": (
        lambda registry, fabric: partial(_ctx(registry).query_gid, 2, 0),
        VerbsError, "no such port 2"),
    "reg_mr_past_its_buffer": (
        _mr_past_its_buffer, VerbsError, "mr length exceeds"),
    "destroy_channel_in_use": (
        _channel_in_use, VerbsError, "channel still referenced by a CQ"),
    "sge_of_length_0": (
        _empty_sge, BadWorkRequestError,
        "work request 0: SGE length must be positive"),
    "post_send_on_latched_cq": (
        _send_cq_latched, CompletionQueueError,
        "send CQ is in the error state"),
    "unsupported_opcode": (
        _unsupported_opcode, BadWorkRequestError,
        "work request 0: unsupported opcode"),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_a_refused_call_raises_its_error(registry, fabric, case):
    set_up, error, message = REFUSED[case]
    call = set_up(registry, fabric)
    with pytest.raises(error, match=f"^{message}"):
        call()
