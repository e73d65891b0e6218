"""Two-node rig: one emulated host side per ``Node``, wired by
``connect_pair`` through RESET -> INIT -> RTR -> RTS, and ``free_port``
for the TCP ports a socket test binds.

Shared by the test suite and the scripts that drive a fabric directly
(``scripts/fault_sweep.py``); the pingpong program does its own set-up.
"""

import socket

from .verbs import (
    AccessFlags,
    AddressHandle,
    AttrMask,
    ModifyAttributes,
    QpState,
    QpType,
    QueueCaps,
    ReceiveWorkRequest,
    ScatterGatherElement,
    SendWorkRequest,
)

INIT_MASK = (AttrMask.STATE | AttrMask.PKEY_INDEX | AttrMask.PORT |
             AttrMask.ACCESS_FLAGS)
RTR_MASK = (AttrMask.STATE | AttrMask.AV | AttrMask.PATH_MTU |
            AttrMask.DEST_QPN | AttrMask.RQ_PSN |
            AttrMask.MAX_DEST_RD_ATOMIC | AttrMask.MIN_RNR_TIMER)
RTS_MASK = (AttrMask.STATE | AttrMask.TIMEOUT | AttrMask.RETRY_CNT |
            AttrMask.RNR_RETRY | AttrMask.SQ_PSN | AttrMask.MAX_QP_RD_ATOMIC)

_PORTS = iter(range(20000, 32768))  # below Linux's default ephemeral range


def free_port() -> int:
    """The next port below the ephemeral range that nothing has bound.

    A port the kernel picks for a bind to port 0 lies in the ephemeral
    range, where any connect() can take it as its local port before the
    caller binds it, which fails with EADDRINUSE. Below that range only
    an explicit bind takes a port. Ports are handed out in turn, never
    twice in one process.
    """
    for port in _PORTS:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
            try:
                s.bind(("127.0.0.1", port))
            except OSError:
                continue
            return port
    raise OSError("no free port left below the ephemeral range")


class Node:
    """One emulated host side: context, buffer, MR, CQ, and a QP."""

    def __init__(self, registry, fabric, *, size=65536, max_send_wr=8,
                 max_recv_wr=64, max_sge=4, cq_capacity=256, channel=False,
                 port=1, device=None):
        self.registry = registry
        self.fabric = fabric
        device = device or registry.get_device_list()[0]
        self.context = registry.open_device(device)
        self.lid = fabric.attach(self.context, port)
        self.port = port
        self.buf = self.context.alloc_buffer(size)
        self.pd = self.context.alloc_pd()
        self.mr = self.pd.reg_mr(self.buf, size, AccessFlags.LOCAL_WRITE)
        self.channel = self.context.create_channel() if channel else None
        self.cq = self.context.create_cq(cq_capacity, channel=self.channel)
        self.qp = self.pd.create_qp(
            self.cq, self.cq,
            QueueCaps(max_send_wr, max_recv_wr, max_sge, max_sge), QpType.RC)

    def sge(self, off=0, length=None):
        if length is None:
            length = len(self.buf) - off
        return ScatterGatherElement(self.buf.base + off, length, self.mr.lkey)

    def post_recv(self, wr_id, off=0, length=None):
        self.qp.post_recv(ReceiveWorkRequest(wr_id, [self.sge(off, length)]))

    def post_send(self, wr_id, data, off=0):
        self.buf.data[off:off + len(data)] = data
        self.qp.post_send(SendWorkRequest(
            wr_id, [self.sge(off, len(data))]))

    def read(self, off, length):
        return bytes(self.buf.data[off:off + length])


def to_init(qp, port=1):
    qp.modify(ModifyAttributes(state=QpState.INIT, pkey_index=0,
                               port_num=port,
                               qp_access_flags=AccessFlags(0)), INIT_MASK)


def to_rtr(qp, dlid, dest_qpn, rq_psn, *, mtu=1024, min_rnr_timer=12, port=1):
    qp.modify(ModifyAttributes(state=QpState.RTR, path_mtu=mtu,
                               dest_qp_num=dest_qpn, rq_psn=rq_psn,
                               max_dest_rd_atomic=1,
                               min_rnr_timer=min_rnr_timer,
                               ah=AddressHandle(dlid=dlid, port_num=port)),
              RTR_MASK)


def to_rts(qp, sq_psn, *, timeout=14, retry_cnt=7, rnr_retry=7):
    qp.modify(ModifyAttributes(state=QpState.RTS, timeout=timeout,
                               retry_cnt=retry_cnt, rnr_retry=rnr_retry,
                               sq_psn=sq_psn, max_rd_atomic=1), RTS_MASK)


def connect_pair(a: Node, b: Node, *, psn_a=100, psn_b=200, mtu=1024,
                 retry_cnt=7, rnr_retry=7, min_rnr_timer=12):
    to_init(a.qp, a.port)
    to_init(b.qp, b.port)
    to_rtr(a.qp, b.lid, b.qp.qpn, psn_b, mtu=mtu,
           min_rnr_timer=min_rnr_timer, port=a.port)
    to_rtr(b.qp, a.lid, a.qp.qpn, psn_a, mtu=mtu,
           min_rnr_timer=min_rnr_timer, port=b.port)
    to_rts(a.qp, psn_a, retry_cnt=retry_cnt, rnr_retry=rnr_retry)
    to_rts(b.qp, psn_b, retry_cnt=retry_cnt, rnr_retry=rnr_retry)
