"""Two-node rig: one emulated host side per ``Node``, wired by
``connect_pair`` through RESET -> INIT -> RTR -> RTS, and ``free_port``
for the ports a socket test binds: TCP for the out-of-band exchange, UDP
for a socket fabric's port.

Shared by the test suite and the scripts that drive a fabric directly
(``scripts/fault_sweep.py``). ``connect_pair`` walks each QP with the
pingpong program's own ``to_init``, ``to_rtr`` and ``to_rts``, so a
test connects its QPs through the code the program runs.
"""

import socket

from .pingpong import to_init, to_rtr, to_rts
from .verbs import (
    AccessFlags,
    QpType,
    QueueCaps,
    ReceiveWorkRequest,
    ScatterGatherElement,
    SendWorkRequest,
)

_PORTS = iter(range(20000, 32768))  # below Linux's default ephemeral range


def free_port() -> int:
    """The next port below the ephemeral range that nothing has bound,
    over TCP or over UDP, so that either may take it.

    A port the kernel picks for a bind to port 0 lies in the ephemeral
    range, where any connect() can take it as its local port before the
    caller binds it, which fails with EADDRINUSE. Below that range only
    an explicit bind takes a port. Ports are handed out in turn, never
    twice in one process.
    """
    for port in _PORTS:
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as tcp, \
                    socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp:
                tcp.bind(("127.0.0.1", port))
                udp.bind(("127.0.0.1", port))
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


def connect_pair(a: Node, b: Node, *, psn_a=100, psn_b=200, **attrs):
    """Walk both QPs to RTS against each other. ``mtu`` and
    ``min_rnr_timer`` in ``attrs`` go to ``to_rtr`` and the rest to
    ``to_rts``; what is not given keeps the walk's own default, which is
    rc_pingpong.c's."""
    rtr = {k: attrs.pop(k) for k in ("mtu", "min_rnr_timer") if k in attrs}
    to_init(a.qp, a.port)
    to_init(b.qp, b.port)
    to_rtr(a.qp, b.lid, b.qp.qpn, psn_b, port=a.port, **rtr)
    to_rtr(b.qp, a.lid, a.qp.qpn, psn_a, port=b.port, **rtr)
    to_rts(a.qp, psn_a, **attrs)
    to_rts(b.qp, psn_b, **attrs)
