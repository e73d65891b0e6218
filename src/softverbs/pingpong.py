"""The pingpong benchmark: resource setup, connect, send/recv loop, report.

Two processes (or, on the loopback fabric, two roles taking turns on one
thread) bounce a fixed-size message back and forth. The client owns the
first send; each side posts a window of receives up front and reposts
when the pool runs low, so the peer never catches an empty receive queue.
"""

from __future__ import annotations

import ipaddress
import random
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from . import verbs
from .fabric import LoopbackFabric
from .oob import DEFAULT_PORT, Destination, exchange_as_client, exchange_as_server
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
    VerbsError,
    WcStatus,
)

RECV_WRID = 1
SEND_WRID = 2

CLIENT_FILL = 0x7B  # server buffers start one higher


class PingpongError(Exception):
    pass


@dataclass
class PingpongConfig:
    server_host: Optional[str] = None  # absent means server role
    oob_port: int = DEFAULT_PORT
    ib_port: int = 1
    size: int = 4096
    rx_depth: int = 500
    iters: int = 1000
    use_event: bool = False
    sl: int = 0
    mtu: int = 1024
    gid_index: Optional[int] = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.rx_depth < 1:
            raise ValueError("rx_depth must be >= 1")

    @property
    def is_server(self) -> bool:
        return self.server_host is None


@dataclass
class RunStats:
    bytes_total: int
    elapsed: float
    iters: int


@dataclass
class PingpongContext:
    context: verbs.DeviceContext
    channel: Optional[verbs.CompletionChannel]
    pd: verbs.ProtectionDomain
    mr: verbs.MemoryRegion
    cq: verbs.CompletionQueue
    qp: verbs.QueuePair
    buf: verbs.Buffer
    size: int
    rx_depth: int
    routs: int = 0
    pending: int = 0
    portinfo: Optional[verbs.PortAttributes] = None
    # instrumentation: final counters and flow-control checkpoints
    rcnt: int = 0
    scnt: int = 0
    min_routs: Optional[int] = None
    reposts: list[tuple[int, int]] = field(default_factory=list)


def init_context(registry: verbs.DeviceRegistry,
                 cfg: PingpongConfig) -> PingpongContext:
    """Allocate the whole resource chain and park the QP in INIT."""
    devices = registry.get_device_list()
    if not devices:
        raise PingpongError("No IB devices found")
    try:
        context = registry.open_device(devices[0])
    except VerbsError as exc:
        raise PingpongError(
            f"Couldn't get context for {devices[0].name}") from exc
    try:
        buf = context.alloc_buffer(cfg.size, align=verbs.PAGE_SIZE)
    except VerbsError as exc:
        raise PingpongError("Couldn't allocate work buf.") from exc
    buf.fill(CLIENT_FILL + (1 if cfg.is_server else 0))
    channel = context.create_channel() if cfg.use_event else None
    try:
        pd = context.alloc_pd()
    except VerbsError as exc:
        raise PingpongError("Couldn't allocate PD") from exc
    try:
        mr = pd.reg_mr(buf, cfg.size, AccessFlags.LOCAL_WRITE)
    except VerbsError as exc:
        raise PingpongError("Couldn't register MR") from exc
    try:
        cq = context.create_cq(cfg.rx_depth + 1, None, channel, 0)
    except VerbsError as exc:
        raise PingpongError("Couldn't create CQ") from exc
    try:
        qp = pd.create_qp(cq, cq, QueueCaps(1, cfg.rx_depth, 1, 1), QpType.RC)
    except VerbsError as exc:
        raise PingpongError("Couldn't create QP") from exc
    try:
        qp.modify(ModifyAttributes(state=QpState.INIT, pkey_index=0,
                                   port_num=cfg.ib_port,
                                   qp_access_flags=AccessFlags(0)),
                  AttrMask.STATE | AttrMask.PKEY_INDEX | AttrMask.PORT |
                  AttrMask.ACCESS_FLAGS)
    except VerbsError as exc:
        raise PingpongError("Failed to modify QP to INIT") from exc
    return PingpongContext(context=context, channel=channel, pd=pd, mr=mr,
                           cq=cq, qp=qp, buf=buf, size=cfg.size,
                           rx_depth=cfg.rx_depth)


def post_receives(ctx: PingpongContext, n: int) -> int:
    """Post up to n one-SGE receives over the shared buffer; count posted."""
    sge = ScatterGatherElement(ctx.buf.base, ctx.size, ctx.mr.lkey)
    posted = 0
    for _ in range(n):
        try:
            ctx.qp.post_recv(ReceiveWorkRequest(RECV_WRID, [sge]))
        except VerbsError:
            break
        posted += 1
    return posted


def connect_ctx(ctx: PingpongContext, my_psn: int, dest: Destination,
                cfg: PingpongConfig) -> None:
    """Walk the QP to RTR then RTS against the exchanged destination."""
    ah = AddressHandle(dlid=dest.lid, sl=cfg.sl, src_path_bits=0,
                       port_num=cfg.ib_port,
                       is_global=any(dest.gid), dgid=dest.gid)
    try:
        ctx.qp.modify(
            ModifyAttributes(state=QpState.RTR, path_mtu=cfg.mtu,
                             dest_qp_num=dest.qpn, rq_psn=dest.psn,
                             max_dest_rd_atomic=1, min_rnr_timer=12, ah=ah),
            AttrMask.STATE | AttrMask.AV | AttrMask.PATH_MTU |
            AttrMask.DEST_QPN | AttrMask.RQ_PSN |
            AttrMask.MAX_DEST_RD_ATOMIC | AttrMask.MIN_RNR_TIMER)
    except VerbsError as exc:
        raise PingpongError("Failed to modify QP to RTR") from exc
    try:
        ctx.qp.modify(
            ModifyAttributes(state=QpState.RTS, timeout=14, retry_cnt=7,
                             rnr_retry=7, sq_psn=my_psn, max_rd_atomic=1),
            AttrMask.STATE | AttrMask.TIMEOUT | AttrMask.RETRY_CNT |
            AttrMask.RNR_RETRY | AttrMask.SQ_PSN | AttrMask.MAX_QP_RD_ATOMIC)
    except VerbsError as exc:
        raise PingpongError("Failed to modify QP to RTS") from exc


def _post_send(ctx: PingpongContext) -> None:
    sge = ScatterGatherElement(ctx.buf.base, ctx.size, ctx.mr.lkey)
    ctx.qp.post_send(SendWorkRequest(SEND_WRID, [sge]))


def _validate_first_recv(ctx: PingpongContext, byte_len: int) -> None:
    if byte_len != ctx.size:
        raise PingpongError(
            f"first message was {byte_len} bytes, expected {ctx.size}")
    data = bytes(ctx.buf.data)
    # both directions carry the client's fill pattern: the server's recv
    # lands in the shared buffer before its first send is snapshotted
    if data.count(CLIENT_FILL) != len(data):
        raise PingpongError("first message payload is corrupt")


def _exchanges(ctx: PingpongContext, cfg: PingpongConfig):
    """The send/recv loop with flow-control accounting, as a generator.

    Polls for up to two completions at a time, reposts receives when the
    pool would drop to one, and posts the next send once both
    outstanding kinds completed. Where it would block it yields what it
    waits on: the channel in event mode (resumed with the event's CQ),
    the CQ otherwise.
    """
    iters = cfg.iters
    scnt = rcnt = 0
    num_cq_events = 0
    validated = False
    start = time.monotonic()
    if not cfg.is_server:
        try:
            _post_send(ctx)
        except VerbsError as exc:
            raise PingpongError("Couldn't post send") from exc
        ctx.pending = RECV_WRID | SEND_WRID
    else:
        ctx.pending = RECV_WRID
    while rcnt < iters or scnt < iters:
        if cfg.use_event:
            cq = yield ctx.channel
            num_cq_events += 1
            if num_cq_events >= ctx.rx_depth:
                cq.ack_events(num_cq_events)
                num_cq_events = 0
            cq.req_notify()
        while True:
            try:
                wcs = ctx.cq.poll(2)
            except verbs.CompletionQueueError as exc:
                raise PingpongError(f"poll CQ failed: {exc}") from exc
            if wcs or cfg.use_event:
                break
            yield ctx.cq
        for wc in wcs:
            if wc.status is not WcStatus.SUCCESS:
                raise PingpongError(
                    f"Failed status {wc.status.value} for wr_id {wc.wr_id}")
            if wc.wr_id == SEND_WRID:
                scnt += 1
            elif wc.wr_id == RECV_WRID:
                if not validated:
                    _validate_first_recv(ctx, wc.byte_len)
                    validated = True
                ctx.routs -= 1
                if ctx.routs <= 1:
                    before = ctx.routs
                    ctx.routs += post_receives(ctx, ctx.rx_depth - ctx.routs)
                    ctx.reposts.append((before, ctx.routs))
                    if ctx.routs < ctx.rx_depth:
                        raise PingpongError(
                            f"Couldn't post receive ({ctx.routs})")
                rcnt += 1
            else:
                raise PingpongError(
                    f"Completion for unknown wr_id {wc.wr_id}")
            ctx.min_routs = ctx.routs if ctx.min_routs is None \
                else min(ctx.min_routs, ctx.routs)
            ctx.pending &= ~wc.wr_id
            if scnt < iters and not ctx.pending:
                try:
                    _post_send(ctx)
                except VerbsError as exc:
                    raise PingpongError("Couldn't post send") from exc
                ctx.pending = RECV_WRID | SEND_WRID
    elapsed = time.monotonic() - start
    if cfg.use_event and num_cq_events:
        ctx.cq.ack_events(num_cq_events)
    ctx.rcnt, ctx.scnt = rcnt, scnt
    return RunStats(bytes_total=2 * cfg.size * iters, elapsed=elapsed,
                    iters=iters)


def run_loop(ctx: PingpongContext, cfg: PingpongConfig,
             abort: Optional[threading.Event] = None) -> RunStats:
    """Drive ``_exchanges`` to the end, blocking on what it waits on;
    raise once ``abort`` is set while it waits."""
    loop = _exchanges(ctx, cfg)
    try:
        waiting = next(loop)
        while True:
            if abort is not None and abort.is_set():
                raise PingpongError("aborted while waiting for completions")
            if cfg.use_event:
                cq = waiting.get_event(timeout=10.0)
                if cq is not None:
                    waiting = loop.send(cq)
            elif waiting.wait_for_completion(timeout=0.25):
                waiting = loop.send(waiting)
    except StopIteration as done:
        return done.value


def format_gid(gid: bytes) -> str:
    return ipaddress.IPv6Address(gid).compressed


def format_destination(label: str, dest: Destination) -> str:
    return (f"  {label} LID 0x{dest.lid:04x}, QPN 0x{dest.qpn:06x}, "
            f"PSN 0x{dest.psn:06x}, GID {format_gid(dest.gid)}")


def report(stats: RunStats, mine: Destination, theirs: Destination) -> str:
    """The four-line summary: both addresses, throughput, latency."""
    secs = stats.elapsed
    rate = stats.bytes_total * 8 / (secs * 1e6) if secs > 0 else float("inf")
    usec = secs * 1e6 / stats.iters
    return "\n".join((
        format_destination("local address: ", mine),
        format_destination("remote address:", theirs),
        f"{stats.bytes_total} bytes in {secs:.2f} seconds = "
        f"{rate:.2f} Mbit/sec",
        f"{stats.iters} iters in {secs:.2f} seconds = {usec:.2f} usec/iter",
    ))


@dataclass
class NodeResult:
    stats: RunStats
    my_dest: Destination
    rem_dest: Destination
    report: str
    ctx: PingpongContext


def open_node(cfg: PingpongConfig, registry: verbs.DeviceRegistry, fabric,
              rng: random.Random) -> tuple[PingpongContext, Destination]:
    """The set-up half of a pingpong process: init, attach, post the
    receives and pick a PSN. Returns the context and its destination."""
    ctx = init_context(registry, cfg)
    fabric.attach(ctx.context, cfg.ib_port)
    ctx.routs = post_receives(ctx, ctx.rx_depth)
    if ctx.routs < ctx.rx_depth:
        raise PingpongError(f"Couldn't post receive ({ctx.routs})")
    if cfg.use_event:
        ctx.cq.req_notify()
    ctx.portinfo = ctx.context.query_port(cfg.ib_port)
    if ctx.portinfo.link_layer is verbs.LinkLayer.INFINIBAND and \
            not ctx.portinfo.lid:
        raise PingpongError("Couldn't get local LID")
    if cfg.gid_index is not None:
        gid = ctx.context.query_gid(cfg.ib_port, cfg.gid_index)
    else:
        gid = bytes(16)
    my_psn = rng.getrandbits(32) & 0xFFFFFF
    my_dest = Destination(lid=ctx.portinfo.lid, qpn=ctx.qp.qpn, psn=my_psn,
                          gid=gid)
    return ctx, my_dest


def run_node(cfg: PingpongConfig, registry: verbs.DeviceRegistry, fabric,
             rng: Optional[random.Random] = None,
             oob_ready: Optional[threading.Event] = None,
             abort: Optional[threading.Event] = None) -> NodeResult:
    """One pingpong process: set up, exchange, connect, loop, report.

    The server connects before it replies to the client, so the client's
    first message finds its QP in RTR."""
    ctx, my_dest = open_node(cfg, registry, fabric, rng or random.Random())

    def connect(rem_dest: Destination) -> None:
        connect_ctx(ctx, my_dest.psn, rem_dest, cfg)

    if cfg.is_server:
        rem_dest = exchange_as_server(cfg.oob_port, my_dest, ready=oob_ready,
                                      on_peer=connect)
    else:
        rem_dest = exchange_as_client(cfg.server_host, cfg.oob_port, my_dest)
        connect(rem_dest)
    stats = run_loop(ctx, cfg, abort=abort)
    return NodeResult(stats, my_dest, rem_dest,
                      report(stats, my_dest, rem_dest), ctx)


def cleanup_node(result: NodeResult) -> None:
    """Release the resource chain bottom-up."""
    ctx = result.ctx
    ctx.qp.destroy()
    ctx.cq.destroy()
    if ctx.channel is not None:
        ctx.channel.destroy()
    ctx.mr.dereg()
    ctx.pd.dealloc()
    ctx.context.close()


def _wake_value(waiting):
    """What a role waiting on ``waiting`` resumes with: the CQ of the
    channel's event, or the CQ once it has an entry; None while blocked."""
    if isinstance(waiting, verbs.CompletionChannel):
        return waiting.get_event(timeout=0) if waiting.pending else None
    if waiting.entries or waiting.state is verbs.CqState.ERROR:
        return waiting
    return None


def run_loopback_pair(base: PingpongConfig, faults=None,
                      seed: Optional[int] = None):
    """Run both pingpong roles on the calling thread over a loopback fabric.

    Returns (server NodeResult, client NodeResult, fabric). Each role is
    connected straight to the other's destination; their ``_exchanges``
    loops take turns, each resumed while what it waits on is ready, and
    then the fabric runs the events of the next timestamp: only a fabric
    event makes a waiting role ready. A lossless round trip costs two
    hops of virtual time. The run is deterministic for a given seed and
    fault profile.
    """
    registry = verbs.DeviceRegistry()
    registry.add_device("hca0")
    fabric = LoopbackFabric(faults=faults, registry=registry)
    cfgs = [replace(base, server_host=host) for host in (None, "127.0.0.1")]
    rng = random.Random(seed)
    ctxs, mine = zip(*(open_node(cfg, registry, fabric,
                                 random.Random(rng.getrandbits(64)))
                       for cfg in cfgs))
    theirs = mine[::-1]
    for cfg, ctx, me, peer in zip(cfgs, ctxs, mine, theirs):
        connect_ctx(ctx, me.psn, peer, cfg)
    loops = [_exchanges(ctx, cfg) for ctx, cfg in zip(ctxs, cfgs)]
    waits = [next(loop) for loop in loops]
    stats = {}
    while True:
        resumed = False
        for i, loop in enumerate(loops):
            while i not in stats:
                value = _wake_value(waits[i])
                if value is None:
                    break
                resumed = True
                try:
                    waits[i] = loop.send(value)
                except StopIteration as done:
                    stats[i] = done.value
        if len(stats) == len(loops):
            break
        if not fabric.jump() and not resumed:
            raise PingpongError(
                "both roles wait for completions and nothing is scheduled")
    server, client = (NodeResult(stats[i], mine[i], theirs[i],
                                 report(stats[i], mine[i], theirs[i]), ctxs[i])
                      for i in range(2))
    return server, client, fabric
