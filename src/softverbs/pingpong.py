"""The pingpong benchmark: resource setup, connect, send/recv loop, report.

Two processes (or, on the loopback fabric, two roles taking turns on one
thread) bounce a fixed-size message back and forth. The client owns the
first send; each side posts a window of receives up front and reposts
when the pool runs low, so the peer never catches an empty receive queue.
Where rc_pingpong.c loops one ``ibv_post_recv`` per WR, a window here is
one chained ``post_recv``, and it reports the same count of WRs posted.

One driver, ``run_loop``, runs every role, one (``run_node``) or both
(``run_loopback_pair``): the roles poll in turn, and when all of them
would block the fabric moves, as in libfabric's manual progress.
"""

from __future__ import annotations

import ipaddress
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional

from . import verbs
from .fabric import LoopbackFabric
from .oob import DEFAULT_PORT, Destination, exchange_as_client, exchange_as_server
from .verbs import (
    INIT_REQUIRED,
    RTR_REQUIRED,
    RTS_REQUIRED,
    AccessFlags,
    AddressHandle,
    BadWorkRequestError,
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

# made once, so that set-up makes no call into enum.py: building an
# IntFlag value is a Python-level call there
_NO_ACCESS = AccessFlags(0)
_SUCCESS = WcStatus.SUCCESS


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
        if not 1 <= self.oob_port <= 65535:
            raise ValueError(
                f"oob_port must be within 1-65535, got {self.oob_port}")

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
    # instrumentation: final counters and flow-control checkpoints
    rcnt: int = 0
    scnt: int = 0
    min_routs: Optional[int] = None
    reposts: list[tuple[int, int]] = field(default_factory=list)
    # one scatter list over the whole buffer, shared by every receive and
    # by the one send WR that each send posts again
    sg_list: list[ScatterGatherElement] = field(init=False)
    send_wr: SendWorkRequest = field(init=False)

    def __post_init__(self):
        self.sg_list = [
            ScatterGatherElement(self.buf.base, self.size, self.mr.lkey)]
        self.send_wr = SendWorkRequest(SEND_WRID, self.sg_list)


@contextmanager
def _or_fail(message: str):
    """A failed verbs step: raise ``message``, as rc_pingpong prints it,
    from the verbs error."""
    try:
        yield
    except VerbsError as exc:
        raise PingpongError(message) from exc


def to_init(qp: verbs.QueuePair, port: int = 1) -> None:
    """RESET -> INIT on ``port``, with no remote access, as rc_pingpong.c
    modifies it."""
    qp.modify(ModifyAttributes(state=QpState.INIT, pkey_index=0, port_num=port,
                               qp_access_flags=_NO_ACCESS), INIT_REQUIRED)


def to_rtr(qp: verbs.QueuePair, dlid: int, dest_qpn: int, rq_psn: int, *,
           mtu: int = PingpongConfig.mtu, min_rnr_timer: int = 12,
           port: int = 1, sl: int = 0, dgid: bytes = bytes(16)) -> None:
    """INIT -> RTR against the peer at ``dlid``/``dest_qpn``. A non-zero
    ``dgid`` makes the address handle global. rc_pingpong.c's
    min_rnr_timer 12 is 0.64 ms (ibv_modify_qp(3))."""
    ah = AddressHandle(dlid=dlid, sl=sl, port_num=port, is_global=any(dgid),
                       dgid=dgid)
    qp.modify(ModifyAttributes(
        state=QpState.RTR, path_mtu=mtu, dest_qp_num=dest_qpn, rq_psn=rq_psn,
        max_dest_rd_atomic=1, min_rnr_timer=min_rnr_timer, ah=ah),
        RTR_REQUIRED)


def to_rts(qp: verbs.QueuePair, sq_psn: int, *, timeout: int = 14,
           retry_cnt: int = 7, rnr_retry: int = 7) -> None:
    """RTR -> RTS. rc_pingpong.c's codes: timeout 14 is 67.1 ms, and
    rnr_retry 7 retries without limit (ibv_modify_qp(3))."""
    qp.modify(ModifyAttributes(
        state=QpState.RTS, timeout=timeout, retry_cnt=retry_cnt,
        rnr_retry=rnr_retry, sq_psn=sq_psn, max_rd_atomic=1), RTS_REQUIRED)


def init_context(registry: verbs.DeviceRegistry,
                 cfg: PingpongConfig) -> PingpongContext:
    """Allocate the whole resource chain and park the QP in INIT."""
    devices = registry.get_device_list()
    if not devices:
        raise PingpongError("No IB devices found")
    with _or_fail(f"Couldn't get context for {devices[0].name}"):
        context = registry.open_device(devices[0])
    with _or_fail("Couldn't allocate work buf."):
        buf = context.alloc_buffer(cfg.size, align=verbs.PAGE_SIZE)
    buf.fill(CLIENT_FILL + (1 if cfg.is_server else 0))
    channel = context.create_channel() if cfg.use_event else None
    with _or_fail("Couldn't allocate PD"):
        pd = context.alloc_pd()
    with _or_fail("Couldn't register MR"):
        mr = pd.reg_mr(buf, cfg.size, AccessFlags.LOCAL_WRITE)
    with _or_fail("Couldn't create CQ"):
        cq = context.create_cq(cfg.rx_depth + 1, None, channel, 0)
    with _or_fail("Couldn't create QP"):
        qp = pd.create_qp(cq, cq, QueueCaps(1, cfg.rx_depth, 1, 1), QpType.RC)
    with _or_fail("Failed to modify QP to INIT"):
        to_init(qp, cfg.ib_port)
    return PingpongContext(context=context, channel=channel, pd=pd, mr=mr,
                           cq=cq, qp=qp, buf=buf, size=cfg.size,
                           rx_depth=cfg.rx_depth)


def post_receives(ctx: PingpongContext, n: int) -> int:
    """Post up to n one-SGE receives over the shared buffer; count posted.

    rc_pingpong.c loops one ``ibv_post_recv`` per WR; here the n WRs go
    in as one chained ``post_recv``. The count is the same: a chain that
    fails at element i posted the i before it, and a post refused as a
    whole posted none.
    """
    if n < 1:
        return 0
    chain = None
    for _ in range(n):
        chain = ReceiveWorkRequest(RECV_WRID, ctx.sg_list, chain)
    try:
        ctx.qp.post_recv(chain)
    except BadWorkRequestError as exc:
        return exc.index
    except VerbsError:
        return 0
    return n


def connect_ctx(ctx: PingpongContext, my_psn: int, dest: Destination,
                cfg: PingpongConfig) -> None:
    """Walk the QP to RTR then RTS against the exchanged destination."""
    with _or_fail("Failed to modify QP to RTR"):
        to_rtr(ctx.qp, dest.lid, dest.qpn, dest.psn, mtu=cfg.mtu,
               port=cfg.ib_port, sl=cfg.sl, dgid=dest.gid)
    with _or_fail("Failed to modify QP to RTS"):
        to_rts(ctx.qp, my_psn)


def _post_send(ctx: PingpongContext) -> None:
    # post_send keeps only the WR's wr_id and flags, so one WR serves all
    try:
        ctx.qp.post_send(ctx.send_wr)
    except VerbsError as exc:
        raise PingpongError("Couldn't post send") from exc


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
    outstanding kinds completed. Where it would block it yields the
    bound verbs wait it would block in: the channel's ``wait_for_event``
    in event mode, the CQ's ``wait_for_completion`` otherwise. Resumed,
    it polls again: each role checks its own readiness.
    """
    iters = cfg.iters
    scnt = rcnt = 0
    num_cq_events = 0
    validated = False
    start = time.monotonic()
    if not cfg.is_server:
        _post_send(ctx)
        ctx.pending = RECV_WRID | SEND_WRID
    else:
        ctx.pending = RECV_WRID
    while rcnt < iters or scnt < iters:
        if cfg.use_event:
            while (cq := ctx.channel.get_event(timeout=0)) is None:
                yield ctx.channel.wait_for_event
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
            yield ctx.cq.wait_for_completion
        for wc in wcs:
            if wc.status is not _SUCCESS:
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
                _post_send(ctx)
                ctx.pending = RECV_WRID | SEND_WRID
    elapsed = time.monotonic() - start
    if cfg.use_event and num_cq_events:
        ctx.cq.ack_events(num_cq_events)
    ctx.rcnt, ctx.scnt = rcnt, scnt
    return RunStats(bytes_total=2 * cfg.size * iters, elapsed=elapsed,
                    iters=iters)


def run_loop(roles: list[tuple[PingpongContext, PingpongConfig]], fabric,
             abort: Optional[threading.Event] = None) -> list[RunStats]:
    """Drive each role's ``_exchanges`` to the end; return their stats.

    Each round resumes every unfinished role once, and each polls until
    it would block. Then every one of them waits, and the fabric moves
    (``fabric.progress``) in one of their waits. Raises once ``abort``
    is set while they wait, or when nothing is scheduled that could end
    the wait."""
    loops = [_exchanges(ctx, cfg) for ctx, cfg in roles]
    stats: list[Optional[RunStats]] = [None] * len(loops)
    while True:
        wait = None
        for i, loop in enumerate(loops):
            if stats[i] is None:
                try:
                    wait = next(loop)
                except StopIteration as done:
                    stats[i] = done.value
        if wait is None:
            return stats
        if abort is not None and abort.is_set():
            raise PingpongError("aborted while waiting for completions")
        if not fabric.progress(wait):
            raise PingpongError(
                "every role waits for completions and nothing is scheduled")


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
    portinfo = ctx.context.query_port(cfg.ib_port)
    if portinfo.link_layer is verbs.LinkLayer.INFINIBAND and not portinfo.lid:
        raise PingpongError("Couldn't get local LID")
    if cfg.gid_index is not None:
        with _or_fail(f"can't read sgid of index {cfg.gid_index}"):
            gid = ctx.context.query_gid(cfg.ib_port, cfg.gid_index)
    else:
        gid = bytes(16)
    my_psn = rng.getrandbits(32) & 0xFFFFFF
    my_dest = Destination(lid=portinfo.lid, qpn=ctx.qp.qpn, psn=my_psn,
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
    stats, = run_loop([(ctx, cfg)], fabric, abort=abort)
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


def run_loopback_pair(base: PingpongConfig, faults=None,
                      seed: Optional[int] = None):
    """Run both pingpong roles on the calling thread over a loopback fabric.

    Returns (server NodeResult, client NodeResult, fabric). Each role is
    connected straight to the other's destination, and ``run_loop``
    drives the two: each round both roles poll until they would block,
    then the fabric runs the events of the next timestamp, since only a
    fabric event makes a waiting role ready. A lossless round trip costs
    two hops of virtual time. The run is deterministic for a given seed
    and fault profile.
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
    stats = run_loop(list(zip(ctxs, cfgs)), fabric)
    server, client = (NodeResult(stats[i], mine[i], theirs[i],
                                 report(stats[i], mine[i], theirs[i]), ctxs[i])
                      for i in range(2))
    return server, client, fabric
